"""Optimisation passes over the guess program of `translate_guess`.

Both passes tighten the guess program without changing the world views
that come out of the check phase: consistency constraints rule out
guesses that contradict their own answer set, and propagation fixes,
round by round, the auxiliary atoms one forward-chaining run decides.
`solve` runs both on the engine's own index (`stable._Part.guesses`).
"""

from __future__ import annotations

from .grounder import GroundProgram, _forward, simplify
from .syntax import Atom, KAtom, ObjLiteral, Rule, print_atom


def add_consistency_constraints(guess: GroundProgram,
                                mapping: dict[KAtom, Atom]) -> GroundProgram:
    """Forbid answer sets whose guessed beliefs contradict themselves.

    For each auxiliary atom the complement of its inner literal is
    constrained away: `:- aux_p, not p.`, `:- aux_not_p, p.`,
    `:- aux_sn_p, not -p.`, `:- aux_not_sn_p, -p.`.
    """
    constraints = []
    for katom in sorted(mapping, key=lambda k: print_atom(mapping[k])):
        aux = mapping[katom]
        inner = katom.inner
        complement = ObjLiteral(inner.atom, 1 if inner.negs == 0 else 0)
        constraints.append(Rule((), (ObjLiteral(aux, 0), complement)))
    return GroundProgram(guess.rules + tuple(constraints))


def wfm_propagate(guess: GroundProgram, mapping: dict[KAtom, Atom]) -> GroundProgram:
    """`guess` with the fact `aux.` of each auxiliary atom of `mapping`
    that one `_forward` run fixes, simplified.  The run adds `aux :- p.`
    for `&k{p}` and `aux :- not p.` for `&k{~p}` (p heads no live rule)
    and releases their heads in rounds; the facts come round by round,
    each round in order of (negation, printed inner atom)."""
    if guess.katoms:
        raise ValueError("simplify expects a subjective-free program")
    keys = sorted(mapping, key=lambda k: (k.inner.negs, print_atom(k.inner.atom)))
    number = dict(guess.number)  # an atom absent from `guess` gets a fresh number
    later = [((number.setdefault(mapping[k], len(number)),),
              ((k.inner.negs, number.setdefault(k.inner.atom, len(number))),), False) for k in keys]
    rounds = _forward(guess.numbered, len(number), [], later)[4]
    fixed = tuple(Rule((mapping[keys[j]],), ()) for batch in rounds for j in sorted(batch))
    return simplify(GroundProgram(guess.rules + fixed))
