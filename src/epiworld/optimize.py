"""Optimisation passes over the guess program of `translate_guess`.

Both passes tighten the guess program without changing the world views
that come out of the check phase.  `solve` runs them on the engine's
own index instead (`stable._Part.guesses`).

Consistency constraints rule out guesses that contradict the candidate
answer set they appear in, such as believing `~p` in a world where p
holds.  The propagation pass closes the guess program under the
simplification fixpoint: whenever simplification proves an atom of some
`&k{p}` to be a fact (so p is a cautious consequence) or drops an atom
of some `&k{~p}` from the heads (so p is false everywhere), the matching
auxiliary atom is fixed true and simplification runs again.
"""

from __future__ import annotations

from .grounder import GroundProgram, simplify
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
    """Fix auxiliary atoms decided by the simplification fixpoint.

    Runs simplify, then repeatedly: every new fact p with `&k{p}` among
    the keys of `mapping` yields the fact `aux_p.`, every atom p of some
    `&k{~p}` that heads no rule yields `aux_not_p.`, and the program is
    simplified again.  Stops when a round fixes nothing.
    """
    # (atom p of l, 1 if l is `~p` else 0) to the auxiliary atom of &k{l}
    pending = {(k.inner.atom, k.inner.negs): aux for k, aux in mapping.items()}
    program = simplify(guess)
    while True:
        facts, heads = program.facts, program.heads
        fixed = [(p, negs) for p, negs in pending
                 if (p not in heads if negs else p in facts)]
        if not fixed:
            return program
        fixed.sort(key=lambda key: (key[1], print_atom(key[0])))
        additions = tuple(Rule((pending.pop(key),), ()) for key in fixed)
        program = simplify(GroundProgram(program.rules + additions))
