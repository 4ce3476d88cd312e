"""The pass loop `epiworld.optimize.wfm_propagate` fixed auxiliary atoms
with before it ran forward chaining once, kept as the reference
`test_optimize.py` compares its listings against, and the `heads` view
of a ground program that the loop and criterion 08 read.

Each round simplifies the program, then fixes every pending auxiliary
atom whose `&k{p}` has p among the facts or whose `&k{~p}` has p
outside the heads, appends their facts in order of (negation, printed
inner atom), and simplifies again, until a round fixes nothing.  A
chain of n knowledge steps costs n rounds over the whole program.
"""

from __future__ import annotations

from epiworld.grounder import GroundProgram, simplify
from epiworld.syntax import Atom, KAtom, Rule, print_atom


def heads(program: GroundProgram) -> frozenset[Atom]:
    """The atoms that head some rule of `program`, choice rules included."""
    return frozenset(a for r in program.rules for a in r.head)


def wfm_propagate(guess: GroundProgram, mapping: dict[KAtom, Atom],
                  rounds: list | None = None) -> GroundProgram:
    """The loop's listing; each round's facts are appended to `rounds`."""
    pending = {(k.inner.atom, k.inner.negs): aux for k, aux in mapping.items()}
    program = simplify(guess)
    while True:
        facts, found = program.facts, heads(program)
        fixed = [(p, negs) for p, negs in pending
                 if (p not in found if negs else p in facts)]
        if not fixed:
            return program
        fixed.sort(key=lambda key: (key[1], print_atom(key[0])))
        additions = tuple(Rule((pending.pop(key),), ()) for key in fixed)
        if rounds is not None:
            rounds.append(additions)
        program = simplify(GroundProgram(program.rules + additions))
