"""The pass loop `epiworld.grounder.simplify` rewrote ground programs
with before it ran the engine's forward chaining once, kept as the
reference `test_grounder.py` compares its listings against.

Each pass recomputes the facts F and the heads H of the rules, then
rewrites every rule once: a body literal over an atom in F, or over an
atom outside H, holds or fails (`a` and `not not a` hold for a in F and
fail for a outside H, `not a` the other way round).  Rules with a
failing literal are dropped, holding literals are removed from the
bodies, and a choice rule whose atom is a fact is dropped.  The passes
repeat until nothing changes, so a derivation chain of n steps costs n
passes over the whole program.
"""

from __future__ import annotations

from epiworld.grounder import GroundProgram
from epiworld.syntax import ObjLiteral, Rule, SubjLiteral


def simplify(program: GroundProgram) -> GroundProgram:
    rules = list(program.rules)
    while True:
        facts = {r.head[0] for r in rules if not r.is_choice and len(r.head) == 1 and not r.body}
        heads = {a for r in rules for a in r.head}
        out: list[Rule] = []
        for r in rules:
            if r.is_choice:
                if r.head[0] not in facts:
                    out.append(r)
                continue
            body: list[ObjLiteral] = []
            for lit in r.body:
                if isinstance(lit, SubjLiteral):
                    raise ValueError("simplify expects a subjective-free program")
                holds, fails = lit.atom in facts, lit.atom not in heads
                if lit.negs == 1:
                    holds, fails = fails, holds
                if fails:
                    break
                if not holds:
                    body.append(lit)
            else:
                out.append(r if len(body) == len(r.body) else Rule(r.head, tuple(body)))
        if out == rules:
            return GroundProgram(out)
        rules = out
