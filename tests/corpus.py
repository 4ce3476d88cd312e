"""Seeded random program generators for differential tests.

The first two generators below produce small ground programs: plain
ones for exercising the answer-set engine and epistemic ones for
exercising the world-view solver.  The third produces safe programs
with variables for exercising the grounder.  Everything is driven by
a caller-supplied `random.Random` so failures replay from the seed.
"""

from __future__ import annotations

import random

from epiworld.syntax import (
    Atom,
    Const,
    KAtom,
    ObjLiteral,
    Program,
    Rule,
    SubjLiteral,
    Var,
)

_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l")


def random_ground_rules(rng: random.Random, max_atoms: int = 5,
                        max_rules: int = 6, choices: bool = True) -> list[Rule]:
    """Plain ground program: disjunction, both negations, choice rules."""
    n = rng.randint(1, max_atoms)
    pool = [Atom(nm, (), sg) for nm in _NAMES[:n] for sg in (False, True)]
    atoms = rng.sample(pool, rng.randint(1, min(n + 2, len(pool))))
    rules: list[Rule] = []
    for _ in range(rng.randint(1, max_rules)):
        if choices and rng.random() < 0.2:
            rules.append(Rule((rng.choice(atoms),), (), is_choice=True))
            continue
        head = tuple(rng.sample(atoms, rng.randint(0, min(2, len(atoms)))))
        body = tuple(ObjLiteral(rng.choice(atoms), rng.choice([0, 0, 1, 1, 2]))
                     for _ in range(rng.randint(0, 3)))
        if head or body:
            rules.append(Rule(head, body))
    if not rules:
        rules.append(Rule((atoms[0],), ()))
    return rules


def random_epistemic_program(rng: random.Random, max_atoms: int = 4,
                             max_rules: int | None = 5,
                             max_subjective: int = 4) -> Program:
    """Ground program mixing objective and subjective body literals.

    At most `max_subjective` distinct subjective atoms occur, so the
    candidate space stays enumerable.  A `max_rules` of None allows up
    to three rules per atom.
    """
    n = rng.randint(1, max_atoms)
    if max_rules is None:
        max_rules = 3 * n
    atoms = [Atom(nm, (), rng.random() < 0.15) for nm in _NAMES[:n]]
    kpool = [KAtom(ObjLiteral(rng.choice(atoms), rng.choice([0, 0, 1])))
             for _ in range(max_subjective)]
    rules: list[Rule] = []
    for _ in range(rng.randint(1, max_rules)):
        head = tuple(rng.sample(atoms, rng.randint(0, min(2, len(atoms)))))
        body = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.45:
                body.append(SubjLiteral(rng.choice(kpool), rng.random() < 0.5))
            else:
                body.append(ObjLiteral(rng.choice(atoms), rng.choice([0, 0, 1, 2])))
        if head or body:
            rules.append(Rule(head, tuple(body)))
    if not rules:
        rules.append(Rule((atoms[0],), ()))
    return Program(tuple(rules))


# Predicates of `random_safe_program`: q holds the facts most rules range
# over, p heads rules and is what most subjective literals ask about.
_P, _Q, _R, _S = ("p", 1), ("q", 1), ("r", 2), ("s", 2)
_PREDICATES = (_P, _Q, _R, _S)


def random_safe_program(rng: random.Random, max_rules: int = 5,
                        max_subjective: int = 2) -> Program:
    """Safe program with variables over at most three constants.

    Unary and binary predicates, no function symbols, both negations,
    disjunctive heads and at most `max_subjective` subjective literals,
    each over a unary predicate, so the cross product of the program
    has at most 3 * `max_subjective` ground subjective atoms.  Every
    variable of a rule occurs in one of its positive objective body
    literals.
    """
    consts = [Const(c) for c in _NAMES[:rng.randint(1, 3)]]
    variables = [Var("X"), Var("Y")]

    def atom(terms, predicates=_PREDICATES) -> Atom:
        name, arity = rng.choice(predicates)
        return Atom(name, tuple(rng.choice(terms) for _ in range(arity)))

    rules = [Rule((Atom("q", (c,)),), ()) for c in consts if rng.random() < 0.8]
    rules += [Rule((atom(consts),), ()) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.3:
        rules.append(Rule((atom(consts), atom(consts)), ()))
    subjective = 0
    for _ in range(rng.randint(1, max_rules)):
        positive = [Atom("q", (rng.choice(variables),)) if rng.random() < 0.6
                    else atom(consts + 2 * variables) for _ in range(rng.randint(1, 2))]
        # Bound variables weigh twice a constant.
        bound = consts + 2 * [v for v in variables
                              if any(v in a.args for a in positive)]
        body: list = [ObjLiteral(a) for a in positive]
        for _ in range(rng.randint(0, 2)):
            if subjective < max_subjective and rng.random() < 0.6:
                subjective += 1
                inner = ObjLiteral(atom(bound, (_P, _P, _P, _Q)), rng.choice([0, 0, 1]))
                body.append(SubjLiteral(KAtom(inner), rng.random() < 0.6))
            else:
                body.append(ObjLiteral(atom(bound), rng.choice([1, 1, 2])))
        rng.shuffle(body)
        head = tuple(atom(bound, rng.choice([(_P,), (_P,), (_R, _S)]))
                     for _ in range(rng.randint(0, 2)))
        rules.append(Rule(head, tuple(body)))
    return Program(tuple(rules))
