"""Variable instantiation and ground-program simplification.

`ground_program` substitutes every variable by the ground terms that
occur in the program; rules that are already ground pass through
unchanged.  `simplify` closes a ground program under the usual
fact/head rewrites until nothing changes; the result bounds the
well-founded consequences from both sides (its facts are cautious
consequences of the input, its heads cover the brave ones).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .syntax import (Atom, Compound, KAtom, ObjLiteral, Program, Rule,
                     SubjLiteral, Term, Var, print_rule, print_term)


class SafetyError(Exception):
    pass


class GroundingError(Exception):
    pass


# ---------------------------------------------------------------------------
# Variable bookkeeping


def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Compound):
        out: set[str] = set()
        for a in t.args:
            out |= term_vars(a)
        return out
    return set()


def atom_vars(a: Atom) -> set[str]:
    out: set[str] = set()
    for t in a.args:
        out |= term_vars(t)
    return out


def rule_vars(r: Rule) -> set[str]:
    out: set[str] = set()
    for a in r.head:
        out |= atom_vars(a)
    for lit in r.body:
        if isinstance(lit, ObjLiteral):
            out |= atom_vars(lit.atom)
        else:
            out |= atom_vars(lit.katom.inner.atom)
    return out


def safety_check(rule: Rule) -> None:
    """Every variable must occur in a positive objective body literal.

    Occurrences inside subjective atoms do not make a variable safe.
    """
    bound: set[str] = set()
    for lit in rule.body:
        if isinstance(lit, ObjLiteral) and lit.negs == 0:
            bound |= atom_vars(lit.atom)
    unsafe = sorted(rule_vars(rule) - bound)
    if unsafe:
        raise SafetyError(f"unsafe variable {unsafe[0]!r} in rule: {print_rule(rule)}")


def program_safety_check(program: Program) -> None:
    for r in program.rules:
        safety_check(r)


# ---------------------------------------------------------------------------
# Instantiation


@dataclass(frozen=True)
class GroundProgram:
    """A program without variables.

    The atom universe includes atoms that occur only inside subjective
    literals; heads count choice-rule heads; facts are single-atom
    heads with an empty body.
    """

    rules: tuple[Rule, ...]

    @cached_property
    def atoms(self) -> frozenset[Atom]:
        out: set[Atom] = set()
        for r in self.rules:
            out.update(r.head)
            for lit in r.body:
                if isinstance(lit, ObjLiteral):
                    out.add(lit.atom)
                else:
                    out.add(lit.katom.inner.atom)
        return frozenset(out)

    @cached_property
    def heads(self) -> frozenset[Atom]:
        out: set[Atom] = set()
        for r in self.rules:
            out.update(r.head)
        return frozenset(out)

    @cached_property
    def facts(self) -> frozenset[Atom]:
        return frozenset(r.head[0] for r in self.rules
                         if not r.is_choice and len(r.head) == 1 and not r.body)

    def text(self) -> str:
        return "".join(print_rule(r) + "\n" for r in self.rules)


def _collect_ground_terms(t: Term, out: set[Term]) -> None:
    if isinstance(t, Var):
        return
    if isinstance(t, Compound):
        if not term_vars(t):
            out.add(t)
        for a in t.args:
            _collect_ground_terms(a, out)
        return
    out.add(t)


def ground_terms(program: Program) -> list[Term]:
    """All ground terms (and ground subterms) occurring in the program."""
    out: set[Term] = set()

    def visit_atom(a: Atom) -> None:
        for t in a.args:
            _collect_ground_terms(t, out)

    for r in program.rules:
        for a in r.head:
            visit_atom(a)
        for lit in r.body:
            if isinstance(lit, ObjLiteral):
                visit_atom(lit.atom)
            else:
                visit_atom(lit.katom.inner.atom)
    return sorted(out, key=print_term)


def substitute_term(t: Term, sub: dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return sub[t.name]
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(substitute_term(a, sub) for a in t.args))
    return t


def substitute_atom(a: Atom, sub: dict[str, Term]) -> Atom:
    if not a.args:
        return a
    return type(a)(a.name, tuple(substitute_term(t, sub) for t in a.args), a.strong_neg)


def substitute_rule(r: Rule, sub: dict[str, Term]) -> Rule:
    head = tuple(substitute_atom(a, sub) for a in r.head)
    body: list = []
    for lit in r.body:
        if isinstance(lit, ObjLiteral):
            body.append(ObjLiteral(substitute_atom(lit.atom, sub), lit.negs))
        else:
            inner = lit.katom.inner
            body.append(SubjLiteral(
                KAtom(ObjLiteral(substitute_atom(inner.atom, sub), inner.negs)),
                lit.negated))
    return Rule(head, tuple(body), r.is_choice)


def ground_program(program: Program) -> GroundProgram:
    """Instantiate every rule over the program's ground terms.

    Ground rules are kept verbatim, so grounding is the identity on
    ground programs.
    """
    terms = ground_terms(program)
    out: list[Rule] = []
    for rule in program.rules:
        vs = sorted(rule_vars(rule))
        if not vs:
            out.append(rule)
            continue
        if not terms:
            raise GroundingError(
                f"rule uses variables but the program has no ground terms: {print_rule(rule)}")
        for combo in itertools.product(terms, repeat=len(vs)):
            out.append(substitute_rule(rule, dict(zip(vs, combo))))
    return GroundProgram(tuple(out))


# ---------------------------------------------------------------------------
# Simplification


def simplify(program: GroundProgram) -> GroundProgram:
    """Close the program under fact/head rewrites.

    Per pass, with F the current facts and H the current heads:
    rules with a positive body atom outside H are dropped, as are rules
    whose body contains `not a` with a in F or `not not a` with a
    outside H; body literals that became true (`a` with a in F, `not a`
    with a outside H, `not not a` with a in F) are removed; a choice
    rule whose atom is a fact is dropped.  Repeats until a fixpoint,
    so the result is idempotent and answer sets are preserved on the
    surviving atoms.
    """
    rules = list(program.rules)
    while True:
        current = GroundProgram(tuple(rules))
        facts, heads = current.facts, current.heads
        out: list[Rule] = []
        changed = False
        for r in rules:
            if r.is_choice:
                if r.head[0] in facts:
                    changed = True
                else:
                    out.append(r)
                continue
            body: list[ObjLiteral] = []
            dropped_literal = False
            dead = False
            for lit in r.body:
                if isinstance(lit, SubjLiteral):
                    raise ValueError("simplify expects a subjective-free program")
                a = lit.atom
                if lit.negs == 0:
                    if a in facts:
                        dropped_literal = True
                        continue
                    if a not in heads:
                        dead = True
                        break
                elif lit.negs == 1:
                    if a in facts:
                        dead = True
                        break
                    if a not in heads:
                        dropped_literal = True
                        continue
                else:
                    if a in facts:
                        dropped_literal = True
                        continue
                    if a not in heads:
                        dead = True
                        break
                body.append(lit)
            if dead:
                changed = True
                continue
            if dropped_literal:
                changed = True
                out.append(Rule(r.head, tuple(body)))
            else:
                out.append(r)
        rules = out
        if not changed:
            return GroundProgram(tuple(rules))
