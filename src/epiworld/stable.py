"""Ground answer-set engine.

Interpretations are bitmasks over the program's atom universe sorted by
printed form, and results come back in ascending bitmask order.  One
search computes them: the atom graph is split into connected components,
and inside each a branch-and-propagate loop on an explicit stack
enumerates the assignments that survive unit propagation and support
checks; each one is kept if the minimality test accepts it.  The
minimality test runs the same loop on the reduct's clauses and stops at
the first model.

A choice rule `{a}` becomes `a :- not a'.` and `a' :- not a.` over a
complement bit a' that has no atom: no program atom can collide with
it, and it never shows up in returned interpretations, consequence sets,
or projections.  It takes the position in the sort that the printed form
of a with `n` prefixed to its name would take, after a program atom
printed the same way, which fixes the order of per-component results.
A complementary pair a / -a becomes the constraint `:- a, -a.`
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .grounder import GroundProgram
from .syntax import Atom, ObjLiteral, Rule, SubjLiteral, print_atom


@dataclass(frozen=True)
class ConsequenceSets:
    cautious: frozenset[Atom]
    brave: frozenset[Atom]
    has_answer_set: bool


def gl_reduct(program: GroundProgram, candidate: frozenset[Atom]) -> GroundProgram:
    """Positive program obtained by evaluating default negation.

    Rules with `not a` and a in the candidate (or `not not a` with a
    outside it) disappear; the others keep only their positive body.
    """
    out: list[Rule] = []
    for r in program.rules:
        if r.is_choice:
            raise ValueError("expand choice rules before taking a reduct")
        body: list[ObjLiteral] = []
        dead = False
        for lit in r.body:
            if isinstance(lit, SubjLiteral):
                raise ValueError("reduct expects a subjective-free program")
            if lit.negs == 0:
                body.append(lit)
            elif lit.negs == 1:
                if lit.atom in candidate:
                    dead = True
                    break
            else:
                if lit.atom not in candidate:
                    dead = True
                    break
        if not dead:
            out.append(Rule(r.head, tuple(body)))
    return GroundProgram(tuple(out))


# ---------------------------------------------------------------------------
# Search core


def _propagate(clauses: list[tuple[int, int]],
               supports: dict[int, list[tuple[int, int]]],
               scope: int, true_m: int, false_m: int) -> tuple[int, int] | None:
    """Close a partial assignment over `scope`; None on a conflict.

    A clause (p, n) holds once an atom of p is true or an atom of n is
    false; with one literal left open, that literal is set.  `supports`
    maps an atom bit to the clauses of the rules with it in the head.
    Such a rule stops supporting the atom once an atom of n is false or
    an atom of p other than the atom itself is true, that is once its
    body fails or another of its head atoms holds.  Each true atom of
    an answer set has a rule whose body holds and whose head holds only
    there, so an atom that no rule supports is set false.
    """
    while True:
        changed = False
        und = scope & ~(true_m | false_m)
        for p_mask, n_mask in clauses:
            if p_mask & true_m or n_mask & false_m:
                continue
            up = p_mask & und
            un = n_mask & und
            total = up | un
            if total == 0:
                return None
            if (total & (total - 1)) == 0 and (up == 0 or un == 0):
                if up:
                    true_m |= up
                else:
                    false_m |= un
                und = scope & ~(true_m | false_m)
                changed = True
        for b, rules in supports.items():
            if b & false_m:
                continue
            for p_mask, n_mask in rules:
                if not n_mask & false_m:
                    held = p_mask & true_m
                    if held == 0 or held == b:
                        break
            else:
                if b & true_m:
                    return None
                false_m |= b
                und = scope & ~(true_m | false_m)
                changed = True
        if not changed:
            return true_m, false_m


def _models(clauses: list[tuple[int, int]],
            supports: dict[int, list[tuple[int, int]]], scope: int):
    """Yield, as true-masks, every total assignment over `scope` that
    `_propagate` leaves without conflict.  Branches on the lowest open
    bit, false first."""
    stack = [(0, 0)]
    while stack:
        state = _propagate(clauses, supports, scope, *stack.pop())
        if state is None:
            continue
        true_m, false_m = state
        und = scope & ~(true_m | false_m)
        if und == 0:
            yield true_m
            continue
        b = und & -und
        stack.append((true_m | b, false_m))
        stack.append((true_m, false_m | b))


# ---------------------------------------------------------------------------
# Indexed engine


def _complement_key(a: Atom) -> str:
    # The printed form of a with `n` prefixed to its name; the trailing
    # NUL sorts it right after a program atom printed the same way.
    printed = print_atom(a)
    return ("-n" + printed[1:] if a.strong_neg else "n" + printed) + "\0"


class _Engine:
    def __init__(self, program: GroundProgram):
        base: set[Atom] = set()
        choices: set[Atom] = set()
        for r in program.rules:
            for lit in r.body:
                if isinstance(lit, SubjLiteral):
                    raise ValueError("the engine expects a subjective-free program")
            base.update(r.head)
            base.update(lit.atom for lit in r.body)
            if r.is_choice:
                choices.add(r.head[0])

        # Per-component results, and so the order world views are
        # emitted in, follow the bit order, complement bits included.
        keyed = [(print_atom(a), False, a) for a in base]
        keyed += [(_complement_key(a), True, a) for a in choices]
        keyed.sort(key=itemgetter(0))
        self.n = len(keyed)
        self.bit: dict[Atom, int] = {}
        complement: dict[Atom, int] = {}
        for i, (_, is_complement, a) in enumerate(keyed):
            (complement if is_complement else self.bit)[a] = 1 << i
        self.atoms = [a for _, is_complement, a in keyed if not is_complement]
        self.base_mask = 0
        for b in self.bit.values():
            self.base_mask |= b

        self.rules: list[tuple[int, int, int, int]] = []
        for r in program.rules:
            if r.is_choice:
                a, na = self.bit[r.head[0]], complement[r.head[0]]
                self.rules += [(a, 0, na, 0), (na, 0, a, 0)]
                continue
            head = pos = neg = negneg = 0
            for a in r.head:
                head |= self.bit[a]
            for lit in r.body:
                b = self.bit[lit.atom]
                if lit.negs == 0:
                    pos |= b
                elif lit.negs == 1:
                    neg |= b
                else:
                    negneg |= b
            self.rules.append((head, pos, neg, negneg))

        # `:- .` mentions no atom, so the component machinery never sees
        # it; flag it here and let the search entry points bail out.
        self.falsum = any(head | pos | neg | negneg == 0
                          for head, pos, neg, negneg in self.rules)
        # a and -a never hold together: `:- a, -a.`
        for a in self.atoms:
            if a.strong_neg:
                twin = self.bit.get(Atom(a.name, a.args, False))
                if twin:
                    self.rules.append((0, self.bit[a] | twin, 0, 0))

    def stable_search(self, m: int, rules: list[tuple[int, int, int, int]]) -> bool:
        red = []
        for head, pos, neg, negneg in rules:
            if pos & m == pos and neg & m == 0 and negneg & m == negneg and not head & m:
                return False
            if neg & m == 0 and negneg & m == negneg:
                red.append((head, pos))
        live = [(head & m, pos) for head, pos in red if pos & m == pos]
        if all((h & (h - 1)) == 0 for h, _ in live):
            # definite once restricted to m: minimal iff m is the least fixpoint
            least = 0
            changed = True
            while changed:
                changed = False
                for h, pos in live:
                    if pos & ~least == 0 and h & ~least:
                        least |= h
                        changed = True
            return least == m
        clauses = live + [(0, m)]  # the last clause rules out m itself
        return next(_models(clauses, {}, m), None) is None

    def component_split(self) -> list[tuple[int, list[tuple[int, int, int, int]]]]:
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        def union_mask(mask: int) -> None:
            first = -1
            while mask:
                b = mask & -mask
                i = b.bit_length() - 1
                if first < 0:
                    first = i
                else:
                    union(first, i)
                mask &= mask - 1

        for head, pos, neg, negneg in self.rules:
            union_mask(head | pos | neg | negneg)

        groups: dict[int, int] = {}
        for i in range(self.n):
            r = find(i)
            groups[r] = groups.get(r, 0) | (1 << i)
        comps = sorted(groups.values(), key=lambda mask: mask & -mask)
        out = []
        for mask in comps:
            local = [rm for rm in self.rules if (rm[0] | rm[1] | rm[2] | rm[3]) & mask]
            out.append((mask, local))
        return out

    def component_masks(self, mask: int, local_rules: list[tuple[int, int, int, int]]) -> list[int]:
        clauses = [(head | neg, pos | negneg) for head, pos, neg, negneg in local_rules]
        supports: dict[int, list[tuple[int, int]]] = {}
        rest = mask
        while rest:
            b = rest & -rest
            supports[b] = []
            rest &= rest - 1
        for clause, rule in zip(clauses, local_rules):
            rest = rule[0]
            while rest:
                b = rest & -rest
                supports[b].append(clause)
                rest &= rest - 1
        return sorted(m for m in _models(clauses, supports, mask)
                      if self.stable_search(m, local_rules))

    def search_masks(self) -> list[int]:
        if self.falsum:
            return []
        partial = [0]
        for mask, local in self.component_split():
            comp_masks = self.component_masks(mask, local)
            if not comp_masks:
                return []
            partial = [p | c for p in partial for c in comp_masks]
        return partial

    def to_interpretation(self, m: int) -> frozenset[Atom]:
        return frozenset(a for a in self.atoms if self.bit[a] & m)


# ---------------------------------------------------------------------------
# Public operations


def answer_sets(program: GroundProgram) -> list[frozenset[Atom]]:
    """All answer sets, in ascending order of the universe bitmask.

    Interpretations containing a complementary pair a / -a are not
    answer sets.
    """
    eng = _Engine(program)
    masks = eng.search_masks()
    masks.sort(key=lambda m: m & eng.base_mask)
    return [eng.to_interpretation(m) for m in masks]


def projected_answer_sets(program: GroundProgram, onto):
    """Distinct projections of the answer sets onto the given atoms.

    Projections are deduplicated per connected component and combined
    across components, which keeps the enumeration linear in the number
    of distinct projections instead of the number of answer sets.
    """
    onto = frozenset(onto)
    eng = _Engine(program)
    if eng.falsum:
        return iter(())
    per_component: list[list[frozenset[Atom]]] = []
    for mask, local in eng.component_split():
        comp_masks = eng.component_masks(mask, local)
        if not comp_masks:
            return iter(())
        seen: set[frozenset[Atom]] = set()
        projected: list[frozenset[Atom]] = []
        for m in comp_masks:
            p = frozenset(a for a in eng.to_interpretation(m) if a in onto)
            if p not in seen:
                seen.add(p)
                projected.append(p)
        per_component.append(projected)
    if not per_component:
        return iter((frozenset(),))

    def assemble():
        for combo in itertools.product(*per_component):
            merged: frozenset[Atom] = frozenset()
            for part in combo:
                merged |= part
            yield merged

    return assemble()


def consequences(program: GroundProgram) -> ConsequenceSets:
    """Cautious and brave consequences (intersection and union of the
    answer sets).

    Folded component by component: an answer set is a union of one
    answer set per component, so intersections and unions distribute.
    """
    eng = _Engine(program)
    if eng.falsum:
        return ConsequenceSets(frozenset(), frozenset(), False)
    cautious_mask = 0
    brave_mask = 0
    for mask, local in eng.component_split():
        comp_masks = eng.component_masks(mask, local)
        if not comp_masks:
            return ConsequenceSets(frozenset(), frozenset(), False)
        meet = comp_masks[0]
        join = 0
        for m in comp_masks:
            meet &= m
            join |= m
        cautious_mask |= meet
        brave_mask |= join
    return ConsequenceSets(eng.to_interpretation(cautious_mask),
                           eng.to_interpretation(brave_mask), True)


def project(models, onto) -> list[frozenset[Atom]]:
    """Restrict each interpretation to `onto`, dropping duplicates while
    keeping first-occurrence order."""
    onto = frozenset(onto)
    seen: set[frozenset[Atom]] = set()
    out: list[frozenset[Atom]] = []
    for m in models:
        r = m & onto
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out
