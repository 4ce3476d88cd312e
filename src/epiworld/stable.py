"""Ground answer-set engine.

`Engine` indexes a ground program once.  Interpretations are bitmasks
over its atom universe sorted by printed form, and results come back in
ascending bitmask order.  Subjective literals stay in the index as rule
guards over a separate bit space, so one index serves every valuation:
`Engine.parts` keeps the rules whose guard a valuation satisfies, splits
them into connected components and enumerates each component's answer
sets, and `Engine.answer_sets` and `Engine.consequences` fold the parts.
Inside a component a branch-and-propagate loop on an explicit stack
enumerates the assignments that survive unit propagation and support
checks; each one is kept if the minimality test, the same loop on the
reduct's clauses stopped at the first model, finds no smaller model.

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
from .syntax import Atom, AuxAtom, KAtom, SubjLiteral, print_atom


@dataclass(frozen=True)
class ConsequenceSets:
    cautious: frozenset[Atom]
    brave: frozenset[Atom]
    has_answer_set: bool


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


def _minimal(m: int, rules: list[tuple[int, int, int, int]]) -> bool:
    """Whether the model m of `rules` is minimal among the models of
    their reduct by m, that is whether m is an answer set."""
    clauses = [(head & m, pos) for head, pos, neg, negneg in rules
               if pos & m == pos and neg & m == 0 and negneg & m == negneg]
    clauses.append((0, m))  # rules out m itself
    return next(_models(clauses, {}, m), None) is None


def component_split(rules: list[tuple[int, int, int, int]]) -> list[tuple[int, list]]:
    """Group rules that share atoms, transitively, into components.

    Returns (atom mask, rules) pairs in ascending order of the lowest
    atom bit.  Rules without atoms (`:- .`) form a component with mask
    0, which comes first and has no model.
    """
    parent: dict[int, int] = {}

    def find(i: int) -> int:
        parent.setdefault(i, i)
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def lowest(mask: int) -> int:
        return (mask & -mask).bit_length() - 1

    for head, pos, neg, negneg in rules:
        rest = head | pos | neg | negneg
        root = find(lowest(rest))
        rest &= rest - 1
        while rest:
            other = find(lowest(rest))
            if other != root:
                parent[other] = root
            rest &= rest - 1
    masks: dict[int, int] = {}
    groups: dict[int, list[tuple[int, int, int, int]]] = {}
    for rm in rules:
        mask = rm[0] | rm[1] | rm[2] | rm[3]
        root = find(lowest(mask))
        masks[root] = masks.get(root, 0) | mask
        groups.setdefault(root, []).append(rm)
    return sorted(((masks[root], local) for root, local in groups.items()),
                  key=lambda part: part[0] & -part[0])


def component_masks(mask: int, rules: list[tuple[int, int, int, int]]) -> list[int]:
    """Sorted answer sets, as masks, of one component's rules."""
    clauses = [(head | neg, pos | negneg) for head, pos, neg, negneg in rules]
    supports: dict[int, list[tuple[int, int]]] = {}
    rest = mask
    while rest:
        b = rest & -rest
        supports[b] = []
        rest &= rest - 1
    for clause, rule in zip(clauses, rules):
        rest = rule[0]
        while rest:
            b = rest & -rest
            supports[b].append(clause)
            rest &= rest - 1
    return sorted(m for m in _models(clauses, supports, mask) if _minimal(m, rules))


def _complement_key(a: Atom) -> str:
    # The printed form of a with `n` prefixed to its name; the trailing
    # NUL sorts it right after a program atom printed the same way.
    printed = print_atom(a)
    return ("-n" + printed[1:] if a.strong_neg else "n" + printed) + "\0"


class Engine:
    """Bit index of a ground program, subjective literals included.

    Each rule is stored as its objective masks (head, pos, neg, negneg)
    beside a guard (kpos, kneg) over a separate bit space of subjective
    atoms: `&k{l}` sets a kpos bit, `not &k{l}` a kneg bit.  A valuation
    keeps the rules whose guard it satisfies, which are the rules
    `apply_valuation` keeps, so one index serves every candidate.
    """

    def __init__(self, program: GroundProgram):
        base: set[Atom] = set()
        choices: set[Atom] = set()
        katoms: set[KAtom] = set()
        for r in program.rules:
            base.update(r.head)
            for lit in r.body:
                if isinstance(lit, SubjLiteral):
                    katoms.add(lit.katom)
                else:
                    base.add(lit.atom)
            if r.is_choice:
                choices.add(r.head[0])

        # Per-component results, and so the order world views are
        # emitted in, follow the bit order, complement bits included.
        # An AuxAtom sorts right after a program atom printed the same
        # way, so set iteration order never decides between them.
        keyed = [((print_atom(a), isinstance(a, AuxAtom)), False, a) for a in base]
        keyed += [((_complement_key(a), isinstance(a, AuxAtom)), True, a) for a in choices]
        keyed.sort(key=itemgetter(0))
        self.bit: dict[Atom, int] = {}
        complement: dict[Atom, int] = {}
        for i, (_, is_complement, a) in enumerate(keyed):
            (complement if is_complement else self.bit)[a] = 1 << i
        self.base_mask = sum(self.bit.values())
        self.kbit = {k: 1 << i for i, k in enumerate(katoms)}

        self.rules: list[tuple[tuple[int, int, int, int], int, int]] = []
        for r in program.rules:
            if r.is_choice:
                a, na = self.bit[r.head[0]], complement[r.head[0]]
                self.rules += [((a, 0, na, 0), 0, 0), ((na, 0, a, 0), 0, 0)]
                continue
            head = pos = neg = negneg = kpos = kneg = 0
            for a in r.head:
                head |= self.bit[a]
            for lit in r.body:
                if isinstance(lit, SubjLiteral):
                    if lit.negated:
                        kneg |= self.kbit[lit.katom]
                    else:
                        kpos |= self.kbit[lit.katom]
                    continue
                b = self.bit[lit.atom]
                if lit.negs == 0:
                    pos |= b
                elif lit.negs == 1:
                    neg |= b
                else:
                    negneg |= b
            self.rules.append(((head, pos, neg, negneg), kpos, kneg))
        # a and -a never hold together: `:- a, -a.`
        for a, b in self.bit.items():
            if a.strong_neg:
                twin = self.bit.get(Atom(a.name, a.args, False))
                if twin:
                    self.rules.append(((0, b | twin, 0, 0), 0, 0))

    def parts(self, valuation: dict[KAtom, bool] | None = None) -> list[list[int]] | None:
        """Sorted answer-set masks of each component of the rules kept
        under `valuation`, or None when there is no answer set.

        `valuation` must give every subjective atom of the program a
        value; None stands for the empty one.
        """
        if valuation is None and self.kbit:
            raise ValueError("the program has subjective literals: its answer sets "
                             "depend on a valuation of them")
        known = sum(b for k, b in self.kbit.items() if valuation[k])
        unknown = ~known
        kept = [rm for rm, kpos, kneg in self.rules
                if not (kpos & unknown or kneg & known)]
        out = []
        for mask, local in component_split(kept):
            masks = component_masks(mask, local)
            if not masks:
                return None
            out.append(masks)
        return out

    def answer_sets(self, parts: list[list[int]] | None) -> list[frozenset[Atom]]:
        """All answer sets, one per choice of a mask from each part, in
        ascending order of the program-atom bitmask."""
        if parts is None:
            return []
        masks = [0]
        for comp in parts:
            masks = [m | c for m in masks for c in comp]
        masks.sort(key=lambda m: m & self.base_mask)
        return [self.to_interpretation(m) for m in masks]

    def consequences(self, parts: list[list[int]] | None) -> ConsequenceSets:
        """Cautious and brave consequences, folded part by part: an
        answer set is a union of one answer set per part, so
        intersections and unions distribute."""
        if parts is None:
            return ConsequenceSets(frozenset(), frozenset(), False)
        cautious = brave = 0
        for comp in parts:
            meet = comp[0]
            for m in comp:
                meet &= m
                brave |= m
            cautious |= meet
        return ConsequenceSets(self.to_interpretation(cautious),
                               self.to_interpretation(brave), True)

    def to_interpretation(self, m: int) -> frozenset[Atom]:
        return frozenset(a for a, b in self.bit.items() if b & m)


# ---------------------------------------------------------------------------
# Public operations


def answer_sets(program: GroundProgram) -> list[frozenset[Atom]]:
    """All answer sets, in ascending order of the universe bitmask.

    Interpretations containing a complementary pair a / -a are not
    answer sets.
    """
    eng = Engine(program)
    return eng.answer_sets(eng.parts())


def projected_answer_sets(program: GroundProgram, onto):
    """Distinct projections of the answer sets onto the given atoms.

    Projections are deduplicated per connected component and combined
    across components, which keeps the enumeration linear in the number
    of distinct projections instead of the number of answer sets.
    """
    eng = Engine(program)
    parts = eng.parts()
    if parts is None:
        return iter(())
    onto_mask = 0
    for a in onto:
        onto_mask |= eng.bit.get(a, 0)
    per_component = [[eng.to_interpretation(p) for p in dict.fromkeys(m & onto_mask for m in comp)]
                     for comp in parts]
    return (frozenset().union(*combo) for combo in itertools.product(*per_component))


def consequences(program: GroundProgram) -> ConsequenceSets:
    """Cautious and brave consequences (intersection and union of the
    answer sets)."""
    eng = Engine(program)
    return eng.consequences(eng.parts())
