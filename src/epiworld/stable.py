"""Ground answer-set engine.

`Engine` indexes a ground program once.  Interpretations are bitmasks
over its atom universe sorted by printed form, and results come back in
ascending bitmask order.  Subjective literals stay in the index as rule
guards over a separate bit space, so one index serves every valuation:
`Engine.parts` keeps the rules whose guard a valuation satisfies, splits
them into connected components and enumerates each component's answer
sets, and `Engine.answer_sets` and `Engine.consequences` fold the
components.  The index also splits the program once into independent
parts, which share no atom under any valuation, and `Engine.parts` can
take one such part at a time.  Both splits group rules with one
union-find over atom bits (`_group`); a rule's guard ties it to the
inner atoms of its subjective atoms only in the split into parts.  Inside a component a branch-and-propagate
loop on an explicit stack enumerates the assignments that survive unit
propagation and support checks; each one is kept if the minimality
test, the same loop on the reduct's clauses stopped at the first model,
finds no smaller model.

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


def _group(items, nodes: list[tuple[int, ...]], width: int):
    """Group `items` whose nodes meet, transitively, by union-find.

    The i-th item has the nodes nodes[i], ints below `width`.  Returns
    the groups keyed by a root node, in order of their first item, with
    the items without nodes under -1, and the function that maps a node
    to the key of its group.
    """
    parent = list(range(width))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ns in nodes:
        if ns:
            root = find(ns[0])
            for i in ns:
                other = find(i)
                if other != root:
                    parent[other] = root
    groups: dict[int, list] = {}
    for item, ns in zip(items, nodes):
        groups.setdefault(find(ns[0]) if ns else -1, []).append(item)
    return groups, find


def component_split(rules: list[tuple], width: int) -> list[tuple[int, list]]:
    """Group rules that share atoms, transitively, into components.

    Each rule is an `Engine` rule: its masks first and the bit indices
    of its atoms, all below `width`, last.  Returns (atom mask, masks of
    the rules) pairs in ascending order of the lowest atom bit.  Rules
    without atoms (`:- .`) form a component with mask 0, which comes
    first and has no model.
    """
    groups, _ = _group((rule[0] for rule in rules), [rule[-1] for rule in rules], width)
    out = []
    for local in groups.values():
        mask = 0
        for head, pos, neg, negneg in local:
            mask |= head | pos | neg | negneg
        out.append((mask, local))
    return sorted(out, key=lambda part: part[0] & -part[0])


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

    Each rule is stored as its objective masks (head, pos, neg, negneg),
    a guard (kpos, kneg) over a separate bit space of subjective atoms
    (`&k{l}` sets a kpos bit, `not &k{l}` a kneg bit) and the bit
    indices of its atoms.  A valuation keeps the rules whose guard it
    satisfies, which are the rules `apply_valuation` keeps, so one index
    serves every candidate.  The inner atom of every subjective atom
    has a bit, even if no rule mentions it outside `&k{}`.

    The index also splits the program once into independent parts,
    groups of rules that share no atom and no subjective atom whatever
    the valuation: a rule ties together every atom it uses and the
    inner atom of each subjective atom of its guard, so a subjective
    atom `&k{l}` lies in the part of the atom of l.  `part_rules[j]`
    holds the rules of part j and `part_of` maps each subjective atom
    to its part.  Rules without atoms or guard (`:- .`) form one part
    of their own.
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
                    base.add(lit.katom.inner.atom)
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
        # Atom to bit position; complement bits have no atom.
        self.index: dict[Atom, int] = {}
        complement: dict[Atom, int] = {}
        for i, (_, is_complement, a) in enumerate(keyed):
            (complement if is_complement else self.index)[a] = i
        index = self.index
        self.width = len(keyed)
        self.base_mask = sum(1 << i for i in index.values())
        self.kbit = kbit = {k: 1 << i for i, k in enumerate(katoms)}

        # (masks, kpos, kneg, atom indices)
        self.rules: list[tuple[tuple[int, int, int, int], int, int, tuple[int, ...]]] = []
        # The nodes that tie each rule into its part: its atoms and, for a
        # guarded rule, the inner atom of each subjective atom of its guard.
        ties: list[tuple[int, ...]] = []
        for r in program.rules:
            if r.is_choice:
                pair = index[r.head[0]], complement[r.head[0]]
                a, na = 1 << pair[0], 1 << pair[1]
                self.rules += [((a, 0, na, 0), 0, 0, pair), ((na, 0, a, 0), 0, 0, pair)]
                ties += [pair, pair]
                continue
            head = pos = neg = negneg = kpos = kneg = 0
            atoms: list[int] = []
            inner: tuple[int, ...] = ()
            for a in r.head:
                i = index[a]
                atoms.append(i)
                head |= 1 << i
            for lit in r.body:
                if isinstance(lit, SubjLiteral):
                    inner += (index[lit.katom.inner.atom],)
                    if lit.negated:
                        kneg |= kbit[lit.katom]
                    else:
                        kpos |= kbit[lit.katom]
                    continue
                i = index[lit.atom]
                atoms.append(i)
                b = 1 << i
                if lit.negs == 0:
                    pos |= b
                elif lit.negs == 1:
                    neg |= b
                else:
                    negneg |= b
            rule = ((head, pos, neg, negneg), kpos, kneg, tuple(atoms))
            self.rules.append(rule)
            ties.append(rule[3] + inner if inner else rule[3])
        # a and -a never hold together: `:- a, -a.`
        for a, i in index.items():
            if a.strong_neg:
                twin = index.get(Atom(a.name, a.args, False))
                if twin is not None:
                    self.rules.append(((0, (1 << i) | (1 << twin), 0, 0), 0, 0, (i, twin)))
                    ties.append(self.rules[-1][3])

        groups, find = _group(self.rules, ties, self.width)
        number = {r: j for j, r in enumerate(groups)}
        # With one part, share the rule list instead of copying it.
        self.part_rules: list[list] = [self.rules] if len(groups) == 1 else list(groups.values())
        self.part_of: dict[KAtom, int] = {k: number[find(index[k.inner.atom])] for k in kbit}

    def parts(self, valuation: dict[KAtom, bool] | None = None,
              part: int | None = None) -> list[list[int]] | None:
        """Sorted answer-set masks of each component of the rules kept
        under `valuation`, or None when there is no answer set.

        With `part`, only the rules of that independent part count.
        Subjective atoms missing from `valuation` count as false; None
        stands for the empty valuation and is refused when the program
        has subjective literals.
        """
        if valuation is None:
            if self.kbit:
                raise ValueError("the program has subjective literals: its answer sets "
                                 "depend on a valuation of them")
            valuation = {}
        known = 0
        for k, value in valuation.items():
            if value:
                known |= self.kbit[k]
        unknown = ~known
        rules = self.rules if part is None else self.part_rules[part]
        kept = [rule for rule in rules if not (rule[1] & unknown or rule[2] & known)]
        out = []
        for mask, local in component_split(kept, self.width):
            masks = component_masks(mask, local)
            if not masks:
                return None
            out.append(masks)
        return out

    def answer_sets(self, components: list[list[int]] | None) -> list[frozenset[Atom]]:
        """All answer sets, one per choice of a mask from each component,
        in ascending order of the program-atom bitmask."""
        if components is None:
            return []
        masks = [0]
        for comp in components:
            masks = [m | c for m in masks for c in comp]
        masks.sort(key=lambda m: m & self.base_mask)
        return [self.to_interpretation(m) for m in masks]

    def fold(self, components: list[list[int]]) -> tuple[int, int]:
        """Cautious and brave consequences as masks, folded component by
        component: an answer set is a union of one answer set per
        component, so intersections and unions distribute."""
        cautious = brave = 0
        for comp in components:
            meet = comp[0]
            for m in comp:
                meet &= m
                brave |= m
            cautious |= meet
        return cautious, brave

    def consequences(self, components: list[list[int]] | None) -> ConsequenceSets:
        """Cautious and brave consequences of the answer sets that
        `components`, a result of `parts`, describes."""
        if components is None:
            return ConsequenceSets(frozenset(), frozenset(), False)
        cautious, brave = self.fold(components)
        return ConsequenceSets(self.to_interpretation(cautious),
                               self.to_interpretation(brave), True)

    def to_interpretation(self, m: int) -> frozenset[Atom]:
        bits = format(m, f"0{self.width}b")  # bit i is bits[-1 - i]
        top = self.width - 1
        return frozenset(a for a, i in self.index.items() if bits[top - i] == "1")


# ---------------------------------------------------------------------------
# Public operations


def answer_sets(program: GroundProgram) -> list[frozenset[Atom]]:
    """All answer sets, in ascending order of the universe bitmask.

    Interpretations containing a complementary pair a / -a are not
    answer sets.
    """
    eng = Engine(program)
    return eng.answer_sets(eng.parts())


def projected_components(program: GroundProgram, onto) -> list[list[frozenset[Atom]]] | None:
    """Distinct projections onto the given atoms of each connected
    component's answer sets, components in ascending order of their
    lowest bit; None when there is no answer set."""
    eng = Engine(program)
    parts = eng.parts()
    if parts is None:
        return None
    onto_mask = 0
    for a in onto:
        if a in eng.index:
            onto_mask |= 1 << eng.index[a]
    return [[eng.to_interpretation(p) for p in dict.fromkeys(m & onto_mask for m in comp)]
            for comp in parts]


def projected_answer_sets(program: GroundProgram, onto):
    """Distinct projections of the answer sets onto the given atoms.

    Projections are deduplicated per connected component and combined
    across components in lexicographic order of `projected_components`,
    which keeps the enumeration linear in the number of distinct
    projections instead of the number of answer sets.
    """
    per_component = projected_components(program, onto)
    if per_component is None:
        return iter(())
    return (frozenset().union(*combo) for combo in itertools.product(*per_component))


def consequences(program: GroundProgram) -> ConsequenceSets:
    """Cautious and brave consequences (intersection and union of the
    answer sets)."""
    eng = Engine(program)
    return eng.consequences(eng.parts())
