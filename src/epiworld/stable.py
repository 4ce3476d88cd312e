"""Ground answer-set engine.

`Engine` indexes a ground program once.  Interpretations are bitmasks
over its atom universe sorted by printed form, and results come back in
ascending bitmask order.  Subjective literals stay in the index as rule
guards over a separate bit space, so one index serves every valuation:
`Engine.parts` keeps the rules whose guard a valuation satisfies, splits
them into connected components and enumerates each component's answer
sets, and `Engine.answer_sets` and `Engine.consequences` fold the
components.  The index also splits the program once into independent
parts, which share no atom under any valuation.  Both splits group rules
with one union-find over atom bits (`_group`).  Only the split into
parts lets a rule's guard tie it to the inner atoms of its subjective
atoms.

`Engine.check` decides whether a valuation of one part is reproduced by
its answer sets without listing them, as eclingo checks a guess with
assumptions on a tester grounded once (arXiv 2008.02018).  Each part's
`_Check` is built at its first valuation: every subjective atom becomes
an assumption bit, and one search finds an answer set.  Each further
search adds one clause that asks for an answer set that would change
the verdict, until one fails.

Inside a component a branch-and-propagate loop on an explicit stack
enumerates the assignments that survive unit propagation and support
checks.  Support propagates both ways, as the support nogoods of Clark's
completion do in CDNL (Gebser, Kaufmann, Schaub, "Conflict-driven answer
set solving: From theory to practice", AIJ 2012): an atom that no rule
can still support is false, and a true atom with one rule left that can
support it makes that rule's body true and its other head atoms false.
A rule with `not b` in its body never supports its head atom b, so it
is not filed as one of b's supporters.  Each total assignment the loop
reaches is then a supported model, a model of the completion.  If the
program is tight, with no cycle through positive bodies, its supported
models are its answer sets (Fages, "Consistency of Clark's completion
and existence of stable models", 1994; Lee, Lifschitz, "Loop formulas
for disjunctive logic programs", ICLP 2003), and every one is kept, as
clasp runs no unfounded-set check on a tight program.  `Engine` decides
tightness once, and any subset of a tight program's rules is tight, so
the one flag serves every part, component and valuation.  Otherwise a
model is kept if the minimality test, the same loop on the reduct's
clauses stopped at the first model, finds no smaller model.
Propagation at the root of a search scans every clause and atom.  Below
the root it starts from the parent's closed state and looks only at the
watch lists of the bits set since: the clauses that mention a bit and
the atoms whose supporting rules mention it.  clasp watches two
literals per clause; these lists file a clause under each of its bits,
which costs more visits but nothing to keep up on a backtrack.  They
are built at the first branch, so a search that ends at its root, as
most minimality tests do, never builds them.  A `_Check` builds its
lists and its root closure once, and each of its searches starts from
that closure with the valuation's assumption bits set.

A choice rule `{a}` becomes `a :- not not a.` (Lifschitz, Tang, Turner
1999), so every bit is an atom.  Its clause `a or not a` never
propagates, it supports a exactly when a is true, and its reduct by m
is the fact `a.` exactly when a is in m.  A complementary pair a / -a
becomes the constraint `:- a, -a.`
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .grounder import GroundProgram
from .syntax import Atom, AuxAtom, KAtom, SubjLiteral, print_atom, print_subjective


@dataclass(frozen=True)
class ConsequenceSets:
    cautious: frozenset[Atom]
    brave: frozenset[Atom]
    has_answer_set: bool


# ---------------------------------------------------------------------------
# Search core


def _propagate(clauses: list[tuple[int, int]],
               supports: dict[int, list[tuple[int, int]]],
               scope: int, true_m: int, false_m: int,
               watch: dict[int, tuple[list, list]] | None = None,
               todo: int = 0) -> tuple[int, int] | None:
    """Close a partial assignment over `scope`; None on a conflict.

    A clause (p, n) holds once an atom of p is true or an atom of n is
    false; with one literal left open, that literal is set.  `supports`
    maps an atom bit to the clauses of the rules that can support it
    (see `_clauses`).
    Such a rule stops supporting the atom once an atom of n is false or
    an atom of p other than the atom itself is true, that is once its
    body fails or another of its head atoms holds.  Each true atom of
    an answer set has a rule whose body holds and whose head holds only
    there.  So an open atom that no rule supports is set false, a true
    one is a conflict, and a true atom with one supporting rule (p, n)
    left forces that rule: every atom of n (its positive and `not not`
    body) is set true and every other atom of p (its `not` body and
    other head atoms) false, or a conflict is found if an atom is in
    both.  This is the atom-support nogood of CDNL (Gebser, Kaufmann,
    Schaub, AIJ 2012).  Once forced, a true atom keeps that one
    supporter, so it is not looked at again.

    Propagation goes in rounds until a round sets no bit.  Without
    `watch`, each round looks at every clause and atom.  With the watch
    lists of `_watch`, the assignment must be a closed one plus the bits
    of `todo`, and each round looks only at what is filed under the bits
    set since the round before, the first round under `todo`: a clause
    or an atom's support can change only when one of its bits is set.
    Every rule is monotone, so both ways reach the same closed state, or
    both a conflict.
    """
    done = 0  # true atoms whose last supporter has been forced
    while True:
        if watch is None:
            visit, atoms = clauses, supports.items()
        else:
            visit, atoms = [], []
            while todo:
                b = todo & -todo
                todo ^= b
                on = watch[b]
                visit += on[0]
                atoms += on[1]
        before = true_m | false_m
        und = scope & ~before
        for p_mask, n_mask in visit:
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
        skip = false_m | done
        for b, rules in atoms:
            if b & skip:
                continue
            if b & true_m:
                only = None
                for rule in rules:
                    if not rule[1] & false_m and rule[0] & true_m == b:
                        if only is not None:
                            break
                        only = rule
                else:
                    if only is None:
                        return None
                    p_mask, n_mask = only
                    p_mask &= ~b
                    if n_mask & p_mask:
                        return None
                    done |= b
                    true_m |= n_mask
                    false_m |= p_mask
                    skip = false_m | done
                continue
            for p_mask, n_mask in rules:
                if not (n_mask & false_m or p_mask & true_m):
                    break
            else:
                false_m |= b
                skip = false_m | done
        todo = (true_m | false_m) & ~before
        if not todo:
            return true_m, false_m


def _watch(clauses: list[tuple[int, int]],
           supports: dict[int, list[tuple[int, int]]],
           scope: int) -> dict[int, tuple[list, list]]:
    """Watch lists for `_propagate`: each bit of `scope` maps to the
    clauses that mention it and to the (atom, supporting clauses)
    entries of `supports` whose atom or supporting clauses mention it.
    Every bit that the clauses and `supports` mention must lie in
    `scope`."""
    watch: dict[int, tuple[list, list]] = {}
    rest = scope
    while rest:
        b = rest & -rest
        watch[b] = ([], [])
        rest ^= b
    for clause in clauses:
        rest = clause[0] | clause[1]
        while rest:
            b = rest & -rest
            watch[b][0].append(clause)
            rest ^= b
    for entry in supports.items():
        rest = entry[0]
        for p_mask, n_mask in entry[1]:
            rest |= p_mask | n_mask
        while rest:
            b = rest & -rest
            watch[b][1].append(entry)
            rest ^= b
    return watch


def _models(clauses: list[tuple[int, int]],
            supports: dict[int, list[tuple[int, int]]], scope: int,
            start: tuple[int, int, int] = (0, 0, 0),
            watch: dict[int, tuple[list, list]] | None = None):
    """Yield, as true-masks, every total assignment over `scope` that
    `_propagate` leaves without conflict.  Branches on the lowest open
    bit, false first.  Without `watch`, the root is propagated by full
    scans and the watch lists are built at the first branch.  With the
    lists of `_watch`, `start` is a closed assignment (true, false) plus
    the bits to propagate from, as for `_propagate`.  Each child
    propagates from its parent's closed state and its branch bit."""
    stack = [start]
    while stack:
        true_m, false_m, b = stack.pop()
        state = _propagate(clauses, supports, scope, true_m, false_m, watch, b)
        if state is None:
            continue
        true_m, false_m = state
        und = scope & ~(true_m | false_m)
        if und == 0:
            yield true_m
            continue
        if watch is None:
            watch = _watch(clauses, supports, scope)
        b = und & -und
        stack.append((true_m | b, false_m, b))
        stack.append((true_m, false_m | b, b))


# ---------------------------------------------------------------------------
# Indexed engine


def _minimal(m: int, rules: list[tuple[int, int, int, int]], assumed: int = 0) -> bool:
    """Whether the model m of `rules` is minimal among the models of
    their reduct by m, that is whether m is an answer set.  The bits of
    `assumed` are fixed assumptions, not atoms: they decide which rules
    the reduct keeps, and are never minimised."""
    clauses = [(head & m, pos) for head, pos, neg, negneg in rules
               if pos & m == pos and neg & m == 0 and negneg & m == negneg]
    m &= ~assumed
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


def _clauses(rules: list[tuple[int, int, int, int]], atoms: int):
    """The clauses of `rules` and the `supports` of `_propagate` that
    map each bit of `atoms` to the clauses of the rules that can support
    it: the rules it heads, less those with `not` of it in their body,
    whose body fails wherever the atom holds."""
    clauses = [(head | neg, pos | negneg) for head, pos, neg, negneg in rules]
    supports: dict[int, list[tuple[int, int]]] = {}
    rest = atoms
    while rest:
        b = rest & -rest
        supports[b] = []
        rest &= rest - 1
    for clause, rule in zip(clauses, rules):
        rest = rule[0] & ~rule[2]
        while rest:
            b = rest & -rest
            supports[b].append(clause)
            rest &= rest - 1
    return clauses, supports


def component_masks(mask: int, rules: list[tuple[int, int, int, int]],
                    tight: bool = False) -> list[int]:
    """Sorted answer sets, as masks, of one component's rules.  With
    `tight`, the rules must be tight (see `_tight`), and every model
    found is an answer set without the minimality test."""
    clauses, supports = _clauses(rules, mask)
    return sorted(m for m in _models(clauses, supports, mask) if tight or _minimal(m, rules))


def _tight(rules: list[tuple[int, int, int, int]], width: int) -> bool:
    """Whether the positive dependency graph of `rules` over atom bits
    below `width` has no cycle.  Its edges go from each head atom of a
    rule to each atom of its positive body; `not`, `not not` (so choice
    rules too) and guards add none.  An iterative depth-first search
    over the atoms and, between them, the rules: atom i is node i, and
    it points to the rules that head it, each of which points to its
    positive body atoms, so the search costs O(rules + atoms + sizes)."""
    succ: list[list[int]] = [[] for _ in range(width)]
    for j, (head, pos, _, _) in enumerate(rules):
        body = []
        while pos:
            b = pos & -pos
            body.append(b.bit_length() - 1)
            pos ^= b
        succ.append(body)
        while head:
            b = head & -head
            succ[b.bit_length() - 1].append(width + j)
            head ^= b
    state = bytearray(len(succ))  # 0 unseen, 1 on the path, 2 finished
    for root in range(width):
        if state[root]:
            continue
        state[root] = 1
        path = [(root, iter(succ[root]))]
        while path:
            node, rest = path[-1]
            for nxt in rest:
                if state[nxt] == 1:
                    return False
                if state[nxt] == 0:
                    state[nxt] = 1
                    path.append((nxt, iter(succ[nxt])))
                    break
            else:
                state[node] = 2
                path.pop()
    return True


# Why `Engine.check` rejects a valuation, in the order the check meets them.
NO_ANSWER_SET = "no answer set"
KNOWN_NOT_CAUTIOUS = "known atom not cautious"
UNKNOWN_CAUTIOUS = "unknown atom cautious"
BRAVE_FAILURE = "~-form brave failure"


class _Check:
    """The consequence check of one part, prepared for every valuation.

    Each subjective atom of the part has an assumption bit above the
    atoms, and a rule's guard enters its clause as a literal over it:
    `&k{l}` as `not not g` and `not &k{l}` as `not g`.  A valuation
    fixes every assumption bit, which keeps exactly the rules whose
    guard it satisfies.  Assumption bits need no support, so they are
    no keys of `supports`, and `_minimal` never minimises them.  The
    clauses, supports, watch lists and the root closure, with every
    assumption bit open, are built once.  With `tight`, the rules
    must be tight, and every model a search finds is an answer set.
    """

    def __init__(self, rules: list[tuple], width: int,
                 katoms: list[tuple[int, int, bool]], tight: bool):
        # katoms: (assumption bit, bit of the inner atom, whether `~l`)
        self.katoms = katoms
        self.tight = tight
        self.rules: list[tuple[int, int, int, int]] = []
        atoms = assume = 0
        for (head, pos, neg, negneg), kpos, kneg, _ in rules:
            atoms |= head | pos | neg | negneg
            self.rules.append((head, pos, neg | kneg << width, negneg | kpos << width))
        for a, b, _ in katoms:
            assume |= a
            atoms |= b
        self.assume = assume
        self.scope = atoms | assume
        self.clauses, self.supports = _clauses(self.rules, atoms)
        self.watch = _watch(self.clauses, self.supports, self.scope)
        self.root = _propagate(self.clauses, self.supports, self.scope, 0, 0)

    def verdict(self, known: int) -> str | None:
        """None if the valuation that sets exactly the assumption bits
        of `known` passes, else the first reason to reject it met.

        An answer set M rejects it if it lacks the atom of a known
        `&k{a}` or holds the atom of a known `&k{~a}`.  An unknown
        `&k{a}` is pending while every M found holds a, an unknown
        `&k{~a}` while none does.  Each next search adds the clause
        "some known or pending atom flips", so it settles a pending
        atom or rejects, and the first that fails decides, as clasp's
        cautious and brave modes refine one answer set (Alviano,
        Dodaro, Järvisalo, Maratea, Ricca, TPLP 2018).
        """
        if self.root is None:
            return NO_ANSWER_SET
        true_m, false_m = self.root
        known &= self.assume
        unknown = self.assume & ~known
        if known & false_m or unknown & true_m:
            return NO_ANSWER_SET
        start = (true_m | known, false_m | unknown, self.assume & ~(true_m | false_m))
        cpos = cneg = wpos = wneg = 0  # known a, known ~a, unknown a, unknown ~a
        for a, b, tilde in self.katoms:
            if a & known:
                if tilde:
                    cneg |= b
                else:
                    cpos |= b
            elif tilde:
                wneg |= b
            else:
                wpos |= b
        m = self._answer_set(start, None)
        if m is None:
            return NO_ANSWER_SET
        while True:
            if cpos & ~m:
                return KNOWN_NOT_CAUTIOUS
            if cneg & m:
                return BRAVE_FAILURE
            wpos &= m
            wneg &= ~m
            flip = (cneg | wneg, cpos | wpos)
            if not (flip[0] or flip[1]):
                return None
            m = self._answer_set(start, flip)
            if m is None:
                if wpos:
                    return UNKNOWN_CAUTIOUS
                if wneg:
                    return BRAVE_FAILURE
                return None

    def _answer_set(self, start: tuple[int, int, int], extra: tuple[int, int] | None) -> int | None:
        """The first answer set, with the assumption bits, reached from
        `start` that also satisfies the clause `extra`, or None.  The
        clause is filed in the watch lists for this search only, and
        its bits are propagated from at once."""
        true_m, false_m, todo = start
        bits = 0 if extra is None else extra[0] | extra[1]
        rest = bits
        while rest:
            b = rest & -rest
            self.watch[b][0].append(extra)
            rest ^= b
        try:
            for m in _models(self.clauses, self.supports, self.scope,
                             (true_m, false_m, todo | bits), self.watch):
                if self.tight or _minimal(m, self.rules, self.assume):
                    return m
            return None
        finally:
            rest = bits
            while rest:
                b = rest & -rest
                self.watch[b][0].pop()
                rest ^= b


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
    holds the rules of part j, `part_katoms[j]` its subjective atoms,
    and `part_of` maps each subjective atom to its part.  Rules without
    atoms or guard (`:- .`) form one part of their own.

    `check` decides a valuation of a part's subjective atoms without
    listing answer sets, on a `_Check` prepared at the part's first
    valuation, and counts its rejections by reason in `rejections`.
    `tight` tells whether the program is tight (`_tight`): then no
    search of the engine runs the minimality test.
    """

    def __init__(self, program: GroundProgram):
        base: set[Atom] = set()
        katoms: set[KAtom] = set()
        for r in program.rules:
            base.update(r.head)
            for lit in r.body:
                if isinstance(lit, SubjLiteral):
                    katoms.add(lit.katom)
                    base.add(lit.katom.inner.atom)
                else:
                    base.add(lit.atom)

        # Per-component results, and so the order world views are
        # emitted in, follow the bit order.  An AuxAtom sorts right
        # after a program atom printed the same way, so set iteration
        # order never decides between them.
        self.atom_of = sorted(base, key=lambda a: (print_atom(a), isinstance(a, AuxAtom)))
        self.index = index = {a: i for i, a in enumerate(self.atom_of)}
        self.width = len(index)
        self.kbit = kbit = {k: 1 << i
                            for i, k in enumerate(sorted(katoms, key=print_subjective))}

        # (masks, kpos, kneg, atom indices)
        self.rules: list[tuple[tuple[int, int, int, int], int, int, tuple[int, ...]]] = []
        # The nodes that tie each rule into its part: its atoms and, for a
        # guarded rule, the inner atom of each subjective atom of its guard.
        ties: list[tuple[int, ...]] = []
        for r in program.rules:
            head = pos = neg = negneg = kpos = kneg = 0
            atoms: list[int] = []
            inner: tuple[int, ...] = ()
            for a in r.head:
                i = index[a]
                atoms.append(i)
                head |= 1 << i
            if r.is_choice:  # {a}. is a :- not not a.
                negneg = head
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

        # Every subset of a tight program's rules is tight, so one flag
        # serves every part, component and valuation.
        self.tight = _tight([rule[0] for rule in self.rules], self.width)

        groups, find = _group(self.rules, ties, self.width)
        number = {r: j for j, r in enumerate(groups)}
        # With one part, share the rule list instead of copying it.
        self.part_rules: list[list] = [self.rules] if len(groups) == 1 else list(groups.values())
        self.part_of: dict[KAtom, int] = {k: number[find(index[k.inner.atom])] for k in kbit}
        self.part_katoms: list[list[KAtom]] = [[] for _ in self.part_rules]
        for k, j in self.part_of.items():
            self.part_katoms[j].append(k)
        self.rejections: Counter[str] = Counter()
        self._checks: dict[int | None, _Check] = {}

    def known_mask(self, valuation: dict[KAtom, bool]) -> int:
        """The `kbit` mask of the subjective atoms `valuation` makes
        true; atoms the program lacks are left out."""
        known = 0
        for k, bit in self.kbit.items():
            if valuation.get(k):
                known |= bit
        return known

    def parts(self, valuation: dict[KAtom, bool] | None = None) -> list[list[int]] | None:
        """Sorted answer-set masks of each component of the rules kept
        under `valuation`, or None when there is no answer set.

        Subjective atoms missing from `valuation` count as false; None
        stands for the empty valuation and is refused when the program
        has subjective literals.
        """
        if valuation is None:
            if self.kbit:
                raise ValueError("the program has subjective literals: its answer sets "
                                 "depend on a valuation of them")
            valuation = {}
        known = self.known_mask(valuation)
        unknown = ~known
        kept = [rule for rule in self.rules if not (rule[1] & unknown or rule[2] & known)]
        out = []
        for mask, local in component_split(kept, self.width):
            masks = component_masks(mask, local, self.tight)
            if not masks:
                return None
            out.append(masks)
        return out

    def check(self, known: int, part: int | None = None) -> str | None:
        """None if the valuation that makes exactly the subjective atoms
        of the `kbit` mask `known` true is reproduced by its answer
        sets, else the reason, also counted in `rejections`.  With
        `part`, only that independent part's rules and subjective atoms
        count."""
        prepared = self._checks.get(part)
        if prepared is None:
            rules = self.rules if part is None else self.part_rules[part]
            katoms = self.kbit if part is None else self.part_katoms[part]
            prepared = self._checks[part] = _Check(
                rules, self.width,
                [(self.kbit[k] << self.width, 1 << self.index[k.inner.atom], k.inner.negs == 1)
                 for k in katoms], self.tight)
        reason = prepared.verdict(known << self.width)
        if reason is not None:
            self.rejections[reason] += 1
        return reason

    def answer_sets(self, components: list[list[int]] | None) -> list[frozenset[Atom]]:
        """All answer sets, one per choice of a mask from each component,
        in ascending order of the bitmask."""
        if components is None:
            return []
        masks = [0]
        for comp in components:
            masks = [m | c for m in masks for c in comp]
        masks.sort()
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
        atoms = []
        while m:
            i = m.bit_length() - 1
            atoms.append(self.atom_of[i])
            m ^= 1 << i
        return frozenset(atoms)


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
