"""Ground answer-set engine.

`Engine` indexes a ground program once.  Interpretations are bitmasks
over its atom universe sorted by printed form, and results come back in
ascending bitmask order.  Each subjective atom has one more bit, above
the atoms, so a valuation is the mask of its known bits.  One
union-find over atom numbers (`_group`) splits the program into
independent parts, which share no atom under any valuation; in a
program without subjective literals they are its connected components.
Each part has bits of its own, its atoms and then its subjective atoms,
each in the engine's order, and one index over them, a `_Part`; parts
equal over their own bits share one.  A rule's subjective literals are
literals over the part's bits, so the index serves every valuation and
answers every query on the part: `models` lists its answer sets,
`guesses` its candidate valuations, `consequences` its cautious and
brave consequences, and `verdict` decides whether a valuation is
reproduced by its answer sets.  Only
`models` lists them, as eclingo guesses by projection and checks with
assumptions on a tester grounded once (arXiv 2008.02018).  The last two
refine one answer set at a time, as clasp's cautious and brave modes do
(Alviano, Dodaro, Järvisalo, Maratea, Ricca, "Cautious reasoning in ASP
via minimal models and unsatisfiable cores", TPLP 2018): each further
search adds a clause asking for an answer set that changes the result.

Every search is one function, `_models`: a branch-and-propagate loop on
an explicit stack that enumerates the assignments that survive unit
propagation and support checks, or one per projection of them.  Support
propagates both ways, as the support nogoods of Clark's completion do in
CDNL (Gebser, Kaufmann, Schaub, "Conflict-driven answer set solving:
From theory to practice", AIJ 2012): an atom that no rule can still
support is false, and a true atom with one rule left that can support it
makes that rule's body true and its other head atoms false.  A rule with
`not b` in its body never supports its head atom b, and one whose body
never holds, with an atom both with and without `not` or under both
`not` and `not not`, supports nothing: neither is filed as a supporter.
Each total assignment the loop reaches is then a supported model, a
model of the completion.  If the program is tight, with no cycle through
positive bodies, its supported models are its answer sets (Fages,
"Consistency of Clark's completion and existence of stable models",
1994; Lee, Lifschitz, "Loop formulas for disjunctive logic programs",
ICLP 2003), and every one is kept, as clasp runs no unfounded-set check
on a tight program.  Each `_Part` decides its own tightness once, and
any subset of a tight part's rules is tight, so its flag serves every
valuation, and a tight part runs no minimality test even next to a part
that is not tight.  Otherwise a model is kept if the minimality test,
the same loop on the reduct's clauses stopped at the first model, finds
no smaller model.
Propagation scans every clause and atom only at the two roots that
start empty, a part's root closure and a minimality test's root.  Below
them it reads a layout with an entry for each value of each bit
(`_watch`), which leaves out what the root closure decides.  A clause
of two literals, and an atom with one supporting rule, are implications,
masks of the bits each value sets true and false, as clasp keeps short
nogoods in an implication graph.  A longer clause is filed under the
value of each of its bits that makes its literal fail, since only that
can make it unit or conflicting; an atom with more supports under the
values that make it true or a supporting rule stop supporting it.  Each
node starts from its parent's closed state, sets what the bits set since
imply, and looks only at the lists of those bits, under the values they
took.  clasp watches two literals per clause; these lists file a clause
under every literal, which costs more visits but nothing to keep up on a
backtrack.  A `_Part` builds its layout once, with the part, and a
minimality test only if its root closure neither conflicts nor is total.
A refinement search hands its clause to every propagation (`_answer_set`).
A value whose implications set some bit both ways is a failed literal
(Lynce, Marques-Silva, "Probing-based preprocessing techniques for
propositional satisfiability", ICTAI 2003): a part's root takes the
bit's other value and closes once more through the same layout, which
serves every state that extends the root it was built for.  The search
branches in a fixed order, so this cuts only subtrees without a model:
the models and their order stay the same.

A choice rule `{a}` becomes `a :- not not a.` (Lifschitz, Tang, Turner
1999), so every bit is an atom.  Its clause `a or not a` never
propagates, it supports a exactly when a is true, and its reduct by m
is the fact `a.` exactly when a is in m.  A complementary pair a / -a
becomes the constraint `:- a, -a.`
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from functools import cached_property

from .grounder import NOT_K, GroundProgram
from .syntax import Atom, AuxAtom, KAtom, print_atom, print_subjective


# ---------------------------------------------------------------------------
# Search core

_Watch = dict[int, list | tuple]  # see `_watch`


def _propagate(clauses: list[tuple[int, int]],
               supports: dict[int, list[tuple[int, int]]],
               scope: int, true_m: int, false_m: int,
               watch: _Watch | None = None, todo: int = 0,
               extra: tuple[int, int] | None = None) -> tuple[int, int] | None:
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
    `watch`, each round looks at every clause and atom.  With the layout
    of `_watch`, the assignment must be a closed one plus the bits of
    `todo`.  Each round takes the bits set since the round before (the
    first: those of `todo`), sets what their values imply, a bit set
    both ways being a conflict, and looks only at the clause `extra`, if
    given, and at the lists filed under those values: the clauses and
    supports that a value can make unit, conflicting or unsupported.  An
    open bit of `todo` implies nothing, and its lists are read as if it
    were false.  The bits implied are read in the next round.  Every
    rule is monotone, so both ways reach the same closed state, or both
    a conflict.
    """
    done = 0  # true atoms whose last supporter has been forced
    while True:
        before = true_m | false_m
        if watch is None:
            visit, atoms = clauses, supports.items()
        else:
            visit = [] if extra is None else [extra]
            atoms = []
            implied_t = implied_f = 0
            while todo:
                b = todo & -todo
                todo ^= b
                to_t, to_f, long, entries = watch[b if b & true_m else -b]
                if b & before:
                    implied_t |= to_t
                    implied_f |= to_f
                visit += long
                atoms += entries
            true_m |= implied_t
            false_m |= implied_f
            if true_m & false_m:
                return None
        und = scope & ~(true_m | false_m)
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
           scope: int, root: tuple[int, int] = (0, 0)) -> _Watch:
    """The layout `_propagate` reads in states that extend the closed
    state `root` (true, false).  Bit b has an entry under `b`, read when
    it is true, and under `-b`, read when it is false: (bits it implies
    true, bits it implies false, long clauses, `supports` entries).  A
    clause (p, n) can become unit or conflicting only when a literal
    fails: a bit of p false or of n true (Moskewicz et al., "Chaff", DAC
    2001).  Leaving out the bits `root` fixes, a clause of three or more
    literals is filed under each failing value, and one of two is two
    implications, each failing literal implying the other (Gebser,
    Kaufmann, Schaub, AIJ 2012; Eén, Sörensson, SAT 2003).  A clause
    that `root` satisfies, or with a bit in both p and n (`a or not a`
    of a choice rule), always holds, one of one literal holds in every
    closed state, and one without literals fails at `root`: none is
    filed.  A rule stops supporting an atom b once an atom of its p
    other than b holds or one of its n fails.  An open b with one
    supporter (p, n) is implications: b true implies n true and p false,
    less b, and each bit of n false or of p, less b, true implies b
    false.  The entry of an atom with more supporters is filed under
    true for it and the bits of their p, and under false for the bits of
    their n.  An atom that `root` fixes or that no rule supports is
    filed nowhere (one with one supporter that `root` makes true has it
    forced there).  No value implies its own bit: a clause's
    implications join two bits, and a supporter's leave out its atom."""
    true_m, false_m = root
    nothing = (0, 0, (), ())  # the entry of a bit that `root` fixes
    free = scope & ~(true_m | false_m)
    watch: _Watch = {}
    rest = scope
    while rest:
        b = rest & -rest
        rest ^= b
        if b & free:
            watch[b] = [0, 0, [], []]
            watch[-b] = [0, 0, [], []]
        else:
            watch[b] = watch[-b] = nothing
    for clause in clauses:
        p_mask, n_mask = clause
        if p_mask & n_mask or p_mask & true_m or n_mask & false_m:
            continue
        p_mask &= free
        n_mask &= free
        lits = p_mask | n_mask
        other = lits & (lits - 1)
        if not other:
            continue
        if other & (other - 1):
            while lits:
                b = lits & -lits
                lits ^= b
                watch[-b if b & p_mask else b][2].append(clause)
            continue
        one = lits ^ other
        # A literal of p fails when its bit is false (-bit), one of n when
        # it is true (bit); each failing literal implies the other holds.
        if one & p_mask:
            watch[-other if other & p_mask else other][0] |= one
            on = watch[-one]
        else:
            watch[-other if other & p_mask else other][1] |= one
            on = watch[one]
        on[0 if other & p_mask else 1] |= other
    for atom in supports.items():
        b, rules = atom
        if b & false_m or not rules:
            continue
        if len(rules) == 1:
            if b & true_m:
                continue
            p_mask, n_mask = rules[0]
            p_mask &= free & ~b
            n_mask &= free & ~b
            on = watch[b]
            on[0] |= n_mask
            on[1] |= p_mask
            rest = p_mask | n_mask
            while rest:
                x = rest & -rest
                rest ^= x
                if x & p_mask:
                    watch[x][1] |= b
                if x & n_mask:
                    watch[-x][1] |= b
        else:
            on_true, on_false = b, 0
            for p_mask, n_mask in rules:
                on_true |= p_mask
                on_false |= n_mask
            rest = (on_true | on_false) & free
            while rest:
                x = rest & -rest
                rest ^= x
                if x & on_true:
                    watch[x][3].append(atom)
                if x & on_false:
                    watch[-x][3].append(atom)
    return watch


def _models(clauses: list[tuple[int, int]],
            supports: dict[int, list[tuple[int, int]]], scope: int,
            start: tuple[int, int, int], watch: _Watch,
            keep: Callable[[int], bool] | None = None, project: int | None = None,
            extra: tuple[int, int] | None = None):
    """Yield, as true-masks, every total assignment over `scope` that
    `_propagate` leaves without conflict and the test `keep`, if given,
    accepts.  `start` is a closed partial assignment (true, false) plus
    the bits to propagate from, and `watch` holds the layout `_watch`
    built for a closed state that `start` extends; each child
    propagates from its parent's closed state and its branch bit, false
    first.  A node with no bits to propagate from is closed as it is.
    The clause `extra`, if given, holds in every model too: each
    propagation looks at it first, so `start` must propagate from its
    bits if it is not closed under it.

    The search branches on the highest open bit of the mask `project`
    while there is one, else on the lowest open bit.  With `project`, it
    yields the first model of each projection `m & project`, in
    ascending order, and then drops the rest of the subtree in which the
    last projected bit was set (projected enumeration: Gebser, Kaufmann,
    Schaub, CPAIOR 2009); `project=0` yields one model."""
    stack = [start]
    floor = 0  # stack height under the subtree in which every projected bit is set
    while stack:
        true_m, false_m, b = stack.pop()
        if b:
            state = _propagate(clauses, supports, scope, true_m, false_m, watch, b, extra)
            if state is None:
                continue
            true_m, false_m = state
        und = scope & ~(true_m | false_m)
        if project is not None and b & project and not und & project:
            floor = len(stack)
        if und == 0:
            if keep is None or keep(true_m):
                yield true_m
                if project is not None:
                    del stack[floor:]
            continue
        b = und & project if project else 0
        b = 1 << (b.bit_length() - 1) if b else und & -und
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
    state = _propagate(clauses, {}, m, 0, 0)
    if state is None or not m & ~(state[0] | state[1]):  # no smaller model, or one
        return state is None
    return next(_models(clauses, {}, m, (*state, 0), _watch(clauses, {}, m, state)), None) is None


def _group(nodes: list[list[int]], order: list[int]):
    """Group the items whose nodes meet, transitively, by union-find.

    The i-th item has the nodes nodes[i], ints below len(order), and
    node `order[r]` has the rank r.  Returns the groups of item indices
    in ascending order of their lowest rank, the items without nodes
    first as a group of their own, and the ranks of the nodes of each
    group in ascending order.
    """
    parent = list(range(len(order)))

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
    groups: dict[int, list[int]] = {}
    for item, ns in enumerate(nodes):
        groups.setdefault(find(ns[0]) if ns else -1, []).append(item)
    members: dict[int, list[int]] = {-1: []} if -1 in groups else {}
    for r, n in enumerate(order):
        root = find(n)
        if root in groups:
            members.setdefault(root, []).append(r)
    return [groups[root] for root in members], list(members.values())


def _clauses(rules: list[tuple[int, int, int, int]], atoms: int):
    """The clauses of `rules` and the `supports` of `_propagate` that
    map each bit of `atoms` to the clauses of the rules that can support
    it: the rules it heads, less those with `not` of it in their body,
    whose body fails wherever the atom holds, and less those whose body
    never holds, with an atom in both `neg` and `pos` or `negneg`, whose
    clause always holds."""
    clauses = [(head | neg, pos | negneg) for head, pos, neg, negneg in rules]
    supports: dict[int, list[tuple[int, int]]] = {}
    rest = atoms
    while rest:
        b = rest & -rest
        supports[b] = []
        rest &= rest - 1
    for clause, (head, pos, neg, negneg) in zip(clauses, rules):
        rest = 0 if neg & (pos | negneg) else head & ~neg
        while rest:
            b = rest & -rest
            supports[b].append(clause)
            rest &= rest - 1
    return clauses, supports


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


# Why `_Part.verdict` rejects a valuation, in the order the check meets them.
NO_ANSWER_SET = "no answer set"
KNOWN_NOT_CAUTIOUS = "known atom not cautious"
UNKNOWN_CAUTIOUS = "unknown atom cautious"
BRAVE_FAILURE = "~-form brave failure"
REJECTIONS = (NO_ANSWER_SET, KNOWN_NOT_CAUTIOUS, UNKNOWN_CAUTIOUS, BRAVE_FAILURE)


class _Part:
    """The index of one independent part, prepared for every valuation.

    The rules are masks (head, pos, neg, negneg) over the part's own
    bits, as `Engine` builds them, in which a subjective atom's bit, its
    assumption bit, is a `not not` literal for `&k{l}` and a `not`
    literal for `not &k{l}`.  `katoms` holds (assumption bit, bit of the
    inner atom, whether the inner literal is `~a`) for each subjective
    atom of the part.  Every query takes and returns masks over these
    bits; parts whose rules and `katoms` are equal over their own bits
    share one `_Part`.  A
    valuation, a mask of known assumption bits, fixes every assumption
    bit, which keeps exactly the rules whose guard it satisfies.
    Assumption bits need no support, so they are no keys of `supports`,
    and `_minimal` never minimises them.  The guess's consistency
    constraints (a known `&k{a}` needs a, a known `&k{~a}` needs a
    false) are clauses guarded by `guess`, an activation bit above the
    part's bits (Eén, Sörensson, "Temporal induction by incremental SAT
    solving", 2003), which `guesses` sets true and every other query
    false.  The clauses, supports, `_watch` layout and root closure, with
    the assumption bits and the guess bit open, are built with the part.
    A value whose implications in the layout set some bit both ways is a
    failed literal: the root then takes the other value of each such bit
    (`failed` counts them) and is closed once more through the layout.
    `tight` tells whether the rules are tight (`_tight`): then every
    model a search finds is an answer set, and no search runs the
    minimality test.
    """

    def __init__(self, rules: list[tuple[int, int, int, int]],
                 katoms: list[tuple[int, int, bool]]):
        self.rules = rules
        self.katoms = katoms
        used = assume = 0
        for head, pos, neg, negneg in rules:
            used |= head | pos | neg | negneg
        for a, b, _ in katoms:
            assume |= a
            used |= b  # the inner atom, which may occur only inside `&k{}`
        self.atoms = used & ~assume
        self.assume = assume
        self.tight = _tight(rules, self.atoms.bit_length())
        self.guess = guess = 1 << (used | assume).bit_length()
        self.scope = used | assume | guess
        self.clauses, self.supports = _clauses(rules, self.atoms)
        self.clauses += [(0, g | b | guess) if tilde else (b, g | guess) for g, b, tilde in katoms]
        root = _propagate(self.clauses, self.supports, self.scope, 0, 0)
        self.watch = {} if root is None else _watch(self.clauses, self.supports, self.scope, root)
        fixed = [0, 0]  # the bits whose false value fails, whose true value fails
        for v, entry in self.watch.items():
            if entry[0] & entry[1]:
                fixed[v > 0] |= abs(v)
        true_m, false_m = fixed
        self.failed = (true_m | false_m).bit_count()
        if self.failed:
            root = _propagate(self.clauses, self.supports, self.scope, root[0] | true_m,
                              root[1] | false_m, self.watch, true_m | false_m)
        self.root = root

    def start(self, known: int) -> tuple[int, int, int] | None:
        """The root closure with the assumption bits of `known` true, the
        others and the guess bit false, and the bits to propagate from,
        as `_models` takes it; None if the closure rules the valuation out."""
        if self.root is None:
            return None
        true_m, false_m = self.root
        known &= self.assume
        unknown = self.assume & ~known
        if known & false_m or unknown & true_m:
            return None
        return true_m | known, false_m | unknown | self.guess, self.assume & ~(true_m | false_m)

    def models(self, known: int) -> list[int]:
        """The sorted answer sets under `known`, atom bits only."""
        start = self.start(known)
        if start is None:
            return []
        return sorted(m & self.atoms for m in self._search(start))

    def guesses(self):
        """Yield each valuation the guess has, as the mask of its known
        assumption bits, in ascending order, with one answer set of the
        guess under it: (known, answer set), without the guess bit.  The
        guess is the part with its assumption bits open and the guess bit
        true, unless the root closure sets that bit false.  If a holds
        (fails) in the closure, so in every answer set, a world view knows
        `&k{a}` (`&k{~a}`): that bit is fixed true and propagated from.
        Then one search of `_models`, projected onto the assumption bits,
        yields the first answer set of each valuation and lists no other."""
        state, fix = self.root, self.guess
        while state is not None and not fix & state[1]:
            if not fix:
                for m in self._search((*state, 0), self.assume):
                    yield m & self.assume, m & ~self.guess
                return
            state = _propagate(self.clauses, self.supports, self.scope,
                               state[0] | fix, state[1], self.watch, fix)
            if state is not None:
                # state[tilde] is the true mask for `&k{a}`, the false one for `&k{~a}`.
                fix = sum(g for g, b, tilde in self.katoms if b & state[tilde]) & ~state[0]

    def verdict(self, known: int, witness: int | None = None) -> str | None:
        """None if the valuation `known` passes, else the first reason
        to reject it met.

        An answer set M rejects it if it lacks the atom of a known
        `&k{a}` or holds the atom of a known `&k{~a}`.  An unknown
        `&k{a}` is pending while every M found holds a, an unknown
        `&k{~a}` while none does.  `_refine` tracks the known and the
        pending atoms, so each next search settles a pending atom or
        rejects, and the first that fails decides.  An answer set
        `witness` under `known`, as `guesses` yields, saves the first.
        """
        start = self.start(known)
        masks = [0, 0, 0, 0]
        for a, b, tilde in self.katoms:
            masks[2 * (not a & known) + tilde] |= b
        cpos, cneg, wpos, wneg = masks  # known a, known ~a, unknown a, unknown ~a
        found = None
        for found in self._refine(start, cpos | wpos, cneg | wneg, witness):
            if cpos & ~found[0]:
                return KNOWN_NOT_CAUTIOUS
            if cneg & ~found[1]:
                return BRAVE_FAILURE
        if found is None:
            return NO_ANSWER_SET
        if wpos & found[0]:
            return UNKNOWN_CAUTIOUS
        return BRAVE_FAILURE if wneg & found[1] else None

    def consequences(self, known: int) -> tuple[int, int] | None:
        """The cautious and brave consequences under `known`, as masks
        over the part's atoms, or None when there is no answer set:
        `_refine` with every atom pending both ways, so at most
        1 + min(#answer sets, 2 |atoms|) searches."""
        found = None
        for found in self._refine(self.start(known), self.atoms, self.atoms):
            pass
        return None if found is None else (found[0], self.atoms & ~found[1])

    def _refine(self, start: tuple | None, cautious: int, absent: int, m: int | None = None):
        """Yield, after each answer set found from `start`, the atoms of
        `cautious` true in every answer set found so far and the atoms
        of `absent` false in every one, the first `m` if given.  Each
        search after the first adds the clause "some atom still in
        `cautious` fails or some atom still in `absent` holds", so it
        finds an answer set that no earlier search found.  It stops once
        both are empty or a search fails.  An answer set that breaks the
        clause would be found again forever, so it raises RuntimeError."""
        if m is None and start is not None:
            m = next(self._search(start), None)
        while m is not None:
            cautious &= m
            absent &= ~m
            yield cautious, absent
            if not (cautious or absent):
                return
            m = self._answer_set(start, (absent, cautious))
            if m is not None and not (cautious & ~m or absent & m):
                raise RuntimeError("internal error: a refinement search found an answer "
                                   "set that breaks its clause")

    def _answer_set(self, start: tuple[int, int, int], extra: tuple[int, int]) -> int | None:
        """The first answer set, with the assumption bits, reached from
        `start` that also satisfies the clause `extra`, or None.  Every
        propagation of the search looks at the clause, and the search
        propagates from its bits at once, whatever they hold at `start`."""
        start = (start[0], start[1], start[2] | extra[0] | extra[1])
        return next(self._search(start, extra=extra), None)

    def _search(self, start: tuple[int, int, int], project: int | None = None,
                extra: tuple[int, int] | None = None):
        """The answer sets, with the assumption bits, that `_models`
        reaches from `start`, lazily, the first of each projection onto
        `project` if given, each satisfying the clause `extra` if given.
        The minimality test leaves the assumption bits and the guess bit
        alone."""
        keep = None if self.tight else lambda m: _minimal(m, self.rules, self.assume | self.guess)
        return _models(self.clauses, self.supports, self.scope, start, self.watch, keep, project,
                       extra)


class Engine:
    """Bit index of a ground program, subjective literals included.

    The index is built from the program's atom table and numbered rules
    alone, never from its `Rule`s: the atom table is sorted once by printed
    form, and each atom number maps to its bits through lists, so no
    atom is hashed per occurrence.  Atom i has the bit `1 << i` of the
    engine, for i below `width`, and each subjective atom k the bit
    `kbit[k]` above them, in the order of their printed forms, so the
    bits do not depend on how the atoms were numbered.  A valuation is
    the mask of its known `kbit`s, and it keeps the rules whose
    subjective literals it satisfies, which are the rules
    `apply_valuation` keeps, so one index serves every candidate.  The
    inner atom of every subjective atom has a bit, even if no rule
    mentions it outside `&k{}`.

    The index splits the program once into independent parts, groups
    of rules that share no atom and no subjective atom whatever the
    valuation: a rule ties together every atom it uses and the inner
    atom of each of its subjective atoms, so a subjective atom `&k{l}`
    lies in the part of the atom of l.  `parts` holds one `_Part` per
    part, in ascending order of its lowest atom bit; rules without atoms
    or subjective literals (`:- .`) form one part of their own, which
    comes first.  Each part has its own bits: its atoms, then its
    subjective atoms, in the engine's order, so its searches branch and
    its models come in the order they would over the engine's bits.
    Each rule is built once, straight over them, as masks (head, pos,
    neg, negneg), with `&k{l}` as a `not not` literal over its bit and
    `not &k{l}` as a `not` literal.  Parts whose rules, in any order,
    and subjective atoms are equal over their own bits share one
    `_Part`, as model counters cache equal components (Sang, Bacchus,
    Beame, Kautz, Pitassi, SAT 2004); `to_global` and `to_local` map
    masks between a part's bits and the engine's.  `answer_sets` and
    `consequences` ask every part, and `solve` guesses and checks each
    part on its own.  `tight` tells whether every part is tight.
    """

    def __init__(self, program: GroundProgram):
        atoms, katoms, inner = program.atoms, program.katoms, program.inner
        # Per-part results, and so the order world views are emitted
        # in, follow the bit order.  An AuxAtom sorts right after a
        # program atom printed the same way, so the numbering never
        # decides between them.
        order = sorted(range(len(atoms)),
                       key=lambda n: (print_atom(atoms[n]), isinstance(atoms[n], AuxAtom)))
        self.atom_of = [atoms[n] for n in order]
        self.width = width = len(order)
        korder = sorted(range(len(katoms)), key=lambda n: print_subjective(katoms[n]))
        self.kbit = {katoms[n]: 1 << (width + i) for i, n in enumerate(korder)}

        rules = list(program.numbered)
        # a and -a never hold together: `:- a, -a.`
        for n in order:
            a = atoms[n]
            if a.strong_neg:
                twin = program.number.get(Atom(a.name, a.args, False))
                if twin is not None:
                    rules.append(((), ((0, n), (0, twin)), False))
        # The atom numbers that tie each rule into its part: its atoms
        # and the inner atom of each of its subjective atoms.
        groups, members = _group([[*head, *[n if kind < NOT_K else inner[n] for kind, n in body]]
                                  for head, body, _ in rules], order)
        # The bit index of each atom number and subjective atom number in
        # its part.  Indices, not masks: a wide part would hold a big int
        # per atom.
        local = [0] * width
        part_of = [0] * width
        for j, ns in enumerate(members):
            for i, r in enumerate(ns):
                local[order[r]] = i
                part_of[order[r]] = j
        klocal = [0] * len(korder)
        kplace = [0] * len(korder)  # the engine's bit index of each subjective atom number
        part_katoms: list[list[int]] = [[] for _ in groups]
        for i, n in enumerate(korder, width):
            j = part_of[inner[n]]
            klocal[n] = len(members[j]) + len(part_katoms[j])
            kplace[n] = i
            part_katoms[j].append(n)

        # Only parts of equal sizes can be equal: the others skip the key.
        sizes = Counter(zip(map(len, groups), map(len, members), map(len, part_katoms)))
        shapes: dict[tuple, _Part] = {}
        self.parts: list[_Part] = []
        # The engine's bit of each bit of a part; None where they are equal.
        self.places: list[list[int] | None] = []
        for group, ns, ks in zip(groups, members, part_katoms):
            masks_of = []
            for r in group:
                head, body, choice = rules[r]
                h = 0
                for n in head:
                    h |= 1 << local[n]
                masks = [0, 0, h if choice else 0]  # pos, neg, negneg; {a}. is a :- not not a.
                for kind, n in body:
                    if kind < NOT_K:
                        masks[kind] |= 1 << local[n]
                    else:  # `not &k{l}` is a `not` literal over its bit, `&k{l}` a `not not` one
                        masks[1 if kind == NOT_K else 2] |= 1 << klocal[n]
                masks_of.append((h, *masks))
            ks_of = [(1 << klocal[n], 1 << local[inner[n]], katoms[n].inner.negs == 1) for n in ks]
            if sizes[len(group), len(ns), len(ks)] > 1:
                key = (tuple(sorted(masks_of)), tuple(ks_of))
                part = shapes.get(key)
                if part is None:
                    part = shapes[key] = _Part(masks_of, ks_of)
            else:
                part = _Part(masks_of, ks_of)
            self.parts.append(part)
            places = ns + [kplace[n] for n in ks]
            self.places.append(None if places[-1:] in ([], [len(places) - 1]) else places)
        self.tight = all(part.tight for part in self.parts)

    def to_global(self, j: int, m: int) -> int:
        """The mask `m` over the bits of part j as a mask over the
        engine's bits (the part's guess bit has none)."""
        places = self.places[j]
        if places is None:
            return m
        out = 0
        while m:
            b = m & -m
            out |= 1 << places[b.bit_length() - 1]
            m ^= b
        return out

    def to_local(self, j: int, m: int) -> int:
        """The mask `m` over the engine's bits as a mask over the bits
        of part j, less the bits of other parts."""
        places = self.places[j]
        if places is None:
            return m & (self.parts[j].guess - 1)
        out = 0
        for i, g in enumerate(places):
            if m >> g & 1:
                out |= 1 << i
        return out

    @cached_property
    def index(self) -> dict[Atom, int]:
        """The bit index of each atom."""
        return {a: i for i, a in enumerate(self.atom_of)}

    def known_mask(self, valuation: dict[KAtom, bool]) -> int:
        """The `kbit` mask of the subjective atoms `valuation` makes
        true; atoms the program lacks are left out."""
        known = 0
        for k, bit in self.kbit.items():
            if valuation.get(k):
                known |= bit
        return known

    def _known(self, known: int | None) -> int:
        """`known`, a `kbit` mask; None stands for the empty valuation
        and is refused when the program has subjective literals."""
        if known is None:
            if self.kbit:
                raise ValueError("the program has subjective literals: its answer sets "
                                 "depend on a valuation of them")
            return 0
        return known

    def answer_sets(self, known: int | None = None) -> list[frozenset[Atom]]:
        """All answer sets under the valuation `known` (see `_known`),
        in ascending order of the bitmask: one per choice of an answer
        set of each part."""
        known = self._known(known)
        masks = [0]
        for j, part in enumerate(self.parts):
            found = [self.to_global(j, m) for m in part.models(self.to_local(j, known))]
            if not found:
                return []
            masks = [m | c for m in masks for c in found]
        masks.sort()
        return [self.to_interpretation(m) for m in masks]

    def consequences(self, known: int | None = None) -> tuple[int, int] | None:
        """Cautious and brave consequences as masks under the valuation
        `known` (see `_known`), or None when there is no answer set.  An
        answer set is a union of one answer set per part, so the parts'
        consequences add up."""
        known = self._known(known)
        cautious = brave = 0
        for j, part in enumerate(self.parts):
            found = part.consequences(self.to_local(j, known))
            if found is None:
                return None
            cautious |= self.to_global(j, found[0])
            brave |= self.to_global(j, found[1])
        return cautious, brave

    def to_interpretation(self, m: int) -> frozenset[Atom]:
        atoms = []
        while m:
            i = m.bit_length() - 1
            atoms.append(self.atom_of[i])
            m ^= 1 << i
        return frozenset(atoms)
