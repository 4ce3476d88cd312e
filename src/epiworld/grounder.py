"""Variable instantiation and ground-program simplification.

`ground_program` instantiates rules bottom-up: it derives the atoms
that can still be derived when `not` and subjective literals are
ignored, and instantiates each rule with variables once per way its
positive objective body matches them (a semi-naive fixpoint; Kaminski
and Schaub, "On the Foundations of Grounding in Answer Set
Programming", TPLP 2023).  Terms that rule heads build, such as f(a)
from p(f(X)), are followed.  Rules that are already ground pass
through unchanged.  `MAX_INSTANCES`, `MAX_ATTEMPTS` and
`syntax.MAX_TERM_DEPTH` bound the work, so a program whose instances
grow without end, or whose joins are wide whichever way they run, is
refused with `GroundingError`.

Instantiation runs over numbers, as gringo's does: each distinct
ground term is interned once, with its printed form, a compound with
its functor, argument numbers and depth, and every atom is keyed by
(predicate number, argument numbers).  Each round visits only the
rules with a positive body predicate that got atoms in the round
before (semi-naive evaluation at the level of predicates: Balbin,
Ramamohanarao, JLP 1987).  Each rule with variables is compiled, on
the first round that visits it with an atom of each of its positive
body predicates, into a plan over variable slots, whose join step per
body atom looks up the derived atoms by the arguments earlier steps
bound and then binds or compares the others.
Each round orders each join greedily, the body atom with the most
bound arguments first, then the one with the fewest derived atoms in
range, and sorts what a reordered join finds back into source order,
so the output does not depend on the order chosen.

A ground program has one form, the one the engine reads: numbers, as
gringo hands a ground program to clasp (clingo 5's aspif format:
Gebser et al., "Theory solving made easy with clingo 5", ICLP TC 2016).
A `GroundProgram` is an atom table, in which each ground atom is
numbered once, when it first appears, with its printed form, and its
rules as tuples of those numbers.  `ground_program` fills one as it
instantiates, by atom keys: the join hands over the numbers of the
body atoms it matched, and no `Atom` is built for an atom it derives;
those `Atom`s and the `Rule`s are built from the numbers only when
asked, for listings, tests, `optimize` and the oracle.  A program built
from `Rule`s numbers them at once and keeps them.  `simplify` drops
what forward chaining (`_forward`, which the engine runs before it
builds any mask) decides from a program without subjective atoms; the
result bounds the well-founded consequences from both sides (its facts
are cautious consequences of the input, each brave one heads a rule).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from functools import cached_property

from .syntax import (MAX_TERM_DEPTH, Atom, AuxAtom, Compound, KAtom, ObjLiteral, Program, Rule,
                     SubjLiteral, Term, Var, print_atom, print_rule, print_term, term_vars)


class SafetyError(Exception):
    pass


class GroundingError(Exception):
    pass


# ---------------------------------------------------------------------------
# Variable bookkeeping


def atom_vars(a: Atom) -> set[str]:
    out: set[str] = set()
    for t in a.args:
        if isinstance(t, Var):
            out.add(t.name)
        elif isinstance(t, Compound):
            out |= term_vars(t)
    return out


def safety_check(rule: Rule) -> set[str]:
    """Every variable must occur in a positive objective body literal.

    Occurrences inside subjective atoms do not make a variable safe.
    Returns the variables of the rule.
    """
    variables: set[str] = set()
    bound: set[str] = set()
    for a in rule.head:
        variables |= atom_vars(a)
    for lit in rule.body:
        if isinstance(lit, ObjLiteral):
            found = atom_vars(lit.atom)
            if lit.negs == 0:
                bound |= found
        else:
            found = atom_vars(lit.katom.inner.atom)
        variables |= found
    unsafe = variables - bound
    if unsafe:
        raise SafetyError(f"unsafe variable {min(unsafe)!r} in rule: {print_rule(rule)}")
    return variables


def program_safety_check(program: Program) -> list[set[str]]:
    """`safety_check` on every rule; returns the variables of each."""
    return [safety_check(r) for r in program.rules]


# ---------------------------------------------------------------------------
# Instantiation

# The kinds of a numbered body entry past the objective ones (0, 1 and
# 2, an atom under that many `not`s): `not &k{l}` and `&k{l}`.
NOT_K, K = 3, 4


class GroundProgram:
    """A program without variables, as its atom table and its rules as
    numbers, the form `Engine` reads.

    Each atom of the rules has a number, its index in `texts`, which
    holds its printed form (`print_atom`), and in `aux`, which holds 1
    for an `AuxAtom`; each subjective atom has one, its index in
    `katoms`, and `inner[k]` is the number of the inner atom of
    subjective atom k.  No other atom has a number.  A rule of
    `numbered` is (head, body, choice): the numbers of its head atoms,
    then one (kind, number) entry per body literal in order, an atom's
    number for kinds 0, 1 and 2 (that many `not`s), a subjective atom's
    for `NOT_K` and `K`.  `atoms` holds the atoms by number and `number`
    maps them back.

    Built from `Rule`s, a program numbers them in one pass, atoms in
    order of first appearance, and keeps them as `rules`.
    `ground_program` fills an empty one in place from atom keys, so a
    solve builds no `Rule` and no `Atom` for an atom it derives: `atoms`
    builds those on first access, and `number` and `rules` are built
    from them when first asked for, for listings, tests, `optimize` and
    the oracle.  `facts` holds the heads of its facts, and two ground
    programs are equal when their rules are.
    """

    def __init__(self, rules: Iterable[Rule] = ()):
        self.texts: list[str] = []
        self.aux = bytearray()
        self._atoms: list[Atom | None] = []  # None: a derived atom not built yet
        self._number: dict[Atom, int] | None = {}
        self._build: _KeyedAtoms | None = None
        self.katoms: list[KAtom] = []
        self.inner: list[int] = []
        self.knumber: dict[tuple[int, int], int] = {}  # (inner number, negs) -> number
        self.numbered: list[tuple[tuple[int, ...], tuple[tuple[int, int], ...], bool]] = []
        rules = tuple(rules)
        if rules:  # else `rules` is built from the numbers, as `ground_program` fills them
            self.rules = rules
            self.numbered = [self.rule(r) for r in rules]

    @property
    def atoms(self) -> list[Atom]:
        """The atom of each number; those a grounding derived are built
        from their keys on the first access."""
        if self._build is not None:
            self._build.fill(self._atoms)
            self._build = None
        return self._atoms

    @property
    def number(self) -> dict[Atom, int]:
        if self._number is None:
            self._number = {a: n for n, a in enumerate(self.atoms)}
        return self._number

    def atom(self, a: Atom) -> int:
        """The number of `a`, which it is given at its first call."""
        number = self.number
        n = number.get(a)
        if n is None:
            n = number[a] = len(self._atoms)
            self._atoms.append(a)
            self.texts.append(print_atom(a))
            self.aux.append(isinstance(a, AuxAtom))
        return n

    def katom(self, k: KAtom) -> int:
        """The number of the subjective atom `k`, as `atom` gives it."""
        key = (self.atom(k.inner.atom), k.inner.negs)
        n = self.knumber.get(key)
        if n is None:
            n = self.knumber[key] = len(self.katoms)
            self.katoms.append(k)
            self.inner.append(key[0])
        return n

    def rule(self, r: Rule) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...], bool]:
        """The numbered form of `r`."""
        head = tuple([self.atom(a) for a in r.head])
        return head, tuple([(lit.negs, self.atom(lit.atom)) if isinstance(lit, ObjLiteral)
                            else (NOT_K if lit.negated else K, self.katom(lit.katom))
                            for lit in r.body]), r.is_choice

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        atoms, katoms = self.atoms, self.katoms
        return tuple(Rule(tuple([atoms[n] for n in head]),
                          tuple([ObjLiteral(atoms[n], kind) if kind < NOT_K
                                 else SubjLiteral(katoms[n], kind == NOT_K) for kind, n in body]),
                          choice)
                     for head, body, choice in self.numbered)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundProgram) and self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    def __repr__(self) -> str:
        return f"GroundProgram({self.rules!r})"

    @cached_property
    def facts(self) -> frozenset[Atom]:
        return frozenset(r.head[0] for r in self.rules
                         if not r.is_choice and len(r.head) == 1 and not r.body)

    def text(self) -> str:
        return "".join(print_rule(r) + "\n" for r in self.rules)


# Most rule instances grounding may create, and so (with the heads of
# the ground rules) most atoms it may derive.  A program past it is
# refused with GroundingError instead of exhausting memory.
MAX_INSTANCES = 100_000
# Most match attempts the joins may make, each a derived atom tried
# against a partial substitution.  A join whose every order is wide,
# such as the triangles of a dense graph that has none, is refused with
# GroundingError instead of running for hours.
MAX_ATTEMPTS = 1_000_000

# How a plan reads a term of a rule (`_Grounder.term`): a ground term by
# its number, a variable by its slot, a compound with variables by its
# functor and the readings of its arguments.  The ops of a join step on
# an argument that no earlier step binds (`_match`) compare a constant,
# compare a slot, match a compound, or bind a slot.
_CONST, _SLOT, _COMPOUND, _BIND = 0, 1, 2, 3


def _match(ops: tuple, args: tuple[int, ...], slots: list, shapes: list) -> bool:
    """Run a join step's ops on the argument numbers `args` of a derived
    atom.  `slots` may be left partly bound on failure."""
    for p, op, v in ops:
        t = args[p]
        if op == _BIND:
            slots[v] = t
        elif op == _SLOT:
            if slots[v] != t:
                return False
        elif op == _CONST:
            if t != v:
                return False
        else:
            functor, arity, inner = v
            shape = shapes[t]
            if (shape is None or shape[0] != functor or len(shape[1]) != arity
                    or not _match(inner, shape[1], slots, shapes)):
                return False
    return True


class _Plan:
    """A rule with variables compiled over variable slots, once per
    grounding, on the first round that visits the rule with an atom of
    each of its positive body predicates.

    `body` holds the rule's positive objective body atoms in source
    order, with their predicate numbers (`preds`) and the variables of
    each of their arguments (`argvars`), which order its joins; `steps`
    holds the compiled steps of each join order used so far
    (`_Grounder.steps`).  `slot` numbers the variables.  `head` reads
    each head atom as (predicate number, the readings of its arguments,
    whether one builds a compound), and `literals` tells how an
    instance numbers each body literal, as (kind, ref, template, k): a
    positive atom is (0, its position in `body`, None, None).  Else ref
    is (key, `Atom`) of a ground literal's atom, keyed once, when the
    plan is built (`_Grounder.literal`), or None, and then template is
    the reading of the atom, which has variables; k is None for an
    objective literal and (the inner `negs`, the `KAtom` if it is
    ground) for a subjective one.  The instances are collected in
    `found`.
    """

    def __init__(self, g: _Grounder, rule: Rule) -> None:
        self.rule = rule
        self.body = [lit.atom for lit in rule.body if isinstance(lit, ObjLiteral) and lit.negs == 0]
        slot: dict[str, int] = {}
        for a in self.body:
            for name in sorted(atom_vars(a)):
                slot.setdefault(name, len(slot))
        self.slot = slot
        self.preds = [g.pred(a) for a in self.body]
        self.argvars = [[term_vars(t) for t in a.args] for a in self.body]
        self.head = [g.template(a, slot) for a in rule.head]
        self.literals: list[tuple] = []
        k = 0
        for lit in rule.body:
            if isinstance(lit, ObjLiteral) and not lit.negs:
                self.literals.append((0, k, None, None))
                k += 1
            elif isinstance(lit, ObjLiteral):
                self.literals.append((lit.negs, None, g.template(lit.atom, slot), None)
                                     if atom_vars(lit.atom) else g.literal(lit))
            else:
                inner = lit.katom.inner
                self.literals.append((NOT_K if lit.negated else K, None,
                                      g.template(inner.atom, slot), (inner.negs, None))
                                     if atom_vars(inner.atom) else g.literal(lit))
        self.source = tuple(range(len(self.body)))
        self.steps: dict[tuple[int, ...], list[tuple]] = {}
        self.found: list[tuple] = []


class _Grounder:
    """The state of one grounding: a term table, atom keys, the derived
    atoms and their indexes, filling the atom table of `table`.

    Each distinct ground term has a number: `terms[t]` is the term,
    `spelling[t]` its printed form, `shapes[t]` is None for a constant
    or a number and (functor, argument numbers) for a compound, and
    `depths[t]` is its nesting, so a compound's depth is known when it
    is interned.  Each predicate has a number (`preds`, by class, name,
    arity and sign, so an `AuxAtom` is kept apart from the program atom
    it prints as), and every atom, the parser's included, is keyed by
    (predicate number, argument numbers).  `atom` numbers the keys in
    `table` and records each one's printed form, built from `prefix`
    and the spellings of its arguments, so no `Atom` is built for an
    atom the grounding derives: `build` builds it from `keys` when it is
    asked for.  The derived atoms of predicate p are `nums[p]`, with
    their argument numbers in `args[p]`, in derivation order, and
    `position` gives each derived atom's index there, so a round of the
    semi-naive fixpoint can tell the atoms of earlier rounds, [0, lo),
    from those of the last round, [lo, hi).  `grown` collects the
    predicates that got atoms since the round began.
    """

    def __init__(self, table: GroundProgram) -> None:
        self.table = table
        self.term_of: dict = {}  # a constant or number, or (functor, argument numbers)
        self.terms: list[Term] = []
        self.spelling: list[str] = []
        self.shapes: list[tuple | None] = []
        self.depths: list[int] = []
        self.pred_of: dict[tuple, int] = {}
        self.preds: list[tuple] = []
        self.prefix: list[str] = []  # the printed form of an atom of the predicate, up to "("
        self.atom_of: dict[tuple, int] = {}
        self.keys: list[tuple] = []
        self.atoms, self.texts, self.aux = table._atoms, table.texts, table.aux
        table._number = None
        table._build = self.build = _KeyedAtoms(self.terms, self.preds, self.keys)
        self.nums: list[list[int]] = []
        self.args: list[list[tuple[int, ...]]] = []
        self.position: dict[int, int] = {}
        self.grown: set[int] = set()
        # (predicate, argument positions) -> [the derivation positions
        # of the atoms of the predicate by their arguments at those
        # positions, ascending; how many atoms the index holds]
        self.indexes: dict[tuple, list] = {}
        self.count = 0  # rule instances
        self.attempts = 0

    # -- terms and atoms

    def pred(self, a: Atom) -> int:
        key = (type(a), a.name, len(a.args), a.strong_neg)
        p = self.pred_of.get(key)
        if p is None:
            p = self.pred_of[key] = len(self.preds)
            self.preds.append(key)
            self.prefix.append(f"{'-' if a.strong_neg else ''}{a.name}{'(' if a.args else ''}")
            self.nums.append([])
            self.args.append([])
        return p

    def intern(self, t: Term) -> int:
        """The number of the ground term `t`."""
        if isinstance(t, Compound):
            return self.compound(t.functor, tuple([self.intern(a) for a in t.args]))
        n = self.term_of.get(t)
        if n is None:
            n = self.term_of[t] = len(self.terms)
            self.terms.append(t)
            self.spelling.append(print_term(t))
            self.shapes.append(None)
            self.depths.append(0)
        return n

    def compound(self, functor: str, args: tuple[int, ...]) -> int:
        key = (functor, args)
        n = self.term_of.get(key)
        if n is None:
            n = self.term_of[key] = len(self.terms)
            terms, depths, spelling = self.terms, self.depths, self.spelling
            terms.append(Compound(functor, tuple([terms[a] for a in args])))
            spelling.append(f"{functor}({','.join([spelling[a] for a in args])})")
            self.shapes.append(key)
            depths.append(1 + max([depths[a] for a in args]))
        return n

    def key(self, a: Atom) -> tuple[int, tuple[int, ...]]:
        """The key of the ground atom `a`."""
        return self.pred(a), tuple([self.intern(t) for t in a.args])

    def literal(self, lit: ObjLiteral | SubjLiteral) -> tuple:
        """A ground body literal as a plan holds it (`_Plan.literals`)."""
        if isinstance(lit, ObjLiteral):
            return lit.negs, (self.key(lit.atom), lit.atom), None, None
        inner = lit.katom.inner
        return (NOT_K if lit.negated else K, (self.key(inner.atom), inner.atom), None,
                (inner.negs, lit.katom))

    def reading(self, t: Term, slot: dict[str, int]) -> tuple:
        if isinstance(t, Var):
            return _SLOT, slot[t.name]
        if isinstance(t, Compound) and term_vars(t):
            return _COMPOUND, (t.functor, tuple([self.reading(a, slot) for a in t.args]))
        return _CONST, self.intern(t)

    def template(self, a: Atom, slot: dict[str, int]) -> tuple:
        readings = tuple([self.reading(t, slot) for t in a.args])
        return self.pred(a), readings, any(kind == _COMPOUND for kind, _ in readings)

    def term(self, reading: tuple, slots: list) -> int:
        """The number of the term a reading gives under `slots`."""
        kind, v = reading
        if kind == _SLOT:
            return slots[v]
        if kind == _CONST:
            return v
        functor, args = v
        return self.compound(functor, tuple([self.term(r, slots) for r in args]))

    def atom(self, key: tuple[int, tuple[int, ...]], a: Atom | None = None) -> int:
        """The number in `table` of the atom keyed `key`, which it is
        given, with its printed form, at its first call; `a` is its
        `Atom` if the caller has one."""
        n = self.atom_of.get(key)
        if n is None:
            n = self.atom_of[key] = len(self.keys)
            self.keys.append(key)
            self.atoms.append(a)
            pred, args = key
            if args:
                spelling = self.spelling
                self.texts.append(f"{self.prefix[pred]}{','.join([spelling[t] for t in args])})")
            else:
                self.texts.append(self.prefix[pred])
            self.aux.append(self.preds[pred][0] is AuxAtom)
        return n

    def katom(self, n: int, negs: int, k: KAtom | None) -> int:
        """The number in `table` of the subjective atom over atom n and
        `negs`, which it is given at its first call; `k` is its `KAtom`
        if the caller has one, else one is built, with atom n."""
        table = self.table
        key = (n, negs)
        m = table.knumber.get(key)
        if m is None:
            if k is None:
                a = self.atoms[n]
                if a is None:
                    a = self.atoms[n] = self.build.atom(n)
                k = KAtom(ObjLiteral(a, negs))
            m = table.knumber[key] = len(table.katoms)
            table.katoms.append(k)
            table.inner.append(n)
        return m

    def derive(self, n: int, pred: int, args: tuple[int, ...]) -> None:
        """Derive atom number n, keyed (pred, args), not derived before."""
        nums = self.nums[pred]
        self.position[n] = len(nums)
        nums.append(n)
        self.args[pred].append(args)
        self.grown.add(pred)

    # -- rules without variables

    def fire_ground(self, rule: Rule, heads: list[tuple]) -> tuple[int, ...]:
        """Derive the head atoms, as (key, atom), of a rule without
        variables; returns their numbers."""
        atom_of, position = self.atom_of, self.position
        numbers = []
        for key, a in heads:
            n = atom_of.get(key)
            if n is None:
                n = self.atom(key, a)
            numbers.append(n)
            if n not in position:
                self.derive(n, *key)
                if any(self.depths[t] > MAX_TERM_DEPTH for t in key[1]):
                    raise _too_deep(rule)
        return tuple(numbers)

    def holds(self, body: list[tuple], lo: list[int], hi: list[int]) -> bool:
        """Whether every atom of a ground positive body, by key, was
        derived by the end of the last round, one of them in it."""
        position, atom_of = self.position, self.atom_of
        new = False
        for key in body:
            p = key[0]
            at = position.get(atom_of.get(key), -1)
            if not 0 <= at < hi[p]:
                return False
            new = new or at >= lo[p]
        return new

    def numbered(self, heads: list[tuple], body: list[tuple], choice: bool) -> tuple:
        """The numbered form of a rule without variables, as its head
        atoms, (key, atom), and its body literals (`literal`) hold it."""
        atom, katom = self.atom, self.katom
        return (tuple([atom(key, a) for key, a in heads]),
                tuple([(kind, atom(*ref) if k is None else katom(atom(*ref), *k))
                       for kind, ref, _, k in body]), choice)

    # -- rules with variables

    def instantiate(self, plan: _Plan, lo: list[int], hi: list[int]) -> None:
        """Fire each instance of `plan` that matches its body against the
        atoms derived before this round, at least one body atom against
        an atom of the last round.

        The first such body atom in source order, the delta atom at i,
        matches an atom of [lo, hi), the atoms before it older atoms,
        those after it any atom up to hi, so each substitution comes
        once.  A body atom whose range is empty matches nothing, so then
        no atom is scanned.  The instances of each i come in the order
        of the derivation positions of their matched atoms in source
        body order; a join order other than the source order collects
        them and sorts them into it before they fire."""
        preds = plan.preds
        for i in range(len(preds)):
            ranges = [(0, lo[p]) if s < i else (lo[p], hi[p]) if s == i else (0, hi[p])
                      for s, p in enumerate(preds)]
            if any(start >= stop for start, stop in ranges):
                continue
            order = self.order(plan, [stop - start for start, stop in ranges])
            if order == plan.source:
                self.join(plan, self.steps(plan, order), ranges, None)
            else:
                found: list[tuple] = []
                self.join(plan, self.steps(plan, order), ranges, found)
                found.sort()
                for _, slots, matched in found:
                    self.fire(plan, slots, matched)

    @staticmethod
    def order(plan: _Plan, sizes: list[int]) -> tuple[int, ...]:
        """The join order of `plan`'s body, chosen greedily: most bound
        arguments first, then fewest atoms in range, then source order."""
        if len(sizes) == 1:
            return plan.source
        bound: set[str] = set()
        left = list(plan.source)
        order = []
        while left:
            s = min(left, key=lambda s: (-sum(v <= bound for v in plan.argvars[s]),
                                         sizes[s], s))
            left.remove(s)
            order.append(s)
            bound |= atom_vars(plan.body[s])
        return tuple(order)

    def steps(self, plan: _Plan, order: tuple[int, ...]) -> list[tuple]:
        """The compiled steps of `plan`'s join in `order`, one per body
        atom: (its source position, its predicate, the argument positions
        that earlier steps bind, their readings, the ops on the others)."""
        steps = plan.steps.get(order)
        if steps is None:
            steps = plan.steps[order] = []
            bound: set[str] = set()
            for s in order:
                pattern = plan.body[s]
                at = [p for p, v in enumerate(plan.argvars[s]) if v <= bound]
                values = tuple([self.reading(pattern.args[p], plan.slot) for p in at])
                seen = set(bound)
                ops = tuple([(p, *self.op(pattern.args[p], plan.slot, seen))
                             for p in range(len(pattern.args)) if p not in at])
                steps.append((s, plan.preds[s], tuple(at), values, ops))
                bound |= atom_vars(pattern)
        return steps

    def op(self, t: Term, slot: dict[str, int], seen: set[str]) -> tuple:
        """(op, value) on a term that no earlier step binds; `seen` holds
        the variables bound before it, to which its own are added."""
        if isinstance(t, Var):
            if t.name in seen:
                return _SLOT, slot[t.name]
            seen.add(t.name)
            return _BIND, slot[t.name]
        if isinstance(t, Compound) and term_vars(t):
            return _COMPOUND, (t.functor, len(t.args),
                               tuple([(p, *self.op(a, slot, seen)) for p, a in enumerate(t.args)]))
        return _CONST, self.intern(t)

    def lookup(self, pred: int, at: tuple[int, ...], key, start: int, stop: int) -> list[int]:
        """The derivation positions in [start, stop), ascending, of the
        atoms of `pred` whose arguments at positions `at` are `key`, one
        number for one position, else a tuple.  The index on (pred, at)
        is built on first use and brought up to date at each lookup."""
        args = self.args[pred]
        entry = self.indexes.get((pred, at))
        if entry is None:
            entry = self.indexes[(pred, at)] = [{}, 0]
        index, held = entry
        if held < len(args):
            if len(at) == 1:
                p = at[0]
                for i in range(held, len(args)):
                    index.setdefault(args[i][p], []).append(i)
            else:
                for i in range(held, len(args)):
                    a = args[i]
                    index.setdefault(tuple([a[p] for p in at]), []).append(i)
            entry[1] = len(args)
        found = index.get(key, ())
        first = bisect_left(found, start)
        return found[first:bisect_left(found, stop, first)]

    def join(self, plan: _Plan, steps: list[tuple], ranges: list[tuple[int, int]],
             out: list | None) -> None:
        """Match the steps in turn, each body atom against the derived
        atoms of its range, and fire each instance found, or append it
        to `out` after the derivation positions of its matched atoms in
        source order."""
        nums, argss, shapes = self.nums, self.args, self.shapes
        term, lookup, fire = self.term, self.lookup, self.fire
        slots: list = [None] * len(plan.slot)
        matched, where = [0] * len(steps), [0] * len(steps)
        last = len(steps) - 1

        def walk(k: int) -> None:
            s, pred, at, values, ops = steps[k]
            start, stop = ranges[s]
            if not at:
                found = range(start, stop)
            elif len(at) == 1:
                found = lookup(pred, at, term(values[0], slots), start, stop)
            else:
                found = lookup(pred, at, tuple([term(r, slots) for r in values]), start, stop)
            self.attempts += len(found)
            if self.attempts > MAX_ATTEMPTS:
                raise GroundingError(f"grounding makes more than {MAX_ATTEMPTS} join match "
                                     f"attempts, at rule: {print_rule(plan.rule)}")
            args, numbers = argss[pred], nums[pred]
            for i in found:
                if ops and not _match(ops, args[i], slots, shapes):
                    continue
                matched[s] = numbers[i]
                where[s] = i
                if k < last:
                    walk(k + 1)
                elif out is None:
                    fire(plan, slots, matched)
                else:
                    if self.count + len(out) >= MAX_INSTANCES:
                        raise _too_many(plan.rule)
                    out.append((tuple(where), tuple(slots), tuple(matched)))

        try:
            walk(0)
        finally:
            del walk  # `walk` holds itself, and through `self` all the grounding state

    def fire(self, plan: _Plan, slots, matched) -> None:
        """Record the instance of `plan` under `slots`, whose positive body
        atoms are the numbers `matched`, and derive its head atoms."""
        self.count += 1
        if self.count > MAX_INSTANCES:
            raise _too_many(plan.rule)
        atom_of, position, term = self.atom_of, self.position, self.term
        head = []
        for pred, readings, built in plan.head:
            args = (tuple([term(r, slots) for r in readings]) if built
                    else tuple([slots[v] if k == _SLOT else v for k, v in readings]))
            n = atom_of.get((pred, args))
            if n is None:
                n = self.atom((pred, args))
            head.append(n)
            if n not in position:
                self.derive(n, pred, args)
                if built and any(self.depths[t] > MAX_TERM_DEPTH for t in args):
                    raise _too_deep(plan.rule)
        body = []
        for kind, ref, template, k in plan.literals:
            if kind == 0:
                body.append((0, matched[ref]))
                continue
            if template is None:
                key, a = ref
            else:
                pred, readings, built = template
                key = (pred, tuple([term(r, slots) for r in readings]) if built
                       else tuple([slots[v] if c == _SLOT else v for c, v in readings]))
                a = None
            n = atom_of.get(key)
            if n is None:
                n = self.atom(key, a)
            body.append((kind, n if k is None else self.katom(n, *k)))
        plan.found.append((tuple(head), tuple(body), plan.rule.is_choice))


class _KeyedAtoms:
    """Builds the `Atom` of an atom number of a grounding from its key,
    (predicate number, argument numbers) in `keys`, reading the term
    table `terms` and the predicate table `preds`.  It holds these
    tables, never the `_Grounder`, so a `GroundProgram` keeps no
    grounding state alive."""

    def __init__(self, terms: list[Term], preds: list[tuple], keys: list[tuple]) -> None:
        self.terms, self.preds, self.keys = terms, preds, keys

    def atom(self, n: int) -> Atom:
        pred, args = self.keys[n]
        cls, name, _, strong = self.preds[pred]
        terms = self.terms
        return cls(name, tuple([terms[t] for t in args]), strong)

    def fill(self, atoms: list[Atom | None]) -> None:
        """Build each atom of `atoms` that is None."""
        for n, a in enumerate(atoms):
            if a is None:
                atoms[n] = self.atom(n)


def _too_many(rule: Rule) -> GroundingError:
    return GroundingError(f"grounding creates more than {MAX_INSTANCES} rule "
                          f"instances, at rule: {print_rule(rule)}")


def _too_deep(rule: Rule) -> GroundingError:
    return GroundingError(f"a derived term nests deeper than {MAX_TERM_DEPTH}, "
                          f"at rule: {print_rule(rule)}")


def ground_program(program: Program) -> GroundProgram:
    """Instantiate each rule once per substitution that matches its
    positive objective body against the derivable atoms.

    An atom is derivable when it heads a rule (choice rules included)
    whose positive objective body atoms are all derivable; `not`,
    `not not` and subjective literals are ignored, so the derivable
    atoms cover every answer set of every reduct.  They are found by a
    semi-naive fixpoint that instantiates the rules as it goes.
    Instances come in program rule order, then in order of derivation.
    Unsafe rules raise `SafetyError`; more than `MAX_INSTANCES`
    instances or `MAX_ATTEMPTS` match attempts, or a derived term
    nested deeper than `MAX_TERM_DEPTH`, raise `GroundingError`.

    Grounding runs over numbers (`_Grounder`): terms are interned, and
    each round visits, in rule order, only the rules with a positive
    body predicate that got atoms in the last round, since each new
    instance matches one of those atoms; so the instances, their order
    and the atom numbering are those of a visit to every rule.  A rule
    with variables is skipped while one of its positive body predicates
    has no atom, since its join would match nothing, and is compiled
    into a plan over variable slots (`_Plan`) on its first visit with
    an atom of each, and each round joins a plan's body in
    a greedy order of its own, then restores the order above.  Atoms
    are numbered by key, and an instance is recorded as numbers, so no
    `Rule`, and no `Atom` for a derived atom, is built.  Facts and
    other rules without variables build no plan and are kept verbatim,
    so grounding is the identity on ground programs, and a ground
    program skips the fixpoint and is handed over as its rules.
    """
    variables = program_safety_check(program)
    rules = program.rules
    if not any(variables):
        return GroundProgram(rules)
    table = GroundProgram()
    g = _Grounder(table)
    # Per rule without variables: its head atoms, as (key, atom), its
    # body literals (`_Grounder.literal`), its positive body keys, and
    # its numbered form if it has no body, as it is numbered when it fires.
    ground: list[tuple | None] = []
    # The rules that read each predicate in their positive body, and the
    # predicates of the positive body of each rule with variables.
    readers: dict[int, list[int]] = {}
    bodies: list[set[int]] = []
    for i, (r, v) in enumerate(zip(rules, variables)):
        if v:
            ground.append(None)
            preds = {g.pred(lit.atom) for lit in r.body if isinstance(lit, ObjLiteral) and not lit.negs}
            bodies.append(preds)
        else:
            bodies.append(set())
            heads = [(g.key(a), a) for a in r.head]
            if not r.body:
                ground.append((heads, (), (), (g.fire_ground(r, heads), (), r.is_choice)))
                continue
            body = [g.literal(lit) for lit in r.body]
            positive = [ref[0] for kind, ref, _, _ in body if kind == 0]
            ground.append((heads, body, positive, None))
            if not positive:
                g.fire_ground(r, heads)
                continue
            preds = {key[0] for key in positive}
        for p in preds:
            readers.setdefault(p, []).append(i)
    plans: list[_Plan | None] = [None] * len(rules)  # each built on the first join of its rule
    lo: list[int] = []
    hi: list[int] = []
    last: set[int] = set()
    while g.grown:
        grown, g.grown = g.grown, set()
        added = [0] * (len(g.nums) - len(lo))  # predicates new since the last round
        lo += added
        hi += added
        for p in last:  # lo becomes the old hi: the last round began there
            lo[p] = hi[p]
        for p in grown:
            hi[p] = len(g.nums[p])
        last = grown
        # A rule none of whose positive body predicates grew in the last
        # round has no instance that matches an atom of it.
        for i in sorted({i for p in grown for i in readers.get(p, ())}):
            entry = ground[i]
            if entry is None:
                if not all(hi[p] for p in bodies[i]):  # a body atom matches nothing yet
                    continue
                plan = plans[i]
                if plan is None:
                    plan = plans[i] = _Plan(g, rules[i])
                g.instantiate(plan, lo, hi)
            elif g.holds(entry[2], lo, hi):
                g.fire_ground(rules[i], entry[0])
    for r, entry, plan in zip(rules, ground, plans):
        if entry is not None:
            table.numbered.append(entry[3] or g.numbered(entry[0], entry[1], r.is_choice))
        elif plan is not None:
            table.numbered += plan.found
    return table


# ---------------------------------------------------------------------------
# Forward chaining and simplification


def _forward(rules: list[tuple[tuple[int, ...], tuple[tuple[int, int], ...], bool]],
             count: int, inner: list[int], later: list | tuple = ()
             ) -> tuple[bytearray, bytearray, list[int], list[int], list[list[int]]]:
    """Forward chaining over numbered `rules` with atoms below `count`, for
    `Engine` and `simplify`, and the ties of `stable._group`, from one
    walk over the rules: (each atom's value, 0 open, 1 true, 2 false; 1
    for each dead rule; the union-find parent of each atom; an atom of
    each rule, -1 for none; the rounds of `later`).  A rule ties together
    its atoms and the inner atom `inner[k]` of each of its subjective atoms k.

    A rule with a false objective literal is dead, an atom that heads no
    live rule is false, and a live rule of one head atom, no choice and
    no subjective literal makes its head true once its literals hold.
    Subjective literals neither hold nor fail, so the values hold under
    every valuation.  This is Fitting's operator (JLP 1985) with no
    backward step, so each atom it makes true is founded.  Each literal
    is counted down once (Dowling, Gallier, JLP 1984).  The rules of
    `later`, each with a body, follow `rules`, but their heads wait for
    an empty worklist: a round lists, by index in `later`, those that
    fired, then releases their heads."""
    split = len(rules)
    rules = [*rules, *later] if later else rules
    value = bytearray(count)
    heads = [0] * count  # the live rules that head each atom
    on_true: list[list[int]] = [[] for _ in range(count)]  # rules a true atom counts down
    on_false: list[list[int]] = [[] for _ in range(count)]  # rules a false atom counts down
    need = [0] * len(rules)  # literals yet to hold; one more if the rule cannot fire
    parent = list(range(count))
    tie = [-1] * len(rules)
    stack, fired, rounds = [], [], []  # fired: the rules of `later` whose heads wait
    for j, (head, body, choice) in enumerate(rules):
        nodes = list(head)
        for n in head:
            heads[n] += 1
        for kind, n in body:
            if kind == 1:
                on_false[n].append(j)
            elif kind < NOT_K:
                on_true[n].append(j)
            else:
                n = inner[n]
            nodes.append(n)
        need[j] = len(body) + (choice or len(head) != 1)
        if not need[j] and not value[head[0]]:
            value[head[0]] = 1
            stack.append(head[0])
        root = -1
        for n in nodes:
            while parent[n] != n:
                parent[n] = parent[parent[n]]
                n = parent[n]
            if root < 0:
                root = tie[j] = n
            elif n != root:
                parent[n] = root
    for n in range(count):
        if not heads[n]:
            value[n] = 2
            stack.append(n)
    dead = bytearray(len(rules))
    while True:
        while stack:
            n = stack.pop()
            holds, fails = (on_true[n], on_false[n]) if value[n] == 1 else (on_false[n], on_true[n])
            for j in holds:
                need[j] -= 1
                if not need[j]:  # so no literal of rule j fails
                    h = rules[j][0][0]
                    if j >= split:
                        fired.append(j - split)
                    elif not value[h]:
                        value[h] = 1
                        stack.append(h)
            for j in fails:
                if not dead[j]:
                    dead[j] = 1
                    for h in rules[j][0]:
                        heads[h] -= 1
                        if not heads[h] and not value[h]:
                            value[h] = 2
                            stack.append(h)
        if not fired:
            return value, dead, parent, tie, rounds
        rounds.append(fired)
        for j in fired:
            h = later[j][0][0]
            if not value[h]:
                value[h] = 1
                stack.append(h)
        fired = []


def simplify(program: GroundProgram) -> GroundProgram:
    """`program` less what one `_forward` run decides: dead rules and
    choice rules whose atom is true are dropped, and so is each body
    literal of the other rules over a decided atom, which then holds.
    The result is idempotent and keeps the answer sets on the surviving
    atoms.  A program with subjective atoms raises `ValueError`, as
    their literals neither hold nor fail.
    """
    if program.katoms:
        raise ValueError("simplify expects a subjective-free program")
    value, dead, _, _, _ = _forward(program.numbered, len(program.atoms), [])
    out: list[Rule] = []
    for r, (head, body, choice), d in zip(program.rules, program.numbered, dead):
        if d or choice and value[head[0]] == 1:
            continue
        kept = tuple([lit for lit, (_, n) in zip(r.body, body) if not value[n]])
        out.append(r if len(kept) == len(r.body) else Rule(r.head, kept))
    return GroundProgram(out)
