"""Variable instantiation and ground-program simplification.

`ground_program` instantiates rules bottom-up: it derives the atoms
that can still be derived when `not` and subjective literals are
ignored, and instantiates each rule with variables once per way its
positive objective body matches them (a semi-naive fixpoint; Kaminski
and Schaub, "On the Foundations of Grounding in Answer Set
Programming", TPLP 2023).  Terms that rule heads build, such as f(a)
from p(f(X)), are followed.  Rules that are already ground pass
through unchanged.  `MAX_INSTANCES` and `syntax.MAX_TERM_DEPTH` bound
the work, so a program whose instances grow without end is refused
with `GroundingError`.

A ground program has one form, the one the engine reads: numbers, as
gringo hands a ground program to clasp (clingo 5's aspif format:
Gebser et al., "Theory solving made easy with clingo 5", ICLP TC 2016).
A `GroundProgram` is an atom table, in which each ground atom is
numbered once, when it first appears, and its rules as tuples of those
numbers.  `ground_program` fills one as it instantiates, and the join
hands over the numbers of the body atoms it matched, so no positive
body atom is built again; its `Rule`s are built from the numbers only
when asked, for listings and tests.  A program built from `Rule`s
numbers them at once and keeps them.  `simplify` closes a list of
ground rules under the usual fact/head rewrites until nothing changes;
the result bounds the well-founded consequences from both sides (its
facts are cautious consequences of the input, its heads cover the
brave ones).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from functools import cached_property

from .syntax import (MAX_TERM_DEPTH, Atom, Compound, KAtom, ObjLiteral, Program, Rule,
                     SubjLiteral, Term, Var, print_rule, substitute_atom, substitute_term,
                     term_vars)


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

    Each atom of the rules has a number, its index in `atoms` (`number`
    maps it back), and each subjective atom one, its index in `katoms`;
    `inner[k]` is the number of the inner atom of subjective atom k.  No
    other atom has a number.  A rule of `numbered` is (head, body,
    choice): the numbers of its head atoms, then one (kind, number)
    entry per body literal in order, an atom's number for kinds 0, 1
    and 2 (that many `not`s), a subjective atom's for `NOT_K` and `K`.

    Built from `Rule`s, a program numbers them in one pass, atoms in
    order of first appearance, and keeps them as `rules`.
    `ground_program` fills an empty one in place, so a solve builds no
    `Rule`; then `rules` is built from the numbers when first asked for,
    for listings and tests.  Heads count choice-rule heads; facts are
    single-atom heads with an empty body.  Two ground programs are equal
    when their rules are.
    """

    def __init__(self, rules: Iterable[Rule] = ()):
        self.atoms: list[Atom] = []
        self.number: dict[Atom, int] = {}
        self.katoms: list[KAtom] = []
        self.inner: list[int] = []
        self.knumber: dict[tuple[int, int], int] = {}  # (inner number, negs) -> number
        self.numbered: list[tuple[tuple[int, ...], tuple[tuple[int, int], ...], bool]] = []
        rules = tuple(rules)
        if rules:  # else `rules` is built from the numbers, as `ground_program` fills them
            self.rules = rules
            self.numbered = [self.rule(r) for r in rules]

    def atom(self, a: Atom) -> int:
        """The number of `a`, which it is given at its first call."""
        n = self.number.get(a)
        if n is None:
            n = self.number[a] = len(self.atoms)
            self.atoms.append(a)
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


# Most rule instances grounding may create, and so (with the heads of
# the ground rules) most atoms it may derive.  A program past it is
# refused with GroundingError instead of exhausting memory.
MAX_INSTANCES = 100_000


def _depth(t: Term) -> int:
    if isinstance(t, Compound):
        return 1 + max(_depth(a) for a in t.args)
    return 0


def _match(pattern: Term, t: Term, sub: dict[str, Term]) -> bool:
    """Extend `sub` so that `pattern` under it equals the ground `t`
    (one-way unification).  `sub` may be left partly extended on
    failure."""
    if isinstance(pattern, Var):
        return sub.setdefault(pattern.name, t) == t
    if isinstance(pattern, Compound):
        return (isinstance(t, Compound) and t.functor == pattern.functor
                and len(t.args) == len(pattern.args)
                and all(_match(p, a, sub) for p, a in zip(pattern.args, t.args)))
    return pattern == t


def _key(a: Atom) -> tuple:
    # The class keeps an `AuxAtom` apart from the program atom it prints as.
    return type(a), a.name, len(a.args), a.strong_neg


class _Derivable:
    """The atoms derived so far, as their numbers in `table`, by key and
    in derivation order.

    `position` gives each derived atom's index in the list of its key,
    so a round of the semi-naive fixpoint can tell the atoms of earlier
    rounds, [0, lo), from those of the last round, [lo, hi), where lo
    and hi are the list lengths at the start of the last round and of
    this one.  A body atom with some arguments bound is looked up
    through an index on those argument positions, built on first use
    and brought up to date at each lookup.
    """

    def __init__(self, table: GroundProgram) -> None:
        self.table = table
        self.atoms: dict[tuple, list[int]] = {}
        self.position: dict[int, int] = {}
        # (key, argument positions) -> [the indices of the atoms of key
        # by their arguments at those positions, ascending; how many
        # atoms of key the index holds]
        self.indexes: dict[tuple, list] = {}

    def add(self, n: int) -> bool:
        """Derive atom number n; whether it was not derived before."""
        if n in self.position:
            return False
        found = self.atoms.setdefault(_key(self.table.atoms[n]), [])
        self.position[n] = len(found)
        found.append(n)
        return True

    def sizes(self) -> dict[tuple, int]:
        return {k: len(v) for k, v in self.atoms.items()}

    def lookup(self, key: tuple, at: tuple[int, ...], values: tuple,
               start: int, stop: int) -> list[int]:
        """The atoms of `key` with index in [start, stop) whose
        arguments at positions `at` equal `values`, in derivation
        order."""
        atoms, table = self.atoms[key], self.table.atoms
        entry = self.indexes.setdefault((key, at), [{}, 0])
        index, held = entry
        for i in range(held, len(atoms)):
            args = table[atoms[i]].args
            index.setdefault(tuple([args[p] for p in at]), []).append(i)
        entry[1] = len(atoms)
        found = index.get(values, ())
        first = bisect_left(found, start)
        return [atoms[i] for i in found[first:bisect_left(found, stop, first)]]

    def join(self, body: list[Atom], lo: dict, hi: dict):
        """Substitutions that match every atom of `body` against a
        derived atom of a round before this one, at least one of them
        against an atom of the last round, each with the numbers of the
        atoms it matched.  The first such body atom is atom i: atoms
        before it match older atoms, atoms after it any atom up to hi,
        so each substitution comes once.  A body atom whose key has no
        derived atom yet matches nothing, so then no atom is scanned."""
        if any(_key(a) not in hi for a in body):
            return
        # Per body atom: the argument positions that the atoms before it
        # bind, the others, and whether it is ground once they are bound.
        steps = []
        bound: set[str] = set()
        for pattern in body:
            known = [term_vars(t) <= bound for t in pattern.args]
            steps.append((tuple(p for p, k in enumerate(known) if k),
                          tuple(p for p, k in enumerate(known) if not k), all(known)))
            bound |= atom_vars(pattern)
        for i in range(len(body)):
            key = _key(body[i])
            if lo.get(key, 0) < hi.get(key, 0):
                yield from self._extend(body, steps, 0, i, {}, (), lo, hi)

    def _extend(self, body, steps, j, i, sub, matched, lo, hi):
        if j == len(body):
            yield sub, matched
            return
        pattern = body[j]
        at, free, ground = steps[j]
        key = _key(pattern)
        start = lo.get(key, 0) if j == i else 0
        stop = lo.get(key, 0) if j < i else hi.get(key, 0)
        if ground:
            n = self.table.number.get(substitute_atom(pattern, sub, Var), -1)
            if start <= self.position.get(n, -1) < stop:
                yield from self._extend(body, steps, j + 1, i, sub, matched + (n,), lo, hi)
            return
        if at:
            values = tuple([substitute_term(pattern.args[p], sub, Var) for p in at])
            candidates = self.lookup(key, at, values, start, stop)
        else:
            candidates = self.atoms[key][start:stop]
        table = self.table.atoms
        for n in candidates:
            args = table[n].args
            s = dict(sub)
            if all(_match(pattern.args[p], args[p], s) for p in free):
                yield from self._extend(body, steps, j + 1, i, s, matched + (n,), lo, hi)


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
    instances, or a derived term nested deeper than `MAX_TERM_DEPTH`,
    raise `GroundingError`.

    The result is filled in numbered form: each atom is numbered once,
    when it first appears, and each instance is recorded as numbers, so
    no `Rule` is built.  A positive body atom is numbered by the join
    that matched it, so only heads, `not` and `not not` atoms and
    subjective atoms with variables are substituted.  Rules without
    variables are kept verbatim, so grounding is the identity on ground
    programs, and a ground program skips the fixpoint and is handed over
    as its rules.
    """
    variables = program_safety_check(program)
    rules = program.rules
    if not any(variables):
        return GroundProgram(rules)
    bodies = [[lit.atom for lit in r.body if isinstance(lit, ObjLiteral) and lit.negs == 0]
              for r in rules]
    # How an instance numbers each body literal of a rule with variables:
    # (0, the position of the atom in the rule's body above), or (kind,
    # the literal's atom or subjective atom, whether it has variables).
    plans: list[list[tuple]] = []
    for r in rules:
        plan, k = [], 0
        for lit in r.body:
            if isinstance(lit, SubjLiteral):
                plan.append((NOT_K if lit.negated else K, lit.katom,
                             bool(atom_vars(lit.katom.inner.atom))))
            elif lit.negs:
                plan.append((lit.negs, lit.atom, bool(atom_vars(lit.atom))))
            else:
                plan.append((0, k, False))
                k += 1
        plans.append(plan)
    found: list[list[tuple]] = [[] for _ in rules]
    table = GroundProgram()
    derived = _Derivable(table)
    count = 0

    def fire(j: int, sub: dict[str, Term], matched: tuple[int, ...]) -> None:
        nonlocal count
        rule = rules[j]
        if variables[j]:
            count += 1
            if count > MAX_INSTANCES:
                raise GroundingError(f"grounding creates more than {MAX_INSTANCES} rule "
                                     f"instances, at rule: {print_rule(rule)}")
        head = []
        for a in rule.head:
            if sub:
                a = substitute_atom(a, sub, Var)
            n = table.atom(a)
            head.append(n)
            if derived.add(n) and any(_depth(t) > MAX_TERM_DEPTH for t in a.args):
                raise GroundingError(f"a derived term nests deeper than {MAX_TERM_DEPTH}, "
                                     f"at rule: {print_rule(rule)}")
        if not variables[j]:
            return
        body = []
        for kind, ref, free in plans[j]:
            if kind == 0:
                n = matched[ref]
            elif kind < NOT_K:
                n = table.atom(substitute_atom(ref, sub, Var) if free else ref)
            else:
                n = table.katom(KAtom(ObjLiteral(substitute_atom(ref.inner.atom, sub, Var),
                                                 ref.inner.negs)) if free else ref)
            body.append((kind, n))
        found[j].append((tuple(head), tuple(body), rule.is_choice))

    for j, body in enumerate(bodies):
        if not body:
            fire(j, {}, ())
    lo, hi = {}, derived.sizes()
    while lo != hi:
        for j, body in enumerate(bodies):
            for sub, matched in derived.join(body, lo, hi):
                fire(j, sub, matched)
        lo, hi = hi, derived.sizes()
    for j, rule in enumerate(rules):
        if variables[j]:
            table.numbered += found[j]
        else:
            table.numbered.append(table.rule(rule))
    return table


# ---------------------------------------------------------------------------
# Simplification


def simplify(program: GroundProgram) -> GroundProgram:
    """Close the program under fact/head rewrites.

    Per pass, with F the current facts and H the current heads: a body
    literal over an atom in F, or over an atom outside H, holds or
    fails (`a` and `not not a` hold for a in F and fail for a outside
    H, `not a` the other way round).  Rules with a failing literal are
    dropped, and holding literals are removed from the bodies; a choice
    rule whose atom is a fact is dropped.  Repeats until a fixpoint,
    so the result is idempotent and answer sets are preserved on the
    surviving atoms.
    """
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
