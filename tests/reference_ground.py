"""The join `epiworld.grounder` instantiated rules with before it
grounded over term numbers, kept as the reference the order tests in
`test_grounder.py` compare the compiled plans against.

It matches each rule's positive body in source order, atom by atom,
with a dict substitution copied per candidate (`_match`), and builds
every instance's head and `not` atoms anew (`substitute_atom`).  Its
output, rules and atom numbering alike, is the order the grounder keeps:
program rule order, then per round by the position of the first body
atom matched against the last round's atoms, then by the derivation
positions of the matched atoms in body order.
"""

from __future__ import annotations

from bisect import bisect_left

from epiworld.grounder import (K, MAX_INSTANCES, NOT_K, GroundingError, GroundProgram,
                               atom_vars, program_safety_check)
from epiworld.syntax import (MAX_TERM_DEPTH, Atom, Compound, KAtom, ObjLiteral, Program,
                             SubjLiteral, Term, Var, print_rule, substitute_atom,
                             substitute_term, term_vars)


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
