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
with `GroundingError`.  `simplify` closes a ground program under the usual
fact/head rewrites until nothing changes; the result bounds the
well-founded consequences from both sides (its facts are cautious
consequences of the input, its heads cover the brave ones).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .syntax import (MAX_TERM_DEPTH, Atom, Compound, ObjLiteral, Program, Rule,
                     SubjLiteral, Term, Var, print_rule, rule_atoms, substitute_atom,
                     substitute_rule, substitute_term, term_vars)


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
        return frozenset(a for r in self.rules for a in rule_atoms(r))

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
    """The atoms derived so far, by key and in derivation order.

    `position` gives each atom's index in the list of its key, so a
    round of the semi-naive fixpoint can tell the atoms of earlier
    rounds, [0, lo), from those of the last round, [lo, hi), where lo
    and hi are the list lengths at the start of the last round and of
    this one.  A body atom with some arguments bound is looked up
    through an index on those argument positions, built on first use
    and brought up to date at each lookup.
    """

    def __init__(self) -> None:
        self.atoms: dict[tuple, list[Atom]] = {}
        self.position: dict[Atom, int] = {}
        # (key, argument positions) -> [the indices of the atoms of key
        # by their arguments at those positions, ascending; how many
        # atoms of key the index holds]
        self.indexes: dict[tuple, list] = {}

    def add(self, a: Atom) -> bool:
        if a in self.position:
            return False
        found = self.atoms.setdefault(_key(a), [])
        self.position[a] = len(found)
        found.append(a)
        return True

    def sizes(self) -> dict[tuple, int]:
        return {k: len(v) for k, v in self.atoms.items()}

    def lookup(self, key: tuple, at: tuple[int, ...], values: tuple,
               start: int, stop: int) -> list[Atom]:
        """The atoms of `key` with index in [start, stop) whose
        arguments at positions `at` equal `values`, in derivation
        order."""
        atoms = self.atoms[key]
        entry = self.indexes.setdefault((key, at), [{}, 0])
        table, held = entry
        for n in range(held, len(atoms)):
            args = atoms[n].args
            table.setdefault(tuple([args[p] for p in at]), []).append(n)
        entry[1] = len(atoms)
        found = table.get(values, ())
        first = bisect_left(found, start)
        return [atoms[n] for n in found[first:bisect_left(found, stop, first)]]

    def join(self, body: list[Atom], lo: dict, hi: dict):
        """Substitutions that match every atom of `body` against a
        derived atom of a round before this one, at least one of them
        against an atom of the last round.  The first such body atom is
        atom i: atoms before it match older atoms, atoms after it any
        atom up to hi, so each substitution comes once.  A body atom
        whose key has no derived atom yet matches nothing, so then no
        atom is scanned."""
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
                yield from self._extend(body, steps, 0, i, {}, lo, hi)

    def _extend(self, body, steps, j, i, sub, lo, hi):
        if j == len(body):
            yield sub
            return
        pattern = body[j]
        at, free, ground = steps[j]
        key = _key(pattern)
        start = lo.get(key, 0) if j == i else 0
        stop = lo.get(key, 0) if j < i else hi.get(key, 0)
        if ground:
            n = self.position.get(substitute_atom(pattern, sub, Var), -1)
            if start <= n < stop:
                yield from self._extend(body, steps, j + 1, i, sub, lo, hi)
            return
        if at:
            values = tuple([substitute_term(pattern.args[p], sub, Var) for p in at])
            candidates = self.lookup(key, at, values, start, stop)
        else:
            candidates = self.atoms[key][start:stop]
        for a in candidates:
            s = dict(sub)
            if all(_match(pattern.args[p], a.args[p], s) for p in free):
                yield from self._extend(body, steps, j + 1, i, s, lo, hi)


def ground_program(program: Program) -> GroundProgram:
    """Instantiate each rule once per substitution that matches its
    positive objective body against the derivable atoms.

    An atom is derivable when it heads a rule (choice rules included)
    whose positive objective body atoms are all derivable; `not`,
    `not not` and subjective literals are ignored, so the derivable
    atoms cover every answer set of every reduct.  They are found by a
    semi-naive fixpoint that instantiates the rules as it goes.  Rules
    without variables are kept verbatim, so grounding is the identity
    on ground programs, and a ground program skips the fixpoint.
    Instances come in program rule order, then in order of derivation.
    Unsafe rules raise `SafetyError`; more than `MAX_INSTANCES`
    instances, or a derived term nested deeper than `MAX_TERM_DEPTH`,
    raise `GroundingError`.
    """
    variables = program_safety_check(program)
    rules = program.rules
    if not any(variables):
        return GroundProgram(rules)
    bodies = [[lit.atom for lit in r.body if isinstance(lit, ObjLiteral) and lit.negs == 0]
              for r in rules]
    found: list[list[dict[str, Term]]] = [[] for _ in rules]
    derived = _Derivable()
    count = 0

    def fire(j: int, sub: dict[str, Term]) -> None:
        nonlocal count
        rule = rules[j]
        if variables[j]:
            count += 1
            if count > MAX_INSTANCES:
                raise GroundingError(f"grounding creates more than {MAX_INSTANCES} rule "
                                     f"instances, at rule: {print_rule(rule)}")
            found[j].append(sub)
        for a in rule.head:
            if sub:
                a = substitute_atom(a, sub, Var)
            if derived.add(a) and any(_depth(t) > MAX_TERM_DEPTH for t in a.args):
                raise GroundingError(f"a derived term nests deeper than {MAX_TERM_DEPTH}, "
                                     f"at rule: {print_rule(rule)}")

    for j, body in enumerate(bodies):
        if not body:
            fire(j, {})
    lo, hi = {}, derived.sizes()
    while lo != hi:
        for j, body in enumerate(bodies):
            for sub in derived.join(body, lo, hi):
                fire(j, sub)
        lo, hi = hi, derived.sizes()
    out: list[Rule] = []
    for j, rule in enumerate(rules):
        if variables[j]:
            out.extend(substitute_rule(rule, sub, Var) for sub in found[j])
        else:
            out.append(rule)
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
