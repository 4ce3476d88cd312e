"""World-view solving over ground programs.

A world view of a program is a non-empty collection W of interpretations
such that W equals the answer sets of the program's subjective reduct by
W: every subjective literal is evaluated against W (`&k{l}` holds when l
holds in each member) and replaced by true or false accordingly, and the
remaining objective program must reproduce exactly the interpretations
of W.

Two paths compute the same thing.  `oracle_world_views` follows the
definition directly: try all 2^k valuations of the k subjective atoms,
reduce, and keep the fixpoints.  `solve` is the production path: one
`Engine` keeps each subjective literal as an assumption, projects each
independent part's answer sets onto them to guess candidates, and
confirms each with a cautious/brave check on the same index that starts
from the guess's answer set and never lists a candidate's answer sets.
`translate_guess` builds the guess as a program, for listings and tests.

The `k15` mode reduces the alternative semantics to the default one by
strengthening each `&k{l}` with l itself: positive occurrences gain l as
an extra body literal, and `not &k{l}` becomes a fresh atom standing for
the weakened complement (not known, or not derivable).
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

from .grounder import GroundProgram, ground_program
from .stable import Engine
from .syntax import (Atom, AuxAtom, KAtom, ObjLiteral, Program, Rule,
                     SubjLiteral, print_subjective)


@dataclass
class WorldView:
    """A subjective valuation with the engine of its program.

    Nothing is computed until asked.  The valuation becomes the
    engine's `kbit` mask once, and every query goes with it to the
    engine's index of each independent part.  `answer_sets` lists the
    answer sets of every part and expands their product, which for a
    program of many independent parts can be far more than memory
    holds.  `cautious` never lists them: each part refines one answer
    set at a time.
    """
    valuation: dict[KAtom, bool]
    engine: Engine = field(repr=False)

    def known(self) -> list[KAtom]:
        """Subjective atoms the view makes true, in display order."""
        true = [k for k, v in self.valuation.items() if v]
        return sorted(true, key=print_subjective)

    @cached_property
    def known_mask(self) -> int:
        """The valuation as the engine's `kbit` mask."""
        return self.engine.known_mask(self.valuation)

    @cached_property
    def answer_sets(self) -> tuple[frozenset[Atom], ...]:
        """The answer sets, in ascending order of the bitmask."""
        return tuple(self.engine.answer_sets(self.known_mask))

    def cautious(self) -> frozenset[Atom]:
        """Program atoms true in every answer set; machinery atoms are
        projected away, as in `expand_world_view`."""
        cautious, _ = self.engine.consequences(self.known_mask)
        return _program_atoms(self.engine.to_interpretation(cautious))


@dataclass
class SolveStats:
    """Counts of one `solve` call.  `parts` is the number of independent
    parts of the ground program, `shapes` the number of distinct
    `_Part`s they share (parts equal over their own bits share one), and
    `nontight_parts` the number of parts that are not tight, whose
    searches run the minimality test.  `candidates` and `accepted` count
    the guessed valuations of single parts, checked and confirmed, for
    every part, though the parts of one shape guess and check once.
    `rejections` counts the others by the first reason the check of
    their part meets (`_Part.verdict`): "no answer set", "known atom
    not cautious", "unknown atom cautious" or "~-form brave failure".
    `ground_rules` and `atoms` are the sizes of the ground program,
    `fixed_atoms` the atoms that forward chaining decides (`Engine`),
    `failed_literals` the bits the parts' roots fix as failed literals
    (`_Part`), and `ground_s` and `engine_s` the wall times, in seconds,
    of grounding (the semantics' source transform included) and of
    building the `Engine`.  `guess_s` and `check_s` add up the
    wall times of the steps of the parts' guesses (`_Part.guesses`) and
    of their checks (`_Part.verdict`).  `parse_s` is left to the caller,
    which parses the program before `solve` sees it.  The times vary
    from run to run, so equality ignores them."""
    parts: int = 0
    shapes: int = 0
    nontight_parts: int = 0
    candidates: int = 0
    accepted: int = 0
    rejections: Counter[str] = field(default_factory=Counter)
    ground_rules: int = 0
    atoms: int = 0
    fixed_atoms: int = 0
    failed_literals: int = 0
    parse_s: float = field(default=0.0, compare=False)
    ground_s: float = field(default=0.0, compare=False)
    engine_s: float = field(default=0.0, compare=False)
    guess_s: float = field(default=0.0, compare=False)
    check_s: float = field(default=0.0, compare=False)

    @property
    def rejected(self) -> int:
        return self.candidates - self.accepted


def aux_atom(katom: KAtom) -> AuxAtom:
    """Auxiliary atom standing for a subjective atom in the guess program.

    `&k{p}` maps to aux_p, `&k{~p}` to aux_not_p, `&k{-p}` to aux_sn_p
    and `&k{~-p}` to aux_not_sn_p, keeping the argument list.  A name
    that itself starts with `not_`, `sn_` or `_` gains one more leading
    `_`, so `&k{not_p}` maps to aux__not_p and no two subjective atoms
    share an auxiliary atom.  Being an `AuxAtom`, it never equals a
    program atom, though a listing may print a program atom `aux_p`
    the same way.
    """
    inner = katom.inner
    name = "aux_"
    if inner.negs:
        name += "not_"
    if inner.atom.strong_neg:
        name += "sn_"
    if inner.atom.name.startswith(("not_", "sn_", "_")):
        name += "_"
    name += inner.atom.name
    return AuxAtom(name, inner.atom.args)


def subjective_atoms(program) -> list[KAtom]:
    """Distinct subjective atoms of a program, sorted by printed form."""
    found: set[KAtom] = set()
    for r in program.rules:
        for lit in r.body:
            if isinstance(lit, SubjLiteral):
                found.add(lit.katom)
    return sorted(found, key=print_subjective)


def satisfies(world, literal) -> bool:
    """Evaluate a subjective atom or literal against a non-empty
    collection of interpretations."""
    if isinstance(literal, SubjLiteral):
        value = satisfies(world, literal.katom)
        return not value if literal.negated else value
    inner = literal.inner
    if inner.negs == 0:
        return all(inner.atom in i for i in world)
    return all(inner.atom not in i for i in world)


def apply_valuation(program: GroundProgram, valuation: dict[KAtom, bool]) -> GroundProgram:
    """Objective program left after fixing every subjective literal.

    Literals that come out true are dropped from their bodies; rules
    with a false literal are dropped entirely.
    """
    out: list[Rule] = []
    for r in program.rules:
        body: list = []
        dead = False
        for lit in r.body:
            if isinstance(lit, SubjLiteral):
                value = valuation[lit.katom]
                if lit.negated:
                    value = not value
                if not value:
                    dead = True
                    break
            else:
                body.append(lit)
        if not dead:
            out.append(Rule(r.head, tuple(body), r.is_choice))
    return GroundProgram(tuple(out))


def _program_atoms(interpretation: frozenset[Atom]) -> frozenset[Atom]:
    return frozenset(a for a in interpretation if not isinstance(a, AuxAtom))


def expand_world_view(wv: WorldView) -> list[frozenset[Atom]]:
    """Answer sets of the view with machinery atoms projected away.

    Machinery atoms are the `AuxAtom`s; a program atom printed like one
    (say `k15aux_1`) is kept.
    """
    out: list[frozenset[Atom]] = []
    seen: set[frozenset[Atom]] = set()
    for m in wv.answer_sets:
        kept = _program_atoms(m)
        if kept not in seen:
            seen.add(kept)
            out.append(kept)
    return out


def _ground(program: Program, semantics: str) -> GroundProgram:
    """Front end of both paths: the semantics' source transform, then
    grounding, which checks safety first."""
    if semantics == "k15":
        program = k15_transform(program)
    elif semantics != "g91":
        raise ValueError(f"unknown semantics {semantics!r}")
    return ground_program(program)


# ---------------------------------------------------------------------------
# Oracle path

ORACLE_MAX_SUBJECTIVE = 16


def oracle_world_views(program: Program, semantics: str = "g91") -> list[WorldView]:
    """World views by direct application of the definition.

    Tries every valuation of the subjective atoms and keeps those that
    its own objective program reproduces: `&k{a}` must hold exactly when
    a is a cautious consequence, and `&k{~a}` exactly when a is not a
    brave one.  No answer set is listed to find them.
    """
    ground = _ground(program, semantics)
    katoms = subjective_atoms(ground)
    if len(katoms) > ORACLE_MAX_SUBJECTIVE:
        raise ValueError(f"oracle limited to {ORACLE_MAX_SUBJECTIVE} subjective atoms, "
                         f"got {len(katoms)}")
    views: list[WorldView] = []
    # Ascending bitmask order over the sorted subjective alphabet, first
    # atom least significant, so small valuations come out first.
    for mask in range(1 << len(katoms)):
        valuation = {k: bool(mask >> i & 1) for i, k in enumerate(katoms)}
        engine = Engine(apply_valuation(ground, valuation))
        found = engine.consequences()
        if found is not None:
            cautious, brave = map(engine.to_interpretation, found)
            if all(satisfies((brave if k.inner.negs else cautious,), k) == v
                   for k, v in valuation.items()):
                views.append(WorldView(valuation, engine))
    return views


# ---------------------------------------------------------------------------
# Guess-and-check path


def translate_guess(ground: GroundProgram) -> tuple[GroundProgram, dict[KAtom, AuxAtom]]:
    """Replace subjective literals by auxiliary atoms under choice.

    `&k{l}` becomes `not not aux`, `not &k{l}` becomes `not aux`, and
    each distinct auxiliary atom gets one choice rule `{aux}.` so the
    answer sets of the result enumerate the candidate valuations.
    """
    katoms = subjective_atoms(ground)
    mapping = {k: aux_atom(k) for k in katoms}
    rules: list[Rule] = []
    for r in ground.rules:
        body: list = []
        for lit in r.body:
            if isinstance(lit, SubjLiteral):
                negs = 1 if lit.negated else 2
                body.append(ObjLiteral(mapping[lit.katom], negs))
            else:
                body.append(lit)
        rules.append(Rule(r.head, tuple(body), r.is_choice))
    for k in katoms:
        rules.append(Rule((mapping[k],), (), is_choice=True))
    return GroundProgram(tuple(rules)), mapping


def k15_transform(program: Program) -> Program:
    """Reduce the alternative semantics to the default one.

    Every subjective atom is strengthened with its own inner literal:
    `&k{l}` occurrences gain l as an objective conjunct, and `not &k{l}`
    occurrences are replaced by a fresh `AuxAtom` defined to hold when the
    literal is not known or does not hold:

        host :- ..., k15aux_i, ...
        k15aux_i :- not &k{l}, D.
        k15aux_i :- not l, D.

    where D is the positive objective part of the host body (it scopes
    the fresh atom's variables) and `not l` doubles up to `not not p`
    when l is `~p`.
    """
    counter = 0
    out: list[Rule] = []
    for r in program.rules:
        domain = tuple(lit for lit in r.body
                       if isinstance(lit, ObjLiteral) and lit.negs == 0)
        body: list = []
        extra: list[Rule] = []
        for lit in r.body:
            if not isinstance(lit, SubjLiteral):
                body.append(lit)
                continue
            inner = lit.katom.inner
            if not lit.negated:
                body.append(lit)
                body.append(inner)
            else:
                counter += 1
                aux = AuxAtom(f"k15aux_{counter}", inner.atom.args)
                body.append(ObjLiteral(aux, 0))
                extra.append(Rule((aux,), (SubjLiteral(lit.katom, True),) + domain))
                extra.append(Rule((aux,), (ObjLiteral(inner.atom, inner.negs + 1),) + domain))
        out.append(Rule(r.head, tuple(body), r.is_choice))
        out.extend(extra)
    return Program(tuple(out), program.shows, program.consts)


def solve(program: Program, semantics: str = "g91", stats: SolveStats | None = None):
    """Yield the world views of a program, production path.

    Grounds the program and indexes it once (`Engine`), which splits it
    into independent parts that share no atom, subjective atoms
    included.  Each part guesses its own candidate valuations
    (`_Part.guesses`: its answer sets with the subjective atoms open,
    under the consistency constraints and the root-closure rule that
    stands in for wfm propagation, projected onto the subjective atoms)
    in ascending order of the known mask, each with one of its answer
    sets.  The consequence check (`_Part.verdict`) confirms each against
    the part's own rules only, taking that answer set as its first.
    Both are timed into `stats`.  Parts that share one `_Part` (equal
    over their own bits) share one stream of candidates and verdicts,
    each guessed and checked once, and every part counts the candidates
    it reads into `stats`.  No candidate is checked unless every part
    has one.  The world views are the lazy product of the parts'
    confirmed masks, each mapped once to the engine's `kbit`s, parts in
    `Engine` part order and the last part varying fastest, so a program
    of one part lists its views in the oracle's order.  Each view is
    built from the sum of its masks when it is yielded, and computes
    its answer sets only when asked.
    Stop the generator early (say with `itertools.islice`) to skip the
    remaining candidates.

    Only disjoint splitting is sound under the G91 semantics: general
    top/bottom epistemic splitting, which would solve a bottom part and
    feed its views to the parts above it, does not hold for it (Cabalar,
    Fandinno, Fariñas del Cerro, "Splitting Epistemic Logic Programs",
    TPLP 2021, arXiv 1812.08763).  Splitting too little costs time;
    splitting too much would give wrong views.
    """
    stats = SolveStats() if stats is None else stats
    start = time.perf_counter()
    ground = _ground(program, semantics)
    built = time.perf_counter()
    tester = Engine(ground)
    stats.ground_s = built - start
    stats.engine_s = time.perf_counter() - built
    stats.ground_rules = len(ground.numbered)
    stats.atoms = tester.width
    stats.fixed_atoms = tester.fixed_atoms
    shapes = Counter(tester.parts)  # each `_Part` and the number of parts it serves
    stats.parts = len(tester.parts)
    stats.shapes = len(shapes)
    stats.nontight_parts = sum(not part.tight for part in tester.parts)
    stats.failed_literals = sum(part.failed for part in tester.parts)
    del ground  # not kept alive while the views are searched: the engine holds all they need

    def guess(guesses) -> tuple[int, int] | None:
        began = time.perf_counter()
        found = next(guesses, None)
        stats.guess_s += time.perf_counter() - began
        return found

    # Without a guess in every part there is no view: find them first,
    # once for each shape.
    firsts = {}
    for part in shapes:
        guesses = part.guesses()
        firsts[part] = guesses, guess(guesses)
    if any(found is None for _, found in firsts.values()):
        return

    def verdicts(part, guesses, found):
        while found is not None:
            known, witness = found
            began = time.perf_counter()
            reason = part.verdict(known, witness)
            stats.check_s += time.perf_counter() - began
            yield known, reason
            found = guess(guesses)

    # The parts of one shape read copies of one stream of its candidates
    # and their verdicts, each found once.
    streams = {part: iter(itertools.tee(verdicts(part, *first), shapes[part]))
               for part, first in firsts.items()}

    def part_views(j: int):
        for known, reason in next(streams[tester.parts[j]]):
            stats.candidates += 1
            if reason is None:
                stats.accepted += 1
                yield tester.to_global(j, known)
            else:
                stats.rejections[reason] += 1

    # Parts share no subjective atom, so their known masks add up.
    for masks in _product([part_views(j) for j in range(stats.parts)]):
        known = sum(masks)
        yield WorldView({k: bool(known & bit) for k, bit in tester.kbit.items()}, tester)


def _product(streams: list[Iterator]) -> Iterator[list]:
    """Lazy product of the parts' views, the last part varying fastest.

    Each stream is read as far as the output needs, plus one view, and
    nothing is yielded unless every part has a view; zero parts yield
    one empty combination.  Every part but the first keeps its views to
    start over from; the first never goes back, so it keeps only its
    current view and the next, and a program of one part streams.
    """
    seen: list[list] = [[] for _ in streams]

    def has(j: int, i: int) -> bool:
        while len(seen[j]) <= i:
            item = next(streams[j], None)
            if item is None:
                return False
            seen[j].append(item)
        return True

    if not all(has(j, 0) for j in range(len(streams))):
        return
    cur = [0] * len(streams)
    while True:
        yield [seen[j][i] for j, i in enumerate(cur)]
        for j in reversed(range(len(streams))):
            if has(j, cur[j] + 1):
                break
            cur[j] = 0
        else:
            return
        if j == 0:
            del seen[0][0]
        else:
            cur[j] += 1
