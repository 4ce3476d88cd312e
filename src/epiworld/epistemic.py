"""World-view solving over ground programs.

A world view of a program is a non-empty collection W of interpretations
such that W equals the answer sets of the program's subjective reduct by
W: every subjective literal is evaluated against W (`&k{l}` holds when l
holds in each member) and replaced by true or false accordingly, and the
remaining objective program must reproduce exactly the interpretations
of W.

Two paths compute the same thing.  `oracle_world_views` follows the
definition directly: try all 2^k valuations of the k subjective atoms,
reduce, and keep the fixpoints.  `solve` is the production path: it
translates subjective literals to auxiliary atoms with choice rules,
reads candidate valuations off the answer sets of that guess program,
and confirms each with a cautious/brave check on one shared `Engine`.

The `k15` mode reduces the alternative semantics to the default one by
strengthening each `&k{l}` with l itself: positive occurrences gain l as
an extra body literal, and `not &k{l}` becomes a fresh atom standing for
the weakened complement (not known, or not derivable).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

from .grounder import GroundProgram, ground_program, program_safety_check
from .optimize import add_consistency_constraints, wfm_propagate
from .stable import Engine, projected_components
from .syntax import (Atom, AuxAtom, KAtom, ObjLiteral, Program, Rule,
                     SubjLiteral, print_subjective)


@dataclass
class WorldView:
    """A subjective valuation with its answer sets, kept factored.

    `components` holds, for each component of the rules the valuation
    keeps, its answer sets as masks over `engine`'s bits; each answer
    set of the view is the union of one mask per component.
    `answer_sets` expands them on first use, which for a program of many
    independent parts can be far more than memory holds; `cautious`
    folds them instead.
    """
    valuation: dict[KAtom, bool]
    engine: Engine = field(repr=False)
    components: list[list[int]] = field(repr=False)

    def known(self) -> list[KAtom]:
        """Subjective atoms the view makes true, in display order."""
        true = [k for k, v in self.valuation.items() if v]
        return sorted(true, key=print_subjective)

    @cached_property
    def answer_sets(self) -> tuple[frozenset[Atom], ...]:
        """The answer sets, in ascending order of the program-atom bitmask."""
        return tuple(self.engine.answer_sets(self.components))

    def cautious(self) -> frozenset[Atom]:
        """Program atoms true in every answer set; machinery atoms are
        projected away, as in `expand_world_view`."""
        return _program_atoms(self.engine.consequences(self.components).cautious)


@dataclass
class SolveStats:
    """Counts of one `solve` call.  `parts` is the number of independent
    parts of the ground program; `candidates` and `accepted` count the
    guessed valuations of single parts, checked and confirmed."""
    parts: int = 0
    candidates: int = 0
    accepted: int = 0

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
    """Front end of both paths: the semantics' source transform, the
    safety check and grounding."""
    if semantics == "k15":
        program = k15_transform(program)
    elif semantics != "g91":
        raise ValueError(f"unknown semantics {semantics!r}")
    program_safety_check(program)
    return ground_program(program)


# ---------------------------------------------------------------------------
# Oracle path

ORACLE_MAX_SUBJECTIVE = 16


def oracle_world_views(program: Program, semantics: str = "g91") -> list[WorldView]:
    """World views by direct application of the definition.

    Enumerates every valuation of the subjective atoms, computes the
    answer sets of the valuation's objective program, and keeps the
    valuations that are reproduced by their own answer sets.
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
        reduct = Engine(apply_valuation(ground, valuation))
        components = reduct.parts()
        models = reduct.answer_sets(components)
        if not models:
            continue
        if all(satisfies(models, k) == v for k, v in valuation.items()):
            views.append(WorldView(valuation, reduct, components))
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


def check_candidate(tester: Engine, valuation: dict[KAtom, bool],
                    part: int | None = None) -> WorldView | None:
    """Confirm or reject one guessed valuation against the engine of
    the ground program, or against its independent part `part` only.

    The valuation's objective program must have answer sets, every atom
    guessed known must be a cautious consequence (and only those), and
    every `&k{~l}` guessed true must keep l out of the brave
    consequences (and only those).
    """
    components = tester.parts(valuation, part)
    if components is None:
        return None
    cautious, brave = tester.fold(components)
    for katom, value in valuation.items():
        inner = katom.inner
        b = 1 << tester.index[inner.atom]
        if inner.negs == 0:
            if bool(cautious & b) != value:
                return None
        elif bool(brave & b) == value:
            return None
    return WorldView(dict(valuation), tester, components)


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

    Grounds the program, builds the guess translation, tightens it with
    the consistency constraints and then wfm propagation, and takes the
    distinct projections of each component of the guess program.  The
    tester engine splits the ground program into independent parts that
    share no atom, subjective atoms included.  Each part's candidates
    are the product of its own guess components only, and the
    consequence check confirms them against its own rules only, counting
    into `stats`.  The world views are the products of the parts'
    confirmed views, yielded lazily in the order the unsplit guess
    program would give: lexicographic over its components.  Stop the
    generator early (say with `itertools.islice`) to skip the remaining
    candidates.

    Only disjoint splitting is sound under the G91 semantics: general
    top/bottom epistemic splitting, which would solve a bottom part and
    feed its views to the parts above it, does not hold for it (Cabalar,
    Fandinno, Fariñas del Cerro, "Splitting Epistemic Logic Programs",
    TPLP 2021, arXiv 1812.08763).  Splitting too little costs time;
    splitting too much would give wrong views.
    """
    stats = SolveStats() if stats is None else stats
    ground = _ground(program, semantics)
    guess, mapping = translate_guess(ground)
    guess = add_consistency_constraints(guess, mapping)
    guess = wfm_propagate(guess, ground, mapping)
    components = projected_components(guess, frozenset(mapping.values()))
    tester = Engine(ground)
    stats.parts = len(tester.part_rules)
    if components is None:
        return
    # Each guess component lies inside one part: the guess program ties
    # aux_l to the atom of l and otherwise only atoms its rules share in
    # the ground program.  A component without auxiliary atoms offers
    # nothing to choose.
    katom_of = {aux: k for k, aux in mapping.items()}
    owner: list[int] = []
    options: list[list[list[frozenset[Atom]]]] = [[] for _ in tester.part_rules]
    for comp in components:
        aux = next((a for projection in comp for a in projection), None)
        if aux is not None:
            owner.append(tester.part_of[katom_of[aux]])
            options[owner[-1]].append(comp)
    katoms: list[list[KAtom]] = [[] for _ in tester.part_rules]
    for k in mapping:
        katoms[tester.part_of[k]].append(k)

    def part_views(j: int):
        for key in itertools.product(*(range(len(comp)) for comp in options[j])):
            guessed = frozenset().union(*(comp[i] for comp, i in zip(options[j], key)))
            stats.candidates += 1
            view = check_candidate(tester, {k: mapping[k] in guessed for k in katoms[j]}, j)
            if view is not None:
                stats.accepted += 1
                yield key, view

    streams = [part_views(j) for j in range(len(tester.part_rules))]
    for views in _ordered_product(owner, streams):
        valuation = {}
        for view in views:
            valuation.update(view.valuation)
        yield WorldView({k: valuation[k] for k in mapping}, tester,
                        [comp for view in views for comp in view.components])


def _ordered_product(owner: list[int], streams: list) -> Iterator[list]:
    """Lazy product of the parts' views, in lexicographic order of the
    guess components.

    `owner[p]` is the part of guess component p, components in guess
    order.  `streams[j]` yields part j's views as (key, view) pairs in
    ascending order of key, where key[t] indexes the projection taken
    from part j's t-th component.  A combination's order key interleaves
    the parts' keys by `owner`.  Each stream is read as far as the
    output needs, plus one view, and nothing is yielded unless every
    part has a view.

    The state is an odometer over the components: `cur[j]` is the view
    of part j in the current combination and `start[p]` the first view
    of part j = owner[p] that agrees with it up to component p.  To
    advance, the deepest component whose part has a next view that
    agrees with the current one on the part's earlier components moves
    to that view, and every deeper component restarts at the first view
    that agrees with what is left above it.  A part's views are kept for
    these restarts, except when all its components come first (a
    program of one part, say): that part never goes back, so it keeps
    only its current view and the one after.
    """
    seen: list[list] = [[] for _ in streams]
    dropped = [0] * len(streams)  # views of part j before seen[j][0]

    def view(j: int, i: int):
        return seen[j][i - dropped[j]]

    def has(j: int, i: int) -> bool:
        while dropped[j] + len(seen[j]) <= i:
            item = next(streams[j], None)
            if item is None:
                return False
            seen[j].append(item)
        return True

    if not all(has(j, 0) for j in range(len(streams))):
        return
    rank: list[int] = []  # position of component p among its part's
    prev: list[int] = []  # the part's component before p, or -1
    last: dict[int, int] = {}
    for p, j in enumerate(owner):
        prev.append(last.get(j, -1))
        rank.append(rank[prev[p]] + 1 if prev[p] >= 0 else 0)
        last[j] = p
    first = owner[0] if owner else None
    forgetful = first is not None and all(owner[p] == first for p in range(last[first] + 1))
    cur = [0] * len(streams)
    start = [0] * len(owner)
    while True:
        yield [view(j, cur[j])[1] for j in range(len(streams))]
        for p in reversed(range(len(owner))):
            j, t = owner[p], rank[p]
            nxt = cur[j] + 1
            if has(j, nxt) and view(j, nxt)[0][:t] == view(j, cur[j])[0][:t]:
                break
        else:
            return
        cur[j] = start[p] = nxt
        if forgetful and j == first:
            del seen[j][:nxt - dropped[j]]
            dropped[j] = nxt
        for q in range(p + 1, len(owner)):
            if prev[q] <= p:
                cur[owner[q]] = start[prev[q]] if prev[q] >= 0 else 0
            start[q] = cur[owner[q]]
