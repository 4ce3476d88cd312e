"""`solve` splits a ground program into independent parts.

Each seeded program below is a disjoint union of two or three
`random_epistemic_program` outputs whose atoms are renamed apart so that
the names of the sub-programs interleave in sort order (a0, a1, b0, ...).
`solve` must find the same world views, answer sets included, as the
definitional oracle and as one guess over all subjective atoms
(`unsplit_views`), in the order of the parts, the last varying fastest,
and within a part in ascending order of the known mask.
"""

import itertools
import random
import weakref
from collections import Counter

from brute import brute_answer_sets, brute_consequences
from corpus import random_epistemic_program, random_ground_rules
from epiworld.epistemic import SolveStats, _product, k15_transform, oracle_world_views, solve
from epiworld.grounder import ground_program
from epiworld.stable import Engine
from epiworld.syntax import (Atom, KAtom, ObjLiteral, Program, Rule, SubjLiteral,
                             parse_text, print_atom, print_subjective)
from pruning import unsplit_views


def rename(prog, names):
    """`prog` with each atom mapped through `names` (Atom to Atom)."""
    def literal(lit):
        if isinstance(lit, ObjLiteral):
            return ObjLiteral(names(lit.atom), lit.negs)
        inner = lit.katom.inner
        return SubjLiteral(KAtom(ObjLiteral(names(inner.atom), inner.negs)), lit.negated)

    return [Rule(tuple(map(names, r.head)), tuple(map(literal, r.body)), r.is_choice)
            for r in prog.rules]


def suffixed(t):
    return lambda a: Atom(f"{a.name}{t}", a.args, a.strong_neg)


def disjoint_union(rng, linked=False):
    """Two or three renamed-apart random programs.  With `linked`, atom
    `a` of the second one becomes the complement of atom `a` of the
    first, which ties the two through `:- a0, -a0.` alone."""
    subs = [random_epistemic_program(rng, max_atoms=4, max_rules=5, max_subjective=3)
            for _ in range(rng.randint(2, 3))]
    rules = rename(subs[0], suffixed(0))
    for t, sub in enumerate(subs[1:], 1):
        names = suffixed(t)
        if linked and t == 1:
            first = {a.name: a.strong_neg for r in subs[0].rules for a in r.head}
            first.update({lit.atom.name: lit.atom.strong_neg for r in subs[0].rules
                          for lit in r.body if isinstance(lit, ObjLiteral)})
            if "a" in first:
                def names(a, plain=names, sign=not first["a"]):
                    return Atom("a0", a.args, sign) if a.name == "a" else plain(a)
        rules += rename(sub, names)
    return Program(tuple(rules))


def listing(views):
    """Ordered known atoms and answer sets of each view."""
    return [([print_subjective(k) for k in wv.known()],
             [sorted(print_atom(a) for a in m) for m in wv.answer_sets]) for wv in views]


def part_masks(tester, wv):
    """The known mask of `wv` restricted to each part of `tester`, over
    the part's own bits."""
    known = tester.known_mask(wv.valuation)
    return [tester.to_local(j, known) for j in range(len(tester.parts))]


def check(prog, semantics="g91"):
    stats = SolveStats()
    got = list(solve(prog, semantics, stats))
    want = oracle_world_views(prog, semantics)
    if semantics == "g91":
        assert sorted(listing(got)) == sorted(listing(unsplit_views(prog)))
    # Parts in `Engine` part order, the last varying fastest, and each
    # part's views in ascending order of its known mask.
    tester = Engine(ground_program(k15_transform(prog) if semantics == "k15" else prog))
    assert listing(got) == listing(sorted(want, key=lambda wv: part_masks(tester, wv)))
    return stats


def test_disjoint_unions_match_the_oracle_and_the_unsplit_guess():
    rng = random.Random(61)
    for _ in range(120):
        assert check(disjoint_union(rng)).parts >= 2


def test_disjoint_unions_under_k15():
    rng = random.Random(62)
    for _ in range(60):
        check(disjoint_union(rng), "k15")


def test_an_atom_and_its_complement_stay_in_one_part():
    rng = random.Random(63)
    linked = 0
    for _ in range(120):
        prog = disjoint_union(rng, linked=True)
        atoms = ground_program(prog).atoms
        linked += Atom("a0", (), True) in atoms and Atom("a0", (), False) in atoms
        check(prog)
    assert linked >= 60
    g = ground_program(parse_text("a :- not c. -a :- not d."))
    assert len(Engine(g).parts) == 1


def test_atoms_only_inside_subjective_atoms():
    # z occurs nowhere but inside &k{}; both uses share its part.
    g = ground_program(parse_text("p :- &k{z}. q :- not &k{~z}."))
    assert len(Engine(g).parts) == 1
    rng = random.Random(64)
    z = KAtom(ObjLiteral(Atom("z"), 0))
    not_z = KAtom(ObjLiteral(Atom("z"), 1))
    for _ in range(60):
        prog = disjoint_union(rng)
        extra = (Rule((Atom("a0"),), (SubjLiteral(z),)),
                 Rule((Atom("b1"),), (SubjLiteral(not_z, negated=True),)),
                 Rule((), (SubjLiteral(KAtom(ObjLiteral(Atom("y"), 0)), negated=True),)))
        check(Program(prog.rules + extra))


def test_an_empty_rule_is_a_part_without_answer_sets():
    rng = random.Random(65)
    for _ in range(30):
        prog = disjoint_union(rng)
        stats = check(Program(prog.rules + (Rule((), ()),)))
        assert stats.accepted == 0
    stats = SolveStats()
    assert list(solve(parse_text("a. :- ."), stats=stats)) == []
    assert stats.parts == 2


def test_the_empty_program_has_no_parts_and_one_view():
    stats = SolveStats()
    (wv,) = solve(Program(()), stats=stats)
    assert stats.parts == 0
    assert wv.valuation == {} and wv.answer_sets == (frozenset(),)
    check(Program(()))


def copies(prog, k):
    """k copies of `prog`, renamed apart as in `disjoint_union`: each
    part of a copy has the same rules over its own bits as the same part
    of every other copy."""
    return Program(tuple(r for t in range(k) for r in rename(prog, suffixed(t))))


def test_renamed_copies_share_their_parts_and_count_each_copy():
    # k copies of a program solve as k times one copy: one `_Part` per
    # shape guesses and checks, and every part counts its candidates.
    # Plain programs: the one view's answer sets are the product of
    # one copy's by the subset walk of tests/brute.py, renamed, in the
    # engine's bitmask order, and its cautious atoms the union of the
    # copies'.  Epistemic programs: the views against the oracle and the
    # unsplit guess (`check`).  With no view, the parts are read only up
    # to the first that has none, so only programs with a view count.
    rng = random.Random(67)
    counted = Counter()
    for n in range(400):
        if n % 2:
            prog = Program(tuple(random_ground_rules(rng, max_atoms=3, max_rules=5)))
            k = rng.randint(2, 4)
        else:  # the oracle tries the 2^(3k) valuations
            prog = random_epistemic_program(rng, max_atoms=4, max_rules=6, max_subjective=3)
            k = rng.randint(2, 3)
        one, many = SolveStats(), SolveStats()
        single = list(solve(copies(prog, 1), stats=one))
        if n % 2:
            views = list(solve(copies(prog, k), stats=many))
            models = brute_answer_sets(prog.rules)
            if models:
                want = [frozenset().union(*combo) for combo in itertools.product(
                    *([frozenset(map(suffixed(t), m)) for m in models] for t in range(k)))]
                order = sorted(set().union(*want), key=print_atom)
                rank = {a: i for i, a in enumerate(order)}
                want.sort(key=lambda m: sum(1 << rank[a] for a in m))
                cautious, _ = brute_consequences(prog.rules)
                [view] = views
                assert list(view.answer_sets) == want
                assert view.cautious() == frozenset(
                    suffixed(t)(a) for t in range(k) for a in cautious)
            else:
                assert views == []
        else:
            many = check(copies(prog, k))
        assert (many.parts, many.shapes) == (k * one.parts, one.shapes)
        assert many.nontight_parts == k * one.nontight_parts
        if single:
            assert (many.candidates, many.accepted) == (k * one.candidates, k * one.accepted)
            assert many.rejections == Counter({r: k * c for r, c in one.rejections.items()})
            counted[n % 2] += 1
            counted["rejected"] += bool(one.rejections)
    assert counted[0] > 80 and counted[1] > 80 and counted["rejected"] > 15, counted


def test_product_matches_itertools_product():
    rng = random.Random(66)
    for _ in range(300):
        parts = [list(range(rng.randint(0, 4))) for _ in range(rng.randint(0, 4))]
        want = [list(combo) for combo in itertools.product(*parts)]
        assert list(_product([iter(part) for part in parts])) == want
    assert list(_product([])) == [[]]


def test_product_reads_each_part_one_view_ahead():
    read = [0, 0]

    def stream(j, n):
        for i in range(n):
            read[j] += 1
            yield i

    product = _product([stream(0, 5), stream(1, 3)])
    assert next(product) == [0, 0] and read == [1, 1]
    assert next(product) == [0, 1] and read == [1, 2]
    read[:] = [0, 0]
    assert list(_product([stream(0, 5), stream(1, 0)])) == [] and read == [1, 0]


def test_product_keeps_two_views_of_the_first_part():
    # The first part never goes back, so a program of one part streams
    # its views without holding on to the ones already yielded.
    class View:
        pass

    for others in ([], [iter(range(3))]):
        alive = []
        stream = (View() for _ in range(100))
        for view, *_ in _product([stream] + others):
            if not alive or alive[-1]() is not view:
                alive.append(weakref.ref(view))
            del view
            assert sum(ref() is not None for ref in alive) <= 2
        assert len(alive) == 100


# `z` ties a and c into one part and b is the other.  The part of a and c
# comes first, as a1 is the lowest atom, and part b varies fastest, so
# the views do not follow the oracle's order over all six atoms.
INTERLEAVED = """a1 :- not &k{a2}. a2 :- not &k{a1}.
b1 :- not &k{b2}. b2 :- not &k{b1}.
c1 :- not &k{c2}. c2 :- not &k{c1}.
z :- &k{a1}, &k{c1}, g.
"""


def known(wv):
    return " ".join(print_atom(k.inner.atom) for k in wv.known())


def test_parts_come_in_engine_order_the_last_varying_fastest():
    stats = SolveStats()
    got = [known(wv) for wv in solve(parse_text(INTERLEAVED), stats=stats)]
    assert stats.parts == 2
    assert got == ["a1 b1 c1", "a1 b2 c1", "a2 b1 c1", "a2 b2 c1",
                   "a1 b1 c2", "a1 b2 c2", "a2 b1 c2", "a2 b2 c2"]
    # The oracle's ascending order over all subjective atoms swaps
    # answers 2/3 and 6/7.
    oracle = [known(wv) for wv in oracle_world_views(parse_text(INTERLEAVED))]
    assert oracle == [got[i] for i in (0, 2, 1, 3, 4, 6, 5, 7)]
