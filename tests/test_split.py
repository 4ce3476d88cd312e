"""`solve` splits a ground program into independent parts.

Each seeded program below is a disjoint union of two or three
`random_epistemic_program` outputs whose atoms are renamed apart so that
the names of the sub-programs interleave in sort order (a0, a1, b0, ...).
`solve` must find the same world views as the definitional oracle, and
the same ones in the same order, answer sets included, as one guess over
all subjective atoms (`unsplit_views`).
"""

import itertools
import random
import weakref

from corpus import random_epistemic_program
from epiworld.epistemic import SolveStats, _ordered_product, oracle_world_views, solve
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


def check(prog, semantics="g91"):
    stats = SolveStats()
    got = list(solve(prog, semantics, stats))
    want = oracle_world_views(prog, semantics)
    assert sorted(listing(got)) == sorted(listing(want))
    if semantics == "g91":
        assert listing(got) == listing(unsplit_views(prog))
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
    assert len(Engine(g).part_rules) == 1


def test_atoms_only_inside_subjective_atoms():
    # z occurs nowhere but inside &k{}; both uses share its part.
    g = ground_program(parse_text("p :- &k{z}. q :- not &k{~z}."))
    assert len(Engine(g).part_rules) == 1
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


def test_ordered_product_interleaves_the_parts_keys():
    # Reference: the whole product, sorted on the interleaved key.
    rng = random.Random(66)
    for _ in range(300):
        parts = rng.randint(1, 3)
        owner = [rng.randrange(parts) for _ in range(rng.randint(0, 6))]
        keys = []
        for j in range(parts):
            sizes = [rng.randint(1, 3) for p in owner if p == j]
            every = list(itertools.product(*map(range, sizes)))
            keys.append(sorted(rng.sample(every, rng.randint(1, len(every)))))

        def order(combo):
            ranks = [0] * parts
            out = []
            for j in owner:
                out.append(combo[j][ranks[j]])
                ranks[j] += 1
            return out

        want = sorted(itertools.product(*keys), key=order)
        streams = [iter([(k, k) for k in part]) for part in keys]
        assert [tuple(c) for c in _ordered_product(owner, streams)] == want
        if any(not part for part in keys):
            continue
        keys[-1] = []
        assert list(_ordered_product(owner, [iter([(k, k) for k in part])
                                             for part in keys])) == []


def test_ordered_product_of_one_part_keeps_no_old_views():
    # A program of one part streams its views as the unsplit guess did,
    # without holding on to the ones already yielded.
    class View:
        pass

    alive = []
    stream = (((i // 10, i % 10), View()) for i in range(100))
    for (view,) in _ordered_product([0, 0], [stream]):
        alive.append(weakref.ref(view))
        del view
        assert sum(ref() is not None for ref in alive) <= 2
    assert len(alive) == 100
