"""World-view semantics: oracle, guess-and-check solver, K15 reduction."""

import itertools
import pathlib
from collections import Counter
import random

import pytest

from brute import listing_world_views, subjective_reduct
from corpus import random_epistemic_program
from pruning import projected_answer_sets, pruning_outcomes
from epiworld.epistemic import (
    SolveStats,
    WorldView,
    apply_valuation,
    aux_atom,
    expand_world_view,
    k15_transform,
    oracle_world_views,
    satisfies,
    solve,
    subjective_atoms,
    translate_guess,
)
from epiworld.grounder import ground_program
from epiworld.stable import BRAVE_FAILURE, KNOWN_NOT_CAUTIOUS, Engine, _Part
from epiworld.syntax import (
    Atom,
    AuxAtom,
    KAtom,
    ObjLiteral,
    Program,
    Rule,
    SubjLiteral,
    parse_text,
    print_atom,
    print_program,
    print_rule,
    print_subjective,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

TWO_CYCLE = "p :- not &k{q}. q :- not &k{p}."
SELF_SUPPORT = "p :- &k{p}."
INTERPLAY = "a :- not b. c :- &k{a}. d :- not &k{~e}. p :- &k{~d}."


def katom(name, negs=0, strong=False, args=()):
    return KAtom(ObjLiteral(Atom(name, args, strong), negs))


def world(*interps):
    return tuple(frozenset(Atom(n) for n in names) for names in interps)


def view_keys(views):
    return sorted(sorted((print_subjective(k), v) for k, v in wv.valuation.items())
                  for wv in views)


def view_models(views):
    return sorted(sorted(sorted(print_atom(a) for a in m) for m in wv.answer_sets)
                  for wv in views)


# ---------------------------------------------------------------------------
# Subjective satisfaction and reducts


def test_satisfies_requires_truth_in_every_interpretation():
    w = world(("p",), ("p", "q"))
    assert satisfies(w, SubjLiteral(katom("p")))
    assert not satisfies(w, SubjLiteral(katom("q")))
    assert satisfies(w, SubjLiteral(katom("q"), negated=True))
    assert not satisfies(w, SubjLiteral(katom("p"), negated=True))


def test_satisfies_tilde_means_false_everywhere():
    assert satisfies(world((), ()), SubjLiteral(katom("q", negs=1)))
    assert not satisfies(world((), ("q",)), SubjLiteral(katom("q", negs=1)))
    assert satisfies(world(("p",),), SubjLiteral(katom("q", negs=1)))


def test_subjective_atoms_are_sorted_and_deduplicated():
    prog = parse_text("x :- &k{~b}, not &k{a}, &k{-a}, &k{a}.")
    assert [print_subjective(k) for k in subjective_atoms(prog)] == \
        ["&k{ -a }", "&k{ a }", "&k{ ~b }"]


def test_apply_valuation_drops_literals_or_rules():
    prog = ground_program(parse_text(TWO_CYCLE))
    kq, kp = katom("q"), katom("p")
    reduced = apply_valuation(prog, {kq: False, kp: True})
    assert [print_rule(r) for r in reduced.rules] == ["p."]
    reduced = apply_valuation(prog, {kq: False, kp: False})
    assert [print_rule(r) for r in reduced.rules] == ["p.", "q."]


def test_subjective_reduct_matches_world_satisfaction():
    prog = ground_program(parse_text(TWO_CYCLE))
    # In W = {{p}}: K p holds, K q does not, so only the p rule survives
    # and W reproduces itself.
    red = subjective_reduct(prog, world(("p",)))
    assert [print_rule(r) for r in red.rules] == ["p."]
    red = subjective_reduct(prog, world(("p",), ("q",)))
    assert [print_rule(r) for r in red.rules] == ["p.", "q."]


# ---------------------------------------------------------------------------
# Oracle


def test_oracle_two_cycle():
    views = oracle_world_views(parse_text(TWO_CYCLE))
    assert view_models(views) == [[["p"]], [["q"]]]


def test_oracle_self_support_depends_on_semantics():
    views = oracle_world_views(parse_text(SELF_SUPPORT))
    assert view_models(views) == [[[]], [["p"]]]
    views = oracle_world_views(parse_text(SELF_SUPPORT), semantics="k15")
    assert view_models(views) == [[[]]]


def test_oracle_rejects_unknown_semantics():
    with pytest.raises(ValueError, match="semantics"):
        oracle_world_views(parse_text("p."), semantics="s16")


def test_oracle_caps_the_subjective_alphabet():
    src = " ".join(f"x :- &k{{a{i}}}." for i in range(17))
    with pytest.raises(ValueError, match="limited to 16 subjective atoms, got 17"):
        oracle_world_views(parse_text(src))


# ---------------------------------------------------------------------------
# Guess translation


def test_aux_atom_four_name_forms():
    assert print_atom(aux_atom(katom("p"))) == "aux_p"
    assert print_atom(aux_atom(katom("p", negs=1))) == "aux_not_p"
    assert print_atom(aux_atom(katom("p", strong=True))) == "aux_sn_p"
    assert print_atom(aux_atom(katom("p", negs=1, strong=True))) == "aux_not_sn_p"


def test_aux_atom_keeps_arguments():
    from epiworld.syntax import Const, Num
    k = katom("edge", negs=1, args=(Const("m"), Num(2)))
    assert print_atom(aux_atom(k)) == "aux_not_edge(m,2)"


def test_translate_guess_replaces_subjective_literals():
    guess, mapping = translate_guess(ground_program(parse_text(INTERPLAY)))
    assert guess.text() == (GOLDEN / "interplay_guess.lp").read_text()
    assert {print_subjective(k): print_atom(a) for k, a in mapping.items()} == {
        "&k{ a }": "aux_a", "&k{ ~d }": "aux_not_d", "&k{ ~e }": "aux_not_e"}


def test_translate_guess_shares_aux_across_polarities():
    guess, mapping = translate_guess(ground_program(
        parse_text("p :- &k{q}. r :- not &k{q}.")))
    assert guess.text() == "p :- not not aux_q.\nr :- not aux_q.\n{aux_q}.\n"
    assert len(mapping) == 1


def test_aux_atom_is_injective_over_its_own_vocabulary():
    from epiworld.syntax import Const
    names = ["q", "not_q", "sn_q", "not_sn_q", "sn_not_q", "_q"]
    katoms = [katom(name, negs, strong, args)
              for name in names for negs in (0, 1) for strong in (False, True)
              for args in ((), (Const("a"),))]
    assert len({aux_atom(k) for k in katoms}) == len(katoms) == 48


@pytest.mark.parametrize("source", ["q. p :- &k{~q}. r :- &k{not_q}.",
                                    "q. p :- &k{-q}. r :- &k{sn_q}.",
                                    "q. not_q. p :- &k{~q}. r :- &k{not_q}.",
                                    "q. sn_q. p :- &k{-q}. r :- &k{sn_q}."])
def test_aux_names_keep_look_alike_subjective_atoms_apart(source):
    prog = parse_text(source)
    views = list(solve(prog))
    assert view_keys(views) == view_keys(oracle_world_views(prog))
    assert view_models(views) == view_models(oracle_world_views(prog))


def test_translate_guess_keeps_program_atoms_apart_from_aux_atoms():
    prog = parse_text("aux_q. p :- &k{q}.")
    guess, mapping = translate_guess(ground_program(prog))
    (aux,) = mapping.values()
    assert type(aux) is AuxAtom and aux != Atom("aux_q")
    assert guess.text() == "aux_q.\np :- not not aux_q.\n{aux_q}.\n"
    assert view_keys(solve(prog)) == view_keys(oracle_world_views(prog)) == \
        [[("&k{ q }", False)]]


def test_guess_candidates_cover_all_valuations():
    guess, mapping = translate_guess(ground_program(parse_text(TWO_CYCLE)))
    got = sorted(sorted(print_atom(a) for a in m)
                 for m in projected_answer_sets(guess, set(mapping.values())))
    assert got == [[], ["aux_p"], ["aux_p", "aux_q"], ["aux_q"]]


# ---------------------------------------------------------------------------
# Candidate checking


def check_candidate(tester, known):
    """The view of the valuation `known`, a mask over `tester.kbit`, if
    every independent part of the tester accepts it, else None."""
    if any(part.verdict(tester.to_local(j, known)) is not None
           for j, part in enumerate(tester.parts)):
        return None
    return WorldView({k: bool(known & bit) for k, bit in tester.kbit.items()}, tester)


def test_check_candidate_two_cycle_accepts_exactly_two():
    g = Engine(ground_program(parse_text(TWO_CYCLE)))
    kq, kp = katom("q"), katom("p")
    q, p = g.kbit[kq], g.kbit[kp]
    [part] = g.parts
    assert part.verdict(g.to_local(0, q | p)) is not None
    assert part.verdict(0) is not None
    assert part.verdict(g.to_local(0, p)) is None
    assert part.verdict(g.to_local(0, q)) is None
    wv = check_candidate(g, p)
    assert wv is not None and view_models([wv]) == [[["p"]]]
    assert wv.valuation == {kq: False, kp: True}
    wv = check_candidate(g, q)
    assert wv is not None and view_models([wv]) == [[["q"]]]


def test_check_candidate_tilde_uses_brave_consequences():
    g = Engine(ground_program(parse_text("d :- not &k{~e}.")))
    [part] = g.parts
    assert part.verdict(g.to_local(0, g.kbit[katom("e", negs=1)])) is None
    assert part.verdict(0) == "~-form brave failure"
    wv = check_candidate(g, g.kbit[katom("e", negs=1)])
    assert wv is not None and view_models([wv]) == [[[]]]


def test_check_candidate_rejects_when_no_answer_sets_remain():
    # The constraint forces the assumption of &k{p} at the root.
    g = Engine(ground_program(parse_text(":- not &k{p}.")))
    [part] = g.parts
    assert part.verdict(g.to_local(0, g.kbit[katom("p")])) == "known atom not cautious"
    assert part.verdict(0) == "no answer set"  # reduct is inconsistent


def test_rejections_are_counted_by_the_first_reason_the_check_meets():
    # Two independent parts.  p/q: the empty valuation makes p and q
    # facts, so an unknown &k{p} is cautious.  a/b: a known &k{a} keeps
    # c, and {b, c, d} lacks a; a known &k{~a} drops d, and {a} holds a.
    # A candidate of the guess program always has answer sets.
    stats = SolveStats()
    views = list(solve(parse_text("p :- not &k{q}. q :- not &k{p}. "
                                  "a ; b. c :- &k{a}. d :- not &k{~a}."), stats=stats))
    assert [[print_subjective(k) for k in wv.known()] for wv in views] == \
        [["&k{ p }"], ["&k{ q }"]]
    assert (stats.parts, stats.candidates, stats.accepted) == (2, 6, 3)
    assert stats.rejections == {"known atom not cautious": 1, "unknown atom cautious": 1,
                                "~-form brave failure": 1}


def fold(tester, known):
    """Cautious and brave masks of the answer sets that the parts of
    `tester` list under the valuation `known`, or None when one lists
    none: an answer set is a union of one answer set per part, so the
    intersections and unions of the parts' lists add up, with the atoms
    forward chaining makes true."""
    cautious = brave = tester.facts
    for j, part in enumerate(tester.parts):
        masks = [tester.to_global(j, m) for m in part.models(tester.to_local(j, known))]
        if not masks:
            return None
        meet = masks[0]
        for m in masks:
            meet &= m
            brave |= m
        cautious |= meet
    return cautious, brave


def _enumeration_accepts(tester, valuation) -> bool:
    """The check by listing answer sets: each part's, folded into
    cautious and brave masks, compared subjective atom by atom."""
    folded = fold(tester, tester.known_mask(valuation))
    if folded is None:
        return False
    cautious, brave = folded
    for k, value in valuation.items():
        b = 1 << tester.atom_of.index(k.inner.atom)
        if k.inner.negs == 0:
            if bool(cautious & b) != value:
                return False
        elif bool(brave & b) == value:
            return False
    return True


# What `random_epistemic_program` leaves out: choice rules, `:- .`,
# guards that force an assumption at the root, and atoms that occur only
# inside `&k{}` (c, d, e below).
CHECK_CASES = (
    "{a}. b :- &k{a}. c :- not &k{~a}. {c}.",
    "a ; -b :- not &k{~a}. {b}. -a :- &k{-b}. c :- not &k{c}, b.",
    ":- . p :- &k{p}.",
    "p. :- . q :- not &k{~p}.",
    ":- &k{a}. {a}. b :- &k{~a}.",
    ":- not &k{a}. {a}. a :- &k{b}, not &k{~b}. {b}.",
    "q :- &k{c}. r :- not &k{c}. s :- not &k{~d}, &k{~e}.",
    "{a}. {b}. :- a, b. p :- &k{~a}, &k{~b}. q :- not &k{a}, not &k{b}.",
    "a ; b. -a ; c :- &k{b}. :- not &k{~c}, c. -b :- not b. {b}.",
)


def test_prepared_check_matches_the_enumeration():
    # Every valuation, under both semantics, of the cases above and of
    # random programs, half of them with choice rules added: the
    # conjunction of the parts' checks accepts exactly what listing the
    # answer sets accepts.
    rng = random.Random(1314)
    programs = [parse_text(text) for text in CHECK_CASES]
    for _ in range(1000):
        prog = random_epistemic_program(rng, max_atoms=5, max_rules=8, max_subjective=5)
        extra = tuple(Rule((Atom(rng.choice("abcde")),), (), is_choice=True)
                      for _ in range(rng.choice((0, 0, 1, 2))))
        programs.append(Program(prog.rules + extra))
    checked = accepted = 0
    reasons = Counter()
    for prog in programs:
        for ground in (ground_program(prog), ground_program(k15_transform(prog))):
            tester = Engine(ground)
            katoms = subjective_atoms(ground)
            for values in itertools.product((False, True), repeat=len(katoms)):
                valuation = dict(zip(katoms, values))
                known = tester.known_mask(valuation)
                want = _enumeration_accepts(tester, valuation)
                # The first part that rejects decides, as in `solve`.
                reason = next((r for j, part in enumerate(tester.parts)
                               if (r := part.verdict(tester.to_local(j, known)))), None)
                assert (reason is None) == want, (print_program(prog), valuation)
                if reason is not None:
                    reasons[reason] += 1
                checked += 1
                accepted += want
    assert checked > 8000 and accepted > 1000
    assert len(reasons) == 4


def test_consequences_match_the_fold_of_the_listed_answer_sets():
    # The refinement of each part against listing its answer sets, on
    # random programs under random valuations, some with no answer set.
    rng = random.Random(1518)
    consistent = inconsistent = 0
    for _ in range(600):
        prog = random_epistemic_program(rng, max_atoms=5, max_rules=8, max_subjective=5)
        for ground in (ground_program(prog), ground_program(k15_transform(prog))):
            tester = Engine(ground)
            for _ in range(3):
                known = sum(bit for bit in tester.kbit.values() if rng.random() < 0.5)
                want = fold(tester, known)
                assert tester.consequences(known) == want, (print_program(prog), known)
                consistent += want is not None
                inconsistent += want is None
    assert consistent > 1000 and inconsistent > 500


def shows_program(n):
    """Two sides of n choices each, tied by the facts i(I); `&k{d}` is
    its one view, and its display needs the cautious atoms of a view
    with 2^(2n) answer sets."""
    return parse_text(" ".join(f"{{x({i})}}. {{y({i})}}. i({i})." for i in range(n))
                      + " d. c :- x(I), i(I). e :- y(I), i(I), d. a :- c, not &k{d}."
                      + " #show c/0. #show e/0. #show d/0.")


def test_solve_never_lists_the_answer_sets_of_a_candidate(monkeypatch):
    # `_Part.models` is the one method that lists answer sets.  On a
    # part with assumption bits only `Engine.answer_sets` may call it,
    # and neither the guess, the check nor `cautious()`, so the `#show`
    # display of a view never lists them.
    from epiworld.cli import apply_show, yale_source
    models = _Part.models

    def refuse(self, known):
        if self.assume:
            raise AssertionError("a candidate's answer sets were listed")
        return models(self, known)

    programs = [parse_text(yale_source(f"yale0{i}")) for i in (1, 2, 3)]
    monkeypatch.setattr(_Part, "models", refuse)
    solved = [list(solve(prog)) for prog in programs]
    known = [[[print_subjective(k) for k in wv.known()] for wv in views] for views in solved]
    cautious = [[sorted(map(print_atom, wv.cautious())) for wv in views] for views in solved]
    # The display does not depend on n; the oracle lists 2^6 answer sets.
    shows = [apply_show(wv, shows_program(10).shows) for wv in solve(shows_program(10))]
    monkeypatch.setattr(_Part, "models", models)
    expected = shows_program(3)
    assert shows == [apply_show(wv, expected.shows) for wv in oracle_world_views(expected)]
    assert shows == [["&k{ d }"]]

    def listing(views):
        return sorted(([print_subjective(k) for k in wv.known()],
                       [sorted(map(print_atom, m)) for m in wv.answer_sets],
                       sorted(map(print_atom, wv.cautious()))) for wv in views)

    for prog, views, names, atoms in zip(programs, solved, known, cautious):
        assert [[print_subjective(k) for k in wv.known()] for wv in views] == names
        assert [sorted(map(print_atom, wv.cautious())) for wv in views] == atoms
        assert listing(views) == listing(oracle_world_views(prog))


def test_check_candidate_matches_the_reduct_path():
    # Reference: the valuation's reduct by apply_valuation, its answer
    # sets, and the definition of satisfaction; every valuation is tried.
    rng = random.Random(34)
    for _ in range(300):
        g = ground_program(random_epistemic_program(rng, max_atoms=6, max_rules=None,
                                                    max_subjective=8))
        tester = Engine(g)
        katoms = subjective_atoms(g)
        for values in itertools.product((False, True), repeat=len(katoms)):
            valuation = dict(zip(katoms, values))
            models = Engine(apply_valuation(g, valuation)).answer_sets()
            got = check_candidate(tester, tester.known_mask(valuation))
            if models and all(satisfies(models, k) == v for k, v in valuation.items()):
                assert got is not None and got.valuation == valuation
                assert got.answer_sets == tuple(models)
            else:
                assert got is None


def test_solve_builds_one_engine(monkeypatch):
    from epiworld.cli import yale_source
    built = []
    init = Engine.__init__

    def counting_init(self, program):
        built.append(program)
        init(self, program)

    monkeypatch.setattr(Engine, "__init__", counting_init)
    stats = SolveStats()
    views = list(solve(parse_text(yale_source("yale01")), stats=stats))
    assert views and stats.candidates >= 2
    assert len(built) == 1


def test_world_view_known_and_display_order():
    views = {tuple(k.inner.atom.name for k in wv.known()): wv
             for wv in solve(parse_text(TWO_CYCLE))}
    assert set(views) == {("p",), ("q",)}
    wv = list(solve(parse_text("x. y :- &k{x}, not &k{~z}.")))[0]
    assert [print_subjective(k) for k in wv.known()] == ["&k{ x }", "&k{ ~z }"]


# ---------------------------------------------------------------------------
# K15 reduction


def test_k15_adds_the_inner_literal_to_positive_occurrences():
    out = k15_transform(parse_text("p :- &k{q}."))
    assert print_program(out) == "p :- &k{ q }, q.\n"


def test_k15_rewrites_negated_occurrences_with_aux_rules():
    out = k15_transform(parse_text("p :- r, not &k{q}."))
    assert print_program(out) == ("p :- r, k15aux_1.\n"
                                  "k15aux_1 :- not &k{ q }, r.\n"
                                  "k15aux_1 :- not q, r.\n")


def test_k15_tilde_inner_gets_double_negation():
    out = k15_transform(parse_text("q :- not &k{~q}."))
    assert print_program(out) == ("q :- k15aux_1.\n"
                                  "k15aux_1 :- not &k{ ~q }.\n"
                                  "k15aux_1 :- not not q.\n")


def test_k15_counts_occurrences_not_atoms():
    out = k15_transform(parse_text("p :- not &k{q}. r :- not &k{q}."))
    assert [print_rule(r) for r in out.rules] == [
        "p :- k15aux_1.",
        "k15aux_1 :- not &k{ q }.",
        "k15aux_1 :- not q.",
        "r :- k15aux_2.",
        "k15aux_2 :- not &k{ q }.",
        "k15aux_2 :- not q.",
    ]


def test_k15_world_views_of_negative_loop():
    views = list(solve(parse_text("p :- not &k{q}."), semantics="k15"))
    assert view_keys(views) == [[("&k{ q }", False)]]
    assert [sorted(sorted(map(print_atom, m)) for m in expand_world_view(wv))
            for wv in views] == [[["p"]]]


def test_k15_tilde_self_reference_has_one_view():
    views = list(solve(parse_text("q :- not &k{~q}."), semantics="k15"))
    assert len(views) == 1
    assert [sorted(map(print_atom, m)) for m in expand_world_view(views[0])] == [["q"]]


def test_expand_world_view_strips_auxiliary_atoms():
    (wv,) = solve(parse_text("p :- not &k{q}."), semantics="k15")
    raw = {print_atom(a) for m in wv.answer_sets for a in m}
    assert "k15aux_1" in raw
    assert [set(map(print_atom, m)) for m in expand_world_view(wv)] == [{"p"}]


def test_k15_keeps_a_program_atom_printed_like_its_aux_atom():
    # Built without the parser: the program atom k15aux_1 and the fresh
    # k15 atom print alike but stay two atoms.
    user = Atom("k15aux_1")
    prog = Program((Rule((user,), ()),
                    Rule((Atom("p"),), (SubjLiteral(katom("q"), True),))))
    (wv,) = solve(prog, semantics="k15")
    assert view_keys([wv]) == [[("&k{ q }", False)]]
    assert expand_world_view(wv) == [frozenset({user, Atom("p")})]
    (m,) = wv.answer_sets
    assert sorted(type(a).__name__ for a in m) == ["Atom", "Atom", "AuxAtom"]


# ---------------------------------------------------------------------------
# Solver end to end


def test_solve_stats_give_the_sizes_and_times_and_compare_without_the_times():
    stats, again = SolveStats(), SolveStats()
    for counted in (stats, again):
        list(solve(parse_text("q(a). q(b). p(X) :- q(X), not &k{ r(X) }."), stats=counted))
    assert (stats.ground_rules, stats.atoms, stats.parts) == (4, 6, 2)
    assert stats.ground_s > 0 and stats.engine_s > 0
    assert stats.guess_s > 0 and stats.check_s > 0
    again.ground_s, again.engine_s = 2 * stats.ground_s, 2 * stats.engine_s
    again.guess_s, again.check_s = 2 * stats.guess_s, 2 * stats.check_s
    assert again == stats


def test_solve_two_cycle_order_and_stats():
    stats = SolveStats()
    views = list(solve(parse_text(TWO_CYCLE), stats=stats))
    assert [[print_subjective(k) for k in wv.known()] for wv in views] == \
        [["&k{ p }"], ["&k{ q }"]]
    assert stats.accepted == 2
    assert stats.candidates == 3
    assert stats.rejected == 1


def test_candidates_add_up_over_independent_parts():
    # 40 students, each an independent part with one or two candidates;
    # guessing all subjective atoms at once would check 4,096.  The 7
    # students with only `fair` facts add one part each: no instance of
    # `eligible(X) :- minority(X), fair(X).` has a derivable body for
    # them, so their `fair` fact shares no rule with the rest, and its
    # part has one candidate, the empty valuation.
    from epiworld.cli import gen_eligibility
    stats = SolveStats()
    (wv,) = solve(gen_eligibility(40, 1), stats=stats)
    assert stats.parts == 40 + 7
    assert stats.candidates == 59 <= 2 * stats.parts
    assert stats.accepted == stats.parts


def test_solve_unsatisfiable_program():
    assert list(solve(parse_text(":- not &k{p}."))) == []


def test_solve_handles_programs_without_subjective_atoms():
    (wv,) = solve(parse_text("a. b :- a."))
    assert wv.valuation == {}
    assert view_models([wv]) == [[["a", "b"]]]


def test_solve_rejects_unknown_semantics():
    with pytest.raises(ValueError, match="semantics"):
        list(solve(parse_text("p."), semantics="g94"))


def test_solve_matches_the_oracle_on_a_strongly_negated_choice():
    prog = parse_text("{-b}. b :- not -b. q :- &k{b}.")
    views = list(solve(prog))
    assert view_keys(views) == view_keys(oracle_world_views(prog)) == [[("&k{ b }", False)]]
    assert view_models(views) == view_models(oracle_world_views(prog)) == [[["-b"], ["b"]]]


def test_a_head_atom_under_not_in_its_own_body_is_never_supported():
    # Found by criterion 05 (seed 2025): the second rule heads b but has
    # `not b` in its body, so it can never support b, and {b} is not an
    # answer set of any reduct.
    prog = parse_text("a ; b :- not &k{b}, &k{a}, b.  a ; b :- not not b, not b.")
    for semantics in ("g91", "k15"):
        views = list(solve(prog, semantics))
        assert view_keys(views) == view_keys(oracle_world_views(prog, semantics))
        assert view_models(views) == view_models(oracle_world_views(prog, semantics))
    views = list(solve(prog))
    assert view_keys(views) == [[("&k{ a }", False), ("&k{ b }", False)]]
    assert view_models(views) == [[[]]]
    g = ground_program(parse_text("a ; b :- not not b, not b."))
    assert Engine(g).answer_sets() == [frozenset()]


def test_world_views_satisfy_their_own_valuation_and_fixpoint():
    rng = random.Random(31)
    for _ in range(150):
        prog = random_epistemic_program(rng)
        g = ground_program(prog)
        for wv in solve(prog):
            assert wv.answer_sets
            red = subjective_reduct(g, wv.answer_sets)
            assert list(Engine(red).answer_sets()) == list(wv.answer_sets)
            for k, v in wv.valuation.items():
                assert satisfies(wv.answer_sets, SubjLiteral(k)) == v


def test_solver_matches_oracle_on_random_programs():
    rng = random.Random(32)
    for _ in range(150):
        prog = random_epistemic_program(rng)
        got = list(solve(prog))
        want = oracle_world_views(prog)
        assert view_keys(got) == view_keys(want)
        assert view_models(got) == view_models(want)


def test_solver_matches_oracle_under_k15():
    rng = random.Random(33)
    for _ in range(100):
        prog = random_epistemic_program(rng, max_atoms=3, max_rules=4)
        got = list(solve(prog, semantics="k15"))
        want = oracle_world_views(prog, semantics="k15")
        assert view_models(got) == view_models(want)


def test_solver_matches_oracle_under_k15_when_heads_repeat():
    # Up to nine rules over at most three atoms: most head atoms have
    # several rules.
    rng = random.Random(34)
    for _ in range(150):
        prog = random_epistemic_program(rng, max_atoms=3, max_rules=None)
        got = list(solve(prog, semantics="k15"))
        want = oracle_world_views(prog, semantics="k15")
        assert view_keys(got) == view_keys(want)
        assert view_models(got) == view_models(want)


def ordered_listing(views):
    """Each view's valuation, in order, with its answer sets."""
    return [([(print_subjective(k), v) for k, v in wv.valuation.items()],
             [sorted(map(print_atom, m)) for m in wv.answer_sets]) for wv in views]


@pytest.mark.parametrize("semantics", ["g91", "k15"])
def test_the_oracle_matches_the_listing_oracle(semantics):
    rng = random.Random(1616)
    for _ in range(200):
        prog = random_epistemic_program(rng, max_atoms=5, max_rules=None, max_subjective=5)
        assert ordered_listing(oracle_world_views(prog, semantics)) == \
            ordered_listing(listing_world_views(prog, semantics)), print_program(prog)


@pytest.mark.parametrize("semantics", ["g91", "k15"])
def test_a_single_part_lists_its_views_in_the_oracles_order(semantics):
    rng = random.Random(1617)
    single = 0
    for _ in range(200):
        prog = random_epistemic_program(rng, max_atoms=5, max_rules=None, max_subjective=5)
        stats = SolveStats()
        got = ordered_listing(solve(prog, semantics, stats))
        if stats.parts == 1:
            single += 1
            assert got == ordered_listing(oracle_world_views(prog, semantics)), \
                print_program(prog)
    assert single > 150


def guessed(tester):
    """Every part's guesses as (part, known, witness), in order."""
    return [(j, known, witness) for j, part in enumerate(tester.parts)
            for known, witness in part.guesses()]


@pytest.mark.parametrize("semantics", ["g91", "k15"])
def test_part_guesses_are_pruned_candidates_with_the_same_accepted_ones(semantics):
    # The candidates of the parts, combined over the parts, against the
    # guess program with both pruning passes; on non-tight programs the
    # guess's answer sets pass the minimality test.
    rng = random.Random(1618)
    non_tight = accepted_some = 0
    for _ in range(300):
        prog = random_epistemic_program(rng, max_atoms=5, max_rules=None, max_subjective=5)
        if semantics == "k15":
            prog = k15_transform(prog)
        tester = Engine(ground_program(prog))
        non_tight += not tester.tight
        parts = [[] for _ in tester.parts]
        for j, known, witness in guessed(tester):
            # The witness is an answer set of the part under `known`,
            # which holds exactly the witness's assumption bits.
            part = tester.parts[j]
            assert known == witness & ~part.atoms
            assert witness & part.atoms in part.models(known)
            parts[j].append((tester.to_global(j, known), part.verdict(known, witness) is None))
        candidates, accepted = set(), set()
        for combo in itertools.product(*parts):
            known = sum(k for k, _ in combo)
            names = frozenset(aux_atom(k) for k, bit in tester.kbit.items() if known & bit)
            candidates.add(names)
            if all(ok for _, ok in combo):
                accepted.add(names)
        for found in parts:
            assert [k for k, _ in found] == sorted({k for k, _ in found})
        both, both_accepted = pruning_outcomes(prog)["both"]
        assert candidates <= both and accepted == both_accepted, print_program(prog)
        accepted_some += bool(accepted)
    assert non_tight > 100 and accepted_some > 100


def test_a_check_with_a_witness_decides_as_one_without():
    # Witnesses from the guesses, and any answer set of the part under a
    # random valuation, listed by `_Part.models`.
    rng = random.Random(1619)
    checked = accepted = 0
    for _ in range(300):
        prog = random_epistemic_program(rng, max_atoms=5, max_rules=None, max_subjective=5)
        for ground in (ground_program(prog), ground_program(k15_transform(prog))):
            tester = Engine(ground)
            tests = guessed(tester)
            for j, part in enumerate(tester.parts):
                draw = rng.getrandbits(len(tester.kbit))
                known = sum(bit for i, bit in enumerate(tester.kbit.values()) if draw >> i & 1)
                known = tester.to_local(j, known)
                tests += [(j, known, m) for m in part.models(known)]
            for j, known, witness in tests:
                want = tester.parts[j].verdict(known) is None
                assert (tester.parts[j].verdict(known, witness) is None) == want, \
                    print_program(prog)
                checked += 1
                accepted += want
    assert checked > 1000 and accepted > 300


@pytest.mark.parametrize("source, reason, kept", [
    ("a :- not b. b :- not a. c :- &k{a}.", KNOWN_NOT_CAUTIOUS, "a"),
    ("a :- not b. b :- not a. c :- &k{~a}.", BRAVE_FAILURE, "b"),
])
def test_the_check_never_sees_the_consistency_constraints(source, reason, kept):
    # Under the known subjective atom the guess's constraint keeps only
    # the answer set with `kept`; the check must see both and reject.
    tester = Engine(ground_program(parse_text(source)))
    [part] = tester.parts
    [known] = (tester.to_local(0, bit) for bit in tester.kbit.values())
    a, b, c = (tester.to_local(0, 1 << tester.atom_of.index(Atom(name))) for name in "abc")
    assert part.models(known) == [a | c, b | c]
    assert part.consequences(known) == (c, a | b | c)
    assert part.verdict(known) == reason
    kept = tester.to_local(0, 1 << tester.atom_of.index(Atom(kept)))
    assert list(part.guesses()) == [(0, b), (known, known | kept | c)]


@pytest.mark.parametrize("source, views", [(":- not &k{a}.", 0), ("b. :- not &k{a}.", 0),
                                           ("a. :- not &k{~a}.", 0), ("a. :- not &k{a}.", 1)])
def test_a_root_closure_that_rules_out_the_guess_yields_no_guess(source, views):
    # The constraint fixes the subjective atom known, and in all but the
    # last program the root closure fixes its atom against it, which
    # sets the guess bit false.
    prog = parse_text(source)
    tester = Engine(ground_program(prog))
    [part] = [part for part in tester.parts if part.katoms]
    assert bool(part.root[1] & part.guess) == (views == 0)
    guesses = list(part.guesses())
    assert len(guesses) == views
    for known, witness in guesses:
        assert not (known | witness) & part.guess
    assert len(list(solve(prog))) == len(oracle_world_views(prog)) == views


# Names the machinery prints its own atoms with; renaming program atoms
# onto them must not change any world view.
LOOK_ALIKE_NAMES = ("aux_a", "aux_not_a", "aux_sn_a", "aux__not_a",
                    "k15aux_1", "k15aux_2", "not_a", "sn_a")


def rename(a, names):
    return Atom(names[a.name], a.args, a.strong_neg)


def rename_program(prog, names):
    def literal(lit):
        if isinstance(lit, ObjLiteral):
            return ObjLiteral(rename(lit.atom, names), lit.negs)
        inner = lit.katom.inner
        return SubjLiteral(KAtom(ObjLiteral(rename(inner.atom, names), inner.negs)),
                           lit.negated)

    return Program(tuple(Rule(tuple(rename(a, names) for a in r.head),
                              tuple(map(literal, r.body)), r.is_choice)
                         for r in prog.rules))


def renamed_views(views, names):
    """World views as comparable sets, atoms renamed through `names`."""
    return {(frozenset((rename(k.inner.atom, names), k.inner.negs, v)
                       for k, v in wv.valuation.items()),
             frozenset(frozenset(rename(a, names) for a in m) for m in expand_world_view(wv)))
            for wv in views}


@pytest.mark.parametrize("semantics", ["g91", "k15"])
def test_renaming_atoms_and_permuting_rules_keeps_world_views(semantics):
    rng = random.Random(41)
    for _ in range(300):
        prog = random_epistemic_program(rng, max_atoms=6, max_rules=None)
        names = sorted({a.name for a in ground_program(prog).atoms})
        forward = dict(zip(names, rng.sample(LOOK_ALIKE_NAMES, len(names))))
        back = {new: old for old, new in forward.items()}
        renamed = rename_program(prog, forward)
        renamed = Program(tuple(rng.sample(renamed.rules, len(renamed.rules))))
        want = renamed_views(solve(prog, semantics=semantics), dict(zip(names, names)))
        assert renamed_views(solve(renamed, semantics=semantics), back) == want
        assert renamed_views(oracle_world_views(renamed, semantics), back) == want
