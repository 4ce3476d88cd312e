"""Answer-set engine: enumeration, consequences, projections."""

import inspect
import itertools
import random
import sys
from collections import Counter

import pytest

from brute import brute_answer_sets, brute_consequences
from corpus import random_epistemic_program, random_ground_rules
from pruning import projected_answer_sets, projected_components, reference_guesses
from epiworld import stable
from epiworld.cli import YALE_INSTANCES, yale_source
from epiworld.epistemic import (SolveStats, _ground, apply_valuation, expand_world_view,
                                oracle_world_views, satisfies, solve)
from epiworld.grounder import GroundProgram, ground_program
from epiworld.stable import (
    Engine,
    _clauses,
    _minimal,
    _models,
    _propagate,
    _tight,
    _watch,
)
from epiworld.syntax import (Atom, AuxAtom, Program, Rule, SubjLiteral, parse_text, print_atom,
                            print_program, print_subjective)


def ground(source):
    return ground_program(parse_text(source))


def names(models):
    return [sorted(map(print_atom, m)) for m in models]


def consequence_atoms(g):
    """The cautious and brave atoms of a ground program, or None when
    it has no answer set."""
    eng = Engine(g)
    found = eng.consequences()
    return None if found is None else tuple(map(eng.to_interpretation, found))


def all_rules(eng):
    """The rule masks of every part of `eng`, over the engine's bits."""
    return [tuple(eng.to_global(j, mask) for mask in rule)
            for j, part in enumerate(eng.parts) for rule in part.rules]


def part_bits(eng, names):
    """The bits of the atoms named in `names` in the one part of `eng`,
    over the part's own bits; each must have one."""
    [_] = eng.parts
    bits = [eng.to_local(0, 1 << eng.atom_of.index(Atom(n))) for n in names]
    assert all(bits), "an atom that forward chaining decides has no bit in its part"
    return bits


def bitmask_order(models):
    """Interpretations in the engine's order: ascending bitmask over the
    atoms sorted by printed form."""
    rank = {a: i for i, a in enumerate(sorted(frozenset().union(*models), key=print_atom))}
    return sorted(models, key=lambda m: sum(1 << rank[a] for a in m))


# ---------------------------------------------------------------------------
# Choice rules


def test_choice_program_has_both_answers():
    assert names(Engine(ground("{aux_p}.")).answer_sets()) == [[], ["aux_p"]]


def test_two_choices_give_four_answers():
    got = names(Engine(ground("{aux_p}. {aux_q}.")).answer_sets())
    assert got == [[], ["aux_p"], ["aux_q"], ["aux_p", "aux_q"]]


def test_choice_rules_take_no_bit_beyond_their_atom():
    g = ground("{a}. {c}. b :- a.")
    eng = Engine(g)
    assert eng.width == len(eng.atom_of) == len(g.atoms) == 3
    assert eng.atom_of == sorted(g.atoms, key=print_atom)


def test_choice_answer_sets_ascend_over_the_program_atoms():
    g = ground("{a}. b :- a.")
    assert projected_components(g, g.atoms) == [[frozenset(), frozenset({Atom("a"), Atom("b")})]]


# ---------------------------------------------------------------------------
# Enumeration basics


def test_empty_program_has_the_empty_answer_set():
    assert Engine(GroundProgram(())).answer_sets() == [frozenset()]


def test_negation_cycle():
    assert names(Engine(ground("p :- not q. q :- not p.")).answer_sets()) == [["p"], ["q"]]


def test_positive_loops_stay_false():
    assert Engine(ground("p :- p.")).answer_sets() == [frozenset()]
    assert Engine(ground("p :- q. q :- p.")).answer_sets() == [frozenset()]


def test_odd_loop_kills_the_program():
    assert Engine(ground("p :- not p.")).answer_sets() == []


def test_double_negation_supports_itself():
    got = names(Engine(ground("p :- not not p.")).answer_sets())
    assert got == [[], ["p"]]


def test_disjunctive_fact_is_minimal():
    assert names(Engine(ground("p, q.")).answer_sets()) == [["p"], ["q"]]


def test_disjunction_with_shared_support():
    got = names(Engine(ground("p, q. p :- q.")).answer_sets())
    assert got == [["p"]]


def test_constraints_filter_models():
    assert names(Engine(ground("p, q. :- p.")).answer_sets()) == [["q"]]
    assert Engine(ground("p. :- p.")).answer_sets() == []
    assert Engine(ground(":- .")).answer_sets() == []


def test_strong_negation_consistency_filter():
    assert Engine(ground("a. -a.")).answer_sets() == []
    assert names(Engine(ground("a, -a.")).answer_sets()) == [["-a"], ["a"]]
    assert names(Engine(ground("-a. b :- -a.")).answer_sets()) == [["-a", "b"]]


def test_answer_sets_are_ordered_by_universe_bitmask():
    got = names(Engine(ground("a, b, c.")).answer_sets())
    assert got == [["a"], ["b"], ["c"]]


def test_choice_complements_do_not_collide_with_program_atoms():
    for src in ("{aux_p}. naux_p.", "{a}. na."):
        g = ground(src)
        assert Engine(g).answer_sets() == bitmask_order(brute_answer_sets(g.rules))


def test_program_atom_sorts_before_the_aux_atom_printed_alike():
    user, aux = Atom("x"), AuxAtom("x")
    for first, second in ((user, aux), (aux, user)):
        g = GroundProgram((Rule((first, second), ()), Rule((second,), (), True)))
        assert Engine(g).answer_sets() == [frozenset({user}), frozenset({aux})]


def test_long_component_needs_no_recursion():
    src = " ".join(f"a{i}, b{i}. a{i} :- b{i}. b{i} :- a{i}. c :- a{i}." for i in range(200))
    g = ground(src)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        models = Engine(g).answer_sets()
        found = consequence_atoms(g)
    finally:
        sys.setrecursionlimit(limit)
    assert len(models) == 1 and len(models[0]) == 401
    assert found == (models[0], models[0])


# ---------------------------------------------------------------------------
# Consequences and projection


def test_consequences_of_single_answer_set():
    assert consequence_atoms(ground("p. q :- p.")) == ({Atom("p"), Atom("q")},) * 2


def test_consequences_meet_and_join():
    assert consequence_atoms(ground("p, q. r.")) == \
        ({Atom("r")}, {Atom("p"), Atom("q"), Atom("r")})


def test_consequences_without_answer_sets():
    assert consequence_atoms(ground("p :- not p.")) is None


def test_consequences_exclude_choice_complements():
    assert consequence_atoms(ground("{aux_p}.")) == (frozenset(), {Atom("aux_p")})


def test_projected_answer_sets_cover_all_combinations():
    g = ground("{aux_p}. {aux_q}. x :- not y.")
    onto = {Atom("aux_p"), Atom("aux_q")}
    assert [names(comp) for comp in projected_components(g, onto)] == \
        [[[], ["aux_p"]], [[], ["aux_q"]], [[]]]
    got = sorted(names(projected_answer_sets(g, onto)))
    assert got == [[], ["aux_p"], ["aux_p", "aux_q"], ["aux_q"]]


def test_projected_answer_sets_on_empty_program():
    assert projected_components(GroundProgram(()), {Atom("aux_p")}) == []
    assert projected_answer_sets(GroundProgram(()), {Atom("aux_p")}) == [frozenset()]
    assert projected_components(ground(":- ."), {Atom("aux_p")}) is None


def test_subjective_programs_are_refused_without_a_valuation():
    eng = Engine(ground("p :- &k{q}. q."))
    for query in (eng.answer_sets, eng.consequences):
        with pytest.raises(ValueError, match="depend on a valuation"):
            query()
    assert eng.answer_sets(0) == [frozenset({Atom("q")})]


# ---------------------------------------------------------------------------
# Propagation

# Bits of a hand-built component: the rules `b | w :- x, not y, not not z.`
# and `b :- v.`, as clauses (head | not, pos | not not).
B, X, Y, Z, W, V = 1, 2, 4, 8, 16, 32
ALL = B | X | Y | Z | W | V
FIRST = (B | W | Y, X | Z)
SECOND = (B, V)


def test_a_true_atom_with_one_supporter_left_forces_that_rule():
    # v is false, so only the first rule can support b: its positive and
    # `not not` body atoms hold, its `not` body atom and other head fail.
    got = _propagate([FIRST, SECOND], {B: [FIRST, SECOND]}, ALL, B, V)
    assert got == (B | X | Z, V | Y | W)


def test_a_true_atom_with_two_supporters_left_forces_nothing():
    got = _propagate([FIRST, SECOND], {B: [FIRST, SECOND]}, ALL, B, 0)
    assert got == (B, 0)


def test_a_true_atom_whose_last_supporter_failed_is_a_conflict():
    assert _propagate([FIRST, SECOND], {B: [FIRST, SECOND]}, ALL, B, V | X) is None
    # Without the support lists, the same assignment is closed as it is.
    assert _propagate([FIRST, SECOND], {}, ALL, B, V | X) == (B, V | X)


def test_a_last_supporter_that_needs_an_atom_both_ways_is_a_conflict():
    # `b | w :- w.` can support b only if w is true and false at once.
    rule = (B | W, W)
    assert _propagate([rule], {B: [rule]}, B | W, B, 0) is None


def test_watch_files_clauses_and_atoms_under_every_bit_they_mention():
    # Each bit b has an entry under b, read when it is true, and under
    # -b, read when it is false: (bits it implies true, bits it implies
    # false, long clauses, atom entries).  The long clause FIRST is filed
    # under the value that makes each literal fail: false for b, w, y,
    # true for x, z.  The binary clause SECOND, `b or not v`, is two
    # implications: b false implies v false, v true implies b true.  b
    # has two supporters, so its entry is filed under true for b and the
    # other atoms of the rules' p (w, y), and under false for the atoms
    # of their n (x, z, v).
    supports = {B: [FIRST, SECOND]}
    entry = (B, [FIRST, SECOND])
    assert _watch([FIRST, SECOND], supports, ALL) == {
        B: [0, 0, [], [entry]], -B: [0, V, [FIRST], []],
        X: [0, 0, [FIRST], []], -X: [0, 0, [], [entry]],
        Y: [0, 0, [], [entry]], -Y: [0, 0, [FIRST], []],
        Z: [0, 0, [FIRST], []], -Z: [0, 0, [], [entry]],
        W: [0, 0, [], [entry]], -W: [0, 0, [FIRST], []],
        V: [B, 0, [], []], -V: [0, 0, [], [entry]],
    }


def test_an_atom_with_one_supporter_is_implications_both_ways():
    # b's one supporter, `b | w :- x, not y, not not z.`: b true sets x
    # and z true and w and y false; x or z false, or w or y true, sets b
    # false.  The rule's clause is long and filed as usual.
    watch = _watch([FIRST], {B: [FIRST]}, ALL)
    assert watch[B] == [X | Z, W | Y, [], []]
    for key in (-X, -Z, W, Y):
        assert watch[key][:2] == [0, B]
    assert _propagate([FIRST], {B: [FIRST]}, ALL, B, 0, watch, B) == (B | X | Z, W | Y)
    assert _propagate([FIRST], {B: [FIRST]}, ALL, W, 0, watch, W) == (W, B)
    # An atom with no supporter is false in every closed state.
    assert _watch([], {B: []}, B) == {B: [0, 0, [], []], -B: [0, 0, [], []]}


def test_a_set_bit_reaches_the_atoms_its_rules_support():
    # From the closed state (b, -), v false leaves b one supporter.
    supports = {B: [FIRST, SECOND]}
    watch = _watch([FIRST, SECOND], supports, ALL)
    got = _propagate([FIRST, SECOND], supports, ALL, B, V, watch, V)
    assert got == (B | X | Z, V | Y | W)


def test_a_branch_bit_that_touches_nothing_leaves_the_state_as_it_is():
    U = 64  # in scope, but in no clause and no supporting rule
    supports = {B: [FIRST, SECOND]}
    watch = _watch([FIRST, SECOND], supports, ALL | U)
    assert watch[U] == watch[-U] == [0, 0, [], []]
    assert _propagate([FIRST, SECOND], supports, ALL | U, B, U, watch, U) == (B, U)
    # Only the new bit's lists are looked at: the state (b, v) is not
    # closed, and a full scan would force the first rule.
    assert _propagate([FIRST, SECOND], supports, ALL | U, B, V | U, watch, U) == (B, V | U)


def test_a_bit_is_propagated_from_only_under_the_value_it_took():
    # `x or not y` and `x or z`: from (-, z), which is not closed (a
    # full scan sets x), y false only satisfies the first clause, so
    # nothing is looked at; y true leaves it one literal, x, and sets it.
    clauses = [(X, Y), (X | Z, 0)]
    watch = _watch(clauses, {}, X | Y | Z)
    assert _propagate(clauses, {}, X | Y | Z, 0, Z | Y, watch, Y) == (0, Z | Y)
    assert _propagate(clauses, {}, X | Y | Z, Y, Z, watch, Y) == (X | Y, Z)
    # From (b, v), which is not closed (a full scan forces the first
    # rule), x true takes no supporter from b and satisfies the first
    # clause, while x false fails the first rule's body: b has no
    # supporter left.
    supports = {B: [FIRST, SECOND]}
    watch = _watch([FIRST, SECOND], supports, ALL)
    assert _propagate([FIRST, SECOND], supports, ALL, B | X, V, watch, X) == (B | X, V)
    assert _propagate([FIRST, SECOND], supports, ALL, B, V | X, watch, X) is None


def test_an_open_bit_to_propagate_from_reads_its_lists_but_implies_nothing():
    # `x or y or z` and `x or w`.  From (-, y z) with x open, x's lists for
    # false are read, and the long clause sets x; x false would imply w,
    # but x was never false.  A refinement search's start propagates
    # from its clause's bits in this way, open or not.
    clauses = [(X | Y | Z, 0), (X | W, 0)]
    scope = X | Y | Z | W
    watch = _watch(clauses, {}, scope)
    assert watch[-X] == [W, 0, [clauses[0]], []]
    assert _propagate(clauses, {}, scope, 0, Y | Z, watch, X) == (X, Y | Z)
    assert _propagate(clauses, {}, scope, 0, Y | Z) == (X, Y | Z)


def test_a_bit_implied_in_one_round_has_its_lists_read_in_the_next():
    # `y or not x` makes x imply y, and `z or not y or not w` is unit
    # once w and y hold, so closing from x true sets z.
    clauses = [(Y, X), (Z, Y | W)]
    scope = X | Y | Z | W
    watch = _watch(clauses, {}, scope)
    assert watch[X] == [Y, 0, [], []] and watch[Y][2] == [clauses[1]]
    assert _propagate(clauses, {}, scope, X | W, 0, watch, X) == (X | Y | Z | W, 0)


def test_the_clause_of_a_choice_rule_is_filed_under_no_bit():
    [part] = Engine(ground("{a}.")).parts
    assert part.clauses == [(1, 1)] and part.supports == {1: [(1, 1)]}
    assert part.root == (0, 0)
    assert all(entry == [0, 0, [], []] for entry in part.watch.values())
    assert _watch([(X, X)], {}, X) == {X: [0, 0, [], []], -X: [0, 0, [], []]}
    # `a :- not not a, b.`, a choice of a under the body b, has the
    # clause `a or not a or not b`, which always holds: only a's one
    # supporter is left, so a true implies b true, and b false a false.
    eng = Engine(ground("{b}. a :- not not a, b."))
    [part] = eng.parts
    a, b = part_bits(eng, "ab")
    assert part.root == (0, 0)
    assert {key: entry for key, entry in part.watch.items() if any(entry)} == \
        {a: [b, 0, [], []], -b: [0, a, [], []]}


def test_a_one_supporter_atom_whose_rule_needs_an_atom_both_ways_conflicts_when_true():
    # `b | w :- w.` is b's one supporter: b true implies w true and false.
    rule = (B | W, W)
    watch = _watch([rule], {B: [rule]}, B | W)
    assert watch[B] == [W, W, [], []]
    assert _propagate([rule], {B: [rule]}, B | W, B, 0, watch, B) is None
    # So b true is a failed literal, and a part's root sets b false.
    part = stable._Part([(B | W, W, 0, 0)], [])
    assert part.failed == 1 and part.root == (0, B)


def test_a_body_that_can_never_hold_supports_nothing():
    # `b :- x, not x.` and `b :- not x, not not x.` fail under every
    # assignment, so neither is filed as a supporter of b, and their
    # clauses always hold.  `b :- x, not not x.` can hold and supports b.
    for rule in ((B, X, X, 0), (B, 0, X, X)):
        [(p_mask, n_mask)], supports = _clauses([rule], B | X)
        assert p_mask & n_mask and supports == {B: [], X: []}
    assert _clauses([(B, X, 0, X)], B | X)[1] == {B: [(B, X)], X: []}
    # So b and c have no supporter, and the root sets them false.
    eng = Engine(ground("{a}. b :- a, not a. c :- not a, not not a."))
    [part] = eng.parts
    b, c = part_bits(eng, "bc")
    assert part.root == (0, b | c) and part.failed == 0


def test_the_k15aux_atom_of_a_planning_step_is_a_failed_literal():
    # Under k15, `:- occ, not &k{occ}.` becomes `:- occ, k15aux.` with
    # `k15aux :- not &k{occ}, occ.` and the dead `k15aux :- not occ, occ.`.
    # k15aux's one live rule makes it imply occ, and the constraint makes
    # it imply not occ, so it is false at the root, though unit
    # propagation alone leaves it open.
    eng = Engine(_ground(parse_text("{occ}. :- occ, not &k{occ}."), "k15"))
    [part] = eng.parts
    [aux] = [1 << i for i, atom in enumerate(eng.atom_of) if isinstance(atom, AuxAtom)]
    assert _propagate(part.clauses, part.supports, part.scope, 0, 0) == (0, 0)
    assert part.root == (0, aux) and part.failed == 1
    assert [known for known, _ in part.guesses()] == [0, eng.to_local(0, sum(eng.kbit.values()))]


@pytest.mark.parametrize("semantics, calls", [("g91", 923), ("k15", 781)])
def test_yale05_makes_as_many_propagations_as_ever(monkeypatch, semantics, calls):
    # The layout changes how a state is closed, not which states are
    # reached: the search tree, and so the count, stay as they were.
    # Under k15, each part's root fixes its failed literals, the `k15aux`
    # atom of every step's constraint, so no check search rediscovers
    # that conflict below each fluent it branches on (19,510 calls
    # before).
    count = [0]

    def counted(*args):
        count[0] += 1
        return _propagate(*args)

    monkeypatch.setattr(stable, "_propagate", counted)
    assert sum(1 for _ in solve(parse_text(yale_source("yale05")), semantics)) == \
        {"g91": 131, "k15": 211}[semantics]
    assert count[0] == calls


def test_the_8_node_ring_makes_as_many_minimality_tests_as_ever(monkeypatch):
    # Both directions of each ring edge are a choice, so the program is
    # not tight and every supported model the search reaches is tested
    # by `_minimal`.  The count drops only when the search is pruned
    # better, say by unfounded-set propagation.
    ring = " ".join(f"{{e({i},{(i + 1) % 8})}}. {{e({(i + 1) % 8},{i})}}." for i in range(8))
    program = parse_text(ring + " r(0). r(Y) :- r(X), e(X,Y). q :- &k{r(4)}. s :- not &k{r(4)}.")
    count = [0]

    def counted(*args):
        count[0] += 1
        return _minimal(*args)

    monkeypatch.setattr(stable, "_minimal", counted)
    assert sum(1 for _ in solve(program)) == 1
    assert count[0] == 12975


def test_a_part_files_nothing_that_its_root_closure_decides():
    # Forward chaining decides nothing, but at the root y fails and so x
    # holds: its rule is filed nowhere, and the constraint `:- x, p, q.`
    # is left with two open literals: p true implies q false, and q true
    # p false.  No bit x or y can take below the root reads anything.
    eng = Engine(ground("{y}. :- y. x :- not y. {p}. {q}. :- x, p, q."))
    [part] = eng.parts
    x, y, p, q = part_bits(eng, "xypq")
    assert eng.fixed_atoms == 0
    assert part.root == (x, y)
    assert part.watch[x] == part.watch[-x] == part.watch[y] == part.watch[-y] == (0, 0, (), ())
    assert part.watch[p] == [0, q, [], []] and part.watch[q] == [0, p, [], []]
    assert part.watch[-p] == part.watch[-q] == [0, 0, [], []]
    assert _propagate(part.clauses, part.supports, part.scope, x | p, 0, part.watch, p) == \
        (x | p, q)
    assert part.models(0) == [x, x | p, x | q]


def test_a_search_clause_is_seen_whatever_its_bits_hold_at_the_start():
    # In `{b}. :- not b. {a}. :- a, not b.`, b holds at the part's start
    # and a is open.  The start has no bits to propagate from, so the
    # search propagates from the clause's bits at once, under the value
    # each holds, and "b fails" has no answer set.
    eng = Engine(ground("{b}. :- not b. {a}. :- a, not b."))
    [part] = eng.parts
    a, b = part_bits(eng, "ab")
    start = part.start(0)
    assert part._answer_set(start, (0, b)) is None
    assert part._answer_set(start, (0, a | b)) == b
    assert part._answer_set(start, (a, 0)) == a | b
    assert part.consequences(0) == (b, a | b)


def test_a_refinement_search_that_ignores_its_clause_is_an_internal_error(monkeypatch):
    # `{a}. {b}. c :- a, b.` has four answer sets, so its consequences
    # need further searches.  A search that returns the first answer set
    # again, whose clause it breaks, changes neither the cautious nor the
    # absent atoms, and would be made again forever.
    [part] = Engine(ground("{a}. {b}. c :- a, b.")).parts
    first = next(part._search(part.start(0)))
    monkeypatch.setattr(stable._Part, "_answer_set", lambda self, start, extra: first)
    with pytest.raises(RuntimeError, match="internal error"):
        part.consequences(0)


def test_an_atom_free_clause_is_a_conflict_at_the_root():
    # `:- .` is filed under no bit, so only the root's full scan sees it.
    assert _watch([(0, 0)], {}, X) == {X: [0, 0, [], []], -X: [0, 0, [], []]}
    assert _propagate([(0, 0)], {}, X, 0, 0) is None
    part = stable._Part([(0, 0, 0, 0), (X | Y, 0, 0, 0)], [])
    assert part.root is None and part.models(0) == [] and list(part.guesses()) == []


def test_minimality_tests_of_a_normal_program_build_no_watch_lists(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return _watch(*args)

    monkeypatch.setattr(stable, "_watch", counted)
    eng = Engine(ground("p :- not q. q :- not p. r :- p. s :- r, not q. t :- &k{r}."))
    [part] = eng.parts
    [known_r] = (eng.to_local(0, bit) for bit in eng.kbit.values())
    assert len(built) == 1  # the part's lists, built with it
    # No query builds more: every search reads the part's lists.
    models = part.models(0)
    assert len(models) == 2
    assert [known for known, _ in part.guesses()] == [0, known_r]
    assert part.verdict(known_r) == stable.KNOWN_NOT_CAUTIOUS
    assert part.models(0) == models and part.consequences(0) is not None
    assert len(built) == 1
    # A minimality test whose root closure conflicts (m is minimal) or
    # is total (a smaller model is found) builds none.
    assert all(_minimal(m, part.rules) for m in models)
    [t] = part_bits(eng, "t")
    assert not _minimal(max(models) | t, part.rules)
    assert len(built) == 1
    # One that has to branch builds its own.
    [part] = Engine(ground("p ; q.")).parts
    assert len(built) == 2
    assert not _minimal(0b11, part.rules)
    assert len(built) == 3


def test_parts_ascend_by_their_lowest_atom_with_the_atom_free_part_first():
    eng = Engine(ground("d :- not c. c :- not d. {b}. a :- e. e :- not a. :- ."))
    assert eng.atom_of == [Atom(n) for n in "abcde"]
    # (head, pos, neg, negneg) over each part's own bits: a=1 and e=2,
    # b=1, then c=1 and d=2; the engine's bits are a=1, b=2, c=4, d=8, e=16
    assert [part.rules for part in eng.parts] == \
        [[(0, 0, 0, 0)], [(1, 2, 0, 0), (2, 0, 1, 0)], [(1, 0, 0, 1)],
         [(2, 0, 1, 0), (1, 0, 2, 0)]]
    assert [eng.to_global(j, part.atoms) for j, part in enumerate(eng.parts)] == \
        [0, 1 | 16, 2, 4 | 8]
    assert eng.answer_sets() == [] and eng.consequences() is None


def test_parts_whose_rules_differ_only_in_order_share_one_index():
    # Parts 1 and 2 have the same rules over their own bits (a=1, b=2),
    # in the other order; part 3 has as many rules and atoms, but
    # others.  The shared `_Part` keeps the rules of the first.
    eng = Engine(ground("a1 :- not b1. b1 :- not a1. b2 :- not a2. a2 :- not b2. "
                        "a3 ; b3. b3 :- a3."))
    first, second, third = eng.parts
    assert first is second and third is not first
    assert first.rules == [(1, 0, 2, 0), (2, 0, 1, 0)]
    assert third.rules == [(3, 0, 0, 0), (2, 1, 0, 0)]
    # The engine's bits interleave the parts: a1 a2 a3 b1 b2 b3.
    assert [eng.to_global(j, 0b11) for j in range(3)] == [0b1001, 0b10010, 0b100100]
    assert names(eng.answer_sets()) == [["a1", "a2", "b3"], ["a2", "b1", "b3"],
                                        ["a1", "b2", "b3"], ["b1", "b2", "b3"]]
    stats = SolveStats()
    assert len(list(solve(parse_text("p1 :- not &k{q1}. q1 :- not &k{p1}. "
                                     "q2 :- not &k{p2}. p2 :- not &k{q2}."), stats=stats))) == 4
    assert (stats.parts, stats.shapes, stats.candidates, stats.accepted) == (2, 1, 6, 4)
    # Equal rules under subjective atoms of another inner literal (parts
    # 1 and 2) or another inner atom (parts 3 and 4) are other shapes.
    program = parse_text("a1 :- &k{b1}. {b1}. a2 :- &k{~b2}. {b2}. "
                         "a3 :- &k{a3}, b3. {b3}. a4 :- &k{b4}, b4. {b4}.")
    eng = Engine(ground_program(program))
    assert [part.rules for part in eng.parts] == \
        [[(1, 0, 0, 4), (2, 0, 0, 2)]] * 2 + [[(1, 2, 0, 4), (2, 0, 0, 2)]] * 2
    stats = SolveStats()
    assert [wv.valuation for wv in solve(program, stats=stats)] == \
        [wv.valuation for wv in oracle_world_views(program)]
    assert (stats.shapes, stats.candidates, stats.accepted) == (4, 8, 4)
    assert stats.rejections == {stable.KNOWN_NOT_CAUTIOUS: 3, stable.BRAVE_FAILURE: 1}


# ---------------------------------------------------------------------------
# Supports and tight programs


def root_models(clauses, supports, scope, keep=None, project=None) -> list[int]:
    """The masks `_models` yields from the root closure of `clauses`,
    with their watch lists, as a part starts its searches before it
    fixes its failed literals."""
    root = _propagate(clauses, supports, scope, 0, 0)
    if root is None:
        return []
    watch = _watch(clauses, supports, scope)
    return list(_models(clauses, supports, scope, (*root, 0), watch, keep, project))


def search(source):
    """The masks `_models` yields over the whole of a ground program,
    with its `Engine`."""
    eng = Engine(ground(source))
    scope = (1 << eng.width) - 1
    return root_models(*_clauses(all_rules(eng), scope), scope), eng


def test_a_rule_with_not_of_its_head_atom_supports_nothing():
    # `b :- not b.` holds only if b is true, and then its body fails.
    assert search("b :- not b.")[0] == []
    # The rule cannot support a, so a is false and b must hold.
    models, eng = search("a ; b :- not a.")
    assert models == [1 << eng.atom_of.index(Atom("b"))]


def test_a_positive_loop_is_not_tight_and_keeps_the_minimality_test():
    g = ground("{c}. p :- q. q :- p. p :- c.")
    assert not Engine(g).tight
    assert names(Engine(g).answer_sets()) == [[], ["c", "p", "q"]]
    # {p, q} is a model whose atoms support each other: only the
    # minimality test rules it out.
    models, eng = search("{c}. p :- q. q :- p. p :- c.")
    p_q = (1 << eng.atom_of.index(Atom("p"))) | (1 << eng.atom_of.index(Atom("q")))
    assert p_q in models


@pytest.mark.parametrize("source, tight", [
    ("p :- p.", False),
    ("a ; b :- b.", False),
    ("p :- q. q :- r. r :- p.", False),
    ("p :- not p. q :- not not q. {r}. r :- not q.", True),
    ("p :- q, r. q :- r. r.", True),
    ("p :- &k{p}. q :- not &k{q}, p.", True),
    (":- p, q. p ; q.", True),
])
def test_tight_means_no_cycle_through_positive_bodies(source, tight):
    eng = Engine(ground(source))
    assert eng.tight is tight
    assert _tight(all_rules(eng), eng.width) is tight


def test_a_tight_program_never_runs_the_minimality_test(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _minimal(*args)

    monkeypatch.setattr(stable, "_minimal", counted)
    g = ground("p :- not q. q :- not p. r :- p. s ; t :- r, not q. {u}. v :- u, &k{r}.")
    eng = Engine(g)
    assert eng.tight
    # r is not cautious: {q} is an answer set.
    [part] = eng.parts
    assert part.verdict(0) is None
    assert part.verdict(eng.to_local(0, sum(eng.kbit.values()))) == stable.KNOWN_NOT_CAUTIOUS
    cautious, brave = eng.consequences(0)
    assert cautious == 0 and brave
    assert eng.answer_sets(0) == Engine(ground(
        "p :- not q. q :- not p. r :- p. s ; t :- r, not q. {u}.")).answer_sets()
    assert calls == []
    g = ground("p :- q. q :- p. p :- not r. r :- not p.")
    assert names(Engine(g).answer_sets()) == [["p", "q"], ["r"]]
    assert calls


def test_a_tight_part_next_to_a_non_tight_one_never_runs_the_minimality_test(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _minimal(*args)

    monkeypatch.setattr(stable, "_minimal", counted)
    eng = Engine(ground("{c}. p :- q. q :- p. p :- c. {x}. y :- x, not z. z :- not y."))
    loop, tight = eng.parts
    assert (loop.tight, tight.tight, eng.tight) == (False, True, False)
    assert len(tight.models(0)) == 3 and tight.consequences(0) == (0, 0b111)
    assert calls == []
    assert len(loop.models(0)) == 2 and calls
    stats = SolveStats()
    list(solve(parse_text("{c}. p :- q. q :- p. p :- c. {x}. y :- x, not z. z :- not y."),
                          stats=stats))
    assert (stats.parts, stats.nontight_parts) == (2, 1)


def test_tight_and_non_tight_programs_match_brute_force():
    rng = random.Random(1994)
    tight = 0
    for n in range(3000):
        rules = random_ground_rules(rng, max_atoms=rng.choice((3, 4, 5)),
                                    max_rules=rng.choice((4, 6, 9)))
        eng = Engine(GroundProgram(tuple(rules)))
        tight += eng.tight
        assert eng.answer_sets() == bitmask_order(brute_answer_sets(rules))
    assert 500 < tight < 2500


# ---------------------------------------------------------------------------
# Differential checks


def _full_scan_models(clauses, supports, scope, start, watch, counts, keep=None, project=None,
                      extra=None):
    """The search of `_models` from `start` with a full scan at every
    node, the clause `extra` among the clauses if given.  Each node with
    bits to propagate from, a child or a start closed but for those
    bits, is also propagated from the layout `watch` with `extra` and
    must close the same way; counts[0] counts such nodes and counts[1]
    their conflicts.  Under `project`, each model `keep` accepts pops
    the stack entries whose projected bits are all set and agree with
    it: the branches left above the last projected branch."""
    full = clauses if extra is None else clauses + [extra]
    stack = [start]
    while stack:
        true_m, false_m, b = stack.pop()
        state = _propagate(full, supports, scope, true_m, false_m)
        if b:
            assert _propagate(clauses, supports, scope, true_m, false_m, watch, b, extra) == state
            counts[0] += 1
            counts[1] += state is None
        if state is None:
            continue
        true_m, false_m = state
        und = scope & ~(true_m | false_m)
        if und == 0:
            if keep is None or keep(true_m):
                yield true_m
                if project is not None:
                    seen = (true_m & project, project & ~true_m)
                    while stack and (stack[-1][0] & project, stack[-1][1] & project) == seen:
                        stack.pop()
            continue
        open_ = und & project if project else 0
        b = 1 << (open_.bit_length() - 1) if open_ else und & -und
        stack.append((true_m | b, false_m, b))
        stack.append((true_m, false_m | b, b))


def test_watched_search_matches_full_scans_at_every_node(monkeypatch):
    # Every search the engine makes, part searches, minimality tests,
    # the guesses' projected searches and the check's refinement
    # searches alike, is recorded with its arguments and then replayed
    # both ways.  A refinement search is recorded with its clause, and
    # its full scans see the clause among the part's.  The parts of the
    # epistemic programs start from their root closure with a
    # valuation's assumption bits to propagate from.
    searches = []

    def recorded(*args):
        searches.append(args)
        return _models(*args)

    monkeypatch.setattr(stable, "_models", recorded)
    rng = random.Random(4242)
    for _ in range(2500):
        rules = random_ground_rules(rng, max_atoms=6, max_rules=12)
        Engine(GroundProgram(tuple(rules))).answer_sets()
    for _ in range(350):
        tester = Engine(ground_program(random_epistemic_program(rng, max_atoms=5)))
        known = sum(bit for bit in tester.kbit.values() if rng.random() < 0.5)
        tester.answer_sets(known)
        tester.consequences(known)
        for part in tester.parts:
            for guess, witness in part.guesses():
                part.verdict(guess, witness)
    # The minimality tests of the replayed searches are not recorded.
    monkeypatch.undo()
    searches = [args + (None,) * (8 - len(args)) for args in searches]
    assert sum(start[2] != 0 for _, _, _, start, *_ in searches) > 100
    assert sum(project is not None for *_, project, _ in searches) > 200
    assert any(keep is not None and project for *_, keep, project, _ in searches)
    assert sum(extra is not None for *_, extra in searches) > 500
    counts = [0, 0]
    for clauses, supports, scope, start, watch, keep, project, extra in searches:
        assert list(_models(clauses, supports, scope, start, watch, keep, project, extra)) == \
            list(_full_scan_models(clauses, supports, scope, start, watch, counts, keep, project,
                                   extra))
    assert counts[0] > 3000 and 0 < counts[1] < counts[0]


def test_one_bit_set_either_way_closes_as_a_full_scan_does():
    # From each part's root closure, the state its layout was built for,
    # before the failed literals are fixed, every open bit set to each
    # of its values is propagated from the lists of that value alone and
    # must close the state as a scan of every clause and atom does.
    rng = random.Random(2001)
    engines = [Engine(GroundProgram(tuple(random_ground_rules(
        rng, max_atoms=rng.choice((3, 5, 6)), max_rules=rng.choice((4, 8, 12))))))
        for _ in range(2000)]
    engines += [Engine(ground_program(random_epistemic_program(rng, max_atoms=5)))
                for _ in range(200)]
    assert 200 < sum(not eng.tight for eng in engines) < 1800
    events = conflicts = 0
    for eng in engines:
        for part in eng.parts:
            root = _propagate(part.clauses, part.supports, part.scope, 0, 0)
            if root is None:
                continue
            true_m, false_m = root
            rest = part.scope & ~(true_m | false_m)
            while rest:
                b = rest & -rest
                rest ^= b
                for state in ((true_m | b, false_m), (true_m, false_m | b)):
                    full = _propagate(part.clauses, part.supports, part.scope, *state)
                    assert _propagate(part.clauses, part.supports, part.scope,
                                      *state, part.watch, b) == full
                    events += 1
                    conflicts += full is None
    assert events > 5000 and 100 < conflicts < events // 2


def test_a_projected_search_yields_the_first_model_of_each_projection():
    # The unprojected listing finds the models in the order of their
    # lowest differing bit, false first, and a projected search orders
    # the models of one projection the same way.
    rng = random.Random(2009)
    uncut = 0
    for _ in range(1500):
        rules = random_ground_rules(rng, max_atoms=5, max_rules=8)
        eng = Engine(GroundProgram(tuple(rules)))
        scope = (1 << eng.width) - 1
        clauses, supports = _clauses(all_rules(eng), scope)
        listed = root_models(clauses, supports, scope)
        assert root_models(clauses, supports, scope, project=0) == listed[:1]
        project = rng.randrange(scope + 1)
        rejected = set(rng.sample(listed, len(listed) // 2))
        firsts = []
        for keep in (None, lambda m: m not in rejected):
            first: dict[int, int] = {}
            for m in listed:
                if keep is None or keep(m):
                    first.setdefault(m & project, m)
            firsts.append(first)
            assert root_models(clauses, supports, scope, keep, project) == \
                [first[key] for key in sorted(first)]
        # A rejected model leaves the rest of its projection to search.
        uncut += sum(key in firsts[1] for key, m in firsts[0].items() if m in rejected)
    assert uncut > 100


def test_the_projected_guess_matches_the_reference_loop():
    # Each part's guesses, pair for pair, against the guess as a loop
    # of its own over the assumption bits (tests/pruning.py).
    programs = [(parse_text(yale_source(name)), "g91") for name in YALE_INSTANCES]
    programs += [(parse_text(yale_source(name)), "k15") for name in YALE_INSTANCES[:5]]
    rng = random.Random(2009)
    for _ in range(300):
        program = random_epistemic_program(rng, max_atoms=5, max_rules=8)
        programs += [(program, "g91"), (program, "k15")]
    tight = Counter()
    for program, semantics in programs:
        for part in Engine(_ground(program, semantics)).parts:
            tight[part.tight, bool(part.katoms)] += 1
            assert list(part.guesses()) == list(reference_guesses(part))
    # Parts with assumption bits, tight and not.
    assert tight[True, True] > 100 and tight[False, True] > 100


def _rule_bits(eng, rule) -> int:
    """The bits of the atoms that tie a `Rule` into its part: its head
    and body atoms and the inner atom of each subjective literal."""
    atoms = [*rule.head]
    for lit in rule.body:
        atoms.append(lit.katom.inner.atom if isinstance(lit, SubjLiteral) else lit.atom)
    return _bits(eng, atoms)


def _bits(eng, atoms) -> int:
    """The engine's mask of `atoms`."""
    return sum({1 << eng.atom_of.index(atom) for atom in atoms})


def test_a_root_with_failed_literals_holds_in_every_answer_set():
    # A part's root fixes the failed literals of its layout, the values
    # that imply some bit both ways, and closes once more.  Every bit of
    # that root has its value in every answer set of the part's rules,
    # by the subset walk of tests/brute.py, under every valuation: tight
    # or not, under g91 and k15.  Its guess bit false means no answer set
    # meets the valuation's consistency constraints, and a conflict that
    # there is no answer set.  No value is filed as implying its own bit.
    rng = random.Random(2503)
    programs = [(GroundProgram(tuple(random_ground_rules(rng, max_atoms=4, max_rules=8))),
                 "plain") for _ in range(500)]
    for _ in range(1000):
        program = random_epistemic_program(rng, max_atoms=5, max_rules=8)
        programs += [(_ground(program, "g91"), "g91"), (_ground(program, "k15"), "k15")]
    seen = Counter()
    for ground_, semantics in programs:
        eng = Engine(ground_)
        for j, part in enumerate(eng.parts):
            assert not any(entry[v > 0] & abs(v) for v, entry in part.watch.items())
            assert part.failed == len({abs(v) for v, entry in part.watch.items()
                                       if entry[0] & entry[1]})
            if not part.failed:
                continue
            seen[semantics, part.tight] += 1
            true_m, false_m = part.root or (0, 0)
            seen["conflict"] += part.root is None
            seen["guess"] += bool(false_m & part.guess)
            # The part's rules, and those over the atoms that forward
            # chaining decides, which no part holds.
            atoms = eng.to_global(j, part.atoms)
            held = sum(eng.to_global(i, other.atoms) for i, other in enumerate(eng.parts))
            rules = GroundProgram(tuple(r for r in ground_.rules if _rule_bits(eng, r) & atoms
                                        or not _rule_bits(eng, r) & held))
            for values in itertools.product((False, True), repeat=len(eng.kbit)):
                valuation = dict(zip(eng.kbit, values))
                known = eng.to_local(j, eng.known_mask(valuation))
                for m in brute_answer_sets(apply_valuation(rules, valuation).rules):
                    bits = known | eng.to_local(j, _bits(eng, m))
                    assert part.root is not None
                    assert not (true_m & ~bits or false_m & ~part.guess & bits)
                    assert not false_m & part.guess or not all(
                        bool(b & bits) != tilde for g, b, tilde in part.katoms if g & known)
    assert all(seen[semantics, tight] > 10 for semantics in ("plain", "g91", "k15")
               for tight in (False, True))
    assert seen["conflict"] and seen["guess"], seen


def test_both_paths_agree_on_a_large_random_corpus():
    # The two paths are the engine and the subset walk in tests/brute.py.
    rng = random.Random(2024)
    for _ in range(1000):
        rules = random_ground_rules(rng)
        got = Engine(GroundProgram(tuple(rules))).answer_sets()
        assert got == bitmask_order(brute_answer_sets(rules))


def test_engine_matches_brute_force_when_heads_repeat():
    # Nine rules over at most three atoms and their strong negations give
    # each head atom several rules, so support runs out one rule at a time.
    rng = random.Random(2026)
    for _ in range(600):
        rules = random_ground_rules(rng, max_atoms=3, max_rules=9)
        got = Engine(GroundProgram(tuple(rules))).answer_sets()
        assert got == bitmask_order(brute_answer_sets(rules))


def test_search_path_handles_one_large_component():
    lines = ["p0, p1."]
    lines += [f"p{i} :- p{i - 2}, not p{i - 1}." for i in range(2, 14)]
    g = ground(" ".join(lines))
    assert len(g.atoms) == 14
    got = Engine(g).answer_sets()
    assert got == bitmask_order(brute_answer_sets(g.rules))
    assert len(got) >= 1


def test_engine_matches_brute_force_and_definitional_properties():
    rng = random.Random(77)
    for _ in range(300):
        rules = random_ground_rules(rng, max_atoms=4, max_rules=5)
        g = GroundProgram(tuple(rules))
        got = Engine(g).answer_sets()
        assert sorted(map(sorted, (map(print_atom, m) for m in got))) == \
            sorted(map(sorted, (map(print_atom, m) for m in brute_answer_sets(rules))))
        want = brute_consequences(rules)
        assert consequence_atoms(g) == want
        if want is not None:
            for m in got:
                assert want[0] <= m <= want[1]
        for m in got:
            assert not any(a.strong_neg and Atom(a.name, a.args, False) in m for a in m)


def _with_facts(rng, rules):
    """`rules` and facts for up to three of their atoms."""
    atoms = sorted({a for r in rules for a in (*r.head, *(lit.atom for lit in r.body
                                                         if not isinstance(lit, SubjLiteral)))},
                   key=print_atom)
    facts = rng.sample(atoms, min(len(atoms), rng.randint(1, 3)))
    return (*rules, *(Rule((a,), ()) for a in facts))


def test_the_residual_parts_match_brute_force_on_programs_with_facts():
    # Facts let forward chaining decide atoms before the parts are
    # built, in programs with choice rules, disjunctions, constraints
    # and loops through positive bodies.  The answer sets and cautious
    # and brave consequences of the residual parts, the decided atoms
    # added back, are those of the subset walk in tests/brute.py.
    rng = random.Random(2701)
    fixed = looped = 0
    for _ in range(1500):
        rules = list(_with_facts(rng, random_ground_rules(rng, max_atoms=5, max_rules=8)))
        program = GroundProgram(tuple(rules))
        eng = Engine(program)
        fixed += eng.fixed_atoms > 0
        looped += not eng.tight
        want = brute_answer_sets(rules)
        assert sorted(names(eng.answer_sets())) == sorted(names(want)), program.text()
        assert consequence_atoms(program) == brute_consequences(rules), program.text()
    assert fixed == 1500 and looped > 50


def _brute_world_views(ground_):
    """The world views of a ground program by the definition, each
    valuation's answer sets from the subset walk, in the oracle's
    order: (known subjective atoms, answer sets without `AuxAtom`s,
    cautious atoms), all printed and sorted."""
    katoms = sorted({lit.katom for r in ground_.rules for lit in r.body
                     if isinstance(lit, SubjLiteral)}, key=print_subjective)
    views = []
    for mask in range(1 << len(katoms)):
        valuation = {k: bool(mask >> i & 1) for i, k in enumerate(katoms)}
        models = brute_answer_sets(apply_valuation(ground_, valuation).rules)
        if models and all(satisfies(models, k) == v for k, v in valuation.items()):
            models = [frozenset(a for a in m if not isinstance(a, AuxAtom)) for m in models]
            views.append((sorted(print_subjective(k) for k in katoms if valuation[k]),
                          sorted(names(set(models))), names([frozenset.intersection(*models)])))
    return views


@pytest.mark.parametrize("semantics", ["g91", "k15"])
def test_world_views_of_programs_with_facts_match_the_definition(semantics):
    # Epistemic programs with facts added, so forward chaining decides
    # atoms: the world views `solve` finds, in order, their answer sets
    # and their cautious atoms are those of the definition.
    rng = random.Random(2702)
    seen = 0
    for _ in range(300):
        prog = random_epistemic_program(rng, max_atoms=5, max_rules=8, max_subjective=3)
        prog = Program(_with_facts(rng, prog.rules))
        stats = SolveStats()
        got = [(sorted(map(print_subjective, view.known())),
                sorted(names(expand_world_view(view))), names([view.cautious()]))
               for view in solve(prog, semantics, stats)]
        assert stats.fixed_atoms > 0
        assert got == _brute_world_views(_ground(prog, semantics)), print_program(prog)
        seen += len(got)
    assert seen > 150


@pytest.mark.parametrize("source", [":- not a. a :- b. b :- a.", "{c}. a :- b. b :- a. :- not a."])
def test_an_unfounded_loop_stays_in_the_residual(source):
    # Forward chaining fixes neither a nor b, so the loop is left to the
    # part, which is not tight and has no answer set.  A root closure
    # would fix both true and leave a residual without the loop.
    eng = Engine(ground(source))
    assert eng.fixed_atoms == 0 and not eng.tight
    assert eng.answer_sets() == [] and eng.consequences() is None


def test_a_part_that_facts_decide_still_yields_its_atoms():
    # {a, b} is decided by forward chaining, so its part has no bits and
    # no rules; its atoms come back in every answer set and in cautious.
    eng = Engine(ground("a. b :- a. d :- not a. {c}."))
    assert eng.fixed_atoms == 3 and len(eng.parts) == 2
    assert eng.parts[0].rules == [] and eng.parts[0].atoms == 0
    assert names(eng.answer_sets()) == [["a", "b"], ["a", "b", "c"]]
    assert names(map(eng.to_interpretation, eng.consequences())) == [["a", "b"], ["a", "b", "c"]]
    [view] = solve(parse_text("a. b :- a. q :- &k{b}."))
    assert names([view.cautious()]) == [["a", "b", "q"]]
    assert names(view.answer_sets) == [["a", "b", "q"]]
