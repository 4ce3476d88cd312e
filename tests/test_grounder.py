"""Safety checking, instantiation, and ground-program simplification."""

import gc
import random
import re
from collections import Counter

import pytest

from brute import brute_answer_sets, cross_product_ground, ground_terms
from corpus import random_epistemic_program, random_ground_rules, random_safe_program
from reference_ground import ground_program as reference_ground_program
from reference_simplify import simplify as reference_simplify
from epiworld import grounder, stable, syntax
from epiworld.cli import YALE_INSTANCES, gen_eligibility, yale_source
from epiworld.epistemic import (expand_world_view, k15_transform, oracle_world_views,
                                solve, subjective_atoms, translate_guess)
from epiworld.grounder import (
    MAX_INSTANCES,
    GroundProgram,
    GroundingError,
    SafetyError,
    ground_program,
    program_safety_check,
    safety_check,
    simplify,
)
from epiworld.optimize import add_consistency_constraints
from epiworld.stable import Engine
from epiworld.syntax import (Atom, AuxAtom, Compound, Const, Num, ObjLiteral, Program, Rule,
                             parse_text, print_atom, print_program, print_subjective)


def rules_of(source):
    return parse_text(source).rules


# ---------------------------------------------------------------------------
# Safety


def test_safe_rules_pass():
    for src in ("p(X) :- q(X).",
                ":- q(X), not p(X).",
                "p(X), r(X) :- q(X), not s(X).",
                "p(X) :- q(X), &k{ r(X) }."):
        safety_check(rules_of(src)[0])


@pytest.mark.parametrize("src, var", [
    ("p(X).", "X"),
    ("p(X) :- not q(X).", "X"),
    ("p(X) :- not not q(X).", "X"),
    ("p :- q(a), not r(Y).", "Y"),
    (":- not q(X).", "X"),
])
def test_unsafe_rules_rejected(src, var):
    with pytest.raises(SafetyError, match=f"unsafe variable '{var}'"):
        safety_check(rules_of(src)[0])


def test_subjective_occurrence_does_not_bind():
    with pytest.raises(SafetyError, match="unsafe variable 'X'"):
        safety_check(rules_of("p(X) :- &k{ q(X) }.")[0])
    with pytest.raises(SafetyError, match="unsafe variable 'X'"):
        safety_check(rules_of("p :- &k{ q(X) }.")[0])


def test_program_safety_check_scans_all_rules():
    program = parse_text("p(a). q(X) :- p(X). r(Y).")
    with pytest.raises(SafetyError, match="unsafe variable 'Y'"):
        program_safety_check(program)


def test_safety_checks_return_the_variables_of_each_rule():
    program = parse_text("p(a). q(X) :- p(X), not r(f(Y)), p(Y), &k{ s(Z) }, p(Z).")
    assert program_safety_check(program) == [set(), {"X", "Y", "Z"}]
    assert safety_check(program.rules[1]) == {"X", "Y", "Z"}


# ---------------------------------------------------------------------------
# Ground terms and the reference grounder


def test_ground_terms_include_subterms():
    program = parse_text("p(f(a,1)) :- q(X).")
    assert ground_terms(program) == [Num(1), Const("a"),
                                     Compound("f", (Const("a"), Num(1)))]


def test_ground_terms_skip_non_ground_compounds():
    program = parse_text("p(b) :- q(f(X, a)).")
    assert ground_terms(program) == [Const("a"), Const("b")]


def test_grounding_is_a_full_cross_product():
    ground = cross_product_ground(parse_text("q(a). r(b). s(c). p(X, Y) :- q(X), q(Y)."))
    assert len(ground.rules) == 3 + 9


# ---------------------------------------------------------------------------
# Instantiation


def test_grounding_is_identity_on_ground_programs():
    program = parse_text("p. q :- p, not r. {s}. a, b :- not not c.")
    assert ground_program(program).rules == program.rules


@pytest.mark.parametrize("name", YALE_INSTANCES)
def test_grounding_is_identity_on_the_yale_programs(name):
    program = parse_text(yale_source(name))
    assert ground_program(program).rules == program.rules
    transformed = k15_transform(program)
    assert ground_program(transformed).rules == transformed.rules


def test_grounding_instantiates_over_all_terms():
    ground = ground_program(parse_text("q(a). q(b). p(X) :- q(X)."))
    assert [r for r in ground.rules if not r.body] == list(rules_of("q(a). q(b)."))
    instantiated = {r.head[0].args[0].name for r in ground.rules if r.body}
    assert instantiated == {"a", "b"}
    assert len(ground.rules) == 4


def test_grounding_instantiates_only_derivable_bodies():
    ground = ground_program(parse_text("q(a). r(b). s(c). p(X, Y) :- q(X), q(Y)."))
    assert ground.text() == "q(a).\nr(b).\ns(c).\np(a,a) :- q(a), q(a).\n"


def test_grounding_follows_choices_and_ignores_negation_and_subjective_literals():
    source = ("{q(a)}. r(b) :- not q(b). s(c) :- &k{ q(c) }. "
              "p(X) :- q(X), not r(X). t(X) :- r(X), not not q(X). u(X) :- s(X).")
    ground = ground_program(parse_text(source))
    assert [r for r in ground.rules if r.head[0].name in "ptu"] == list(rules_of(
        "p(a) :- q(a), not r(a). t(b) :- r(b), not not q(b). u(c) :- s(c)."))


def test_grounding_keeps_rule_order_then_derivation_order():
    source = "e(1,2). e(2,3). e(3,4). t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z)."
    text = ground_program(parse_text(source)).text().splitlines()
    assert text[3:] == [
        "t(1,2) :- e(1,2).", "t(2,3) :- e(2,3).", "t(3,4) :- e(3,4).",
        "t(1,3) :- e(1,2), t(2,3).", "t(2,4) :- e(2,3), t(3,4).",
        "t(1,4) :- e(1,2), t(2,4).",
    ]


def test_grounding_keeps_machinery_atoms_apart_from_their_look_alikes():
    ground = ground_program(k15_transform(parse_text(
        "k15aux_1(a). q(a). p(X) :- q(X), not &k{ r(X) }. s(X) :- k15aux_1(X).")))
    assert [r for r in ground.rules if r.head and r.head[0].name == "s"] == list(
        rules_of("s(a) :- k15aux_1(a)."))
    assert len([r for r in ground.rules if r.head and r.head[0].name == "p"]) == 1


def test_grounding_substitutes_inside_subjective_atoms():
    ground = ground_program(parse_text("q(a). p(X) :- q(X), &k{ r(X) }."))
    (rule,) = [r for r in ground.rules if r.body]
    assert rule.body[1].katom.inner.atom == Atom("r", (Const("a"),))


FUNCTION_TERMS = "q(a). p(f(X)) :- q(X). r(Y) :- p(Y). s :- &k{r(Y)}, p(Y)."


def test_grounding_follows_function_terms_built_in_heads():
    # The cross product ranges Y over the terms of the text, a alone, so
    # it never reaches r(f(a)).
    assert ground_program(parse_text(FUNCTION_TERMS)).text() == (
        "q(a).\n"
        "p(f(a)) :- q(a).\n"
        "r(f(a)) :- p(f(a)).\n"
        "s :- &k{ r(f(a)) }, p(f(a)).\n")


def test_function_terms_built_in_heads_solve_to_the_right_view():
    (view,) = solve(parse_text(FUNCTION_TERMS))
    assert [print_subjective(k) for k in view.known()] == ["&k{ r(f(a)) }"]
    assert [sorted(map(print_atom, m)) for m in expand_world_view(view)] == [
        ["p(f(a))", "q(a)", "r(f(a))", "s"]]


def test_grounding_without_derivable_bodies_gives_no_rules():
    program = parse_text("p(X) :- q(X).")
    assert ground_program(program).rules == ()
    (view,) = solve(program)
    assert view.valuation == {} and expand_world_view(view) == [frozenset()]


def test_grounding_scans_nothing_for_a_body_atom_that_cannot_be_derived(monkeypatch):
    facts = "".join(f"a({i}). b({i}). " for i in range(1000))
    monkeypatch.setattr(grounder, "MAX_ATTEMPTS", 0)
    ground = ground_program(parse_text(facts + "s(X,Y) :- a(X), b(Y), c(X,Y)."))
    assert len(ground.rules) == 2000 and not any(r.body for r in ground.rules)


def test_grounding_looks_up_body_atoms_by_their_bound_arguments(monkeypatch):
    n = 300
    facts = "".join(f"e(c{i},c{i + 1}). " for i in range(n))
    # Each edge is matched once as e(X,Y) and at most once as e(Y,Z),
    # never against every edge.
    monkeypatch.setattr(grounder, "MAX_ATTEMPTS", 3 * n)
    ground = ground_program(parse_text(facts + "p(X,Y,Z) :- e(X,Y), e(Y,Z)."))
    assert len(ground.rules) == 2 * n - 1


CROSS_JOIN = "s(X,Y) :- a(X), b(Y), c(X,Y). q :- &k{s(0,0)}."


def cross_join(n):
    return parse_text("".join(f"a({i}). b({i}). " for i in range(n)) + "c(0,0). " + CROSS_JOIN)


def test_a_join_starts_from_its_body_atom_with_fewest_derived_atoms(monkeypatch):
    # c(X,Y) is matched first and binds both variables, so a(X) and
    # b(Y) are each one lookup: three attempts, not a million.
    monkeypatch.setattr(grounder, "MAX_ATTEMPTS", 3)
    ground = ground_program(cross_join(1000))
    assert ground.text().endswith("c(0,0).\ns(0,0) :- a(0), b(0), c(0,0).\nq :- &k{ s(0,0) }.\n")
    assert len(ground.rules) == 2003


def test_a_join_whose_every_order_is_wide_is_refused():
    # The triangles of a complete bipartite graph: whichever edge comes
    # first, the second is looked up by the shared node, so every order
    # tries each of the 2 * 80^3 paths of two edges, and none closes.
    edges = "".join(f"e(l{i},r{j}). e(r{j},l{i}). " for i in range(80) for j in range(80))
    with pytest.raises(GroundingError, match=re.escape(
            f"more than {grounder.MAX_ATTEMPTS} join match attempts, "
            "at rule: t(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X).")):
        ground_program(parse_text(edges + "t(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X)."))


def test_grounding_leaves_no_cyclic_garbage():
    # Garbage in a reference cycle would keep the grounding's tables
    # alive until the cyclic collector runs, in the middle of the solve.
    program = graph_program(16)
    gc.collect()
    gc.disable()
    try:
        ground_program(program)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _scan(g, pred, at, key, start, stop):
    """`_Grounder.lookup` without the index."""
    args = g.args[pred]
    return [i for i in range(start, stop)
            if (args[i][at[0]] if len(at) == 1 else tuple(args[i][p] for p in at)) == key]


def _random_join_program(rng):
    """Random edges over four nodes with recursive and three-atom joins,
    repeated variables, constants and function terms in bodies."""
    nodes = [f"n{i}" for i in range(4)]
    facts = "".join(f"e({rng.choice(nodes)},{rng.choice(nodes)}). "
                    for _ in range(rng.randint(0, 8)))
    rules = ["t(X,Y) :- e(X,Y).", "t(X,Z) :- e(X,Y), t(Y,Z).",
             "tri(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X).", "loop(X) :- e(X,X), t(X,X).",
             "to(X) :- e(X,n0), t(n1,X).", "f(g(X),Y) :- t(X,Y).", "h(X) :- f(g(X),X), e(X,Y).",
             "q(Y) :- e(X,Y), not t(Y,X), &k{ t(X,X) }."]
    return parse_text(facts + " ".join(rng.sample(rules, rng.randint(1, len(rules)))))


def test_indexed_joins_ground_what_scans_ground_in_the_same_order(monkeypatch):
    rng = random.Random(903)
    programs = [_random_join_program(rng) for _ in range(150)]
    programs += [random_safe_program(rng, max_rules=6) for _ in range(150)]
    got = [ground_program(p).text() for p in programs]
    monkeypatch.setattr(grounder._Grounder, "lookup", _scan)
    assert got == [ground_program(p).text() for p in programs]
    assert sum(text.count(":-") for text in got) > 1000


def _random_ordered_program(rng):
    """Random facts over predicates of very different sizes, so that the
    greedy join order often differs from the source order, with
    repeated variables, function terms, recursion, `not` and `&k{}`
    literals, and a `#const` named in facts and rules."""
    nodes = [f"c{i}" for i in range(5)] + ["n"]
    pick = rng.choice
    facts = [f"big({pick(nodes)},{pick(nodes)})." for _ in range(rng.randint(0, 30))]
    facts += [f"mid({pick(nodes)})." for _ in range(rng.randint(0, 6))]
    facts += [f"one({pick(nodes)})." for _ in range(rng.randint(0, 2))]
    facts += [f"w(g({pick(nodes)}),{pick(nodes)})." for _ in range(rng.randint(0, 6))]
    rules = ["h(X,Y) :- big(X,Y), one(Y).", "h2(X) :- big(X,X), mid(X), one(X).",
             "k(X,Z) :- big(X,Y), big(Y,Z), one(Z).", "m(g(X),Y) :- big(X,Y), mid(Y).",
             "u(X) :- m(g(X),Y), one(Y), not h(X,Y).", "v(Y) :- w(g(X),Y), one(X), &k{ h(X,Y) }.",
             "t(X,Y) :- big(X,Y), one(X).", "t(X,Z) :- t(X,Y), big(Y,Z), mid(Z).",
             "z :- one(n), big(X,n), not &k{ k(X,X) }.", "p(X,Y,Z) :- mid(X), one(Y), big(Z,Z).",
             "r(f(X,Y)) :- mid(X), w(g(Y),X), one(Y).", "s(X) :- r(f(X,X)), big(X,X), one(X)."]
    statements = facts + rng.sample(rules, rng.randint(1, len(rules)))
    if rng.random() < 0.7:
        statements.append(f"#const n = {pick(nodes[:5])}.")
    rng.shuffle(statements)
    return parse_text(" ".join(statements))


def test_grounding_matches_the_source_order_join_of_the_reference(monkeypatch):
    # The reference joins each body in source order, so any order the
    # greedy choice takes must be sorted back to give its rules, and its
    # atom numbering, unchanged.
    rng = random.Random(911)
    programs = [_random_ordered_program(rng) for _ in range(300)]
    programs += [_random_join_program(rng) for _ in range(100)]
    programs += [random_safe_program(rng, max_rules=6) for _ in range(100)]
    order, reordered = grounder._Grounder.order, []

    def counted(plan, sizes):
        chosen = order(plan, sizes)
        reordered.append(chosen != plan.source)
        return chosen

    monkeypatch.setattr(grounder._Grounder, "order", staticmethod(counted))
    for program in programs:
        for source in (program, k15_transform(program)):
            got, want = ground_program(source), reference_ground_program(source)
            assert got.text() == want.text(), print_program(source)
            assert got.atoms == want.atoms
    assert sum(reordered) > 1000
    assert sum(p.consts != () for p in programs) > 150


# The rules of the benchmark's grounding workload: a three-variable join
# over a graph, here a ring of n nodes with a chord from each node i to
# node i + 3.
GRAPH_RULES = ("p(X,Y,Z) :- e(X,Y), e(Y,Z). c(X,Z) :- p(X,Y,Z), not e(X,Z). "
               "reach(X) :- c(X,Z). a :- reach(X), not b. b :- not a. done :- reach(X). "
               "ok :- &k{ done }. pa :- not &k{ pb }, reach(X). pb :- not &k{ pa }. ")


def graph_program(n):
    return parse_text(GRAPH_RULES + "".join(f"e(v{i},v{(i + d) % n}). "
                                            for i in range(n) for d in (1, 3)))


def test_the_numbered_hand_off_indexes_as_the_rules_do():
    # The grounder numbers atoms as it derives them, a program built
    # from rules as they occur in the rules; the engine's index must not
    # depend on which.
    rng = random.Random(905)
    programs = [graph_program(n) for n in (4, 9, 16)] + [gen_eligibility(12, 1)]
    programs += [_random_join_program(rng) for _ in range(100)]
    programs += [random_safe_program(rng, max_rules=6) for _ in range(200)]
    renumbered = 0
    for program in programs:
        for source in (program, k15_transform(program)):
            numbered = ground_program(source)
            built = GroundProgram(numbered.rules)
            one, other = Engine(numbered), Engine(built)
            assert one.atom_of == other.atom_of
            assert list(one.kbit.items()) == list(other.kbit.items())
            assert [(p.rules, p.katoms) for p in one.parts] == \
                [(p.rules, p.katoms) for p in other.parts]
            renumbered += numbered.atoms != built.atoms
    assert renumbered > 100


def test_each_atom_keeps_its_printed_form_and_the_engine_sorts_its_bits_by_it(monkeypatch):
    # The grounder prints each atom from the printed forms of its terms,
    # a program built from rules with `print_atom`, and the engine sorts
    # its bits and finds the twin of each `-a` by these texts alone.
    # Each must agree with the atoms built afterwards: the bits sorted
    # by (`print_atom`, is an `AuxAtom`), and one `:- a, -a.` per `-a`
    # whose `Atom` twin has a number, in bit order.
    rng = random.Random(3201)
    programs = [random_safe_program(rng, max_rules=6) for _ in range(300)]
    programs += [_random_join_program(rng) for _ in range(100)]
    programs += [_random_ordered_program(rng) for _ in range(100)]
    programs += [Program(tuple(random_ground_rules(rng))) for _ in range(300)]
    corpus = random.Random(5)  # the 400 programs of the solve corpus
    programs += [random_epistemic_program(corpus, max_atoms=5, max_rules=8) for _ in range(400)]
    programs += [parse_text(yale_source(name)) for name in YALE_INSTANCES]
    programs += [graph_program(9), gen_eligibility(12, 1),
                 parse_text("p(1). p(f(2,a)). -p(1) :- p(X). -q(X) :- p(X). "
                            "r :- &k{ -p(1) }, &k{ p(f(2,a)) }, not &k{ ~p(1) }, p(X). "
                            "k15aux_1(X) :- p(X). -k15aux_2(2) :- p(1). s :- not &k{ -q(2) }, p(X).")]
    forward, handed = stable._forward, []

    def recorded(rules, *rest):
        handed.append(rules)
        return forward(rules, *rest)

    monkeypatch.setattr(stable, "_forward", recorded)
    seen = Counter()
    for program in programs:
        for source in (program, k15_transform(program)):
            ground = ground_program(source)
            derived = None in ground._atoms
            atoms = ground.atoms
            assert ground.texts == [print_atom(a) for a in atoms]
            assert list(ground.aux) == [isinstance(a, AuxAtom) for a in atoms]
            want = sorted(atoms, key=lambda a: (print_atom(a), isinstance(a, AuxAtom)))
            engine = Engine(ground)
            assert engine.atom_of == want
            twins = [((), ((0, ground.number[a]), (0, ground.number[twin])), False)
                     for a in want if a.strong_neg
                     for twin in [Atom(a.name, a.args, False)] if twin in ground.number]
            assert handed[-1][len(ground.numbered):] == twins
            seen["derived"] += derived
            seen["twins"] += bool(twins)
            seen["aux"] += 1 in ground.aux
            seen["ties"] += len(set(ground.texts)) < len(atoms)
    assert seen["derived"] > 700 and seen["twins"] > 200 and seen["aux"] > 400
    assert seen["ties"] > 0


def test_a_solve_builds_no_atom_for_a_derived_atom_until_an_answer_set_is_read(monkeypatch):
    program = graph_program(16)
    built = []
    for cls in (Atom, AuxAtom):
        def counted(self, *args, init=cls.__init__):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    views = list(solve(program))
    assert len(views) == 2
    assert built == []
    assert views[0].answer_sets  # naming an answer set builds its atoms
    assert built


def test_a_round_visits_only_the_rules_whose_positive_body_predicates_grew(monkeypatch):
    # The chain derives one r atom per round.  v and w get atoms only
    # from facts, before the first round, so each rule over them is
    # joined and compiled in the first round alone.  The rules over z,
    # which never gets an atom, come due with r in every round, but are
    # never joined or compiled.
    source = parse_text("r(c0). v(c0). " + "".join(f"e(c{i},c{i + 1}). " for i in range(30))
                        + "r(Y) :- r(X), e(X,Y). "
                        + " ".join(f"w{k}(c{k}). u{k}(X) :- w{k}(X), v(X). t{k}(X) :- z(X), r(X)."
                                   for k in range(20)))
    visited, compiled = Counter(), Counter()
    instantiate, plan_init = grounder._Grounder.instantiate, grounder._Plan.__init__

    def visit(self, plan, lo, hi):
        visited[plan.rule.head[0].name] += 1
        instantiate(self, plan, lo, hi)

    def compile_(self, g, rule):
        compiled[rule.head[0].name] += 1
        plan_init(self, g, rule)

    monkeypatch.setattr(grounder._Grounder, "instantiate", visit)
    monkeypatch.setattr(grounder._Plan, "__init__", compile_)
    got = ground_program(source)
    assert visited == Counter({"r": 31} | {f"u{k}": 1 for k in range(20)})
    assert compiled == Counter({"r": 1} | {f"u{k}": 1 for k in range(20)})
    want = reference_ground_program(source)
    assert (got.text(), got.atoms) == (want.text(), want.atoms)


def test_solving_a_program_with_variables_builds_no_rule(monkeypatch):
    program = graph_program(16)
    init, built = Rule.__init__, []

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    def refused(*args):
        raise AssertionError("substitute_rule called")

    monkeypatch.setattr(Rule, "__init__", counted)
    for module in (syntax, grounder):
        monkeypatch.setattr(module, "substitute_rule", refused, raising=False)
    assert len(list(solve(program))) == 2
    assert built == []


def test_grounding_checks_safety():
    with pytest.raises(SafetyError, match="unsafe variable 'Y'"):
        ground_program(parse_text("q(a). p(X, Y) :- q(X)."))


def test_grounding_refuses_unbounded_function_terms():
    with pytest.raises(GroundingError, match=r"deeper than 100, at rule: p\(f\(X\)\) :- p\(X\)\."):
        ground_program(parse_text("p(a). p(f(X)) :- p(X)."))


def test_grounding_refuses_more_than_the_instance_limit():
    facts = "".join(f"q({i}). " for i in range(50))  # 50^3 instances
    with pytest.raises(GroundingError, match=f"more than {MAX_INSTANCES} rule instances"):
        ground_program(parse_text(facts + "p(X,Y,Z) :- q(X), q(Y), q(Z)."))


def _live(rules):
    """The rules whose positive objective body holds in the least model
    of the program with `not` and subjective literals ignored, by a
    naive fixpoint."""
    derived: set = set()
    while True:
        live = [r for r in rules
                if all(lit.atom in derived for lit in r.body
                       if isinstance(lit, ObjLiteral) and lit.negs == 0)]
        heads = {a for r in live for a in r.head}
        if heads <= derived:
            return Counter(live)
        derived |= heads


def _views(views, katoms):
    """Each view as its valuation restricted to `katoms` and its
    answer sets without machinery atoms."""
    return [(frozenset((k, v) for k, v in view.valuation.items() if k in katoms),
             frozenset(expand_world_view(view))) for view in views]


@pytest.mark.parametrize("semantics", ["g91", "k15"])
def test_join_grounding_agrees_with_the_cross_product(semantics):
    # The join keeps exactly the cross product's live instances.  A dead
    # one never fires, so the answer sets agree.  A subjective atom
    # occurring only in dead instances is not ground by the join; its
    # value in a view of the cross product is fixed by the answer sets,
    # so restricting the reference valuations to the join's subjective
    # atoms is one-to-one.
    rng = random.Random(901 if semantics == "g91" else 902)
    for _ in range(150):
        program = random_safe_program(rng)
        source = k15_transform(program) if semantics == "k15" else program
        ground = ground_program(source)
        reference = cross_product_ground(source)
        assert _live(ground.rules) == _live(reference.rules), program
        katoms = set(subjective_atoms(ground))
        want = _views(oracle_world_views(Program(reference.rules)), katoms)
        got = _views(solve(program, semantics), katoms)
        assert len(set(want)) == len(want)
        assert set(got) == set(want), program


def test_ground_program_views():
    g = ground_program(parse_text("p. {c}. q :- p. r, s. :- q."))
    assert g.facts == {Atom("p")}
    assert g.text() == "p.\n{c}.\nq :- p.\nr, s.\n:- q.\n"


def test_a_ground_program_has_one_form(monkeypatch):
    rules = rules_of("p :- &k{q}, not r. {r}. s :- p.")
    g = GroundProgram(rules)
    assert g.rules is rules
    # Atoms are numbered by first appearance, q inside `&k{}` included.
    assert g.atoms == [Atom("p"), Atom("q"), Atom("r"), Atom("s")]
    assert (g.inner, g.knumber) == ([1], {(1, 0): 0})
    assert g.numbered == [((0,), ((grounder.K, 0), (1, 2)), False),
                          ((2,), (), True), ((3,), ((0, 0),), False)]
    fed = GroundProgram(r for r in rules)
    assert (fed.rules, fed.atoms, fed.numbered) == (rules, g.atoms, g.numbered)
    grounded = ground_program(graph_program(9))
    assert GroundProgram(grounded.rules) == grounded
    # simplify reads the rule list and builds one program, however long
    # its cascade.
    cascade = GroundProgram(rules_of("a :- not b. c :- not not a. d :- e. f :- c."))
    init, built = GroundProgram.__init__, []

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(GroundProgram, "__init__", counted)
    assert simplify(cascade).text() == "a.\nc.\nf.\n"
    assert len(built) == 1


# ---------------------------------------------------------------------------
# Simplification


def simp(source):
    return simplify(GroundProgram(rules_of(source)))


def test_simplify_cascades_fact_rewrites():
    assert simp("a :- not b. c :- not not a. d :- e.").text() == "a.\nc.\n"


def test_simplify_drops_rules_with_underivable_positive_body():
    assert simp("p :- q.").text() == ""
    assert simp("p :- q. q :- r. {s}.").text() == "{s}.\n"


def test_simplify_keeps_unresolved_negation():
    src = "p :- not q. q :- not p."
    assert simp(src).rules == rules_of(src)


def test_simplify_drops_choice_on_fact():
    assert simp("a. {a}.").text() == "a.\n"


def test_simplify_evaluates_constraints():
    assert simp(":- a.").text() == ""          # a can never hold
    assert simp("a. :- a.").text() == "a.\n:- .\n"


def test_simplify_is_idempotent_and_preserves_answer_sets():
    rng = random.Random(404)
    for _ in range(300):
        rules = random_ground_rules(rng)
        g = GroundProgram(tuple(rules))
        s = simplify(g)
        assert simplify(s) == s
        before = sorted(sorted(map(print_atom, m)) for m in Engine(g).answer_sets())
        after = sorted(sorted(map(print_atom, m)) for m in Engine(s).answer_sets())
        assert before == after


def test_simplify_agrees_with_brute_force_after_rewriting():
    rng = random.Random(405)
    for _ in range(150):
        rules = random_ground_rules(rng, max_atoms=4, max_rules=5)
        s = simplify(GroundProgram(tuple(rules)))
        got = sorted(sorted(map(print_atom, m)) for m in Engine(s).answer_sets())
        want = sorted(sorted(map(print_atom, m)) for m in brute_answer_sets(rules))
        assert got == want


def test_simplify_refuses_every_program_with_subjective_atoms():
    # The second body fails at b before it reaches &k{c}.
    for source in ("a :- &k{c}.", "a :- b, &k{c}."):
        with pytest.raises(ValueError, match="subjective-free"):
            simp(source)


def _simplify_corpus(rng):
    for _ in range(6000):
        yield GroundProgram(random_ground_rules(rng))
    for _ in range(2000):
        yield GroundProgram(random_ground_rules(rng, max_atoms=10, max_rules=24))
    for _ in range(5000):
        yield ground_program(random_safe_program(rng, max_subjective=0))
    for _ in range(2000):
        program = random_epistemic_program(rng)
        for source in (program, k15_transform(program)):
            guess, mapping = translate_guess(ground_program(source))
            yield guess
            yield add_consistency_constraints(guess, mapping)


def test_simplify_lists_what_the_pass_loop_of_the_reference_lists():
    # One forward-chaining run must keep, drop and shorten the rules the
    # reference's passes do, in the same order.
    shortened = 0
    for n, g in enumerate(_simplify_corpus(random.Random(406)), 1):
        got = simplify(g).text()
        assert got == reference_simplify(g).text(), g.text()
        shortened += got != g.text()
    assert n == 21000
    assert shortened > 10000
