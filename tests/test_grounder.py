"""Safety checking, instantiation, and ground-program simplification."""

import random
from collections import Counter

import pytest

from brute import brute_answer_sets, cross_product_ground, ground_terms
from corpus import random_ground_rules, random_safe_program
from epiworld import grounder, syntax
from epiworld.cli import YALE_INSTANCES, gen_eligibility, yale_source
from epiworld.epistemic import (expand_world_view, k15_transform, oracle_world_views,
                                solve, subjective_atoms)
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
from epiworld.stable import Engine
from epiworld.syntax import (Atom, Compound, Const, Num, ObjLiteral, Program, Rule,
                             parse_text, print_atom, print_subjective)


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
    match, calls = grounder._match, []
    monkeypatch.setattr(grounder, "_match", lambda *args: calls.append(None) or match(*args))
    ground = ground_program(parse_text(facts + "s(X,Y) :- a(X), b(Y), c(X,Y)."))
    assert len(ground.rules) == 2000 and not any(r.body for r in ground.rules)
    assert calls == []


def test_grounding_looks_up_body_atoms_by_their_bound_arguments(monkeypatch):
    n = 300
    facts = "".join(f"e(c{i},c{i + 1}). " for i in range(n))
    match, calls = grounder._match, []
    monkeypatch.setattr(grounder, "_match", lambda *args: calls.append(None) or match(*args))
    ground = ground_program(parse_text(facts + "p(X,Y,Z) :- e(X,Y), e(Y,Z)."))
    assert len(ground.rules) == 2 * n - 1
    # Each edge is matched once as e(X,Y) and at most once as e(Y,Z),
    # never against every edge.
    assert len(calls) <= 3 * n


def _scan(derived, key, at, values, start, stop):
    """`_Derivable.lookup` without the index."""
    return [n for n in derived.atoms[key][start:stop]
            if tuple(derived.table.atoms[n].args[p] for p in at) == values]


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
    monkeypatch.setattr(grounder._Derivable, "lookup", _scan)
    assert got == [ground_program(p).text() for p in programs]
    assert sum(text.count(":-") for text in got) > 1000


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
            renumbered += numbered.numbered.atoms != built.numbered.atoms
    assert renumbered > 100


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
    assert g.heads == {Atom("p"), Atom("c"), Atom("q"), Atom("r"), Atom("s")}
    assert g.atoms == g.heads
    assert g.text() == "p.\n{c}.\nq :- p.\nr, s.\n:- q.\n"


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
