"""Candidate pruning: consistency constraints and fact propagation."""

import pathlib
import random

from corpus import random_epistemic_program
from epiworld.epistemic import translate_guess
from epiworld.grounder import ground_program, simplify
from epiworld.optimize import (
    KSets,
    add_consistency_constraints,
    collect_ksets,
    wfm_propagate,
)
from epiworld.syntax import Atom, parse_text, print_rule
from pruning import pruning_outcomes

GOLDEN = pathlib.Path(__file__).parent / "golden"

INTERPLAY = "a :- not b. c :- &k{a}. d :- not &k{~e}. p :- &k{~d}."
TWO_CYCLE = "p :- not &k{q}. q :- not &k{p}."


def translated(source):
    return translate_guess(ground_program(parse_text(source)))


# ---------------------------------------------------------------------------
# Subjective alphabet split


def test_collect_ksets_splits_by_inner_negation():
    ks = collect_ksets(ground_program(parse_text(INTERPLAY)))
    assert ks.kplus == {Atom("a")}
    assert ks.kminus == {Atom("d"), Atom("e")}


def test_collect_ksets_keeps_explicit_negation_on_the_atom():
    ks = collect_ksets(ground_program(parse_text("x :- &k{-b}, not &k{~-c}.")))
    assert ks.kplus == {Atom("b", (), True)}
    assert ks.kminus == {Atom("c", (), True)}


def test_collect_ksets_without_subjective_atoms():
    ks = collect_ksets(ground_program(parse_text("p. q :- p.")))
    assert ks == KSets(frozenset(), frozenset())


# ---------------------------------------------------------------------------
# Consistency constraints


def test_constraint_schemas_for_all_four_forms():
    guess, mapping = translated("w :- &k{p}, &k{~q}, &k{-r}, not &k{~-s}.")
    out = add_consistency_constraints(guess, mapping)
    added = [print_rule(r) for r in out.rules[len(guess.rules):]]
    assert added == [
        ":- aux_not_q, q.",
        ":- aux_not_sn_s, -s.",
        ":- aux_p, not p.",
        ":- aux_sn_r, not -r.",
    ]


def test_constraints_on_the_interplay_program_match_golden():
    guess, mapping = translated(INTERPLAY)
    out = add_consistency_constraints(guess, mapping)
    assert out.text() == (GOLDEN / "interplay_constraints.lp").read_text()


def test_constraints_leave_original_rules_untouched():
    guess, mapping = translated(TWO_CYCLE)
    out = add_consistency_constraints(guess, mapping)
    assert out.rules[:len(guess.rules)] == guess.rules


def test_constraints_prune_self_defeating_guesses():
    outcomes = pruning_outcomes(parse_text(TWO_CYCLE))
    plain, plain_accepted = outcomes["plain"]
    pruned, pruned_accepted = outcomes["constraints"]
    assert len(plain) == 4
    assert len(pruned) == 3
    assert pruned <= plain
    assert plain_accepted == pruned_accepted
    assert len(pruned_accepted) == 2


# ---------------------------------------------------------------------------
# Fact propagation over the guess program


def test_wfm_interplay_reaches_the_golden_fixpoint():
    guess, mapping = translated(INTERPLAY)
    ksets = collect_ksets(ground_program(parse_text(INTERPLAY)))
    final = wfm_propagate(guess, ksets, mapping)
    assert final.text() == (GOLDEN / "interplay_wfm.lp").read_text()
    assert not any(r.is_choice for r in final.rules)


def test_wfm_fixes_known_positive_atoms_in_cascade():
    src = "a :- not b. c :- &k{a}. d :- &k{c}."
    guess, mapping = translated(src)
    final = wfm_propagate(guess, collect_ksets(ground_program(parse_text(src))), mapping)
    assert final.text() == "a.\nc.\nd.\naux_a.\naux_c.\n"


def test_wfm_fixes_atoms_that_can_never_become_heads():
    src = "d :- not &k{~e}."
    guess, mapping = translated(src)
    final = wfm_propagate(guess, collect_ksets(ground_program(parse_text(src))), mapping)
    assert final.text() == "aux_not_e.\n"


def test_wfm_leaves_undetermined_guesses_alone():
    guess, mapping = translated(TWO_CYCLE)
    ksets = collect_ksets(ground_program(parse_text(TWO_CYCLE)))
    assert wfm_propagate(guess, ksets, mapping).rules == guess.rules


def test_wfm_without_subjective_atoms_is_plain_simplification():
    g = ground_program(parse_text("a :- not b. c :- a."))
    out = wfm_propagate(g, KSets(frozenset(), frozenset()), {})
    assert out == simplify(g)


def test_wfm_shrinks_the_candidate_space():
    outcomes = pruning_outcomes(parse_text("a :- not b. c :- &k{a}. d :- &k{c}."))
    plain, plain_accepted = outcomes["plain"]
    fast, fast_accepted = outcomes["wfm"]
    assert len(plain) == 4
    assert len(fast) == 1
    assert fast <= plain
    assert plain_accepted == fast_accepted


# ---------------------------------------------------------------------------
# Preservation over a random corpus


def test_optimizations_preserve_world_views_and_never_add_candidates():
    rng = random.Random(55)
    for _ in range(150):
        outcomes = pruning_outcomes(random_epistemic_program(rng))
        plain, plain_accepted = outcomes.pop("plain")
        for candidates, accepted in outcomes.values():
            assert candidates <= plain
            assert accepted == plain_accepted
