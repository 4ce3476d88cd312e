"""Candidate pruning: consistency constraints and fact propagation."""

import pathlib
import random

from corpus import random_epistemic_program
from epiworld.epistemic import translate_guess
from epiworld.grounder import ground_program, simplify
from epiworld.optimize import add_consistency_constraints, wfm_propagate
from epiworld.syntax import parse_text, print_rule
from pruning import pruning_outcomes

GOLDEN = pathlib.Path(__file__).parent / "golden"

INTERPLAY = "a :- not b. c :- &k{a}. d :- not &k{~e}. p :- &k{~d}."
TWO_CYCLE = "p :- not &k{q}. q :- not &k{p}."


def translated(source):
    return translate_guess(ground_program(parse_text(source)))


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
    ground = ground_program(parse_text(INTERPLAY))
    guess, mapping = translate_guess(ground)
    final = wfm_propagate(guess, mapping)
    assert final.text() == (GOLDEN / "interplay_wfm.lp").read_text()
    assert not any(r.is_choice for r in final.rules)


def test_wfm_fixes_known_positive_atoms_in_cascade():
    ground = ground_program(parse_text("a :- not b. c :- &k{a}. d :- &k{c}."))
    guess, mapping = translate_guess(ground)
    final = wfm_propagate(guess, mapping)
    assert final.text() == "a.\nc.\nd.\naux_a.\naux_c.\n"


def test_wfm_fixes_atoms_that_can_never_become_heads():
    ground = ground_program(parse_text("d :- not &k{~e}."))
    guess, mapping = translate_guess(ground)
    final = wfm_propagate(guess, mapping)
    assert final.text() == "aux_not_e.\n"


def test_wfm_keeps_explicit_negation_on_the_inner_atom():
    # -b is a fact, so &k{-b} is fixed; nothing heads -c, so &k{~-c} is.
    ground = ground_program(parse_text("-b. x :- &k{-b}, not &k{~-c}."))
    guess, mapping = translate_guess(ground)
    final = wfm_propagate(guess, mapping)
    assert final.text() == "-b.\naux_sn_b.\naux_not_sn_c.\n"


def test_wfm_leaves_undetermined_guesses_alone():
    ground = ground_program(parse_text(TWO_CYCLE))
    guess, mapping = translate_guess(ground)
    assert wfm_propagate(guess, mapping).rules == guess.rules


def test_wfm_without_subjective_atoms_is_plain_simplification():
    g = ground_program(parse_text("a :- not b. c :- a."))
    out = wfm_propagate(g, {})
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
