"""Candidate sets of the guess program with and without its pruning passes.

`solve` always runs both passes, so the unpruned guess is only reachable
through the library layer: translate, optionally prune, enumerate the
projected answer sets, and check each candidate on one engine of the
ground program.  The same steps without any split into independent
parts give `unsplit_views`, the reference for `solve`'s split.
"""

from __future__ import annotations

from epiworld.epistemic import check_candidate, translate_guess
from epiworld.grounder import ground_program
from epiworld.optimize import add_consistency_constraints, wfm_propagate
from epiworld.stable import Engine, projected_answer_sets


def _known(tester, mapping, candidate) -> int:
    """The tester's mask of the subjective atoms whose auxiliary atoms
    the candidate holds."""
    return tester.known_mask({k: mapping[k] in candidate for k in mapping})


def pruning_outcomes(program) -> dict[str, tuple[set, set]]:
    """(candidates, accepted candidates) of the guess program of a ground
    `program`, keyed by the passes applied: "plain", "constraints",
    "wfm", and "both" (constraints then wfm, as `solve` runs them).
    Candidates are projections onto the auxiliary atoms."""
    ground = ground_program(program)
    guess, mapping = translate_guess(ground)
    constrained = add_consistency_constraints(guess, mapping)
    variants = {
        "plain": guess,
        "constraints": constrained,
        "wfm": wfm_propagate(guess, ground, mapping),
        "both": wfm_propagate(constrained, ground, mapping),
    }
    onto = frozenset(mapping.values())
    tester = Engine(ground)
    out = {}
    for name, variant in variants.items():
        candidates = set(projected_answer_sets(variant, onto))
        accepted = {c for c in candidates
                    if check_candidate(tester, _known(tester, mapping, c)) is not None}
        out[name] = (candidates, accepted)
    return out


def unsplit_views(program) -> list:
    """World views of a ground `program` from one guess over all of its
    subjective atoms: every candidate of the pruned guess program, in
    `projected_answer_sets` order, checked against the whole program."""
    ground = ground_program(program)
    guess, mapping = translate_guess(ground)
    guess = add_consistency_constraints(guess, mapping)
    guess = wfm_propagate(guess, ground, mapping)
    tester = Engine(ground)
    views = []
    for candidate in projected_answer_sets(guess, frozenset(mapping.values())):
        view = check_candidate(tester, _known(tester, mapping, candidate))
        if view is not None:
            views.append(view)
    return views
