"""Candidate sets of the guess program with and without its pruning passes.

`solve` guesses on the parts of the ground program's own index, so the
guess program is only reachable through the library layer: translate,
optionally prune, enumerate the projected answer sets, and check each
candidate on one engine of the ground program.  The same steps with one
guess over the whole program give `unsplit_views`, the reference for
`solve`'s split of the guess.  `reference_guesses` is the guess of a
part as a depth-first loop of its own over the assumption bits, on the
part's rules and its consistency constraints as unguarded clauses, with
an ordinary search at each leaf, the reference for `_Part.guesses`.
It starts from the part's root closure, failed literals included.
"""

from __future__ import annotations

import itertools

from epiworld.epistemic import WorldView, translate_guess
from epiworld.grounder import ground_program
from epiworld.optimize import add_consistency_constraints, wfm_propagate
from epiworld.stable import Engine, _clauses, _minimal, _models, _propagate, _watch


def projected_components(program, onto) -> list[list[frozenset]] | None:
    """Distinct projections onto the given atoms of the answer sets of
    each part of a ground `program`, which for a program without
    subjective literals is a connected component, in the order of
    `Engine.parts`, each with the atoms forward chaining makes true;
    None when there is no answer set."""
    eng = Engine(program)
    parts = [[eng.facts | eng.to_global(j, m) for m in part.models(0)]
             for j, part in enumerate(eng.parts)]
    if [] in parts:
        return None
    onto_mask = 0
    for a in onto:
        if a in eng.atom_of:
            onto_mask |= 1 << eng.atom_of.index(a)
    return [[eng.to_interpretation(p) for p in dict.fromkeys(m & onto_mask for m in comp)]
            for comp in parts]


def projected_answer_sets(program, onto) -> list[frozenset]:
    """Distinct projections of the answer sets of a ground `program`
    onto the atoms `onto`: the product of `projected_components`."""
    components = projected_components(program, onto)
    if components is None:
        return []
    return [frozenset().union(*combo) for combo in itertools.product(*components)]


def _accepts(tester, mapping, candidate) -> bool:
    """Whether the whole ground program reproduces the candidate: the
    subjective atoms whose auxiliary atoms it holds are known, and
    every independent part accepts its share."""
    known = tester.known_mask({k: mapping[k] in candidate for k in mapping})
    return all(part.verdict(tester.to_local(j, known)) is None
               for j, part in enumerate(tester.parts))


def pruning_outcomes(program) -> dict[str, tuple[set, set]]:
    """(candidates, accepted candidates) of the guess program of a ground
    `program`, keyed by the passes applied: "plain", "constraints",
    "wfm", and "both" (constraints, then wfm).  Candidates are
    projections onto the auxiliary atoms.  `solve` runs neither pass:
    each part guesses under the same constraints, and its root-closure
    rule stands in for wfm, so its candidates lie within "both"."""
    ground = ground_program(program)
    guess, mapping = translate_guess(ground)
    constrained = add_consistency_constraints(guess, mapping)
    variants = {
        "plain": guess,
        "constraints": constrained,
        "wfm": wfm_propagate(guess, mapping),
        "both": wfm_propagate(constrained, mapping),
    }
    onto = frozenset(mapping.values())
    tester = Engine(ground)
    out = {}
    for name, variant in variants.items():
        candidates = set(projected_answer_sets(variant, onto))
        accepted = {c for c in candidates if _accepts(tester, mapping, c)}
        out[name] = (candidates, accepted)
    return out


def unsplit_views(program) -> list:
    """World views of a ground `program` from one guess over all of its
    subjective atoms: every candidate of the pruned guess program, in
    `projected_answer_sets` order, checked against the whole program."""
    ground = ground_program(program)
    guess, mapping = translate_guess(ground)
    guess = add_consistency_constraints(guess, mapping)
    guess = wfm_propagate(guess, mapping)
    tester = Engine(ground)
    return [WorldView({k: mapping[k] in candidate for k in tester.kbit}, tester)
            for candidate in projected_answer_sets(guess, frozenset(mapping.values()))
            if _accepts(tester, mapping, candidate)]


def reference_guesses(part):
    """(known, answer set) for each valuation of the guess of a `_Part`,
    in ascending order of `known`, as `_Part.guesses` yields them: a
    branch on the open assumption bits, highest and false first, and,
    where all are set, the first answer set of one ordinary search.
    The consistency constraints are clauses of the guess alone, and it
    has no guess bit."""
    clauses, supports = _clauses(part.rules, part.atoms)
    clauses += [(0, g | b) if tilde else (b, g) for g, b, tilde in part.katoms]
    scope = part.atoms | part.assume
    watch = _watch(clauses, supports, scope)
    # The part's root holds its failed literals, which this loop's own
    # closure would miss; the guess bit is not in `scope`.
    state = None if part.root is None else _propagate(
        clauses, supports, scope, part.root[0] & scope, part.root[1] & scope)
    while state is not None:
        # state[tilde] is the true mask for `&k{a}`, the false one for `&k{~a}`.
        fix = sum(g for g, b, tilde in part.katoms if b & state[tilde]) & ~state[0]
        if not fix:
            break
        state = None if fix & state[1] else _propagate(
            clauses, supports, scope, state[0] | fix, state[1])
    stack = [] if state is None else [(*state, 0)]
    while stack:
        true_m, false_m, g = stack.pop()
        if g:
            state = _propagate(clauses, supports, scope, true_m, false_m, watch, g)
            if state is None:
                continue
            true_m, false_m = state
        open_ = part.assume & ~(true_m | false_m)
        if not open_:
            m = next(_reference_search(part, (true_m, false_m, 0), clauses, supports,
                                       scope, watch), None)
            if m is not None:
                yield m & part.assume, m
            continue
        g = 1 << (open_.bit_length() - 1)
        stack += [(true_m | g, false_m, g), (true_m, false_m | g, g)]


def _reference_search(part, start: tuple[int, int, int], clauses: list, supports: dict,
                      scope: int, watch: dict):
    """The answer sets, with the assumption bits, that the search over
    `clauses` and their lists `watch` reaches from the closed `start`,
    lazily."""
    found = _models(clauses, supports, scope, start, watch)
    if part.tight:
        return found
    return (m for m in found if _minimal(m, part.rules, part.assume))
