"""Definition-level answer set computation used to cross-check the engine.

Everything here is written the slow, obvious way on purpose: expand
choice rules into a complementary pair over a fresh `zz_` atom, walk
every subset of the atom universe, take the reduct by hand, check the
model property against every rule, and check minimality against every
proper subset.  `subjective_reduct` evaluates each subjective literal
against a world by the definition.  `cross_product_ground` instantiates
every rule over all ground terms of the program, derivable or not.  No
sharing with the package internals beyond the AST, its walks and the
`GroundProgram` container, except in `listing_world_views`, the oracle
that lists every answer set of each valuation with the engine.
"""

from __future__ import annotations

import itertools

from epiworld.epistemic import (WorldView, apply_valuation, k15_transform, satisfies,
                                subjective_atoms)
from epiworld.grounder import GroundProgram, ground_program
from epiworld.stable import Engine
from epiworld.syntax import (Atom, Compound, ObjLiteral, Rule, SubjLiteral, Var,
                             print_atom, print_term, rule_atoms, substitute_rule,
                             term_vars)


def _expand(rules):
    out = []
    for r in rules:
        if r.is_choice:
            a = r.head[0]
            z = Atom("zz_" + ("s" if a.strong_neg else "") + a.name, a.args, False)
            out.append(Rule((a,), (ObjLiteral(z, 1),)))
            out.append(Rule((z,), (ObjLiteral(a, 1),)))
        else:
            out.append(r)
    return out


def _reduct(rules, candidate):
    red = []
    for r in rules:
        body = []
        dead = False
        for lit in r.body:
            if lit.negs == 0:
                body.append(lit.atom)
            elif lit.negs == 1:
                if lit.atom in candidate:
                    dead = True
                    break
            else:
                if lit.atom not in candidate:
                    dead = True
                    break
        if not dead:
            red.append((frozenset(r.head), frozenset(body)))
    return red


def _positive_model(rules, interp):
    return all(head & interp or not body <= interp for head, body in rules)


def brute_answer_sets(rules) -> list[frozenset[Atom]]:
    """All answer sets of a ground program, one subset at a time.

    Choice rules are accepted; the fresh atoms backing them are removed
    from the returned interpretations.  Interpretations with a
    complementary pair a / -a are dropped.
    """
    expanded = _expand(rules)
    atoms = set()
    for r in expanded:
        atoms.update(r.head)
        atoms.update(lit.atom for lit in r.body)
    atoms = sorted(atoms, key=print_atom)
    real = frozenset(a for a in atoms if not a.name.startswith("zz_"))
    found = []
    seen = set()
    for bits in itertools.product([False, True], repeat=len(atoms)):
        cand = frozenset(a for a, b in zip(atoms, bits) if b)
        if any(a.strong_neg and Atom(a.name, a.args, False) in cand for a in cand):
            continue
        red = _reduct(expanded, cand)
        if not _positive_model(red, cand):
            continue
        minimal = True
        for k in range(len(cand)):
            for sub in itertools.combinations(cand, k):
                if _positive_model(red, frozenset(sub)):
                    minimal = False
                    break
            if not minimal:
                break
        if not minimal:
            continue
        visible = cand & real
        if visible not in seen:
            seen.add(visible)
            found.append(visible)
    return found


def _reject_choices(rules):
    if any(r.is_choice for r in rules):
        raise ValueError("definitional checks expect a choice-free program")


def is_model(rules, interp) -> bool:
    """Does `interp` satisfy every rule as written?  Choice-free only."""
    _reject_choices(rules)
    for r in rules:
        body_true = True
        for lit in r.body:
            if lit.negs == 0:
                body_true = lit.atom in interp
            elif lit.negs == 1:
                body_true = lit.atom not in interp
            else:
                body_true = lit.atom in interp
            if not body_true:
                break
        if body_true and not any(a in interp for a in r.head):
            return False
    return True


def is_minimal_model_of_reduct(rules, interp) -> bool:
    """Minimal-model test against the reduct.  Choice-free only."""
    _reject_choices(rules)
    red = _reduct(rules, interp)
    if not _positive_model(red, interp):
        return False
    for k in range(len(interp)):
        for sub in itertools.combinations(interp, k):
            if _positive_model(red, frozenset(sub)):
                return False
    return True


def brute_consequences(rules):
    """(cautious, brave) atom sets, or None when there is no answer set."""
    models = brute_answer_sets(rules)
    if not models:
        return None
    cautious = frozenset.intersection(*models)
    brave = frozenset.union(*models)
    return cautious, brave


def listing_world_views(program, semantics: str = "g91") -> list[WorldView]:
    """World views by the definition, listing answer sets: for every
    valuation of the subjective atoms, in ascending bitmask order over
    their sorted alphabet, the answer sets of its objective program,
    kept when they satisfy the valuation.  The reference for
    `oracle_world_views`, which decides from consequences instead."""
    ground = ground_program(k15_transform(program) if semantics == "k15" else program)
    katoms = subjective_atoms(ground)
    views = []
    for mask in range(1 << len(katoms)):
        valuation = {k: bool(mask >> i & 1) for i, k in enumerate(katoms)}
        view = WorldView(valuation, Engine(apply_valuation(ground, valuation)))
        models = view.answer_sets
        if models and all(satisfies(models, k) == v for k, v in valuation.items()):
            views.append(view)
    return views


def subjective_reduct(program, world) -> GroundProgram:
    """The objective program left when every subjective literal is
    evaluated against `world`, a collection of interpretations: `&k{l}`
    holds when l holds in each of them.  True literals are dropped from
    their bodies, and rules with a false one are dropped."""
    world = tuple(world)

    def holds(lit) -> bool:
        inner = lit.katom.inner
        if inner.negs == 0:
            known = all(inner.atom in i for i in world)
        else:
            known = all(inner.atom not in i for i in world)
        return known != lit.negated

    rules = []
    for r in program.rules:
        subjective = [lit for lit in r.body if isinstance(lit, SubjLiteral)]
        if all(map(holds, subjective)):
            body = tuple(lit for lit in r.body if not isinstance(lit, SubjLiteral))
            rules.append(Rule(r.head, body, r.is_choice))
    return GroundProgram(tuple(rules))


def _collect_ground_terms(t, out: set) -> None:
    if isinstance(t, Var):
        return
    if isinstance(t, Compound):
        if not term_vars(t):
            out.add(t)
        for a in t.args:
            _collect_ground_terms(a, out)
        return
    out.add(t)


def ground_terms(program) -> list:
    """All ground terms (and ground subterms) occurring in the program."""
    out: set = set()
    for r in program.rules:
        for a in rule_atoms(r):
            for t in a.args:
                _collect_ground_terms(t, out)
    return sorted(out, key=print_term)


def cross_product_ground(program) -> GroundProgram:
    """Reference grounder: every rule with variables instantiated over
    every tuple of the program's ground terms, whether its body can be
    derived or not; ground rules are kept verbatim.  It never builds a
    term the program text lacks, so it is complete only on programs
    without function symbols."""
    terms = ground_terms(program)
    out = []
    for rule in program.rules:
        vs = sorted({v for a in rule_atoms(rule) for t in a.args for v in term_vars(t)})
        if not vs:
            out.append(rule)
            continue
        for combo in itertools.product(terms, repeat=len(vs)):
            out.append(substitute_rule(rule, dict(zip(vs, combo)), Var))
    return GroundProgram(tuple(out))
