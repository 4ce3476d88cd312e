"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single `[PASS]`/`[FAIL]` line; run with

    pytest tests/test_acceptance.py -v -s

to see the ten lines as they are checked.
"""

import io
import pathlib
import random
import time

from brute import (
    brute_answer_sets,
    brute_consequences,
    is_minimal_model_of_reduct,
    is_model,
)
from corpus import random_epistemic_program, random_ground_rules
from epiworld.cli import RunConfig, gen_eligibility, run, yale_source
from epiworld.epistemic import (
    expand_world_view,
    oracle_world_views,
    solve,
    translate_guess,
)
from epiworld.grounder import GroundProgram, ground_program, simplify
from epiworld.optimize import wfm_propagate
from epiworld.stable import Engine
from epiworld.syntax import (
    Atom,
    AuxAtom,
    Const,
    Rule,
    parse_text,
    print_atom,
    print_subjective,
)
from pruning import pruning_outcomes

GOLDEN = pathlib.Path(__file__).parent / "golden"

TWO_CYCLE = "p :- not &k{q}.\nq :- not &k{p}.\n"
SELF_SUPPORT = "p :- &k{p}."
INTERPLAY = "a :- not b. c :- &k{a}. d :- not &k{~e}. p :- &k{~d}."
ELIGIBILITY = """student(mike).
fairGPA(mike), highGPA(mike).
eligible(X) :- highGPA(X).
eligible(X) :- minority(X), fairGPA(X).
-eligible(X) :- -fairGPA(X), -highGPA(X).
interview(X) :- not &k{ eligible(X) }, not &k{ -eligible(X) }, student(X).
"""


def report(number, claim, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {claim}"
    print(line, flush=True)
    assert ok, line + (f" ({detail})" if detail else "")


def transcript(tmp_path, source, **kw):
    path = tmp_path / "input.lp"
    path.write_text(source)
    out = io.StringIO()
    code = run(RunConfig(files=(str(path),), **kw), out=out)
    return code, out.getvalue()


def after_banner(text):
    return text.split("\n", 1)[1]


def view_keys(views):
    return sorted(sorted((print_subjective(k), v) for k, v in wv.valuation.items())
                  for wv in views)


def view_models(views):
    return sorted(sorted(sorted(print_atom(a) for a in m) for m in wv.answer_sets)
                  for wv in views)


def test_criterion_01_two_cycle_transcript(tmp_path):
    started = time.perf_counter()
    code, text = transcript(tmp_path, TWO_CYCLE)
    elapsed = time.perf_counter() - started
    golden = (GOLDEN / "two_cycle.txt").read_text()
    ok = (code == 10
          and after_banner(text) == after_banner(golden)
          and after_banner(text) == ("Solving...\nAnswer: 1\n&k{ p }\n"
                                     "Answer: 2\n&k{ q }\nSATISFIABLE\n")
          and elapsed < 1.0)
    report(1, "interlocked negative rules print world views p then q", ok,
           f"code={code} elapsed={elapsed:.3f}s")


def test_criterion_02_self_supporting_knowledge():
    started = time.perf_counter()
    default_views = view_models(solve(parse_text(SELF_SUPPORT)))
    strict_views = view_models(solve(parse_text(SELF_SUPPORT), semantics="k15"))
    elapsed = time.perf_counter() - started
    ok = (default_views == [[[]], [["p"]]]
          and strict_views == [[[]]]
          and elapsed < 1.0)
    report(2, "self-supporting knowledge keeps two default world views, one strict",
           ok, f"default={default_views} strict={strict_views}")


def test_criterion_03_eligibility_interview(tmp_path):
    started = time.perf_counter()
    views = list(solve(parse_text(ELIGIBILITY)))
    code, text = transcript(tmp_path, ELIGIBILITY + "#show interview/1.\n")
    elapsed = time.perf_counter() - started
    mike = (Const("mike"),)
    expanded = ({frozenset({Atom("fairGPA", mike), Atom("interview", mike),
                            Atom("student", mike)}),
                 frozenset({Atom("eligible", mike), Atom("highGPA", mike),
                            Atom("interview", mike), Atom("student", mike)})}
                if len(views) == 1 else None)
    ok = (len(views) == 1
          and set(expand_world_view(views[0])) == expanded
          and code == 10
          and "Answer: 1\n&k{ interview(mike) }\n" in text
          and elapsed < 1.0)
    report(3, "unknown GPA forces exactly one world view and an interview", ok,
           f"views={len(views)} elapsed={elapsed:.3f}s")


def test_criterion_04_pipeline_stage_listings():
    ground = ground_program(parse_text(INTERPLAY))
    guess, mapping = translate_guess(ground)
    stage2 = simplify(guess)
    fixed = GroundProgram(stage2.rules + (Rule((AuxAtom("aux_a"),), ()),
                                          Rule((AuxAtom("aux_not_e"),), ())))
    stage3 = simplify(fixed)
    final = wfm_propagate(guess, mapping)
    aux_facts = {print_atom(a) for a in final.facts}
    ok = (guess.text() == (GOLDEN / "interplay_guess.lp").read_text()
          and stage2.text() == (GOLDEN / "interplay_simplified.lp").read_text()
          and stage3.text() == (GOLDEN / "interplay_fixed.lp").read_text()
          and final.text() == (GOLDEN / "interplay_wfm.lp").read_text()
          and {"aux_a", "aux_not_d", "aux_not_e"} <= aux_facts
          and not any(r.is_choice for r in final.rules))
    report(4, "guess translation and propagation reproduce the staged listings", ok)


def test_criterion_05_solver_matches_definitional_oracle():
    started = time.perf_counter()
    rng = random.Random(2025)
    checked = 0
    ok = True
    detail = ""
    for _ in range(500):
        prog = random_epistemic_program(rng, max_atoms=6, max_rules=None)
        got = list(solve(prog))
        want = oracle_world_views(prog)
        if view_keys(got) != view_keys(want) or view_models(got) != view_models(want):
            ok = False
            detail = "mismatch on: " + " ".join(
                str(r) for r in prog.rules)
            break
        checked += 1
    elapsed = time.perf_counter() - started
    ok = ok and checked == 500 and elapsed < 300.0
    report(5, "guess-and-check equals the definitional oracle on 500 programs",
           ok, detail or f"elapsed={elapsed:.1f}s")


def test_criterion_06_optimisations_preserve_world_views():
    rng = random.Random(2025)
    ok = True
    detail = ""
    for _ in range(500):
        prog = random_epistemic_program(rng, max_atoms=6, max_rules=None)
        outcomes = pruning_outcomes(prog)
        plain, plain_accepted = outcomes.pop("plain")
        for passes, (candidates, accepted) in outcomes.items():
            if not candidates <= plain or accepted != plain_accepted:
                ok = False
                detail = (f"passes={passes} candidates={len(candidates)}/{len(plain)} "
                          f"accepted={len(accepted)}/{len(plain_accepted)} on: "
                          + " ".join(str(r) for r in prog.rules))
                break
        if not ok:
            break
    report(6, "pruning passes keep a subset of the candidates and the same accepted ones",
           ok, detail)


def test_criterion_07_consequences_match_brute_force():
    rng = random.Random(7777)
    ok = True
    detail = ""
    for _ in range(500):
        rules = random_ground_rules(rng, max_atoms=6, max_rules=6, choices=False)
        g = GroundProgram(tuple(rules))
        eng = Engine(g)
        got = eng.answer_sets()
        want = brute_answer_sets(rules)
        if sorted(map(sorted, (map(print_atom, m) for m in got))) != \
                sorted(map(sorted, (map(print_atom, m) for m in want))):
            ok, detail = False, "answer sets diverge from brute force"
            break
        found = eng.consequences()
        expected = brute_consequences(rules)
        if expected is None:
            if found is not None:
                ok, detail = False, "phantom answer set"
                break
        elif found is None or tuple(map(eng.to_interpretation, found)) != expected:
            ok, detail = False, "consequence sets diverge"
            break
        for m in got:
            if any(a.strong_neg and Atom(a.name, a.args, False) in m for a in m):
                ok, detail = False, "inconsistent answer set"
                break
            if not (is_model(rules, m) and is_minimal_model_of_reduct(rules, m)):
                ok, detail = False, "non-minimal or non-model answer set"
                break
        if not ok:
            break
    report(7, "cautious/brave sets equal brute-force meets and joins", ok, detail)


def test_criterion_08_simplification_bounds_consequences():
    rng = random.Random(7777)
    ok = True
    detail = ""
    for _ in range(500):
        rules = random_ground_rules(rng, max_atoms=6, max_rules=6, choices=False)
        g = GroundProgram(tuple(rules))
        eng = Engine(g)
        found = eng.consequences()
        if found is None:
            continue
        cautious, brave = map(eng.to_interpretation, found)
        s = simplify(g)
        if not (s.facts <= cautious and brave <= s.heads):
            ok = False
            detail = s.text().replace("\n", " ")
            break
    report(8, "simplified facts and heads bracket the consequence sets", ok, detail)


def test_criterion_09_eligibility_scaling():
    times = []
    counts = []
    started = time.perf_counter()
    for n in range(1, 16):
        prog = gen_eligibility(n, seed=1)
        t0 = time.perf_counter()
        counts.append(sum(1 for _ in solve(prog)))
        times.append(time.perf_counter() - t0)
    total = time.perf_counter() - started
    monotone = not any(times[i] > 2.0 * times[j] + 0.05
                       for i in range(len(times)) for j in range(i + 1, len(times)))
    ok = counts == [1] * 15 and total < 60.0 and monotone
    report(9, "eligibility instances 1..15 each have one world view and scale",
           ok, f"total={total:.2f}s times={['%.3f' % t for t in times]}")


def test_criterion_10_shipped_planning_instances(tmp_path):
    started = time.perf_counter()
    counts = {}
    for name in ("yale01", "yale02", "yale03", "yale04", "yale05"):
        counts[name] = sum(1 for _ in solve(parse_text(yale_source(name))))
    code, text = transcript(tmp_path, yale_source("yale_unsat"))
    elapsed = time.perf_counter() - started
    ok = (all(count >= 1 for count in counts.values())
          and code == 20
          and text.rstrip().endswith("UNSATISFIABLE")
          and elapsed < 120.0)
    report(10, "planning instances 1-5 solve and the trap variant is unsatisfiable",
           ok, f"counts={counts} elapsed={elapsed:.1f}s")
