"""Command-line behavior: transcripts, exit codes, generators, benchmarks."""

import csv
import io
import pathlib
import re
import resource
import subprocess
import sys

import pytest

from epiworld import cli
from epiworld.cli import (
    BANNER,
    ELIGIBILITY_RULES,
    INPUT_ERROR,
    SATISFIABLE,
    UNSATISFIABLE,
    YALE_INSTANCES,
    RunConfig,
    _bench_parser,
    _solve_parser,
    _time_instance,
    apply_show,
    bench,
    bench_instances,
    gen_eligibility,
    gen_yale,
    load_program,
    main,
    run,
    yale_source,
)
from epiworld.epistemic import solve
from epiworld.grounder import ground_program, program_safety_check
from epiworld.syntax import parse_text, print_program

GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parent.parent / "README.md"

TWO_CYCLE = "p :- not &k{q}.\nq :- not &k{p}.\n"
ELIGIBILITY = """student(mike).
fairGPA(mike), highGPA(mike).
eligible(X) :- highGPA(X).
eligible(X) :- minority(X), fairGPA(X).
-eligible(X) :- -fairGPA(X), -highGPA(X).
interview(X) :- not &k{ eligible(X) }, not &k{ -eligible(X) }, student(X).
#show interview/1.
"""


def run_text(tmp_path, source, **kw):
    path = tmp_path / "in.lp"
    path.write_text(source)
    return run_files(path, **kw)


def run_files(*paths, **kw):
    out = io.StringIO()
    code = run(RunConfig(files=tuple(map(str, paths)), **kw), out=out)
    return code, out.getvalue()


def after_banner(text):
    first, rest = text.split("\n", 1)
    assert first.startswith("epiworld version")
    return rest


# ---------------------------------------------------------------------------
# Transcripts


def test_two_cycle_transcript_matches_golden(tmp_path):
    code, text = run_text(tmp_path, TWO_CYCLE)
    assert code == SATISFIABLE == 10
    golden = (GOLDEN / "two_cycle.txt").read_text()
    assert after_banner(text) == after_banner(golden)
    assert text.startswith(BANNER + "\n")


def test_eligibility_show_transcript_matches_golden(tmp_path):
    code, text = run_text(tmp_path, ELIGIBILITY)
    assert code == SATISFIABLE
    assert after_banner(text) == after_banner((GOLDEN / "eligibility_show.txt").read_text())
    assert "&k{ interview(mike) }" in text


def test_unsatisfiable_transcript(tmp_path):
    code, text = run_text(tmp_path, ":- not &k{p}.\n")
    assert code == UNSATISFIABLE == 20
    assert after_banner(text) == "Solving...\nUNSATISFIABLE\n"


def test_empty_display_line_for_empty_world_view(tmp_path):
    code, text = run_text(tmp_path, "p :- &k{p}.\n", semantics="k15")
    assert code == SATISFIABLE
    assert after_banner(text) == "Solving...\nAnswer: 1\n\nSATISFIABLE\n"


@pytest.mark.parametrize("mode", ["solve", "oracle"])
def test_max_models_truncates_output(tmp_path, mode):
    code, text = run_text(tmp_path, TWO_CYCLE, n_models=1, mode=mode)
    assert code == SATISFIABLE
    assert after_banner(text) == "Solving...\nAnswer: 1\n&k{ p }\nSATISFIABLE\n"


def test_oracle_mode_prints_the_same_views(tmp_path):
    _, fast = run_text(tmp_path, TWO_CYCLE)
    _, slow = run_text(tmp_path, TWO_CYCLE, mode="oracle")
    assert fast == slow
    _, fast = run_text(tmp_path, "p :- &k{p}.\n")
    _, slow = run_text(tmp_path, "p :- &k{p}.\n", mode="oracle")
    assert fast == slow


def test_parts_print_in_engine_part_order(tmp_path):
    # a and c form one part through z, b another.  The a/c part comes
    # first, as a1 is the lowest atom, and the last part varies fastest,
    # so b changes before the shared a/c part, in which a changes first.
    source = ("a1 :- not &k{a2}. a2 :- not &k{a1}.\n"
              "b1 :- not &k{b2}. b2 :- not &k{b1}.\n"
              "c1 :- not &k{c2}. c2 :- not &k{c1}.\n"
              "z :- &k{a1}, &k{c1}, g.\n")
    code, text = run_text(tmp_path, source)
    assert code == SATISFIABLE
    views = ["a1 b1 c1", "a1 b2 c1", "a2 b1 c1", "a2 b2 c1",
             "a1 b1 c2", "a1 b2 c2", "a2 b1 c2", "a2 b2 c2"]
    want = "".join(f"Answer: {i}\n" + " ".join(f"&k{{ {a} }}" for a in view.split()) + "\n"
                   for i, view in enumerate(views, 1))
    assert after_banner(text) == f"Solving...\n{want}SATISFIABLE\n"


@pytest.mark.parametrize("x, y", [("a", "b"), ("p", "q")])
def test_views_print_in_the_order_of_their_atoms_whatever_the_names(tmp_path, x, y):
    code, text = run_text(tmp_path, f"{x} :- not &k{{{y}}}. {y} :- not &k{{{x}}}.\n")
    assert code == SATISFIABLE
    want = f"Answer: 1\n&k{{ {x} }}\nAnswer: 2\n&k{{ {y} }}\n"
    assert after_banner(text) == f"Solving...\n{want}SATISFIABLE\n"


# ---------------------------------------------------------------------------
# Errors and exit codes


def test_parse_error_reports_position_and_exits_65(tmp_path, capsys):
    code, text = run_text(tmp_path, "p :- &k{q .\n")
    assert code == INPUT_ERROR == 65
    assert "1:11: expected '}'" in capsys.readouterr().err
    assert "Answer" not in text


@pytest.mark.parametrize("source, message", [
    ("p(²).\n", "1:3: unrecognized character '²'"),
    ("p(" + "9" * 5000 + ").\n", "1:3: number too long"),
], ids=["superscript-digit", "5000-digits"])
def test_number_literals_int_refuses_exit_65(tmp_path, capsys, source, message):
    code, text = run_text(tmp_path, source)
    assert code == INPUT_ERROR
    assert message in capsys.readouterr().err
    assert "Answer" not in text


def test_deeply_nested_terms_are_refused_with_a_position(tmp_path, capsys):
    def nested(depth):
        return "p(" + "f(" * depth + "a" + ")" * depth + "). q(X) :- p(X).\n"

    code, _ = run_text(tmp_path, nested(100))
    assert code == SATISFIABLE
    code, text = run_text(tmp_path, nested(101))
    assert code == INPUT_ERROR
    assert "1:205: terms may nest at most 100 deep" in capsys.readouterr().err
    assert "Answer" not in text


@pytest.mark.parametrize("source", ["q. p :- &k{~q}. r :- &k{not_q}.\n",
                                    "q. p :- &k{-q}. r :- &k{sn_q}.\n"])
def test_look_alike_subjective_atoms_solve(tmp_path, source):
    code, text = run_text(tmp_path, source)
    assert code == SATISFIABLE
    assert "Answer: 1" in text


def test_constant_defined_in_two_files_exits_65(tmp_path, capsys):
    one, two = tmp_path / "one.lp", tmp_path / "two.lp"
    one.write_text("#const n = 1.\n")
    two.write_text("#const n = 2.\np(n).\n")
    code, text = run_files(one, two)
    assert code == INPUT_ERROR
    assert "constant 'n' defined twice" in capsys.readouterr().err
    assert "Answer" not in text


def test_chained_constants_exit_65(tmp_path, capsys):
    code, text = run_text(tmp_path, "#const n = m. #const m = 3. p(n).\n")
    assert code == INPUT_ERROR
    path = tmp_path / "in.lp"
    assert (f"error: {path}:1:1: the value of constant 'n' names constant 'm'"
            in capsys.readouterr().err)
    assert "Answer" not in text


def test_errors_in_one_of_several_files_name_the_file(tmp_path, capsys):
    a, b, c = (tmp_path / f"{name}.lp" for name in "abc")
    a.write_text("#const n = 1.\np(n).\n")
    b.write_text("q :- p(1).\n")
    c.write_text("#const n = 2.\n")
    code, text = run_files(a, c, b)
    assert code == INPUT_ERROR
    assert f"error: {c}:1:1: constant 'n' defined twice" in capsys.readouterr().err
    assert "Answer" not in text
    b.write_text("q :- &k{p .\n")
    code, _ = run_files(a, b)
    assert code == INPUT_ERROR
    assert f"error: {b}:1:11: expected '}}'" in capsys.readouterr().err


def test_missing_file_exits_65(capsys):
    out = io.StringIO()
    code = run(RunConfig(files=("/no/such/file.lp",)), out=out)
    assert code == INPUT_ERROR
    assert "error:" in capsys.readouterr().err


def test_unsafe_program_exits_65(tmp_path, capsys):
    code, _ = run_text(tmp_path, "p(X) :- not q(X). q(a).\n")
    assert code == INPUT_ERROR
    assert "unsafe variable" in capsys.readouterr().err


@pytest.mark.parametrize("source, message", [
    ("p(a). p(f(X)) :- p(X).\n",
     "error: a derived term nests deeper than 100, at rule: p(f(X)) :- p(X)."),
    ("".join(f"q({i}). " for i in range(50)) + "p(X,Y,Z) :- q(X), q(Y), q(Z).\n",
     "error: grounding creates more than 100000 rule instances, "
     "at rule: p(X,Y,Z) :- q(X), q(Y), q(Z)."),
    ("".join(f"e(l{i},r{j}). e(r{j},l{i}). " for i in range(80) for j in range(80))
     + "t(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X).\n",
     "error: grounding makes more than 1000000 join match attempts, "
     "at rule: t(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X)."),
], ids=["divergent", "wide-join", "wide-every-order"])
def test_grounding_past_its_limits_exits_65(tmp_path, source, message):
    # In a child process, so that a missing limit fails after 30 s
    # instead of stalling the suite; ru_maxrss is in KiB on Linux.
    path = tmp_path / "in.lp"
    path.write_text(source)
    proc = subprocess.run([sys.executable, "-m", "epiworld", str(path)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == INPUT_ERROR
    assert proc.stderr == message + "\n"
    assert "Answer" not in proc.stdout
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss < 512 * 1024


@pytest.mark.parametrize("source, semantics, shown", [
    ("aux_p. q :- &k{aux_p}.\n", "g91", "&k{ aux_p }"),
    ("k15aux_1. p :- not &k{q}.\n", "k15", ""),
], ids=["aux_p-g91", "k15aux_1-k15"])
def test_atoms_named_like_machinery_atoms_solve(tmp_path, source, semantics, shown):
    code, text = run_text(tmp_path, source, semantics=semantics)
    assert code == SATISFIABLE
    assert after_banner(text) == f"Solving...\nAnswer: 1\n{shown}\nSATISFIABLE\n"


def test_show_never_displays_machinery_atoms(tmp_path):
    source = "q :- not &k{p}. p :- not q. #show k15aux_1/0.\n"
    code, text = run_text(tmp_path, source, semantics="k15")
    assert code == SATISFIABLE
    assert after_banner(text) == "Solving...\nAnswer: 1\n\nSATISFIABLE\n"
    code, text = run_text(tmp_path, "k15aux_1. " + source, semantics="k15")
    assert after_banner(text) == "Solving...\nAnswer: 1\n&k{ k15aux_1 }\nSATISFIABLE\n"


def test_main_routes_solve_with_and_without_subcommand(tmp_path, capsys):
    path = tmp_path / "p.lp"
    path.write_text(TWO_CYCLE)
    assert main([str(path)]) == SATISFIABLE
    assert main(["solve", str(path)]) == SATISFIABLE
    assert main(["-n", "-1", str(path)]) == INPUT_ERROR
    capsys.readouterr()


def test_stats_go_to_stderr_after_the_verdict_and_leave_stdout_alone(tmp_path, capsys):
    path = tmp_path / "yale05.lp"
    path.write_text(yale_source("yale05"))
    assert main([str(path)]) == SATISFIABLE
    plain = capsys.readouterr()
    assert main(["--stats", str(path)]) == SATISFIABLE
    counted = capsys.readouterr()
    assert counted.out == plain.out and plain.err == ""
    assert counted.out.count("Answer:") == 131
    lines = counted.err.splitlines()
    assert lines[:13] == [
        "Parts: 1", "Part shapes: 1", "Non-tight parts: 0", "Candidates: 211", "Accepted: 131",
        "Rejected, no answer set: 0", "Rejected, known atom not cautious: 80",
        "Rejected, unknown atom cautious: 0", "Rejected, ~-form brave failure: 0",
        "Ground rules: 73", "Atoms: 39", "Fixed atoms: 2", "Failed literals: 0",
    ]
    assert [line.split(": ")[0] for line in lines[13:]] == \
        ["Parse", "Grounding", "Engine build", "Guess", "Check"]
    assert all(re.fullmatch(r"\d+\.\d{4} s", line.split(": ")[1]) for line in lines[13:])
    # Under k15, the `k15aux` atom of each of the 5 steps' 3 action
    # constraints is a failed literal.
    assert main(["--stats", "--semantics", "k15", str(path)]) == SATISFIABLE
    lines = capsys.readouterr().err.splitlines()
    assert lines[:5] == ["Parts: 1", "Part shapes: 1", "Non-tight parts: 0",
                         "Candidates: 211", "Accepted: 211"]
    assert lines[9:13] == ["Ground rules: 105", "Atoms: 55", "Fixed atoms: 2",
                           "Failed literals: 15"]
    assert re.fullmatch(r"Parse: \d+\.\d{4} s", lines[13])


def test_stats_with_the_oracle_are_refused(tmp_path, capsys):
    path = tmp_path / "p.lp"
    path.write_text(TWO_CYCLE)
    assert main(["--stats", "--mode", "oracle", str(path)]) == INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --stats") and captured.err.count("\n") == 1
    assert main(["--mode", "oracle", str(path)]) == SATISFIABLE


def test_main_validates_bench_arguments(capsys):
    assert main(["bench", "--domain", "eligibility", "--max-n", "0"]) == INPUT_ERROR
    assert "--max-n" in capsys.readouterr().err
    assert main(["bench", "--domain", "yale", "--reps", "0"]) == INPUT_ERROR
    assert "--reps" in capsys.readouterr().err
    for timeout in ("nan", "inf", "0", "-1"):
        assert main(["bench", "--domain", "yale", "--timeout", timeout]) == INPUT_ERROR
        assert "error: --timeout" in capsys.readouterr().err


def test_installed_entry_point(tmp_path):
    path = tmp_path / "p.lp"
    path.write_text(TWO_CYCLE)
    proc = subprocess.run([sys.executable, "-m", "epiworld", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == SATISFIABLE
    assert "SATISFIABLE" in proc.stdout
    assert proc.stdout.splitlines()[0] == BANNER


# ---------------------------------------------------------------------------
# Display filtering


def test_apply_show_without_directives_lists_known_atoms():
    (wv,) = solve(parse_text("x. y :- &k{x}, not &k{~z}."))
    assert apply_show(wv, ()) == ["&k{ x }", "&k{ ~z }"]


def test_apply_show_filters_by_name_arity_and_sign():
    prog = parse_text("p(a). p(b). q(a). -q(b). #show p/1. #show -q/1.")
    (wv,) = solve(prog)
    assert apply_show(wv, prog.shows) == ["&k{ -q(b) }", "&k{ p(a) }", "&k{ p(b) }"]
    assert apply_show(wv, parse_text("#show q/2.").shows) == []


def test_apply_show_uses_atoms_true_in_every_answer_set():
    prog = parse_text("a, b. c. #show a/0. #show b/0. #show c/0.")
    (wv,) = solve(prog)
    assert apply_show(wv, prog.shows) == ["&k{ c }"]


def test_load_program_concatenates_files(tmp_path):
    one = tmp_path / "one.lp"
    two = tmp_path / "two.lp"
    one.write_text("p. #show p/0.")
    two.write_text("q :- p. #const n = 1.")
    program = load_program([str(one), str(two)])
    assert len(program.rules) == 2
    assert len(program.shows) == 1
    assert len(program.consts) == 1


def test_constants_apply_across_files(tmp_path):
    one, two, joined = tmp_path / "one.lp", tmp_path / "two.lp", tmp_path / "joined.lp"
    one.write_text("#const n = 3.\n")
    two.write_text("p(n). q :- &k{p(3)}.\n")
    joined.write_text(one.read_text() + two.read_text())
    code, text = run_files(one, two)
    assert (code, text) == run_files(joined)
    assert after_banner(text) == "Solving...\nAnswer: 1\n&k{ p(3) }\nSATISFIABLE\n"


def test_readme_lists_exactly_the_cli_options():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    listed = {}
    for paragraph in block.strip().split("\n\n"):
        command = "bench" if paragraph.startswith("epiworld bench") else "solve"
        listed[command] = set(re.findall(r"(?<!\S)--?[a-z][a-z-]*", paragraph))
    for command, parser in (("solve", _solve_parser()), ("bench", _bench_parser())):
        options = {s for a in parser._actions for s in a.option_strings}
        assert listed[command] == options - {"-h", "--help"}, command


# ---------------------------------------------------------------------------
# Instance generators


def test_eligibility_rules_template_parses():
    prog = parse_text(ELIGIBILITY_RULES)
    assert len(prog.rules) == 4


def test_gen_eligibility_is_deterministic_per_seed():
    a = print_program(gen_eligibility(10, seed=1))
    b = print_program(gen_eligibility(10, seed=1))
    c = print_program(gen_eligibility(10, seed=2))
    assert a == b
    assert a != c


def test_gen_eligibility_rejects_empty_rosters():
    with pytest.raises(ValueError, match="at least one student"):
        gen_eligibility(0)


def test_gen_eligibility_instances_are_safe_and_solvable():
    prog = gen_eligibility(3, seed=7)
    program_safety_check(prog)
    ground_program(prog)
    assert sum(1 for r in prog.rules if r.head and r.head[0].name == "student") == 3
    views = list(solve(prog))
    assert len(views) == 1


def test_yale_sources_ship_with_the_package():
    assert YALE_INSTANCES == ("yale01", "yale02", "yale03", "yale04",
                              "yale05", "yale_unsat")
    for name in YALE_INSTANCES:
        text = yale_source(name)
        assert parse_text(text).rules
    with pytest.raises(ValueError, match="unknown instance"):
        yale_source("yale99")


def test_yale_smallest_instance_plans_one_step():
    views = list(solve(parse_text(yale_source("yale01"))))
    assert len(views) == 1
    shown = {k.inner.atom.name for k in views[0].known()}
    assert "occ" in shown


def test_yale_world_view_counts_stay_pinned():
    counts = {name: sum(1 for _ in solve(parse_text(yale_source(name))))
              for name in YALE_INSTANCES}
    assert counts == {"yale01": 1, "yale02": 1, "yale03": 7,
                      "yale04": 33, "yale05": 131, "yale_unsat": 0}


# ---------------------------------------------------------------------------
# Benchmark harness


def test_bench_instances_lists_both_domains():
    names = [name for name, _ in bench_instances("eligibility", 3, seed=1)]
    assert names == ["eligible01", "eligible02", "eligible03"]
    names = [name for name, _ in bench_instances("yale", 2, seed=1)]
    assert names == ["yale01", "yale02", "yale_unsat"]
    # Past yale05, the instances are generated.
    instances = bench_instances("yale", 6, seed=1)
    assert [name for name, _ in instances] == [f"yale0{n}" for n in range(1, 7)] + ["yale_unsat"]
    assert instances[5][1] == print_program(gen_yale(6))


def test_gen_yale_extends_the_shipped_planning_instances():
    # Horizons 2 to 5 have the statements of yale02.lp to yale05.lp.
    for n in range(2, 6):
        assert print_program(gen_yale(n)) == print_program(parse_text(yale_source(f"yale0{n}")))
    assert sum(1 for _ in solve(gen_yale(5))) == 131
    assert sum(1 for _ in solve(gen_yale(5), "k15")) == 211
    with pytest.raises(ValueError, match="at least one step"):
        gen_yale(0)


def test_bench_writes_csv_rows(tmp_path):
    out = tmp_path / "bench.csv"
    with out.open("w", newline="", encoding="utf-8") as handle:
        rows = bench("eligibility", max_n=2, seed=1, timeout=120.0, reps=1,
                     semantics="g91", out=handle)
    assert [r["instance"] for r in rows] == ["eligible01", "eligible02"]
    assert all(r["world_views"] == 1 and r["timed_out"] == "false" for r in rows)
    with out.open() as handle:
        parsed = list(csv.DictReader(handle))
    assert [r["instance"] for r in parsed] == ["eligible01", "eligible02"]
    assert parsed[0]["world_views"] == "1"
    assert float(parsed[0]["avg_seconds"]) >= 0.0


def test_bench_marks_timeouts(tmp_path):
    rows = bench("eligibility", max_n=1, seed=1, timeout=1e-4, reps=1,
                 semantics="g91", out=io.StringIO())
    assert rows[0]["world_views"] == ""
    assert rows[0]["avg_seconds"] == ""
    assert rows[0]["timed_out"] == "true"


def _report_elapsed(text, semantics, conn):
    """Stand-in bench worker: ends at once and reports `text` as its time."""
    conn.send((1, float(text)))
    conn.close()


@pytest.mark.parametrize("elapsed, timeout, want", [
    ("5.0", 1.0, (None, None, True)),
    ("0.5", 60.0, (1, 0.5, False)),
])
def test_reported_time_decides_a_timeout(monkeypatch, elapsed, timeout, want):
    # The child ends before the parent stops waiting either way, so only
    # the time it reports can mark the slow one as timed out.
    monkeypatch.setattr(cli, "_bench_worker", _report_elapsed)
    assert _time_instance(elapsed, "g91", timeout, reps=1) == want


@pytest.mark.parametrize("out", ["", "missing/bench.csv"])
def test_bench_refuses_an_unwritable_output_before_timing(monkeypatch, tmp_path, capsys, out):
    # A directory and a path under a missing directory cannot be opened
    # for writing; no instance is timed first.
    def untimed(*args):
        raise AssertionError("an instance was timed")

    monkeypatch.setattr(cli, "_time_instance", untimed)
    argv = ["bench", "--domain", "yale", "--max-n", "1", "--reps", "1",
            "--out", str(tmp_path / out)]
    assert main(argv) == INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_bench_writes_the_same_csv_to_stdout_and_to_a_file(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_time_instance", lambda *args: (1, 0.5, False))
    out = tmp_path / "bench.csv"
    argv = ["bench", "--domain", "yale", "--max-n", "1", "--out"]
    assert main(argv + [str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv + ["-"]) == 0
    assert capsys.readouterr().out == out.read_bytes().decode("utf-8") == (
        "instance,semantics,world_views,avg_seconds,timed_out\r\n"
        "yale01,g91,1,0.500000,false\r\n"
        "yale_unsat,g91,1,0.500000,false\r\n")
