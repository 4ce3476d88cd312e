"""Command-line driver and benchmark harness.

Output mimics the classic ASP solver convention: a version banner,
`Solving...`, one `Answer: i` block per world view listing the
subjective atoms that hold in it, then a SATISFIABLE or UNSATISFIABLE
verdict.  Exit status is 10 when at least one world view exists, 20
when none does, and 65 on bad input.  With `--stats`, the solve's
counts and times follow on stderr.

The `bench` subcommand times the solver on two generated families, the
scholarship-eligibility programs and the ground Yale-shooting planning
instances (those shipped with the package and, past yale05, those
`gen_yale` writes), writing one CSV row per instance with the average
solving time and the averages of the solve's parse, grounding, engine
build, guess and check times.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import random
import sys
import time
from dataclasses import dataclass
from importlib import resources
from multiprocessing import Pipe, Process
from pathlib import Path
from typing import TextIO

from .epistemic import SolveStats, WorldView, oracle_world_views, solve
from .grounder import GroundingError, SafetyError
from .stable import REJECTIONS
from .syntax import (KAtom, ObjLiteral, Program, SourceError, parse_text,
                     print_atom, print_program, print_subjective)

VERSION = "0.1.0"
BANNER = f"epiworld version {VERSION}"

SATISFIABLE = 10
UNSATISFIABLE = 20
INPUT_ERROR = 65


@dataclass
class RunConfig:
    files: tuple[str, ...]
    n_models: int = 0
    semantics: str = "g91"
    mode: str = "solve"
    stats: bool = False


def load_program(paths) -> Program:
    """One program from the given files; `#const` applies across them,
    and an error names the file it is in."""
    paths = [str(path) for path in paths]
    return parse_text(*(Path(path).read_text(encoding="utf-8") for path in paths),
                      names=paths)


def apply_show(wv: WorldView, shows) -> list[str]:
    """Displayed subjective atoms of one world view.

    Without directives the view's true subjective atoms are shown as
    given.  With directives, any ground atom of a shown predicate that
    holds in every answer set is displayed in `&k{ a }` form, whether or
    not the program ever mentioned it subjectively.  Machinery atoms
    are projected away first, so they are never displayed.  The
    answer sets are never listed: `WorldView.cautious` refines one
    answer set at a time in each part.
    """
    if not shows:
        return [print_subjective(k) for k in wv.known()]
    cautious = wv.cautious()
    wanted = {(d.name, d.arity, d.strong_neg) for d in shows}
    atoms = [a for a in cautious if (a.name, len(a.args), a.strong_neg) in wanted]
    return [print_subjective(KAtom(ObjLiteral(a, 0)))
            for a in sorted(atoms, key=print_atom)]


def run(config: RunConfig, out=None) -> int:
    """Print the world views of `config.files` to `out`.  With
    `config.stats`, the solve's counts follow the verdict on stderr, one
    `name: count` line each: the parts, their distinct shapes and the
    non-tight ones, the candidates, the accepted ones and the rejections
    by reason in the order the check meets them, then the ground
    program's size, the number of failed literals the parts' roots fix,
    and the times of parsing, of grounding, of the engine build, of the
    guesses and of the checks, in seconds."""
    out = sys.stdout if out is None else out
    if config.stats and config.mode == "oracle":
        print("error: --stats needs --mode solve: the oracle keeps no counts", file=sys.stderr)
        return INPUT_ERROR
    out.write(BANNER + "\n")
    began = time.perf_counter()
    try:
        program = load_program(config.files)
    except (OSError, UnicodeDecodeError, SourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    stats = SolveStats(parse_s=time.perf_counter() - began)
    out.write("Solving...\n")
    count = 0
    try:
        if config.mode == "oracle":
            views = oracle_world_views(program, config.semantics)
        else:
            views = solve(program, config.semantics, stats)
        for view in itertools.islice(views, config.n_models or None):
            count += 1
            out.write(f"Answer: {count}\n")
            out.write(" ".join(apply_show(view, program.shows)) + "\n")
    except (SafetyError, GroundingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    out.write("SATISFIABLE\n" if count else "UNSATISFIABLE\n")
    if config.stats:
        out.flush()  # so the counts follow the verdict when both streams share a file
        print(f"Parts: {stats.parts}\nPart shapes: {stats.shapes}\n"
              f"Non-tight parts: {stats.nontight_parts}\nCandidates: {stats.candidates}\n"
              f"Accepted: {stats.accepted}", file=sys.stderr)
        for reason in REJECTIONS:
            print(f"Rejected, {reason}: {stats.rejections[reason]}", file=sys.stderr)
        print(f"Ground rules: {stats.ground_rules}\nAtoms: {stats.atoms}\n"
              f"Fixed atoms: {stats.fixed_atoms}\nFailed literals: {stats.failed_literals}\n"
              f"Parse: {stats.parse_s:.4f} s\n"
              f"Grounding: {stats.ground_s:.4f} s\nEngine build: {stats.engine_s:.4f} s\n"
              f"Guess: {stats.guess_s:.4f} s\nCheck: {stats.check_s:.4f} s", file=sys.stderr)
    return SATISFIABLE if count else UNSATISFIABLE


# ---------------------------------------------------------------------------
# Instance generation


ELIGIBILITY_RULES = """\
eligible(X) :- high(X).
eligible(X) :- minority(X), fair(X).
-eligible(X) :- -fair(X), -high(X).
interview(X) :- not &k{ eligible(X) }, not &k{ -eligible(X) }, student(X).
"""

_PROFILES = ("high", "fair", "minority", "disjunction", "negative")


def gen_eligibility(n_students: int, seed: int = 0) -> Program:
    """Scholarship-eligibility instance with one random profile per
    student: known-high, known-fair, fair minority, a fair-or-high
    disjunction, or known-bad grades."""
    if n_students < 1:
        raise ValueError("need at least one student")
    rng = random.Random(seed)
    lines = [ELIGIBILITY_RULES]
    for i in range(1, n_students + 1):
        lines.append(f"student(s{i}).")
    for i in range(1, n_students + 1):
        profile = rng.choice(_PROFILES)
        if profile == "high":
            lines.append(f"high(s{i}).")
        elif profile == "fair":
            lines.append(f"fair(s{i}).")
        elif profile == "minority":
            lines.append(f"minority(s{i}).")
            lines.append(f"fair(s{i}).")
        elif profile == "disjunction":
            lines.append(f"fair(s{i}),high(s{i}).")
        else:
            lines.append(f"-fair(s{i}).")
            lines.append(f"-high(s{i}).")
    return parse_text("\n".join(lines))


YALE_INSTANCES = ("yale01", "yale02", "yale03", "yale04", "yale05", "yale_unsat")


def yale_source(name: str) -> str:
    if name not in YALE_INSTANCES:
        raise ValueError(f"unknown instance {name!r}")
    return resources.files("epiworld").joinpath(f"data/yale/{name}.lp").read_text("utf-8")


YALE_STEP = """\
occ(load,{s}),occ(shoot,{s}),occ(wait,{s}).
:- occ(load,{s}), occ(shoot,{s}).
:- occ(load,{s}), occ(wait,{s}).
:- occ(shoot,{s}), occ(wait,{s}).
loaded({u}) :- occ(load,{s}).
-loaded({u}) :- occ(shoot,{s}).
-alive({u}) :- occ(shoot,{s}), loaded({s}).
alive({u}) :- alive({s}), not -alive({u}).
-alive({u}) :- -alive({s}), not alive({u}).
loaded({u}) :- loaded({s}), not -loaded({u}).
-loaded({u}) :- -loaded({s}), not loaded({u}).
:- occ(load,{s}), not &k{{ occ(load,{s}) }}.
:- occ(shoot,{s}), not &k{{ occ(shoot,{s}) }}.
:- occ(wait,{s}), not &k{{ occ(wait,{s}) }}.
"""


def gen_yale(horizon: int) -> Program:
    """Yale-shooting planning instance over the time points t0 to
    t<horizon>, in the pattern of the shipped yale02 to yale05: the
    gun's initial state is unknown, each step does one known action, and
    the turkey must be dead at the end.  Horizon 5 is yale05."""
    if horizon < 1:
        raise ValueError("need at least one step")
    lines = ["alive(t0).", "loaded(t0),-loaded(t0)."]
    lines += [YALE_STEP.format(s=f"t{t}", u=f"t{t + 1}") for t in range(horizon)]
    lines.append(f":- not &k{{ -alive(t{horizon}) }}.")
    return parse_text("\n".join(lines))


# ---------------------------------------------------------------------------
# Benchmark harness


# The per-layer times of `SolveStats` that `bench` averages per instance.
BENCH_LAYERS = ("parse_s", "ground_s", "engine_s", "guess_s", "check_s")


def _bench_worker(text: str, semantics: str, conn) -> None:
    started = time.perf_counter()
    program = parse_text(text)
    stats = SolveStats(parse_s=time.perf_counter() - started)
    count = sum(1 for _ in solve(program, semantics=semantics, stats=stats))
    conn.send((count, time.perf_counter() - started,
               [getattr(stats, name) for name in BENCH_LAYERS]))
    conn.close()


def _time_instance(text: str, semantics: str, timeout: float, reps: int):
    """Average solving time over `reps` fresh processes.

    Returns (world_views, avg_seconds, timed_out, layers), where layers
    holds the average of each time of `BENCH_LAYERS`; counts and times
    are None when any repetition hit the timeout or died.  A repetition
    whose reported solving time exceeds `timeout` counts as timed out
    even if it ended before the parent stopped waiting, so the verdict
    does not depend on how the parent was scheduled.
    """
    count = None
    seconds, layers = [], []
    for _ in range(reps):
        parent, child = Pipe(duplex=False)
        proc = Process(target=_bench_worker, args=(text, semantics, child))
        proc.start()
        child.close()
        proc.join(timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join()
            return None, None, True, None
        if not parent.poll():
            return None, None, True, None
        count, elapsed, times = parent.recv()
        if elapsed > timeout:
            return None, None, True, None
        seconds.append(elapsed)
        layers.append(times)
    return (count, sum(seconds) / len(seconds), False,
            [sum(column) / len(column) for column in zip(*layers)])


def bench_instances(domain: str, max_n: int, seed: int):
    if domain == "eligibility":
        return [(f"eligible{n:02d}", print_program(gen_eligibility(n, seed)))
                for n in range(1, max_n + 1)]
    shipped = [(f"yale{n:02d}", yale_source(f"yale{n:02d}")) for n in range(1, min(max_n, 5) + 1)]
    generated = [(f"yale{n:02d}", print_program(gen_yale(n))) for n in range(6, max_n + 1)]
    return shipped + generated + [("yale_unsat", yale_source("yale_unsat"))]


def bench(domain: str, max_n: int, seed: int, timeout: float, reps: int,
          semantics: str, out: TextIO) -> list[dict]:
    """Time each instance and write its CSV row to the text stream
    `out` as soon as it is timed: its average solving time, then the
    average of each `SolveStats` time of `BENCH_LAYERS`."""
    writer = csv.DictWriter(out, fieldnames=["instance", "semantics", "world_views",
                                             "avg_seconds", "timed_out", *BENCH_LAYERS])
    writer.writeheader()
    rows = []
    for name, text in bench_instances(domain, max_n, seed):
        count, avg, timed_out, layers = _time_instance(text, semantics, timeout, reps)
        rows.append({
            "instance": name,
            "semantics": semantics,
            "world_views": "" if timed_out else count,
            "avg_seconds": "" if timed_out else f"{avg:.6f}",
            "timed_out": "true" if timed_out else "false",
        })
        rows[-1].update(zip(BENCH_LAYERS, [""] * len(BENCH_LAYERS) if timed_out
                            else [f"{value:.6f}" for value in layers]))
        writer.writerow(rows[-1])
    return rows


# ---------------------------------------------------------------------------
# Entry points


def _solve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epiworld", description="world-view solver for epistemic logic programs")
    parser.add_argument("-n", dest="n_models", type=int, default=0, metavar="N",
                        help="stop after N world views (0 = all)")
    parser.add_argument("--semantics", choices=("g91", "k15"), default="g91")
    parser.add_argument("--mode", choices=("solve", "oracle"), default="solve",
                        help="oracle checks all valuations by definition (slow)")
    parser.add_argument("--stats", action="store_true",
                        help="print the solve's counts and times to stderr after the verdict")
    parser.add_argument("files", nargs="+", metavar="FILE")
    return parser


def _bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epiworld bench", description="time the solver on generated instances")
    parser.add_argument("--domain", choices=("eligibility", "yale"), required=True)
    parser.add_argument("--max-n", type=int, default=5, metavar="N")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=120.0, metavar="SECONDS")
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--out", default=None, metavar="CSV")
    parser.add_argument("--semantics", choices=("g91", "k15"), default="g91")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["bench"]:
        args = _bench_parser().parse_args(argv[1:])
        for name, value in (("--max-n", args.max_n), ("--reps", args.reps)):
            if value < 1:
                print(f"error: {name} must be positive", file=sys.stderr)
                return INPUT_ERROR
        if not 0 < args.timeout < math.inf:  # nan fails both comparisons
            print("error: --timeout must be finite and positive", file=sys.stderr)
            return INPUT_ERROR
        # Open the output first: a path that cannot be written is refused
        # before any instance is timed.
        try:
            out = (contextlib.nullcontext(sys.stdout) if args.out in (None, "-")
                   else open(args.out, "w", newline="", encoding="utf-8"))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return INPUT_ERROR
        with out as handle:
            bench(args.domain, args.max_n, args.seed, args.timeout, args.reps,
                  args.semantics, handle)
        return 0
    if argv[:1] == ["solve"]:
        argv = argv[1:]
    args = _solve_parser().parse_args(argv)
    if args.n_models < 0:
        print("error: -n must be non-negative", file=sys.stderr)
        return INPUT_ERROR
    config = RunConfig(files=tuple(args.files), n_models=args.n_models,
                       semantics=args.semantics, mode=args.mode, stats=args.stats)
    return run(config)


def script() -> None:
    sys.exit(main())
