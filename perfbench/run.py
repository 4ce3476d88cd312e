"""World-view benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload yale --seed 1 --seconds 25 --trace 0

Set-up is timed in fresh interpreters; the solve loop runs in one more
fresh interpreter (perfbench/worker.py), one solve at a time, and every
result is checked against the pinned reference in references.json.
With `--trace 0` the last line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run that alternates with
an untraced one.  Lines before it, starting with `#`, give the machine,
the sample counts and the high percentiles.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 21
# A solve slower than this counts as undecided.
TIME_LIMIT_S = 60.0
# The whole run, set-up included, ends within this many seconds.
HARD_LIMIT_S = 170.0

END_TO_END = {"solve_s": "s", "first_view_s": "s", "decided_share": "ratio",
              "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "syntax.parse_s": "s", "grounder.safety_s": "s", "grounder.ground_s": "s",
    "grounder.ground_rules": "count", "grounder.simplify_s": "s",
    "grounder.simplify_calls": "count", "epistemic.k15_s": "s",
    "epistemic.translate_s": "s", "epistemic.aux_atoms": "count",
    "optimize.constraints_s": "s", "optimize.wfm_s": "s", "optimize.aux_fixed": "count",
    "stable.guess_enum_s": "s", "stable.candidates": "count", "epistemic.check_s": "s",
    "epistemic.check_calls": "count", "epistemic.accepted": "count",
    "epistemic.accept_ratio": "ratio", "epistemic.reduct_s": "s",
    "stable.consequences_s": "s", "stable.consequences_calls": "count",
    "stable.answer_sets_s": "s", "stable.answer_sets_calls": "count",
    "stable.engine_builds": "count", "trace.overhead_s": "s",
}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def worker(args: list[str], timeout: float) -> tuple[list[dict], bool]:
    """Run worker.py; return its JSON lines and whether it ended cleanly."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
        clean = proc.returncode == 0
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        clean = False
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            clean = False
    return records, clean


def source_id() -> str:
    """Git commit when there is one, and a digest of the package source."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "epiworld").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        commit = "none"
    return f"commit={commit} src_sha256={h.hexdigest()[:12]}"


def verdict(record: dict, ref: dict | None) -> bool:
    """A solve is decided when it ended in time and matches its reference."""
    return (ref is not None and "error" not in record
            and record["solve_s"] <= TIME_LIMIT_S
            and ("SAT" if record["views"] else "UNSAT") == ref["verdict"]
            and record["views"] == ref["views"]
            and record["digest"] == ref["digest"])


def median_sum(records: list[dict], names: list[str], key: str) -> float:
    """Sum over instances of each instance's median; a missing instance
    counts at the time limit."""
    total = 0.0
    for name in names:
        values = [r[key] for r in records if r["inst"] == name and key in r]
        total += statistics.median(values) if values else TIME_LIMIT_S
    return total


def tail(values: list[float]) -> str:
    n = len(values)
    if n < 2:
        return f"n={n}"
    q = statistics.quantiles(values, n=10)
    return f"median={statistics.median(values):.4f} p90={q[-1]:.4f} n={n}"


def pass_sums(records: list[dict], key: str) -> list[float]:
    """Per-pass totals, a pass being one solve of every instance."""
    sums: dict[int, float] = {}
    for r in records:
        if key in r:
            sums[r["pass"]] = sums.get(r["pass"], 0.0) + r[key]
    return list(sums.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="smallest instance only (self-test)")
    parser.add_argument("--references", type=Path, default=HERE / "references.json")
    args = parser.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "epiworld" / "__init__.py").is_file():
        return fail(f"no epiworld source tree under {ROOT}")
    try:
        references = json.loads(args.references.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read references: {exc}")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        common.append("--quick")

    # The first probe writes byte-code caches; it is not counted.  The
    # traced run reports no set-up time and skips the probes.
    setups = []
    for i in range(0 if args.trace else SETUP_PROBES + 1):
        budget = HARD_LIMIT_S - (time.perf_counter() - started)
        records, clean = worker([*common, "--setup-only"], budget)
        if not clean or not records:
            return fail("set-up probe failed")
        if i:
            setups.append(records[-1])

    budget = HARD_LIMIT_S - (time.perf_counter() - started)
    records, clean = worker([*common, "--seconds", str(args.seconds),
                             "--trace", str(args.trace)], budget)
    solves = [r for r in records if "inst" in r]
    layers = [r["layers"] for r in records if "layers" in r]
    final = records[-1] if records and "peak_rss_mb" in records[-1] else None
    names = [inst.name for inst in workloads.build(args.workload, args.seed, args.quick)]
    if not solves:
        return fail("the worker produced no result")

    failed = sum(not verdict(r, references.get(r["inst"])) for r in solves)
    attempted = len(solves)
    if not clean:  # the solve in progress when the worker was stopped
        attempted += 1
        failed += 1
    # Tracing must not change the answers.
    order: dict[tuple[str, int], set[str]] = {}
    for r in solves:
        if "order" in r:
            order.setdefault((r["inst"], r["pass"]), set()).add(r["order"])
    disagree = sorted({n for (n, _), seen in order.items() if len(seen) > 1})
    correct = failed == 0 and not disagree and final is not None

    untraced = [r for r in solves if not r["traced"]]
    traced = [r for r in solves if r["traced"]]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()} {source_id()}")
    print(f"# instances={','.join(names)} solves={attempted} failed={failed}")
    for key, metric in (("solve_n", "solve_s"), ("first_n", "first_view_s")):
        print(f"# {metric} per pass: {tail(pass_sums(untraced, key))}")
    print(f"# unscaled solve_s={median_sum(untraced, names, 'solve_s')} "
          f"first_view_s={median_sum(untraced, names, 'first_s')}"
          + (f" setup_s={statistics.median(r['setup_s'] for r in setups)}" if setups else ""))
    if disagree:
        print(f"# traced and untraced world views differ on {', '.join(disagree)}")
    for r in solves:
        if "error" in r:
            print(f"# {r['inst']}: {r['error']}")

    if args.trace:
        metrics = {k: statistics.median(layer[k] for layer in layers) if layers else 0.0
                   for k in PER_LAYER if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (median_sum(traced, names, "solve_n")
                                       - median_sum(untraced, names, "solve_n"))
        absent = {name for r in records for name in r.get("absent", ())}
        if absent:
            print(f"# absent layers: {', '.join(sorted(absent))}")
        units = PER_LAYER
    else:
        decided = sum(verdict(r, references.get(r["inst"])) for r in untraced)
        metrics = {
            "solve_s": median_sum(untraced, names, "solve_n"),
            "first_view_s": median_sum(untraced, names, "first_n"),
            "decided_share": decided / (len(untraced) + (not clean)),
            "peak_rss_mb": final["peak_rss_mb"] if final else 0.0,
            "setup_s": statistics.median(r["setup_n"] for r in setups),
        }
        units = END_TO_END
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
