"""Solve loop of one benchmark run, in a fresh interpreter.

Imports epiworld from the source tree, generates the workload, and
solves its instances one at a time through the public path
(`epiworld.parse_text` then `epiworld.solve`) until the time budget is
spent.  Pass k solves draw k of the seed (see workloads.py).  Every
solve is written to stdout as one JSON line as soon as it ends, so a
parent that has to kill a runaway solve still has the others.
With tracing on, each draw gets an untraced and a traced pass, in
alternating order, and each traced pass also writes its per-layer totals.

    python3 perfbench/worker.py --workload yale --seed 1 --seconds 10 --trace 0
    python3 perfbench/worker.py --workload yale --seed 1 --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
CAL_LOOPS = 30_000
# Scaled times are seconds at the speed where calibrate() takes this
# long: its median on the machine the benchmark was defined on (Intel
# Xeon virtual machine, 2 vCPUs, Python 3.11.7).
CAL_REF_S = 0.0055
CAL_EVERY_S = 0.1


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work: integer arithmetic
    and dict stores, the kind of work the engine's inner loops do."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(CAL_LOOPS):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - start


class ScaledClock:
    """Solve time, raw and scaled to the machine speed at which
    `calibrate()` takes CAL_REF_S.

    On the machine the benchmark was defined on, speed drifts by about
    20% over a few seconds (other tenants share the host), which no
    number of repetitions in a 25-second run averages out.  So while the
    clock runs, an interval timer interrupts the solve every CAL_EVERY_S
    to calibrate, with the clock stopped, and each piece of time between
    two calibrations is scaled by their mean.  The signal handler runs
    between bytecodes of the main thread: the solve is paused, not
    changed.
    """

    def __init__(self, calibration: float):
        self.calibration = calibration
        self.raw = self.scaled = self.paused = self.since = 0.0
        self.busy = False

    def now(self) -> float:
        """`time.perf_counter()` without the calibration pauses."""
        return time.perf_counter() - self.paused

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        self.since = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        if not self.busy:
            self.mark()

    def mark(self) -> None:
        """Close the current piece of time with a calibration."""
        self.busy = True
        paused_at = time.perf_counter()
        piece = paused_at - self.since
        after = calibrate()
        self.raw += piece
        self.scaled += piece * CAL_REF_S * 2 / (self.calibration + after)
        self.calibration = after
        self.since = time.perf_counter()
        self.paused += self.since - paused_at
        self.busy = False

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.mark()


def solve_once(epiworld, workloads, inst, clock: ScaledClock) -> dict:
    """Time one instance from program text to its last world view."""
    gc.collect()
    clock.start()
    try:
        program = epiworld.parse_text(inst.text)
        views = epiworld.solve(program, semantics=inst.semantics)
        first_view = next(views, None)
        clock.mark()
        first = (clock.raw, clock.scaled)
        found = [] if first_view is None else [first_view, *views]
    finally:
        clock.stop()
    known = workloads.known_sets(found, epiworld.print_subjective, inst.rename)
    return {"inst": inst.name, "first_s": first[0], "solve_s": clock.raw,
            "first_n": first[1], "solve_n": clock.scaled, "views": len(known),
            "digest": workloads.digest(sorted(known)), "order": workloads.digest(known)}


def run_pass(epiworld, workloads, instances, pass_no: int, spans=None) -> None:
    """Solve every instance once; with `spans`, trace each solve and
    write the pass's per-layer totals."""
    calibration = calibrate()
    absent: list[str] = []
    totals: dict[str, float] = {}
    for inst in instances:
        clock = ScaledClock(calibration)
        tracer = spans.Tracer(clock.now) if spans else None
        try:
            with spans.traced(tracer) if spans else contextlib.nullcontext():
                record = solve_once(epiworld, workloads, inst, clock)
        except Exception as exc:  # a failing solve is counted, the run goes on
            record = {"inst": inst.name, "error": f"{type(exc).__name__}: {exc}"}
        calibration = clock.calibration
        record["pass"] = pass_no
        record["traced"] = tracer is not None
        emit(record)
        if tracer is not None:
            absent = tracer.absent
            scale = clock.scaled / clock.raw if clock.raw else 1.0
            for key, value in spans.layer_metrics(tracer, scale).items():
                totals[key] = totals.get(key, 0) + value
    if spans:
        emit({"layers": spans.with_ratios(totals), "absent": absent})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    clock = ScaledClock(calibrate())
    clock.start()
    sys.path.insert(0, str(ROOT / "src"))
    import epiworld
    import workloads
    instances = workloads.build(args.workload, args.seed, args.quick)
    clock.stop()
    if args.setup_only:
        emit({"setup_s": clock.raw, "setup_n": clock.scaled})
        return 0

    import spans
    deadline = time.perf_counter() + args.seconds
    cycles: list[float] = []
    while True:
        if cycles:
            instances = workloads.build(args.workload, args.seed, args.quick, len(cycles))
        cycle_start = time.perf_counter()
        # On odd draws the traced pass goes first, so that the order of
        # the two passes does not bias trace.overhead_s.
        tracing = [None, spans] if args.trace else [None]
        if len(cycles) % 2:
            tracing.reverse()
        for layer_spans in tracing:
            run_pass(epiworld, workloads, instances, len(cycles), layer_spans)
        cycles.append(time.perf_counter() - cycle_start)
        if (len(cycles) >= MIN_PASSES
                and time.perf_counter() + statistics.median(cycles) > deadline):
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit({"peak_rss_mb": peak_kib / 1024})
    return 0


if __name__ == "__main__":
    sys.exit(main())
