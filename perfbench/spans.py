"""Spans around epiworld's layers, recorded from outside the package.

Each traced function is replaced, for the duration of a `traced()`
block, in every epiworld module that holds it, so the call sites inside
`solve` go through the wrapper whichever module they import it from.
A span records its name, start, end and the index of the enclosing span;
self time is a span's duration minus that of its direct children.
Functions that no longer exist are reported as absent layers.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# (span name, home module, attribute)
LAYERS = (
    ("syntax.parse", "epiworld.syntax", "parse_text"),
    ("grounder.safety", "epiworld.grounder", "program_safety_check"),
    ("grounder.ground", "epiworld.grounder", "ground_program"),
    ("grounder.simplify", "epiworld.grounder", "simplify"),
    ("epistemic.k15", "epiworld.epistemic", "k15_transform"),
    ("epistemic.translate", "epiworld.epistemic", "translate_guess"),
    ("optimize.constraints", "epiworld.optimize", "add_consistency_constraints"),
    ("optimize.wfm", "epiworld.optimize", "wfm_propagate"),
    ("stable.guess_enum", "epiworld.stable", "projected_answer_sets"),
    ("epistemic.check", "epiworld.epistemic", "check_candidate"),
    ("epistemic.reduct", "epiworld.epistemic", "apply_valuation"),
    ("stable.consequences", "epiworld.stable", "consequences"),
    ("stable.answer_sets", "epiworld.stable", "answer_sets"),
)

COUNTERS = ("grounder.ground_rules", "grounder.simplify_calls", "epistemic.aux_atoms",
            "optimize.aux_fixed", "stable.candidates", "epistemic.check_calls",
            "epistemic.accepted", "stable.consequences_calls", "stable.answer_sets_calls")


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    # (name, start, end, parent index or -1)
    spans: list[list] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    stack: list[int] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out


def _count_result(tracer: Tracer, name: str, args, result) -> None:
    c = tracer.counts
    if name == "grounder.ground":
        c["grounder.ground_rules"] += len(result.rules)
    elif name == "grounder.simplify":
        c["grounder.simplify_calls"] += 1
    elif name == "epistemic.translate":
        c["epistemic.aux_atoms"] += len(result[1])
    elif name == "optimize.wfm":
        aux = set(args[2].values())
        c["optimize.aux_fixed"] += len(aux & result.facts)
    elif name == "epistemic.check":
        c["epistemic.check_calls"] += 1
        c["epistemic.accepted"] += result is not None
    elif name == "stable.consequences":
        c["stable.consequences_calls"] += 1
    elif name == "stable.answer_sets":
        c["stable.answer_sets_calls"] += 1


class _TimedIterator:
    """Charges each `next()` of the guess enumeration to its own span."""

    def __init__(self, tracer: Tracer, name: str, inner):
        self.tracer, self.name, self.inner = tracer, name, iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        index = self.tracer.open(self.name)
        try:
            item = next(self.inner)
        finally:
            self.tracer.close(index)
        self.tracer.counts["stable.candidates"] += 1
        return item


def _wrap(tracer: Tracer, name: str, fn):
    iterates = name == "stable.guess_enum"

    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if iterates:
            return _TimedIterator(tracer, name, result)
        _count_result(tracer, name, args, result)
        return result

    return traced


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every layer function through `tracer` inside the block."""
    patched: list[tuple[object, str, object]] = []
    tracer.absent = []
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "epiworld" or n.startswith("epiworld."))]
    try:
        for name, home, attr in LAYERS:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                tracer.absent.append(name)
                continue
            wrapper = _wrap(tracer, name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict[str, float]:
    """Self times (multiplied by `scale`) and counts of what the tracer saw."""
    self_s = tracer.self_times()
    out = {f"{name}_s": self_s.get(name, 0.0) * scale for name, _, _ in LAYERS}
    out.update(tracer.counts)
    return out


def with_ratios(totals: dict[str, float]) -> dict[str, float]:
    """Add the metrics derived from summed counts."""
    out = dict(totals)
    calls = totals["epistemic.check_calls"]
    out["epistemic.accept_ratio"] = totals["epistemic.accepted"] / calls if calls else 0.0
    out["stable.engine_builds"] = (totals["stable.consequences_calls"]
                                   + totals["stable.answer_sets_calls"])
    return out
