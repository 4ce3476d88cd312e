"""Derive the pinned world-view references in references.json.

    python3 perfbench/pin.py

References come from the definitional oracle (`oracle_world_views`),
never from the solver under test, and each is cross-checked against
`solve` before it is written.  The eligibility program has more
subjective atoms than the oracle's 16-atom limit, so there each
student's one-student program goes through the oracle and the world
views are combined as a product; the students share no atom, so the
program's world views are exactly these products.  The oracle takes a
few minutes on yale05; pinning is done once, never in a timed run.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
sys.path.insert(0, str(workloads.ROOT / "src"))
import epiworld  # noqa: E402


def canonical_instances() -> dict[str, tuple[str, str]]:
    """Instance name -> (canonical program text, semantics)."""
    profiles = workloads.canonical_profiles()
    out = {f"eligibility{len(profiles)}": (
        "\n".join(workloads.eligibility_statements(
            profiles, [f"c{i}" for i in range(1, len(profiles) + 1)])), "g91")}
    for name in workloads.YALE_G91:
        out[name] = (workloads.yale_text(name), "g91")
    for name in workloads.YALE_K15:
        out[f"{name}_k15"] = (workloads.yale_text(name), "k15")
    nodes = workloads.GRAPH_NODES
    out[f"grounding{nodes}"] = (
        "\n".join(workloads.grounding_statements([f"v{i}" for i in range(nodes)])), "g91")
    return out


def known(views) -> list[list[str]]:
    return workloads.known_sets(views, epiworld.print_subjective, {})


def oracle_known(name: str, text: str, semantics: str) -> list[list[str]]:
    if not name.startswith("eligibility"):
        return known(epiworld.oracle_world_views(epiworld.parse_text(text), semantics))
    per_student = []
    for i, profile in enumerate(workloads.canonical_profiles(), start=1):
        part = "\n".join(workloads.eligibility_statements([profile], [f"c{i}"]))
        per_student.append(known(epiworld.oracle_world_views(epiworld.parse_text(part))))
    return [sorted(itertools.chain(*combo)) for combo in itertools.product(*per_student)]


def main() -> int:
    refs = {}
    for name, (text, semantics) in canonical_instances().items():
        started = time.perf_counter()
        expected = sorted(oracle_known(name, text, semantics))
        oracle_s = time.perf_counter() - started
        solved = sorted(known(epiworld.solve(epiworld.parse_text(text), semantics=semantics)))
        if solved != expected:
            print(f"error: solve disagrees with the oracle on {name}", file=sys.stderr)
            return 1
        refs[name] = {"semantics": semantics, "verdict": "SAT" if expected else "UNSAT",
                      "views": len(expected), "digest": workloads.digest(expected)}
        print(f"{name}: {len(expected)} views, oracle {oracle_s:.1f} s", flush=True)
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
