"""Quick self-test of the benchmark, over the smallest instance of each workload.

    python3 perfbench/selftest.py

Checks that
  * every metric of BENCHMARK.json is printed by name with its unit, in
    untraced and traced runs, and the runs are correct (which includes
    traced and untraced world views agreeing);
  * a corrupted reference digest is reported as a failure;
  * without the epiworld source tree the benchmark exits non-zero and
    prints no result.
Exits 0 when all hold.  Scratch files go to perfbench/out/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "7",
           "--seconds", "1", "--quick", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            out = result(run("--workload", workload, "--trace", trace))
            expected = {m["name"]: m["unit"] for m in spec[group]}
            printed = {k: v["unit"] for k, v in out["metrics"].items()}
            if printed != expected:
                problems.append(f"{workload} trace {trace}: metrics {printed} != {expected}")
            if not out["correct"] or out["failed"]:
                problems.append(f"{workload} trace {trace}: run not correct")
        print(f"{workload}: metrics and verdicts ok", flush=True)

    OUT.mkdir(exist_ok=True)
    refs = json.loads((HERE / "references.json").read_text())
    refs["yale01"]["digest"] = "0" * 64
    corrupt = OUT / "corrupt-references.json"
    corrupt.write_text(json.dumps(refs))
    out = result(run("--workload", "yale", "--trace", "0", "--references", str(corrupt)))
    if out["correct"] or not out["failed"] or out["metrics"]["decided_share"]["value"] >= 1:
        problems.append("a corrupted reference digest was not reported as a failure")
    print("corrupted reference: reported as failure", flush=True)

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("--workload", "yale", "--trace", "0", cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without a source tree the benchmark did not fail cleanly")
    shutil.rmtree(bare)
    print("bare directory: exits non-zero without a result", flush=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
