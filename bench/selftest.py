"""Self-test of the benchmark itself (not of gemkit).

    python3 bench/selftest.py

For each workload it checks that

* two traced repetitions on the same seed give identical ``*.calls`` and
  ``*.distinct_frac`` -- each repetition is isolated in its own
  interpreter, so no memo survives from one to the next;
* a repetition told to expect one wrong value counts a failed operation
  rather than crashing or passing;

and, once, that ``bench/run.py`` refuses to run, without printing a result,
in a directory holding only ``BENCHMARK.json`` and ``bench/``.

Exits 0 when every check holds.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCH, ROOT, run_child
from workload import WORKLOADS

SEED = 7


def deterministic_keys(trace: dict) -> dict:
    return {k: v for k, v in trace.items()
            if k.endswith(".calls") or k.endswith(".distinct_frac")}


def check_workload(name: str, seed: int, scratch: Path) -> list[str]:
    problems = []
    first, second = (run_child(name, seed, 0, True, scratch) for _ in range(2))
    if first is None or second is None:
        return [f"{name}: a traced repetition died"]
    a, b = deterministic_keys(first["trace"]), deterministic_keys(second["trace"])
    diff = sorted(k for k in a if a[k] != b[k])
    if diff:
        problems.append(f"{name}: traced runs differ in {diff[:5]}")
    if first["failed"] or second["failed"]:
        problems.append(f"{name}: failures at the expected values: "
                        f"{first['reasons'] + second['reasons']}")
    wrong = run_child(name, seed, 0, False, scratch, expect_wrong=True)
    if wrong is None:
        problems.append(f"{name}: the wrong-expectation repetition crashed")
    elif not wrong["failed"]:
        problems.append(f"{name}: a wrong expected value was not counted")
    print(f"{name}: {len(a)} deterministic keys compared, "
          f"wrong expectation -> {wrong and wrong['failed']} failed op(s)")
    return problems


def check_guard(scratch: Path) -> list[str]:
    bare = Path(tempfile.mkdtemp(dir=scratch))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "reduce-dipoles", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py ran without gemkit sources"]
    print(f"guard: bare directory refused with exit {proc.returncode}")
    return []


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix=".bench_run-", dir=ROOT))
    problems = []
    try:
        problems += check_guard(scratch)
        for name in WORKLOADS:
            problems += check_workload(name, SEED, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
