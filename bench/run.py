"""gemkit benchmark runner (stdlib only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gemkit checkout.  Each repetition of the workload
runs in a fresh interpreter (``bench/workload.py``), so memos start cold
every time; all phases of a repetition share that one process.  Two
repetitions run at once, one per CPU (``LANES``); each is still a single
process.

``--trace 0`` repeats the workload, with a new seeded input per
repetition, while more than half of the next repetition is expected to fit
in ``--seconds``, and reports the median of each end-to-end metric over the
repetitions.  Before each repetition a lane also times ``SETUP_PROBES``
set-up-only processes, so ``setup_s`` has many samples.  ``--trace 1``
runs repetition 0 twice, untraced and traced, and reports the per-layer
metrics of the traced one; ``trace.overhead_frac`` compares the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the provenance and a summary per raw measurement.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from workload import GUARD_EXIT, WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_cal": "calib", "phase1_cal": "calib",
              "phase2_cal": "calib", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 150
# Slow spells on a shared host hit each CPU on its own, so running one
# repetition per CPU samples two of them at once; more lanes than two would
# measure memory-bandwidth contention between the repetitions.
LANES = min(2, len(os.sched_getaffinity(0)))
# Set-up-only processes per repetition: set-up is short, so one sample per
# repetition would leave long workloads with a handful of samples per run.
SETUP_PROBES = 2

_live: set[subprocess.Popen] = set()
_stopping = threading.Event()


class GuardError(RuntimeError):
    pass


def _terminate(signum, frame):
    """Kill every running repetition, then unwind (threads reap them)."""
    _stopping.set()
    for proc in list(_live):
        proc.kill()
    sys.exit(128 + signum)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def run_child(workload: str, seed: int, rep: int, trace: bool, scratch: Path,
              setup_only: bool = False,
              expect_wrong: bool = False) -> dict | None:
    """One repetition in a fresh interpreter; None if it died or hung.
    ``expect_wrong`` serves the self-test only."""
    if _stopping.is_set():
        return None
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--scratch", str(scratch)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if expect_wrong:
        cmd.append("--expect-wrong")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(cmd + ["--spawned", repr(time.monotonic())],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    _live.add(proc)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"rep {rep}: timed out after {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return None
    finally:
        _live.discard(proc)
    if proc.returncode == GUARD_EXIT:
        _stopping.set()
        raise GuardError(err.strip())
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"rep {rep}: exit {proc.returncode}\n{err[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_reps(workload: str, seed: int, seconds: float,
             scratch_root: Path) -> tuple[list[dict | None], list[dict]]:
    """Repeat the workload on every lane until ``seconds`` are used.

    A lane starts another repetition while more than half of it is expected
    to fit, judged by the mean lane time per repetition so far, so a run
    ends within about half a repetition of ``seconds``.  Returns the
    repetitions' reports and every set-up report, probes included.
    """
    reps, setups, durations = [], [], []
    lock = threading.Lock()
    start = time.monotonic()

    def next_rep():
        with lock:
            elapsed = time.monotonic() - start
            if _stopping.is_set() or (
                    durations and
                    elapsed + statistics.fmean(durations) / 2 > seconds):
                return None
            reps.append(None)
            return len(reps) - 1

    def lane():
        while (rep := next_rep()) is not None:
            t0 = time.monotonic()
            for _ in range(SETUP_PROBES):
                probe = run_child(workload, seed, rep, False,
                                  Path(tempfile.mkdtemp(dir=scratch_root)),
                                  setup_only=True)
                if probe is not None:
                    with lock:
                        setups.append(probe)
            result = run_child(workload, seed, rep, False,
                               Path(tempfile.mkdtemp(dir=scratch_root)))
            with lock:
                durations.append(time.monotonic() - t0)
                reps[rep] = result
                if result is not None:
                    setups.append(result)

    with ThreadPoolExecutor(LANES) as pool:
        for future in [pool.submit(lane) for _ in range(LANES)]:
            future.result()
    return reps, setups


def run_traced(workload: str, seed: int, scratch_root: Path) -> list[dict | None]:
    """Repetition 0 untraced and traced, side by side."""
    with ThreadPoolExecutor(2) as pool:
        futures = [pool.submit(run_child, workload, seed, 0, traced,
                               Path(tempfile.mkdtemp(dir=scratch_root)))
                   for traced in (False, True)]
        return [f.result() for f in futures]


def summary(name: str, values: list[float], unit: str) -> str:
    return (f"{name}: median {statistics.median(values):.6g} {unit}, "
            f"min {min(values):.6g}, max {max(values):.6g}, n={len(values)}")


def end_to_end(done: list[dict], setups: list[dict]) -> dict:
    """Medians over repetitions; ``setup_s`` is the median of the set-up
    time scaled to the reference host speed, over the set-up probes and the
    repetitions."""
    value = {"setup_s": statistics.median(r["setup_ref_s"] for r in setups)}
    for name in ("wall_cal", "phase1_cal", "phase2_cal", "peak_rss_mb"):
        value[name] = statistics.median(r[name] for r in done)
    return {name: {"value": value[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gemkit benchmark runner")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not (ROOT / "src" / "gemkit" / "__init__.py").is_file():
        print(f"checkout guard: no gemkit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    scratch_root = Path(tempfile.mkdtemp(prefix=".bench_run-", dir=ROOT))
    try:
        if args.trace:
            reps = run_traced(args.workload, args.seed, scratch_root)
        else:
            reps, setups = run_reps(args.workload, args.seed, args.seconds,
                                    scratch_root)
    except GuardError as exc:
        print(exc, file=sys.stderr)
        return GUARD_EXIT
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)

    done = [r for r in reps if r is not None]
    crashed = len(reps) - len(done)
    if not done or (args.trace and crashed):
        print("no repetition finished; nothing to report", file=sys.stderr)
        return 1
    # a repetition that died counts all its operations as failed
    per_rep_ops = max(r["attempted"] for r in done)
    attempted = sum(r["attempted"] for r in done) + crashed * per_rep_ops
    failed = sum(r["failed"] for r in done) + crashed * per_rep_ops
    for r in done:
        for reason in r["reasons"]:
            print(f"FAILED rep {r['provenance']['rep']}: {reason}", file=sys.stderr)

    provenance = dict(done[0]["provenance"], commit=git_commit(),
                      workload=args.workload, reps=len(reps), crashed=crashed,
                      lanes=LANES)
    del provenance["rep"]
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(f"ops {attempted}, failed {failed}, failed_frac {failed / attempted:.6g}")

    if args.trace:
        untraced, traced = done
        values = dict(traced["trace"])
        values["trace.overhead_frac"] = traced["wall_cal"] / untraced["wall_cal"] - 1
        metrics = {name: {"value": values[name], "unit": tracer.metric_unit(name)}
                   for name in tracer.metric_names()}
    else:
        for name in ("setup_s", "setup_ref_s"):
            print(summary(name, [r[name] for r in setups], "s"))
        for name, unit in (("wall_s", "s"), ("phase1_s", "s"), ("phase2_s", "s"),
                           ("calib_s", "s"), ("peak_rss_mb", "MB")):
            print(summary(name, [r[name] for r in done], unit))
        metrics = end_to_end(done, setups)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
