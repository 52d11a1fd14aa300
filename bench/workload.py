"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 bench/workload.py --workload NAME --seed N --rep R \
        --spawned T --scratch DIR [--setup-only] [--trace] [--expect-wrong]

``bench/run.py`` starts this once per repetition, so every repetition
begins with cold ``lru_cache`` memos, as every gemkit CLI invocation does.
It imports gemkit from the ``src/`` directory of the checkout it sits in
and refuses (exit 3) if the import resolves anywhere else.

A workload is two timed phases, reported as ``phase1_s`` and
``phase2_s``, run one after the other in this one process, and as
``phase1_cal`` and ``phase2_cal``, each divided by the time of a
calibration loop sampled through the phase (``Calibrator``).
Set-up time is reported as measured (``setup_s``) and scaled to the
reference host speed by the calibration samples taken right after it
(``setup_ref_s``).  ``--setup-only`` stops there.

The last line of standard output is one JSON object with the timings, the
calibration time, the peak RSS, the operation and failure counts and, with
``--trace``, the raw per-layer values from ``tracer.Tracer``.  Outputs are
checked after the timed region; a wrong or missing output is counted as a
failed operation, never raised.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GUARD_EXIT = 3

# Every acceptance check of the order <= 8 corpus must pass at least once.
ACCEPTANCE_CHECKS = ("euler-permutation-independent", "homology-dual-oracle",
                     "genus-subgenus-residuals", "weak-simple-characterization",
                     "betti2-identity", "subgenus-pinned", "collapse-identity",
                     "bounds")
CORPUS_BY_ORDER = {2: 1, 4: 1, 6: 3, 8: 32}
CLI_COMMANDS = ("info", "genus", "classify", "homology", "handles")
SUM_SIZES = (10, 40)
# (dipoles per gem, gems per phase).  One 20-dipole reduction takes
# ~0.15 s and its time varies by ~20% with the seeded input, so phase 1
# reduces four such gems, to about half the length of phase 2.
REDUCE_INPUTS = ((20, 4), (40, 1))


class Phase(NamedTuple):
    name: str
    metric: str                                  # "phase1" or "phase2"
    run: Callable[[], object]                    # timed; returns the output
    check: Callable[[object, "Checker"], None]   # untimed


def import_gemkit():
    """Import gemkit from this checkout's src/, or exit with GUARD_EXIT."""
    sys.path.insert(0, str(SRC))
    try:
        import gemkit
    except ImportError as exc:
        print(f"checkout guard: cannot import gemkit from {SRC}: {exc}",
              file=sys.stderr)
        sys.exit(GUARD_EXIT)
    where = Path(gemkit.__file__).resolve().parent
    if where != (SRC / "gemkit").resolve():
        print(f"checkout guard: gemkit resolved to {where}, not {SRC / 'gemkit'}",
              file=sys.stderr)
        sys.exit(GUARD_EXIT)
    for layer in ("cli", "fixtures"):  # not imported by gemkit/__init__
        importlib.import_module(f"gemkit.{layer}")
    return gemkit


_CALIB_RNG = random.Random(12345)
_CALIB_PERMS = [tuple(_CALIB_RNG.sample(range(2000), 2000)) for _ in range(6)]
# A slow spell of the host can start and end within one long phase, so the
# host's speed is sampled all through it, not only at its ends.
SAMPLE_EVERY_S = 0.5
# One sample varies by up to ~20% from the next, so a short phase, and
# set-up, are compared with several samples in a row at their edges.
EDGE_SAMPLES = 3
# calibrate()'s time on the 2-vCPU Xeon host the benchmark was tuned on:
# set-up time is reported in seconds at that host's speed.
CALIB_REF_S = 0.05


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that uses no gemkit code:
    union-find, tuple slicing and dict inserts, the operations gemkit's hot
    paths are made of.  It keeps one small dict at a time, so it adds
    little to peak RSS."""
    n = len(_CALIB_PERMS[0])
    t0 = time.perf_counter()
    for _ in range(8):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for perm in _CALIB_PERMS:
            seen = {}
            for v in range(n):
                a, b = find(v), find(perm[v])
                if a != b:
                    parent[a] = b
                seen[(v, perm[v])] = perm[v:v + 3]
        labels = tuple(find(v) for v in range(n))
        seen[labels] = len(set(labels))
    return time.perf_counter() - t0


class Calibrator:
    """Times phases against ``calibrate()`` run in the same process.

    Before and after a phase ``EDGE_SAMPLES`` times, and every
    ``SAMPLE_EVERY_S`` seconds during it (from a SIGALRM handler, in this
    thread), it runs ``calibrate()``.
    The time spent sampling is kept out of the phase's time and out of
    ``clock()``, which the tracer uses.  A phase's calibrated time is its
    seconds divided by the mean of its samples, so the speed of this
    process and a slow spell of the host, which slow both alike, cancel
    out.
    """

    def __init__(self):
        self.samples = []
        self.paused = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.paused += time.perf_counter() - t0

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def edge(self) -> float:
        """Mean time of ``EDGE_SAMPLES`` samples in a row."""
        for _ in range(EDGE_SAMPLES):
            self._sample()
        return statistics.fmean(self.samples[-EDGE_SAMPLES:])

    def timed(self, fn):
        """``fn()``, its seconds net of sampling, and its calibrated time."""
        first = len(self.samples)
        self.edge()
        previous = signal.signal(signal.SIGALRM, self._sample)
        t0 = self.clock()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = self.clock() - t0
            signal.signal(signal.SIGALRM, previous)
        self.edge()
        return result, seconds, seconds / statistics.fmean(self.samples[first:])


def seeded_rng(seed: int, rep: int, tag: int) -> random.Random:
    return random.Random(seed * 1_000_003 + rep * 1_009 + tag)


def relabelled(g, rng):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return g.relabel(perm)


def guarded(fn, *args):
    """Run one operation; an exception becomes its result, not a crash."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - a failure is counted, not raised
        return exc


class Checker:
    """Counts operations and failed operations, keeping the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def op(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{name}: {'; '.join(problems)}")


# ---------------------------------------------------------------------------
# catalogue-crys5: generate the order <= 8 crystallization corpus, verify it
# ---------------------------------------------------------------------------

def catalogue_phases(gk, seed, rep, scratch, wrong) -> list[Phase]:
    # Exhaustive enumeration: the seed changes nothing.
    out = scratch / "crys5.jsonl"
    expected = dict(CORPUS_BY_ORDER)
    if wrong:
        expected[8] += 1

    def check_generate(result, chk):
        records = guarded(gk.catalogue.read_catalogue, out)
        if isinstance(result, Exception) or isinstance(records, Exception):
            chk.op("generate", [f"raised {result!r} / {records!r}"])
            return
        by_order = {}
        for rec in records:
            by_order[rec.order] = by_order.get(rec.order, 0) + 1
        # one operation per expected record; a missing or extra one failed
        for p in sorted(set(expected) | set(by_order)):
            n, got = expected.get(p, 0), by_order.get(p, 0)
            for _ in range(min(n, got)):
                chk.op(f"generate order {p}", [])
            for _ in range(abs(n - got)):
                chk.op(f"generate order {p}",
                       [f"{got} records of order {p}, expected {n}"])

    def check_verify(result, chk):
        if isinstance(result, Exception):
            chk.op("verify", [f"raised {result!r}"])
            return
        failing = {}
        for f in result["failures"]:
            failing.setdefault(f["code"], []).append(f"{f['check']} {f['reason']}")
        for _ in range(result["records"] - len(failing)):
            chk.op("verify record", [])
        for code, why in failing.items():
            chk.op(f"verify {code[:16]}", why)
        corpus = []
        if result["records"] != sum(expected.values()):
            corpus.append(f"{result['records']} records verified")
        for name in ACCEPTANCE_CHECKS:
            counts = result["checks"][name]
            if counts["fail"] or not counts["pass"]:
                corpus.append(f"check {name}: {counts}")
        if corpus:
            chk.op("corpus", corpus)

    return [
        Phase("generate", "phase1",
              lambda: guarded(gk.catalogue.generate_catalogue, out, 5, 8,
                              ("crystallization",), 1),
              check_generate),
        Phase("verify", "phase2",
              lambda: guarded(gk.catalogue.verify_corpus, str(out)),
              check_verify),
    ]


# ---------------------------------------------------------------------------
# analyse-cp2sum: the five analysis commands on cp2#10 and cp2#40
# ---------------------------------------------------------------------------

def analyse_phases(gk, seed, rep, scratch, wrong) -> list[Phase]:
    cp2 = gk.fixtures.cp2()
    paths = {}
    g = cp2
    for k in range(2, max(SUM_SIZES) + 1):
        g = gk.core.connected_sum(g, cp2)
        if k in SUM_SIZES:
            path = scratch / f"cp2sum{k}.gem"
            gk.core.save_gem(relabelled(g, seeded_rng(seed, rep, k)), path)
            paths[k] = str(path)

    def run_cli(cmd, path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = guarded(gk.cli.main, ["--json", cmd, path])
        return rc, out.getvalue()

    def phase(k, metric):
        betti2 = k + 1 if wrong else k

        def check(outputs, chk):
            for cmd, (rc, text) in zip(CLI_COMMANDS, outputs):
                chk.op(f"cp2#{k} {cmd}", cli_problems(cmd, rc, text, k, betti2))

        return Phase(f"cp2#{k}", metric,
                     lambda: [run_cli(cmd, paths[k]) for cmd in CLI_COMMANDS],
                     check)

    return [phase(SUM_SIZES[0], "phase1"), phase(SUM_SIZES[1], "phase2")]


def cli_problems(cmd, rc, text, k, betti2) -> list[str]:
    if rc != 0:
        return [f"exit {rc!r}"]
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"bad JSON: {exc}"]
    try:
        if cmd == "info":
            mc = rep["manifold_class"]
            ok = mc["verdict"] == "closed-4-manifold" and not mc["conditional"]
        elif cmd == "genus":
            ok = rep["genus"]["regular_genus"] == 2 * k
        elif cmd == "classify":
            bounds = rep["classification"]["bounds"]
            ok = bounds["genus_invariant_certified"] and bounds["rho"] == 2 * k
        elif cmd == "homology":
            ok = rep["homology"]["betti2"] == betti2
        else:
            sec = rep["handles"]
            ok = any(w["kind"] == "special" and p["handles"] == [1, 0, k, 0, 1]
                     for w, p in zip(sec["witnesses"], sec["profiles"]))
    except (KeyError, TypeError) as exc:
        return [f"report lacks {exc!r}"]
    return [] if ok else [f"unexpected {cmd} report"]


# ---------------------------------------------------------------------------
# reduce-dipoles: reduce cp2 buried under random proper dipoles
# ---------------------------------------------------------------------------

def reduce_phases(gk, seed, rep, scratch, wrong) -> list[Phase]:
    core, inv = gk.core, gk.invariants
    cp2 = gk.fixtures.cp2()

    def h1_routes(g):
        return (inv.h1_from_presentation(inv.presentation_raw(g, 0, 1)),
                inv.h1_via_edge_path(g))

    def buried(n, rng):
        g = cp2
        for _ in range(n):
            at = rng.randrange(g.order)
            size = rng.randint(1, g.n_colors - 1)
            g = core.add_dipole(g, at, sorted(rng.sample(range(g.n_colors), size)))
        return relabelled(g, rng)

    def phase(n, count, metric):
        gems = [buried(n, seeded_rng(seed, rep, n + 1000 * i)) for i in range(count)]

        def check(reduced_all, chk):
            for g, reduced in zip(gems, reduced_all):
                if isinstance(reduced, Exception):
                    chk.op(f"reduce {n} dipoles", [f"raised {reduced!r}"])
                    continue
                problems = []
                if core.canonical_code(reduced) != core.canonical_code(cp2):
                    problems.append(f"reduced to order {reduced.order}, not cp2")
                chi = inv.euler_characteristic(cp2) + (1 if wrong else 0)
                if inv.euler_characteristic(g) != chi:
                    problems.append("chi not preserved")
                if h1_routes(g) != h1_routes(cp2):
                    problems.append("H1 routes disagree with cp2")
                chk.op(f"reduce {n} dipoles", problems)

        return Phase(f"reduce-{n}", metric,
                     lambda: [guarded(core.reduce, g) for g in gems], check)

    (n1, k1), (n2, k2) = REDUCE_INPUTS
    return [phase(n1, k1, "phase1"), phase(n2, k2, "phase2")]


WORKLOADS = {
    "catalogue-crys5": catalogue_phases,
    "analyse-cp2sum": analyse_phases,
    "reduce-dipoles": reduce_phases,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before it "
                         "started this process")
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and its calibration samples")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--expect-wrong", action="store_true",
                    help="perturb one expected value (self-test only)")
    args = ap.parse_args(argv)

    gk = import_gemkit()
    phases = WORKLOADS[args.workload](gk, args.seed, args.rep, args.scratch,
                                      args.expect_wrong)
    setup_s = time.monotonic() - args.spawned
    calib = Calibrator()
    setup = {"setup_s": setup_s,
             "setup_ref_s": setup_s / calib.edge() * CALIB_REF_S}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(calib.clock)
    results, times = [], {}
    with tracer or contextlib.nullcontext():
        for phase in phases:
            result, seconds, cal = calib.timed(phase.run)
            results.append(result)
            times[f"{phase.metric}_s"] = seconds
            times[f"{phase.metric}_cal"] = cal
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    chk = Checker()
    for phase, result in zip(phases, results):
        phase.check(result, chk)
    report = {
        **setup,
        **times,
        "wall_s": times["phase1_s"] + times["phase2_s"],
        "wall_cal": times["phase1_cal"] + times["phase2_cal"],
        "calib_s": statistics.fmean(calib.samples),
        "peak_rss_mb": peak_rss_mb,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "reasons": chk.reasons,
        "provenance": {
            "gemkit_file": gk.__file__,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "rep": args.rep,
        },
    }
    if tracer:
        report["trace"] = tracer.metrics()
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
