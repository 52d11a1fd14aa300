"""Per-layer spans recorded from outside the program.

The tracer replaces the public functions of each gemkit layer module with a
timing wrapper, by ``setattr`` on the module object (``gemkit.core`` and so
on), and puts the originals back on exit.  Calls that go through the
module attribute -- every cross-module call in gemkit and every recursive
call through a module global -- pass through the wrapper; the re-exports in
``gemkit/__init__`` are left alone.

Per function it keeps, in memory:

* ``calls``   -- every call, memo hits included;
* ``self_s``  -- own wall time minus the time of traced callees;
* ``total_s`` -- wall time of outermost activations only, so recursion
  (reduce -> sphere_certificate -> check_closed_manifold -> reduce) is not
  counted twice.

``metrics()`` turns these into the flat per-layer metric names.
"""

from __future__ import annotations

import functools
import importlib
import time

FUNCTIONS = {
    "core": ("canonical_code", "residue_labels", "extract_residues",
             "find_dipoles", "eliminate_dipole", "reduce", "decode_code"),
    "genus": ("genus_all", "subgenus", "genus_of_sequence"),
    "recognition": ("check_closed_manifold", "sphere_certificate",
                    "classify_surface", "is_crystallization"),
    "invariants": ("homology", "h1_via_edge_path", "presentation_raw",
                   "smith_normal_form", "tietze_trivializes",
                   "pi1_certificate", "beta2_via_genus"),
    "classification": ("classification_report", "check_bounds"),
    "handles": ("handles_report", "handle_profile", "collapse_2skeleton"),
    "catalogue": ("run_shard", "build_record", "verify_record",
                  "generate_catalogue", "verify_corpus"),
    "cli": ("main",),
}

TOTALS = ("core.reduce", "core.canonical_code",
          "recognition.check_closed_manifold", "invariants.homology",
          "catalogue.run_shard", "catalogue.build_record",
          "catalogue.verify_record", "handles.handles_report",
          "classification.classification_report", "cli.main")

# Functions whose distinct-argument share is reported: how much repeated
# work a memo could absorb.
DISTINCT = ("core.residue_labels", "core.canonical_code",
            "recognition.check_closed_manifold",
            "recognition.sphere_certificate", "invariants.beta2_via_genus")

RATIOS = ("catalogue.codes_kept_per_code", "catalogue.run_shard.max_share",
          "core.find_dipoles.per_elimination",
          "recognition.sphere_certificate.per_elimination",
          "trace.overhead_frac")


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for mod, fns in FUNCTIONS.items():
        for fn in fns:
            names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
    names += [f"{key}.total_s" for key in TOTALS]
    names += [f"{mod}.self_s" for mod in FUNCTIONS]
    names += list(RATIOS)
    names += [f"{key}.distinct_frac" for key in DISTINCT]
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def _ratio(num, den) -> float:
    # An absent layer (no calls on this workload) reads 0, not NaN, so the
    # report stays valid JSON.
    return num / den if den else 0.0


class Tracer:
    """Context manager that wraps the layer functions while active."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.distinct = {key: set() for key in DISTINCT}
        self.shard_seconds = []
        self.shard_codes = 0
        self.codes_under_shard = 0
        self._active = {}
        self._stack = []
        self._saved = []

    def __enter__(self):
        for mod_name, fns in FUNCTIONS.items():
            mod = importlib.import_module(f"gemkit.{mod_name}")
            for fn_name in fns:
                key = f"{mod_name}.{fn_name}"
                orig = getattr(mod, fn_name)
                self._saved.append((mod, fn_name, orig))
                self.calls[key] = 0
                self.self_s[key] = 0.0
                self.total_s[key] = 0.0
                self._active[key] = 0
                setattr(mod, fn_name, self._wrap(key, orig))
        return self

    def __exit__(self, *exc):
        for mod, fn_name, orig in reversed(self._saved):
            setattr(mod, fn_name, orig)
        self._saved.clear()
        return False

    def _wrap(self, key, fn):
        clock = self.clock
        stack = self._stack
        active = self._active
        seen = self.distinct.get(key)
        is_shard = key == "catalogue.run_shard"
        is_code = key == "core.canonical_code"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add((args, tuple(sorted(kwargs.items()))))
            if is_code and active["catalogue.run_shard"]:
                self.codes_under_shard += 1
            frame = [0.0]
            stack.append(frame)
            outermost = active[key] == 0
            active[key] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                active[key] -= 1
                stack.pop()
                self.calls[key] += 1
                self.self_s[key] += dt - frame[0]
                if outermost:
                    self.total_s[key] += dt
                if stack:
                    stack[-1][0] += dt
            if is_shard:
                self.shard_seconds.append(dt)
                self.shard_codes += len(result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Raw per-layer values; ``trace.overhead_frac`` is added by the
        runner, which holds the untraced run to compare against."""
        out = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
        for key in TOTALS:
            out[f"{key}.total_s"] = self.total_s[key]
        for mod, fns in FUNCTIONS.items():
            out[f"{mod}.self_s"] = sum(self.self_s[f"{mod}.{fn}"] for fn in fns)
        eliminations = self.calls["core.eliminate_dipole"]
        out["catalogue.codes_kept_per_code"] = _ratio(self.shard_codes,
                                                      self.codes_under_shard)
        out["catalogue.run_shard.max_share"] = _ratio(
            max(self.shard_seconds, default=0.0), sum(self.shard_seconds))
        out["core.find_dipoles.per_elimination"] = _ratio(
            self.calls["core.find_dipoles"], eliminations)
        out["recognition.sphere_certificate.per_elimination"] = _ratio(
            self.calls["recognition.sphere_certificate"], eliminations)
        for key in DISTINCT:
            out[f"{key}.distinct_frac"] = _ratio(len(self.distinct[key]),
                                                 self.calls[key])
        return out
