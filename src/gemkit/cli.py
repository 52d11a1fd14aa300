"""Command-line front end.

Exit codes (``_OUTCOMES``): 0 success, 1 analysis refused (hypotheses not
certified), 2 a usage error, malformed input, a file or report that cannot
be read or written, or a structural error, 3 internal-consistency error (an
identity that must hold failed) or any other exception - always a bug.
Diagnostics go to stderr as one JSON line; reports go to stdout,
human-readable by default or as JSON with --json.  No environment
variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalogue, classification, core, genus, handles, invariants, recognition
from .errors import (AnalysisRefused, GemFormatError, GemkitError,
                     InternalConsistencyError, StructuralError)

SCHEMA = "gemkit-report/1"


def _loaded(path) -> tuple[core.ColoredGraph, dict]:
    """The gem at ``path`` and the head of its report."""
    g = core.load_gem(path)
    return g, {
        "schema_version": SCHEMA,
        "input": {
            "path": str(path),
            "canonical_code": core.canonical_code(g).hex(),
            "order": g.order,
            "colors": g.n_colors,
            "bipartite": core.is_bipartite(g),
        },
        "diagnostics": [],
    }


def _note_conditional(report: dict, section: str) -> None:
    if report.get(section, {}).get("conditional"):
        report["diagnostics"].append(
            f"{section}: conditional on uncertified sphere or pi1 claims")


def _render(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{prefix}{key}.", item)
        elif isinstance(value, list) and any(isinstance(x, (dict, list)) for x in value):
            for i, item in enumerate(value):
                walk(f"{prefix}{i}.", item)
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", report)
    return "\n".join(lines) + "\n"


def cmd_info(args) -> dict:
    g, report = _loaded(args.path)
    report["connected"] = core.is_connected(g)
    report["hat_residue_counts"] = {
        str(c): n for c, n in core.hat_residue_counts(g).items()}
    if g.n_colors >= 3:
        mc = recognition.check_closed_manifold(g)
        report["manifold_class"] = mc.to_json()
        _note_conditional(report, "manifold_class")
        if g.n_colors >= 4:
            report["crystallization"] = recognition.is_crystallization(g)
        report["euler_characteristic"] = invariants.euler_characteristic(g)
    return report


def cmd_genus(args) -> dict:
    g, report = _loaded(args.path)
    section = genus.genus_all(g).to_json()
    if args.permutation is not None:
        eps = genus.as_permutation(g, _parse_permutation(args.permutation))
        section["requested"] = {
            str(eps): genus.fraction_json(genus.genus_of_sequence(g, eps))}
    report["genus"] = section
    return report


def cmd_classify(args) -> dict:
    g, report = _loaded(args.path)
    report["classification"] = classification.classification_report(g).to_json()
    _note_conditional(report, "classification")
    return report


def cmd_homology(args) -> dict:
    g, report = _loaded(args.path)
    report["homology"] = invariants.homology(g).to_json()
    _note_conditional(report, "homology")
    pres = invariants.presentation_raw(g, *invariants.color_pair(g))
    report["pi1_presentation"] = {
        "colors": list(pres.colors),
        "generators": pres.generator_count,
        "text": pres.to_text(),
        "trivialized": invariants.tietze_trivializes(pres),
    }
    return report


def cmd_handles(args) -> dict:
    g, report = _loaded(args.path)
    report["handles"] = handles.handles_report(g).to_json()
    return report


def cmd_reduce(args) -> dict:
    g = core.load_gem(args.path)
    reduced = core.reduce(g)
    core.save_gem(reduced, args.out)
    return {"schema_version": SCHEMA, "input": str(args.path),
            "out": str(args.out), "order_before": g.order,
            "order_after": reduced.order}


def cmd_sum(args) -> dict:
    g1, g2 = core.load_gem(args.path1), core.load_gem(args.path2)
    s = core.connected_sum(g1, g2)
    core.save_gem(s, args.out)
    return {"schema_version": SCHEMA, "inputs": [str(args.path1), str(args.path2)],
            "out": str(args.out), "order": s.order}


def cmd_canon(args) -> dict:
    g = core.load_gem(args.path)
    flavor = core.COLOR_PRESERVING if args.color_preserving \
        else core.UP_TO_COLOR_PERMUTATION
    return {"schema_version": SCHEMA, "path": str(args.path),
            "flavor": flavor, "canonical_code": core.canonical_code(g, flavor).hex()}


def cmd_generate(args) -> dict:
    filters = tuple(f for f in (args.filters or "").split(",") if f)
    stats = catalogue.generate_catalogue(
        args.out, n_colors=args.colors, max_order=args.max_order,
        filters=filters, jobs=args.jobs, resume_meta=args.resume)
    return {"schema_version": SCHEMA, **stats}


def cmd_verify(args) -> dict:
    report = {"schema_version": SCHEMA, **catalogue.verify_corpus(args.path)}
    if not report["ok"]:
        # the report shows what failed: it goes out before the diagnostic
        _write(_render(report, args.json))
        raise InternalConsistencyError(
            f"{len(report['failures'])} corpus check(s) failed; first: "
            f"{report['failures'][0]}")
    return report


def _parse_permutation(text: str) -> tuple[int, ...]:
    """The integers of ``text``, e.g. ``(0,1,2,3,4)``, unchecked."""
    body = text.strip().strip("()")
    try:
        return tuple(int(tok) for tok in body.replace(",", " ").split())
    except ValueError as exc:
        raise StructuralError(f"bad permutation {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one JSON diagnostic line and exit 2;
    its subparsers are of the same class (``add_subparsers`` passes its
    own class on as ``parser_class``)."""

    def error(self, message):
        _diag("usage-error", f"{self.prog}: {message}")
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the command line: ``main`` builds its own once."""
    parser = _Parser(
        prog="gemkit",
        description="Analyze edge-colored graphs encoding compact PL manifolds.")
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, config):
        config(sub.add_parser(name, help=help_))

    add("info", "basic counts and the manifold verdict",
        lambda p: p.add_argument("path"))
    add("genus", "regular genus report",
        lambda p: (p.add_argument("path"),
                   p.add_argument("--permutation", help="cyclic order, e.g. (0,1,2,3,4)")))
    add("classify", "t-values, weak-simple/simple, genus bounds",
        lambda p: p.add_argument("path"))
    add("homology", "homology and pi1 presentation",
        lambda p: p.add_argument("path"))
    add("handles", "handle-decomposition witnesses and profiles",
        lambda p: p.add_argument("path"))
    add("reduce", "eliminate proper dipoles and write the result",
        lambda p: (p.add_argument("path"), p.add_argument("out")))
    add("sum", "graph connected sum",
        lambda p: (p.add_argument("path1"), p.add_argument("path2"),
                   p.add_argument("out")))
    add("canon", "print the canonical code",
        lambda p: (p.add_argument("path"),
                   p.add_argument("--color-preserving", action="store_true")))
    add("generate", "enumerate gems into a JSONL catalogue",
        lambda p: (p.add_argument("--colors", type=int, required=True),
                   p.add_argument("--max-order", type=int, required=True),
                   p.add_argument("--filters", default="",
                                  help="comma-separated: " + ",".join(catalogue.FILTERS)),
                   p.add_argument("--jobs", type=int, default=1, help="at least 1"),
                   p.add_argument("--resume", default=None,
                                  help="meta file of an interrupted run"),
                   p.add_argument("--out", required=True)))
    add("verify", "replay all invariants over a catalogue",
        lambda p: p.add_argument("path"))
    return parser


_parser = None  # main's parser, built on its first call

# The diagnostic type and exit code of each failure, most specific class
# first; any other exception is a bug: unexpected-error, exit 3.
_OUTCOMES = (
    (GemFormatError, "format-error", 2),
    (StructuralError, "structural-error", 2),
    (AnalysisRefused, "analysis-refused", 1),
    (InternalConsistencyError, "internal-consistency-error", 3),
    (GemkitError, "error", 2),
)


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # looked up at call time, so that a replaced cmd_<name> is the one run
    command = globals()[f"cmd_{args.command}"]
    try:
        _write(_render(command(args), args.json))
    except Exception as exc:  # noqa: BLE001 - an exception the table lacks is a bug
        for cls, kind, code in _OUTCOMES:
            if isinstance(exc, cls):
                _diag(kind, exc)
                return code
        _diag("unexpected-error", f"{type(exc).__name__}: {exc}")
        return 3
    return 0


def _write(text: str) -> None:
    """Write ``text`` to stdout, refused like a file that cannot be written."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        sys.stdout = open(os.devnull, "w", encoding="utf-8")  # for the flush at exit
        raise GemFormatError(f"cannot write the report: {exc}") from exc


def _diag(kind: str, exc: Exception | str) -> None:
    sys.stderr.write(json.dumps(
        {"error": {"type": kind, "message": str(exc)}}, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
