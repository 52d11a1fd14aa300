"""The memo layer: memoised values are read-only, and the facts behind each
guard are derived once per graph, however many witnesses check them."""

from __future__ import annotations

import cProfile
import pstats
import random

import pytest

from gemkit import catalogue, classification, core, fixtures, handles

from conftest import random_relabel


def test_memoised_mappings_refuse_item_assignment():
    g = fixtures.cp2()
    for table, key in ((classification.t_values(g), (0, 1, 2)),
                       (catalogue._shard_of_partition(8), (4,))):
        with pytest.raises(TypeError):
            table[key] = 5
        with pytest.raises(TypeError):
            del table[key]


def test_guards_read_the_hat_residue_counts_once_per_graph(monkeypatch):
    g = random_relabel(core.connected_sum(fixtures.cp2(), fixtures.cp2()),
                       random.Random(9001))
    calls = []
    count = core.hat_residue_counts
    monkeypatch.setattr(core, "hat_residue_counts", lambda h: calls.append(h) or count(h))
    report = handles.handles_report(g)
    classification.classification_report(g)
    assert len(report.witnesses) == 60
    assert 0 < len(calls) <= 3


# evaluations of each per-graph identity in one generate + verify of the
# order <= 8 crystallization corpus: 37 records, 35 of them classified, 1,012
# handle witnesses over 588 permutations (a special witness shares its
# no-1-handles twin's collapse trace), 3 graphs with boundary
ONCE_PER_GRAPH = {
    "handles.handle_profile": 1012,
    "handles.collapse_2skeleton": 588,
    "handles._boundary_h1": 3,
    "classification.genus_subgenus_residuals": 35 * 12,
    "classification.check_bounds": 35,
    "classification.weak_simple_consistency": 35,
}


def evaluations(run) -> dict:
    """How often the body of each identity of ``ONCE_PER_GRAPH`` ran during
    ``run()``; memo hits do not run it."""
    profile = cProfile.Profile()
    profile.runcall(run)
    stats = pstats.Stats(profile).stats
    out = {}
    for key in ONCE_PER_GRAPH:
        module, name = key.split(".")
        fn = getattr({"handles": handles, "classification": classification}[module], name)
        code = getattr(fn, "__wrapped__", fn).__code__
        calls = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        out[key] = calls[1] if calls else 0
    return out


def test_generate_and_verify_evaluate_each_identity_once_per_graph(tmp_path):
    for memo in core.MEMOS:
        memo.cache_clear()
    out = tmp_path / "cat.jsonl"
    verdicts = []
    counts = evaluations(lambda: (
        catalogue.generate_catalogue(out, 5, 8, ("crystallization",)),
        verdicts.append(catalogue.verify_corpus(out))))
    assert (verdicts[0]["records"], verdicts[0]["ok"]) == (37, True)
    assert counts == ONCE_PER_GRAPH
    # a verify from cold memos derives each identity once per graph as well
    for memo in core.MEMOS:
        memo.cache_clear()
    assert evaluations(lambda: catalogue.verify_corpus(out)) == ONCE_PER_GRAPH


def test_weak_simple_witnesses_are_a_tuple():
    witnesses = classification.weak_simple_consistency(fixtures.cp2())
    assert isinstance(witnesses, tuple) and witnesses
