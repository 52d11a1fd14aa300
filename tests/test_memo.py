"""The memo layer: memoised values are read-only, and the facts behind each
guard are derived once per graph, however many witnesses check them."""

from __future__ import annotations

import random

import pytest

from gemkit import catalogue, classification, core, fixtures, handles, recognition

from conftest import random_relabel


def test_memoised_mappings_refuse_item_assignment():
    g = fixtures.cp2()
    for table, key in ((recognition.is_crystallization(g)[1], 0),
                       (classification.t_values(g), (0, 1, 2)),
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
