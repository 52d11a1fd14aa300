"""Canonical codes against a reference: the search over every start.

The reference streams from every start vertex under every color order
(only the identity order for the color-preserving flavor), with its own
copy of the stream.  The library streams only from the (start, order)
pairs with the least first row, lists colors with equal matchings in one
order, and skips the starts that an automorphism it found maps onto a
finished start; its code bytes must be identical in both flavors.
"""

from __future__ import annotations

import itertools
import random

import pytest

from gemkit import catalogue, core, fixtures
from gemkit.errors import StructuralError

from conftest import (fpf_involutions, naive_connected_gems, random_augment,
                      random_recolor, random_relabel)
from shard_parent import run_shard_parent

FLAVORS = (core.COLOR_PRESERVING, core.UP_TO_COLOR_PERMUTATION)


def bfs_stream_oracle(matchings, p, start, color_order, best):
    """The BFS relabeling's adjacency stream, or None once it is worse than
    ``best``."""
    label = [-1] * p
    label[start] = 0
    order = [start]
    nxt = 1
    stream = []
    pos = 0
    compare = best is not None
    for v in order:
        for c in color_order:
            w = matchings[c][v]
            lw = label[w]
            if lw < 0:
                lw = nxt
                label[w] = nxt
                nxt += 1
                order.append(w)
            if compare:
                b = best[pos]
                if lw > b:
                    return None
                if lw < b:
                    compare = False
            stream.append(lw)
            pos += 1
    return stream


def canonical_code_oracle(g: core.ColoredGraph, flavor: str) -> bytes:
    if not core.is_connected(g):
        raise StructuralError("operation requires a connected graph")
    p, k = g.order, g.n_colors
    if flavor == core.COLOR_PRESERVING:
        color_orders = [tuple(range(k))]
    else:
        color_orders = list(itertools.permutations(range(k)))
    best = None
    for color_order in color_orders:
        for start in range(p):
            stream = bfs_stream_oracle(g.matchings, p, start, color_order, best)
            if stream is not None:
                best = stream
    width = 1 if p <= 0xFF else 2
    head = bytes([flavor == core.UP_TO_COLOR_PERMUTATION, k, width]) + p.to_bytes(2, "big")
    return head + b"".join(x.to_bytes(width, "big") for x in best)


def _assert_matches_oracle(gems):
    for g in gems:
        for flavor in FLAVORS:
            assert core.canonical_code(g, flavor) == canonical_code_oracle(g, flavor), \
                (g.matchings, flavor)


@pytest.mark.parametrize("n_colors, order", [
    (2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (3, 6), (4, 2), (4, 4), (4, 6), (5, 2), (5, 4),
])
def test_matches_oracle_on_every_small_gem(n_colors, order):
    _assert_matches_oracle(naive_connected_gems(n_colors, order))


@pytest.mark.parametrize("fixture", [
    fixtures.rp3, fixtures.torus_times_colors, fixtures.cp2, fixtures.rp3_boundary,
    fixtures.nonsimply_connected, lambda: fixtures.sigma(5),
])
def test_matches_oracle_on_relabelled_fixtures(fixture):
    rng = random.Random(17)
    _assert_matches_oracle(random_recolor(random_relabel(fixture(), rng), rng)
                           for _ in range(6))


def test_matches_oracle_on_connected_sums():
    rng = random.Random(23)
    g = fixtures.cp2()
    for _ in range(3):
        g = core.connected_sum(g, fixtures.cp2())
        _assert_matches_oracle([g, random_recolor(random_relabel(g, rng), rng)])


@pytest.mark.parametrize("fixture", [fixtures.rp3, fixtures.cp2, fixtures.rp3_boundary])
def test_matches_oracle_on_buried_gems(fixture):
    rng = random.Random(29)
    _assert_matches_oracle(random_relabel(random_augment(fixture(), rng, 6), rng)
                           for _ in range(3))


@pytest.mark.parametrize("n_colors", range(2, 8))
def test_matches_oracle_on_sigma(n_colors):
    # every color joins the same two vertices: one order per start is streamed
    _assert_matches_oracle([fixtures.sigma(n_colors)])


def _order8_leaves():
    """The gems that reach ``canonical_code`` in the order <= 8 5-colored
    crystallization shards of the walk without the prune on the chosen
    colors, in the order they reach it: 538 labellings, where the library's
    walk sends 217 of them."""
    leaves = []
    code = core.canonical_code

    def capture(g, *args):
        leaves.append(g)
        return code(g, *args)

    core.canonical_code = capture
    try:
        for p, i in catalogue.shard_keys(8):
            run_shard_parent(5, p, i, ("crystallization",))
    finally:
        core.canonical_code = code
    return leaves


def _count_streams(monkeypatch) -> list[int]:
    """The start of each ``_bfs_stream`` call from now on, memos cold."""
    starts = []
    stream = core._bfs_stream

    def count(matchings, p, start, *args):
        starts.append(start)
        return stream(matchings, p, start, *args)

    core.canonical_code.cache_clear()
    monkeypatch.setattr(core, "_bfs_stream", count)
    return starts


def test_matches_oracle_on_order8_shard_leaves():
    leaves = _order8_leaves()
    assert len(leaves) == 538
    _assert_matches_oracle(leaves)


def test_matches_oracle_on_relabelled_order8_corpus(crystallization_corpus_order8):
    # from labellings that are not canonical, so ties and skipped starts differ
    rng = random.Random(37)
    assert len(crystallization_corpus_order8) == 37
    _assert_matches_oracle(random_recolor(random_relabel(g, rng), rng)
                           for g in crystallization_corpus_order8)


def test_automorphisms_halve_the_streams_of_the_order8_shards(monkeypatch):
    # the search without orbit pruning streams 23,400 (start, order) pairs here
    starts = _count_streams(monkeypatch)
    _order8_leaves()
    assert 0 < len(starts) < 11_700


def test_equal_matchings_stream_one_order_per_start(monkeypatch):
    starts = _count_streams(monkeypatch)
    code = core.canonical_code(fixtures.sigma(64))
    assert code == bytes([1, 64, 1, 0, 2]) + bytes([1] * 64 + [0] * 64)
    # start 1 ties start 0: the automorphism swapping them ends the search
    assert starts == [0, 1]


def test_code_refuses_more_than_255_colors():
    assert core.canonical_code(fixtures.sigma(255))[1] == 255
    with pytest.raises(StructuralError, match="255 colors"):
        core.canonical_code(fixtures.sigma(256))


def test_code_refuses_orders_beyond_two_bytes():
    p = 65538
    cycle = tuple(v + 1 if v % 2 else v - 1 for v in range(p))
    cycle = (p - 1,) + cycle[1:-1] + (0,)
    g = core.ColoredGraph((tuple(v ^ 1 for v in range(p)), cycle))  # one 2-colored cycle
    with pytest.raises(StructuralError, match="65535"):
        core.canonical_code(g)


def test_code_memo_is_bounded():
    # every labelled alternating 8-cycle: 5040 distinct graphs, one code
    ms = fpf_involutions(8)
    gems = [g for g in (core.ColoredGraph((a, b)) for a in ms for b in ms
                        if all(x != y for x, y in zip(a, b)))
            if core.is_connected(g)]
    bound = core.canonical_code.cache_info().maxsize
    assert bound is not None and len(gems) > bound
    for g in gems:
        core.canonical_code(g)
    assert len({core.canonical_code(g) for g in gems[:50]}) == 1
    assert core.canonical_code.cache_info().currsize <= bound
