"""Shared helpers: independent brute-force oracles and corpus builders.

The oracles here deliberately avoid the library's clever paths: isomorphism
is decided by trying every vertex bijection, enumeration is a plain product
over involution tuples, and Euler characteristics come from direct
component counting.
"""

from __future__ import annotations

import itertools
import random

import pytest

from gemkit import core, fixtures


def fpf_involutions(p):
    """All fixed-point-free involutions of 0..p-1 (plain recursion)."""
    def rec(rem):
        if not rem:
            yield ()
            return
        a = rem[0]
        for i in range(1, len(rem)):
            b = rem[i]
            for rest in rec(rem[1:i] + rem[i + 1:]):
                yield ((a, b),) + rest

    out = []
    for pairs in rec(tuple(range(p))):
        m = [0] * p
        for a, b in pairs:
            m[a], m[b] = b, a
        out.append(tuple(m))
    return sorted(out)


def brute_force_isomorphic(g1: core.ColoredGraph, g2: core.ColoredGraph,
                           up_to_colors: bool) -> bool:
    """Try every vertex bijection (and color bijection, if allowed)."""
    if g1.order != g2.order or g1.n_colors != g2.n_colors:
        return False
    p, k = g1.order, g1.n_colors
    color_perms = itertools.permutations(range(k)) if up_to_colors \
        else [tuple(range(k))]
    for cperm in color_perms:
        recolored = [g2.matchings[cperm.index(c)] for c in range(k)] \
            if up_to_colors else list(g2.matchings)
        for vperm in itertools.permutations(range(p)):
            if all(recolored[c][vperm[v]] == vperm[g1.matchings[c][v]]
                   for c in range(k) for v in range(p)):
                return True
    return False


def naive_connected_gems(n_colors, order):
    """All connected gems of one order with color 0 standard, as graphs
    (isomorphic duplicates included)."""
    pi0 = tuple(v + 1 if v % 2 == 0 else v - 1 for v in range(order))
    out = []
    for rest in itertools.product(fpf_involutions(order), repeat=n_colors - 1):
        g = core.ColoredGraph((pi0,) + rest)
        if core.is_connected(g):
            out.append(g)
    return out


def chi_by_counting(g: core.ColoredGraph) -> int:
    """Euler characteristic straight from the component-count definition."""
    k = g.n_colors
    n = k - 1
    total = 0
    for dim in range(n + 1):
        size = n - dim
        if size == 0:
            count = g.order
        else:
            count = sum(core.residue_count(g, sub)
                        for sub in itertools.combinations(range(k), size))
        total += count if dim % 2 == 0 else -count
    return total


def random_relabel(g: core.ColoredGraph, rng: random.Random) -> core.ColoredGraph:
    perm = list(range(g.order))
    rng.shuffle(perm)
    return g.relabel(perm)


def random_recolor(g: core.ColoredGraph, rng: random.Random) -> core.ColoredGraph:
    perm = list(range(g.n_colors))
    rng.shuffle(perm)
    return g.recolor(perm)


def random_matchings(rng: random.Random, n_colors: int, order: int) -> core.ColoredGraph:
    """One random perfect matching per color: a gem, connected or not."""
    rows = []
    for _ in range(n_colors):
        verts = list(range(order))
        rng.shuffle(verts)
        row = [0] * order
        for a, b in zip(verts[::2], verts[1::2]):
            row[a], row[b] = b, a
        rows.append(row)
    return core.ColoredGraph(rows)


def random_augment(g: core.ColoredGraph, rng: random.Random,
                   steps: int) -> core.ColoredGraph:
    """Pile proper dipoles onto g (any sizes, random sites)."""
    for _ in range(steps):
        at = rng.randrange(g.order)
        h = rng.randint(1, g.n_colors - 1)
        colors = tuple(sorted(rng.sample(range(g.n_colors), h)))
        g = core.add_dipole(g, at, colors)
    return g


@pytest.fixture(scope="session")
def small_manifold_corpus():
    """Connected 4-colored closed-3-manifold gems up to order 8 plus the
    5-colored fixtures: a mixed bag for property sweeps."""
    from gemkit import catalogue, recognition

    gems = []
    for p in (2, 4, 6, 8):
        for p_, i in catalogue.shard_keys(p):
            if p_ != p:
                continue
            for code in catalogue.run_shard(4, p, i, ()):
                g = core.decode_code(code)
                if recognition.check_closed_manifold(g).verdict == "closed-3-manifold":
                    gems.append(g)
    gems += [fixtures.sigma(5), fixtures.cp2(), fixtures.rp3_boundary(),
             core.connected_sum(fixtures.cp2(), fixtures.cp2())]
    return gems


@pytest.fixture(scope="session")
def crystallization_corpus_order6():
    """5-colored crystallizations up to order 6 (fast to enumerate)."""
    from gemkit import catalogue

    return [core.decode_code(r.code)
            for r in catalogue.enumerate_gems(5, 6, filters=("crystallization",))]


@pytest.fixture(scope="session")
def crystallization_corpus_order8():
    """5-colored crystallizations up to order 8: the 37-record acceptance
    corpus."""
    from gemkit import catalogue

    return [core.decode_code(r.code)
            for r in catalogue.enumerate_gems(5, 8, filters=("crystallization",))]
