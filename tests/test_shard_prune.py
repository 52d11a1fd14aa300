"""Shard enumeration against references.

`run_shard_oracle` walks every nondecreasing labeling of a shard, with
color 2 anywhere in the pool, and tests every color triple's sphere
condition only at the leaf.  The library cuts each branch as soon as a
triple is unclean, a color pair ranks below the shard, or the color just
chosen is not least in its orbit under the stabilizer of the colors chosen
before it (at color 2, H: the stabilizer of the first two matchings).
So each library shard finds a subset of its oracle shard's codes through
a subsequence of its leaves, the library shards are pairwise disjoint,
and together they find every code the oracle finds.

`run_shard_parent` (tests/shard_parent.py) is the walk without the prune
on the chosen colors: each of its shards finds the same codes as the
library's, and its leaves fall into the same H-classes.

The brute-force stabilizer of the standard matching is the oracle for the
closed-form shard keys, for the generated stabilizer orbits and for the
H-classes of leaves.
"""

from __future__ import annotations

import collections
import itertools
from functools import lru_cache

import pytest

from gemkit import catalogue, core

from shard_parent import cycle_partition_by_lists, layout_keys, run_shard_parent


def run_shard_oracle(k: int, p: int, shard_index: int, filters: tuple[str, ...]) -> list[str]:
    pi0 = catalogue.standard_matching(p)
    pi1 = layout_keys(p)[shard_index]
    pool = [m for m in catalogue.fpf_involutions(p) if m >= pi1]
    crys = "crystallization" in filters
    want_bipartite = "bipartite" in filters
    all_matchings = [pi0, pi1] + pool
    pairs_of = [tuple((v, m[v]) for v in range(p) if v < m[v]) for m in all_matchings]
    cache: dict[tuple, tuple] = {}

    def merge(labels, mid):
        key = (labels, mid)
        if key not in cache:
            cache[key] = core.join_classes(labels, pairs_of[mid])
        return cache[key]

    ident = tuple(range(p))
    l0, l1 = merge(ident, 0)[0], merge(ident, 1)[0]
    l01 = merge(l0, 1)[0]
    init_states = tuple(l1 if h == 0 else (l0 if h == 1 else l01) for h in range(k))
    manifold_prune = (crys or "manifold" in filters) and k >= 4

    def triple_clean(mids, a, b, c):
        la = merge(ident, mids[a])[0]
        g_ab = merge(la, mids[b])
        g_ac = merge(la, mids[c])
        g_bc = merge(merge(ident, mids[b])[0], mids[c])
        g_abc = merge(g_ab[0], mids[c])
        return g_ab[1] + g_ac[1] + g_bc[1] - p // 2 == 2 * g_abc[1]

    def spheres_only(mids):
        if k >= 5:
            return all(triple_clean(mids, a, b, c)
                       for a, b, c in itertools.combinations(range(k), 3))
        if not crys:
            return True
        return sum(not triple_clean(mids, *(x for x in range(4) if x != drop))
                   for drop in range(4)) <= 1

    codes: set[str] = set()
    chosen: list[int] = []

    def survivor():
        rows = (pi0, pi1) + tuple(pool[i] for i in chosen)
        if want_bipartite and core.two_coloring(rows) is None:
            return
        if manifold_prune and not spheres_only([0, 1] + [i + 2 for i in chosen]):
            return
        code = core.canonical_code(core.ColoredGraph(rows)).hex()
        if code not in codes and catalogue._passes_expensive(core.decode_code(code), filters):
            codes.add(code)

    def dfs(depth, states, full, start):
        if depth == k - 1:
            if crys and max(states[k - 1]) != 0:
                return
            for idx in range(start, len(pool)):
                mid = idx + 2
                if crys:
                    ok = all(merge(states[h], mid)[1] == 1 for h in range(k - 1))
                else:
                    ok = merge(full, mid)[1] == 1
                if ok:
                    chosen.append(idx)
                    survivor()
                    chosen.pop()
            return
        for idx in range(start, len(pool)):
            mid = idx + 2
            new_states = tuple(states[h] if h == depth else merge(states[h], mid)[0]
                               for h in range(k))
            chosen.append(idx)
            dfs(depth + 1, new_states, merge(full, mid)[0], idx)
            chosen.pop()

    dfs(2, init_states, l01, 0)
    return sorted(codes)


@lru_cache(maxsize=None)
def _stabilizer(p: int) -> tuple[tuple[int, ...], ...]:
    """Vertex permutations preserving the standard matching."""
    half = p // 2
    out = []
    for blocks in itertools.permutations(range(half)):
        for flips in itertools.product((0, 1), repeat=half):
            perm = [0] * p
            for b in range(half):
                for s in (0, 1):
                    perm[2 * b + s] = 2 * blocks[b] + (s ^ flips[b])
            out.append(tuple(perm))
    return tuple(out)


def _image(matching: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    img = [0] * len(matching)
    for v in range(len(matching)):
        img[perm[v]] = perm[matching[v]]
    return tuple(img)


def _orbit_min(matching: tuple[int, ...], p: int) -> tuple[int, ...]:
    return min(_image(matching, perm) for perm in _stabilizer(p))


def _one_cycle_per_part(part, p: int) -> tuple[int, ...]:
    """Some matching whose cycles with the standard matching have the
    lengths ``part``: the standard pairs of each block closed into one cycle."""
    m = [0] * p
    off = 0
    for length in part:
        block = list(range(off, off + 2 * length))
        for idx in range(length):
            a = block[2 * idx + 1]
            b = block[(2 * idx + 2) % (2 * length)]
            m[a], m[b] = b, a
        off += 2 * length
    return tuple(m)


def _is_subsequence(part, whole) -> bool:
    rest = iter(whole)
    return all(any(x == y for y in rest) for x in part)


@pytest.mark.parametrize("p", [2, 4, 6, 8, 10, 12])
def test_shard_keys_are_the_brute_force_orbit_minima(p):
    pi0 = catalogue.standard_matching(p)
    reps = layout_keys(p)
    assert reps == tuple(sorted({_orbit_min(_one_cycle_per_part(part, p), p)
                                 for part in catalogue._partitions(p // 2)}))
    assert len(reps) == (1, 2, 3, 5, 7, 11)[p // 2 - 1]  # partitions of p/2
    # shard i holds the i-th partition in key order, one shard per partition
    assert [catalogue._shard_of_partition(p)[catalogue._cycle_partition(pi0, m)]
            for m in reps] == list(range(len(reps)))


def test_each_pool_starts_at_its_layout_key(monkeypatch):
    # the least matching that ranks at least shard i with the standard
    # matching is the least layout of partition i, through p = 14
    for p in range(2, 15, 2):
        pi0, rank = catalogue.standard_matching(p), catalogue._shard_of_partition(p)
        pool = catalogue.fpf_involutions.__wrapped__(p)  # not memoised: 135,135 at p = 14
        ranks = [rank[catalogue._cycle_partition(pi0, m)] for m in pool]
        keys = layout_keys(p)
        assert len(keys) == len(rank)
        for i, key in enumerate(keys):
            assert next(m for m, r in zip(pool, ranks) if r >= i) == key, (p, i)

    # and run_shard takes it as color 1, the matching H fixes with pi0
    class Taken(Exception):
        pass

    taken = []

    def take(pi0, pi1):
        taken.append(pi1)
        raise Taken

    monkeypatch.setattr(catalogue, "_stabilizer_generators", take)
    for p, index in catalogue.shard_keys(12):
        with pytest.raises(Taken):
            catalogue.run_shard(3, p, index, ())
    assert taken == [key for p in range(2, 13, 2) for key in layout_keys(p)]


@pytest.mark.parametrize("p", [2, 4, 6, 8, 10])
def test_generator_orbits_are_the_brute_force_stabilizer_orbits(p):
    pi0 = catalogue.standard_matching(p)
    pool = list(catalogue.fpf_involutions(p))
    index = {m: i for i, m in enumerate(pool)}
    for pi1 in layout_keys(p):
        group = [h for h in _stabilizer(p) if _image(pi1, h) == pi1]
        least = [None] * len(pool)
        for i, m in enumerate(pool):
            if least[i] is None:
                orbit = {index[_image(m, h)] for h in group}
                for j in orbit:
                    least[j] = min(orbit)
        gens = catalogue._stabilizer_generators(pi0, pi1)
        assert catalogue._orbit_minima(pool, gens) == least, pi1


@pytest.mark.parametrize("k, max_order, filters", [
    (5, 6, ("crystallization",)),
    (5, 6, ("manifold",)),
    (5, 6, ("bipartite", "crystallization")),
    (4, 8, ("crystallization",)),
    (3, 8, ()),
    (4, 6, ()),
])
def test_run_shard_matches_leaf_prune_oracle(monkeypatch, k, max_order, filters):
    # each class lies in one shard; the library walks part of the oracle's
    # tree, so its leaves are some of the oracle's, in the same order
    calls = []
    code_of = core.canonical_code
    monkeypatch.setattr(core, "canonical_code", lambda g: calls.append(g) or code_of(g))
    found: set[str] = set()
    expected: set[str] = set()
    for p, index in catalogue.shard_keys(max_order):
        codes = catalogue.run_shard(k, p, index, filters)
        leaves = calls[:]
        calls.clear()
        oracle = run_shard_oracle(k, p, index, filters)
        assert set(codes) <= set(oracle), (p, index)
        assert _is_subsequence(leaves, calls), (p, index)
        calls.clear()
        assert found.isdisjoint(codes), (p, index)
        found.update(codes)
        expected.update(oracle)
    assert found == expected
    assert found


@pytest.mark.parametrize("filters", [("crystallization",),
                                     ("crystallization", "simply-connected")])
def test_run_shard_filters_each_code_once(monkeypatch, filters):
    passes = catalogue._passes_expensive
    for p, index in catalogue.shard_keys(8):
        filtered = collections.Counter()
        monkeypatch.setattr(catalogue, "_passes_expensive",
                            lambda g, f: filtered.update([g]) or passes(g, f))
        catalogue.run_shard(5, p, index, filters)
        assert all(n == 1 for n in filtered.values()), (p, index)


@pytest.mark.parametrize("filters", [("simply-connected",), ("weak-simple",),
                                     ("handle-witness",)])
def test_pi1_filters_walk_only_crystallization_leaves(monkeypatch, filters):
    # each pi1 filter keeps only crystallizations, so its walk prunes as the
    # crystallization filter's does: the same leaves reach the code
    calls = []
    code_of = core.canonical_code
    monkeypatch.setattr(core, "canonical_code", lambda g: calls.append(g) or code_of(g))

    def walk(f):
        calls.clear()
        codes = [catalogue.run_shard(5, p, index, f) for p, index in catalogue.shard_keys(6)]
        return calls[:], codes

    leaves, codes = walk(("crystallization", "simply-connected"))
    assert len(leaves) == 11  # 25 without the prune on the chosen colors
    assert walk(filters) == (leaves, codes)


def _codes_and_leaves(run, k: int, p: int, index: int, filters) -> tuple[list[str], list]:
    """The codes of one shard by ``run`` and, in order, the colors past 0
    and 1 of each leaf that reached ``canonical_code``."""
    leaves = []
    code = core.canonical_code

    def capture(g, *args):
        leaves.append(g.matchings[2:])
        return code(g, *args)

    core.canonical_code = capture
    try:
        codes = run(k, p, index, filters)
    finally:
        core.canonical_code = code
    return codes, leaves


@lru_cache(maxsize=None)
def _both_walks(k: int, p: int, index: int, filters: tuple[str, ...]):
    """``_codes_and_leaves`` of the library and of the parent walk."""
    return (_codes_and_leaves(catalogue.run_shard, k, p, index, filters),
            _codes_and_leaves(run_shard_parent, k, p, index, filters))


CRYS = ("crystallization",)
# the unfiltered 5-colored walks through order 8 take half a minute, so the
# tier-1 suite stops them at order 6 (CI's order-10 job runs order 8)
PARENT_RUNS = [(k, 6 if (k, filters) == (5, ()) else 8, filters)
               for k in (3, 4, 5) for filters in ((), CRYS, ("manifold",), ("bipartite",))]


@pytest.mark.parametrize("k, max_order, filters", PARENT_RUNS)
def test_run_shard_matches_parent_walk_shard_by_shard(k, max_order, filters):
    for p, index in catalogue.shard_keys(max_order):
        (codes, leaves), (parent_codes, parent_leaves) = _both_walks(k, p, index, filters)
        assert codes == parent_codes, (p, index)
        assert _is_subsequence(leaves, parent_leaves), (p, index)


def test_run_shard_matches_parent_walk_on_shard_10_2():
    (codes, leaves), (parent_codes, parent_leaves) = _both_walks(5, 10, 2, CRYS)
    assert codes == parent_codes and len(codes) == 107
    assert _is_subsequence(leaves, parent_leaves)
    assert len(leaves) < len(parent_leaves)


def test_prune_on_chosen_colors_cuts_the_order8_leaves():
    # the 5-colored crystallization shards through order 8 meet 40 codes;
    # the leaves left over come from other least-rank color pairs, not from H
    def count(walk):
        return sum(len(_both_walks(5, p, index, CRYS)[walk][1])
                   for p, index in catalogue.shard_keys(8))
    assert (count(0), count(1)) == (217, 538)


@pytest.mark.parametrize("k, shards, filters", [
    (5, catalogue.shard_keys(8), CRYS),
    (4, catalogue.shard_keys(8), ()),
    (5, [(10, 2)], CRYS),
])
def test_prune_keeps_every_h_class_of_leaves(k, shards, filters):
    # H by brute force, on the shards where it has at most 48 elements: the
    # least H-image of each sorted leaf names its class
    checked = 0
    for p, index in shards:
        pi1 = layout_keys(p)[index]
        group = [h for h in _stabilizer(p) if _image(pi1, h) == pi1]
        if len(group) > 48:
            continue

        def h_class(leaf):
            return min(tuple(sorted(_image(m, h) for m in leaf)) for h in group)

        (_, leaves), (_, parent_leaves) = _both_walks(k, p, index, filters)
        assert {h_class(leaf) for leaf in leaves} == {h_class(leaf) for leaf in parent_leaves}, \
            (p, index)
        checked += 1
    assert checked


@pytest.mark.parametrize("k", [4, 5])
def test_triple_test_gives_the_join_only_answer(monkeypatch, k):
    answers = collections.Counter()
    triple_clean = catalogue._triple_clean

    def check(p, g_ab, g_ac, g_bc, pairs):
        pairs = tuple(pairs)
        g_abc = core.join_classes(tuple(range(p)), pairs)[1]
        joined = g_ab + g_ac + g_bc - p // 2 == 2 * g_abc
        assert triple_clean(p, g_ab, g_ac, g_bc, pairs) == joined, (p, g_ab, g_ac, g_bc, pairs)
        answers[joined] += 1
        return joined

    monkeypatch.setattr(catalogue, "_triple_clean", check)
    for p, index in catalogue.shard_keys(8):
        catalogue.run_shard(k, p, index, CRYS)
    assert answers[True] and answers[False]


def test_cycle_partition_counts_the_cycle_lists():
    pool = catalogue.fpf_involutions(10)
    assert len(pool) == 945
    for key in layout_keys(10):
        for m in pool:
            assert catalogue._cycle_partition(key, m) == cycle_partition_by_lists(key, m), (key, m)
