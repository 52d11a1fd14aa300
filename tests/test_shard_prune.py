"""Shard enumeration against a reference: the leaf-only sphere prune.

The reference walks the same search tree but tests every color triple's
sphere condition only at the leaf.  The library tests each triple when its
last color is chosen and cuts the branch there; the code lists must be
identical.
"""

from __future__ import annotations

import itertools

import pytest

from gemkit import catalogue, core


def run_shard_oracle(k: int, p: int, shard_index: int, filters: tuple[str, ...]) -> list[str]:
    pi0 = catalogue.standard_matching(p)
    pi1 = catalogue.canonical_second_matchings(p)[shard_index]
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


@pytest.mark.parametrize("k, max_order, filters", [
    (5, 6, ("crystallization",)),
    (5, 6, ("manifold",)),
    (5, 6, ("bipartite", "crystallization")),
    (4, 8, ("crystallization",)),
])
def test_run_shard_matches_leaf_prune_oracle(monkeypatch, k, max_order, filters):
    # the prune only cuts leaves the leaf test rejects: the same leaves
    # reach the canonical code
    calls = []
    code_of = core.canonical_code
    monkeypatch.setattr(core, "canonical_code", lambda g: calls.append(g) or code_of(g))
    found = 0
    for p, index in catalogue.shard_keys(k, max_order):
        codes = catalogue.run_shard(k, p, index, filters)
        leaves = calls[:]
        calls.clear()
        assert codes == run_shard_oracle(k, p, index, filters), (p, index)
        assert leaves == calls, (p, index)
        calls.clear()
        found += len(codes)
    assert found > 0
