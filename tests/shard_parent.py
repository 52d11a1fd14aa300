"""A frozen copy of the shard walk before the prune on the chosen colors.

`run_shard_parent` prunes by the least-rank color pair, by the orbit of
color 2 under H (the vertex permutations fixing colors 0 and 1), by the
sphere test of each color triple and by connectivity, exactly as the
library did before it also pruned by the stabilizer of the colors chosen
so far.  It is the oracle for that prune: each of its shards finds the
same codes as the library's, through more leaves.  Its pair ranks come
from the cycle lists of `cycle_partition_by_lists`, and its triple test
always joins the three matchings.

`layout_keys` builds the shard keys in closed form, one least layout of
the cycles per partition; the library reads each key off its shard's pool,
and the oracles take theirs from here.  `orbit_minima` reads each pool
matching's orbit minimum off the library's table of generator images.
"""

from __future__ import annotations

import itertools

from gemkit import catalogue, core


def cycle_layout(length: int) -> list[int]:
    """The least matching of 0..2*length-1 that closes the standard pairs
    into one alternating cycle: pairs (0 2), (1 4), (3 6), ..., and last
    (2*length-3, 2*length-1)."""
    if length == 1:
        return [1, 0]
    pairs = [(0, 2)] + [(2 * i - 1, 2 * i + 2) for i in range(1, length - 1)]
    pairs.append((2 * length - 3, 2 * length - 1))
    m = [0] * (2 * length)
    for a, b in pairs:
        m[a], m[b] = b, a
    return m


def layout_keys(p: int) -> tuple[tuple[int, ...], ...]:
    """One least layout per alternating-cycle partition of p/2, in partition
    order: the least single-cycle layout of each part, parts ascending."""
    reps = []
    for part in catalogue._partitions(p // 2):
        m: list[int] = []
        for length in part:
            m += [len(m) + x for x in cycle_layout(length)]
        reps.append(tuple(m))
    return tuple(reps)


def orbit_minima(pool: list[tuple[int, ...]], gens) -> list[int]:
    """For each matching of the sorted ``pool``, which the group generated
    by ``gens`` maps onto itself, the index of the least member of its orbit."""
    return catalogue._least_in_orbits(len(pool), catalogue._generator_images(pool, gens))


def cycle_partition_by_lists(a, b) -> tuple[int, ...]:
    """The number of ``a``-pairs on each bicolored cycle, ascending, read
    off the cycle lists."""
    return tuple(sorted(len(cycle) // 2 for cycle in catalogue._alternating_cycles(a, b)))


def run_shard_parent(n_colors: int, p: int, shard_index: int, filters: tuple[str, ...]) -> list[str]:
    """The canonical codes of one shard, found by the walk without the
    prune on the chosen colors."""
    k = n_colors
    pi0 = catalogue.standard_matching(p)
    pi1 = layout_keys(p)[shard_index]
    rank = catalogue._shard_of_partition(p)
    cycles = [len(part) for part in rank]
    with_pi0 = {m: rank[cycle_partition_by_lists(pi0, m)] for m in catalogue.fpf_involutions(p)}
    pool = [m for m, r in with_pi0.items() if r >= shard_index]
    least = orbit_minima(pool, catalogue._stabilizer_generators(pi0, pi1))
    crys = any(catalogue.FILTERS[f].crystallization for f in filters)
    want_bipartite = "bipartite" in filters

    all_matchings = [pi0, pi1] + pool
    pairs_of = [tuple((v, m[v]) for v in range(p) if v < m[v]) for m in all_matchings]
    cache: dict[tuple, tuple] = {}
    ranked = {0: bytearray(1 + with_pi0[m] for m in all_matchings)}

    def merge(labels: tuple, mid: int) -> tuple:
        key = (labels, mid)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = core.join_classes(labels, pairs_of[mid])
        return hit

    def ranks_in_shard(mid: int) -> bool:
        for earlier in mids[1:]:
            row = ranked.get(earlier)
            if row is None:
                row = ranked[earlier] = bytearray(len(all_matchings))
            if not row[mid]:
                row[mid] = 1 + rank[cycle_partition_by_lists(all_matchings[earlier],
                                                             all_matchings[mid])]
            if row[mid] <= shard_index:
                return False
        return True

    ident = tuple(range(p))
    l0 = merge(ident, 0)[0]
    l1 = merge(ident, 1)[0]
    l01 = merge(l0, 1)[0]
    init_states = tuple(l1 if h == 0 else (l0 if h == 1 else l01) for h in range(k))
    if (crys or "manifold" in filters) and k >= 5:
        allowance = 0
    elif crys and k == 4:
        allowance = 1
    else:
        allowance = None

    def triple_clean(a: int, b: int, c: int) -> bool:
        g_abc = core.join_classes(ident, itertools.chain(pairs_of[a], pairs_of[b], pairs_of[c]))[1]
        return (cycles[ranked[a][b] - 1] + cycles[ranked[a][c] - 1] + cycles[ranked[b][c] - 1]
                - p // 2 == 2 * g_abc)

    clean: dict[tuple[int, int], bytearray] = {}

    def add_unclean(unclean: int) -> int | None:
        mc = mids[-1]
        for a, b in itertools.combinations(mids[:-1], 2):
            row = clean.get((a, b))
            if row is None:
                row = clean[(a, b)] = bytearray(len(all_matchings))
            if not row[mc]:
                row[mc] = 1 if triple_clean(a, b, mc) else 2
            if row[mc] == 2:
                unclean += 1
                if unclean > allowance:
                    return None
        return unclean

    codes: set[str] = set()
    seen: set[str] = set()
    mids: list[int] = [0, 1]

    def survivor():
        rows = tuple(all_matchings[m] for m in mids)
        if want_bipartite and core.two_coloring(rows) is None:
            return
        g = core.ColoredGraph(rows)
        code = core.canonical_code(g).hex()
        if code not in seen:
            seen.add(code)
            if catalogue._passes_expensive(core.decode_code(code), filters):
                codes.add(code)

    def dfs(depth: int, states: tuple, start: int, unclean: int):
        last = depth == k - 1
        if last and crys and max(states[k - 1]) != 0:
            return
        for idx in range(start, len(pool)):
            mid = idx + 2
            if least[idx] < (idx if depth == 2 else mids[2] - 2) or not ranks_in_shard(mid):
                continue
            if last and any(merge(states[h], mid)[1] != 1
                            for h in (range(k - 1) if crys else (k - 1,))):
                continue
            mids.append(mid)
            now = unclean if allowance is None else add_unclean(unclean)
            if now is not None:
                if last:
                    survivor()
                else:
                    new_states = tuple(states[h] if h == depth else merge(states[h], mid)[0]
                                       for h in range(k))
                    dfs(depth + 1, new_states, idx, now)
            mids.pop()

    dfs(2, init_states, 0, 0)
    return sorted(codes)
