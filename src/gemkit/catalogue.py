"""Exhaustive enumeration of connected gems up to isomorphism, with
filtering, JSONL persistence, checkpoint/resume and a corpus verifier.

Search scheme: every gem can be vertex-relabeled so any one of its colors
is the standard matching (0 1)(2 3)...; the leftover freedom is the
stabilizer of that matching (block permutations times in-block swaps).
The orbits of a second matching under it are the partitions of p/2 into
the lengths of the two matchings' bicolored cycles, and the rank of a
color pair is the index of its partition.  Shard i walks the pool of
matchings that rank at least i with the standard matching; its key is the
pool's least member, which is the least matching of partition i.

Pair rank: a gem belongs to the shard of its least-ranked color pair, with
that pair as colors 0 and 1 at their shard key, and the remaining colors
sorted.  A shard walks only matchings that rank at least the shard with
each color already chosen.

Orbit minimum: H, the vertex permutations fixing colors 0 and 1, maps
those matchings onto themselves and preserves every rank.  Its orbits are
found by union-find over generators (rotation and reflection of each
bicolored cycle, swaps of equal cycles); no color's H-orbit may reach
below color 2, and each color must be the least of its orbit under the
generators that fix every color chosen before it past colors 0 and 1 (at
color 2, all of them).  The least H-image of a labeling passes every test,
so each isomorphism class lies in exactly one shard, and labellings that
differ by a symmetry of colors 0 and 1 meet at most once.  Shards share
nothing: workers run in parallel, and a single merger takes their union,
sorts and writes.  Labellings of one class whose least-rank color pairs
differ still meet within a shard, so duplicates there are removed by
canonical code.

Filters are isomorphism-invariant, so they commute with deduplication; the
cheap ones run on raw matchings before any code is computed.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import namedtuple
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from types import MappingProxyType

from . import classification, core, genus, handles, invariants, recognition
from .errors import GemFormatError, InternalConsistencyError, StructuralError

GENERATOR_VERSION = "gemkit-0.1.0"


# ---------------------------------------------------------------------------
# Involution machinery
# ---------------------------------------------------------------------------

@core.memo
def fpf_involutions(p: int) -> tuple[tuple[int, ...], ...]:
    """All fixed-point-free involutions of 0..p-1, sorted: the recursion
    pairs the least unpaired point with each partner in increasing order,
    and that point's entry is the first in which two of its outputs differ."""
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
    return tuple(out)


def standard_matching(p: int) -> tuple[int, ...]:
    return tuple(v + 1 if v % 2 == 0 else v - 1 for v in range(p))


def _partitions(n: int, least: int = 1):
    """Partitions of n into summands >= least, as non-decreasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(least, n + 1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _alternating_cycles(a: tuple[int, ...], b: tuple[int, ...]) -> list[list[int]]:
    """The bicolored cycles of two fixed-point-free involutions, each as
    v, a(v), b(a(v)), a(b(a(v))), ... from its least vertex."""
    seen = [False] * len(a)
    cycles = []
    for start in range(len(a)):
        cycle = []
        v = start
        while not seen[v]:
            seen[v] = seen[a[v]] = True
            cycle += [v, a[v]]
            v = b[a[v]]
        if cycle:
            cycles.append(cycle)
    return cycles


def _cycle_partition(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The number of ``a``-pairs on each bicolored cycle, ascending, counted
    along each cycle without listing it."""
    seen = bytearray(len(a))
    lengths = []
    for start in range(len(a)):
        v, n = start, 0
        while not seen[v]:
            seen[v] = seen[a[v]] = 1
            n += 1
            v = b[a[v]]
        if n:
            lengths.append(n)
    return tuple(sorted(lengths))


@core.memo
def _shard_of_partition(p: int) -> MappingProxyType:
    """The shard index of each cycle partition of p/2, its place among the
    partitions (read-only).  The rank of two matchings is their partition's."""
    return MappingProxyType({part: i for i, part in enumerate(_partitions(p // 2))})


def _stabilizer_generators(pi0: tuple[int, ...], pi1: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Generators of the vertex permutations that fix both matchings: per
    alternating cycle a rotation by one ``pi0``-pair and a reflection, and
    a swap of each two consecutive cycles of equal length."""
    p = len(pi0)
    cycles = sorted(_alternating_cycles(pi0, pi1), key=len)
    gens = []
    for cycle in cycles:
        n = len(cycle)
        rotation, reflection = list(range(p)), list(range(p))
        for i, v in enumerate(cycle):
            rotation[v] = cycle[(i + 2) % n]
            reflection[v] = cycle[(1 - i) % n]
        gens += [tuple(rotation), tuple(reflection)]
    for one, two in zip(cycles, cycles[1:]):
        if len(one) == len(two):
            swap = list(range(p))
            for v, w in zip(one, two):
                swap[v], swap[w] = w, v
            gens.append(tuple(swap))
    return gens


def _conjugate(m: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """The matching ``m`` with its vertices renamed by ``perm``."""
    img = [0] * len(m)
    for v, w in enumerate(m):
        img[perm[v]] = perm[w]
    return tuple(img)


def _orbit_minima(pool: list[tuple[int, ...]], gens) -> list[int]:
    """For each matching of the sorted ``pool``, which the group generated
    by ``gens`` maps onto itself, the index of the least member of its orbit."""
    index = {m: i for i, m in enumerate(pool)}
    labels, _ = core.join_classes(range(len(pool)),
                                  [(i, index[_conjugate(m, h)])
                                   for i, m in enumerate(pool) for h in gens])
    least = core.residue_roots(labels)
    return [least[label] for label in labels]


# ---------------------------------------------------------------------------
# Filters (isomorphism-invariant)
# ---------------------------------------------------------------------------

# A filter: its color counts (least, greatest or None), whether it keeps only
# crystallizations, and its test on a decoded gem beyond that (None if none).
Filter = namedtuple("Filter", "colors crystallization test", defaults=((0, None), False, None))
FILTERS = MappingProxyType({
    "bipartite": Filter(),  # tested on the raw matchings in the walk
    "manifold": Filter(test=lambda g: recognition.check_closed_manifold(g).is_manifold),
    "crystallization": Filter(crystallization=True),
    "simply-connected": Filter((4, None), True,
                               lambda g: invariants.pi1_certificate(g).status == "trivial"),
    "weak-simple": Filter((5, 5), True,
                          lambda g: invariants.pi1_certificate(g).status != "nontrivial"
                          and bool(classification.detect_weak_simple(g))),
    "handle-witness": Filter((5, 5), True, lambda g: bool(handles.find_hypothesis_witnesses(g))),
})


def _passes_expensive(g: core.ColoredGraph, filters) -> bool:
    """Whether g passes ``filters``, tested as crystallization first if one asks."""
    specs = [FILTERS[f] for f in filters]
    if any(f.crystallization for f in specs) and not recognition.is_crystallization(g):
        return False
    return all(f.test(g) for f in specs if f.test)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogueRecord:
    """One catalogue line: the canonical code plus analysis digests,
    reproducible from the code alone.  A line must carry every field
    without a default."""

    code: str
    order: int
    colors: int
    bipartite: bool
    manifold: dict | None = None
    genus: dict | None = None
    classification: dict | None = None
    handles: dict | None = None
    generator: str = ""

    def to_json_line(self) -> str:
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)},
                          sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> "CatalogueRecord":
        try:
            d = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad JSON, huge ints, deep nesting
            raise GemFormatError(f"bad catalogue line: {exc}") from exc
        if not isinstance(d, dict):
            raise GemFormatError(f"catalogue line is not a JSON object: {line[:80]!r}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if missing:
            raise GemFormatError(f"catalogue line lacks {', '.join(missing)}: {line[:80]!r}")
        if not isinstance(d["code"], str):
            raise GemFormatError(f"catalogue code is not a string: {line[:80]!r}")
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


# The rungs of a record: a graph stands on rung r when the first r gates
# hold.  Records carry the manifold verdict from rung 1, the classification
# from rung 2 and the handle report on rung 3; verify checks on these rungs.
_GATES = (
    lambda g: g.n_colors >= 3,
    lambda g: g.n_colors == 5 and recognition.is_crystallization(g),
    lambda g: invariants.pi1_certificate(g).status == "trivial",
)


def build_record(code_hex: str) -> CatalogueRecord:
    """Analyze the canonical representative of a code.

    Always rebuilt from the decoded graph so that identical codes yield
    byte-identical records regardless of which labeling found them.
    """
    g = core.decode_code(code_hex)
    rung = sum(1 for _ in itertools.takewhile(lambda gate: gate(g), _GATES))
    man_json = recognition.check_closed_manifold(g).to_json() if rung >= 1 else None
    gen_json = genus.genus_all(g).to_json()
    cls_json = hnd_json = None
    if rung >= 2:
        cert = invariants.pi1_certificate(g)
        cls_json = ({"refused": f"pi1 nontrivial (m >= {cert.m})"} if cert.status == "nontrivial"
                    else classification.classification_report(g).to_json())
    if rung == 3:
        hnd_json = handles.handles_report(g).to_json()
    return CatalogueRecord(code=code_hex, order=g.order, colors=g.n_colors,
                           bipartite=core.is_bipartite(g), manifold=man_json,
                           genus=gen_json, classification=cls_json,
                           handles=hnd_json, generator=GENERATOR_VERSION)


# ---------------------------------------------------------------------------
# Shard enumeration
# ---------------------------------------------------------------------------

def shard_keys(max_order: int) -> list[tuple[int, int]]:
    keys = []
    for p in range(2, max_order + 1, 2):
        keys += [(p, i) for i in range(len(_shard_of_partition(p)))]
    return keys


def _triple_clean(p: int, g_ab: int, g_ac: int, g_bc: int, pairs) -> bool:
    """Whether the residue of three matchings of 0..p-1 is a union of
    spheres, given their pair cycle counts and the iterable of all their
    ``pairs``: whether chi = g_ab + g_ac + g_bc - p/2 equals 2 * g_abc.  As
    1 <= g_abc <= each pair count, an odd chi, or one below 2 or above twice
    the least pair count, fails without joining the matchings."""
    chi = g_ab + g_ac + g_bc - p // 2
    if chi % 2 or not 2 <= chi <= 2 * min(g_ab, g_ac, g_bc):
        return False
    return chi == 2 * core.join_classes(range(p), pairs)[1]


def run_shard(n_colors: int, p: int, shard_index: int, filters: tuple[str, ...]) -> list[str]:
    """Canonical codes of the filtered gems of one shard.

    The walk follows the module's pair rank and orbit minimum: colors 0 and
    1 are the standard matching and the shard's key, the least matching of
    its pool (those that rank at least the shard with the standard
    matching), every pair of colors ranks at least the shard, and only
    labellings least under H are walked, H's orbit minima computed once per
    set of generators met.  What ``_check_run`` refuses up to order p is
    refused, and so is an index that names no partition of p/2.

    The nondecreasing matching tuples are walked as a tree carrying the
    vertex partition of the matchings chosen so far, ``whole``, and per
    chosen color the partition of the others, ``hats``; only these DFS
    states are memoized, and in crystallization runs (some filter keeps
    only crystallizations) a leaf dies as soon as ``whole``, which misses
    only the last color there, is disconnected.  In manifold and
    crystallization runs over k >= 4 colors each color triple's
    sphere condition is tested at the depth that chooses its last color,
    and a branch dies once its count of unclean triples exceeds what the
    filter allows; the leaf tests only the triples holding the last color.
    The count never falls, so exactly the leaves that the same test at the
    leaf would pass reach the canonical code.  Each pair of matchings is
    walked and each triple tested once per shard, and each distinct code
    decoded and filtered once.
    """
    filters = _check_run(n_colors, p, filters)
    k = n_colors
    rank = _shard_of_partition(p)
    if not 0 <= shard_index < len(rank):
        raise StructuralError(f"order {p} has shards 0 to {len(rank) - 1}, not {shard_index}")
    pi0 = standard_matching(p)
    cycles = [len(part) for part in rank]  # the bicolored cycles of a pair, by its rank
    with_pi0 = {m: rank[_cycle_partition(pi0, m)] for m in fpf_involutions(p)}
    pool = [m for m, r in with_pi0.items() if r >= shard_index]
    # The key pi1 = pool[0] is L, the least layout of partition i: one block
    # per part, parts ascending, (0 1) for a part 1 and (0 2)(1 4)(3 6)...
    # (2l-3 2l-1) for a part l > 1.  L ranks i.  Let m be another matching of
    # the pool and j the first vertex where they differ, so m[j] > j.  In L,
    # j ends its cycle's open path; above j only the path's other end e and
    # the vertices from f, the least on no path yet, are unpaired, e < f, and
    # L[j] is e or f.  If L[j] == e, m[j] >= f.  If L[j] == f and m[j] == e, m
    # closes a cycle shorter than L's part after the same earlier parts, so
    # m's sorted partition is lexicographically below partition i, and m is
    # not in the pool.  So m > L.
    pi1 = pool[0]
    crys = any(FILTERS[f].crystallization for f in filters)
    want_bipartite = "bipartite" in filters

    all_matchings = [pi0] + pool  # pi1 is mid 1; pool[idx] is mid idx + 1
    pairs_of = [tuple((v, m[v]) for v in range(p) if v < m[v]) for m in all_matchings]
    cache: dict[tuple, tuple] = {}
    # per earlier mid, one byte per mid: 0 unread, else 1 + the pair's rank
    # (fits a byte while p/2 <= 16, 231 partitions; past that bytearray
    # raises ValueError, never wraps).  Pairs with pi0 were read for the pool.
    ranked = {0: bytearray(1 + with_pi0[m] for m in all_matchings)}

    def merge(labels: tuple, mid: int) -> tuple:
        """Partition after adding one matching; memoized on (labels, mid)."""
        key = (labels, mid)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = core.join_classes(labels, pairs_of[mid])
        return hit

    def ranks_in_shard(mid: int) -> bool:
        """Whether the matching ``mid`` ranks >= the shard with pi1 and with
        every color chosen before it; each pair's rank is read once."""
        for earlier in mids[1:]:
            row = ranked.get(earlier)
            if row is None:
                row = ranked[earlier] = bytearray(len(all_matchings))
            if not row[mid]:
                row[mid] = 1 + rank[_cycle_partition(all_matchings[earlier], all_matchings[mid])]
            if row[mid] <= shard_index:
                return False
        return True

    ident = tuple(range(p))
    l0 = merge(ident, 0)[0]
    l1 = merge(ident, 1)[0]
    l01 = merge(l0, 1)[0]
    # Sphere prune mirroring the dimension-specific manifold demands: a
    # 3-colored residue is a union of spheres iff its cycle counts satisfy
    # g_ab + g_bc + g_ca - p/2 == 2 * g_abc, the pair counts read off
    # ranked (``_triple_clean`` joins the matchings only when those allow
    # it).  For k >= 5 every triple must be clean (exactly the
    # manifold-complex condition); for k == 4 crystallizations at most one
    # color may own non-sphere residues (one singular color); other
    # 4-colored runs and surfaces have no condition.
    allowance = (0 if (crys or "manifold" in filters) and k >= 5
                 else 1 if crys and k == 4 else None)

    def triple_clean(a: int, b: int, c: int) -> bool:
        """The sphere test of colors a, b, c, chosen in that order."""
        return _triple_clean(p, cycles[ranked[a][b] - 1], cycles[ranked[a][c] - 1],
                             cycles[ranked[b][c] - 1],
                             itertools.chain(pairs_of[a], pairs_of[b], pairs_of[c]))

    # per (earlier mid, mid) of a triple, one byte per third mid: 0 not yet
    # tested, 1 clean, 2 unclean
    clean: dict[tuple[int, int], bytearray] = {}

    def add_unclean(unclean: int) -> int | None:
        """``unclean`` plus the unclean triples whose last color is the one
        just chosen, or None as soon as that exceeds the allowance."""
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
    mids: list[int] = [0, 1]  # indices into all_matchings of the colors chosen so far

    def survivor():
        rows = tuple(all_matchings[m] for m in mids)
        if want_bipartite and core.two_coloring(rows) is None:
            return
        g = core.ColoredGraph(rows)
        code = core.canonical_code(g).hex()
        if code not in seen:
            seen.add(code)
            if _passes_expensive(core.decode_code(code), filters):
                codes.add(code)

    # Stabilizer prune: a mask of H's generators rides down the tree,
    # ``fixmask``, those fixing every color chosen so far past colors 0 and
    # 1 (all of them at depth 2), and the color chosen at each depth is the
    # least of its orbit under those.  Exact: let t be the least H-image of
    # a leaf's sorted colors m2 <= ... <= m_{k-1}; t passes the tests on
    # color 2.  If some h fixing m2, ..., m_{d-1} had h(m_d) < m_d, the
    # sorted h(t) would be below t, which is impossible; so t passes the
    # test at every depth, and each H-class keeps a leaf.  H preserves
    # ranks and connectivity, so nothing else changes.
    gens = _stabilizer_generators(pi0, pi1)
    full = (1 << len(gens)) - 1
    minima = {full: _orbit_minima(pool, gens)}  # the pool's orbit minima, by mask
    least_in_h = minima[full]
    fixers: list[int | None] = [None] * len(pool)  # per matching, the mask fixing it

    def fixed_by(idx: int) -> int:
        """The mask of the generators that map ``pool[idx]`` onto itself."""
        mask = fixers[idx]
        if mask is None:
            m = pool[idx]
            mask = fixers[idx] = sum(1 << j for j, h in enumerate(gens) if _conjugate(m, h) == m)
        return mask

    def least_under(mask: int) -> list[int]:
        """The pool's orbit minima under the generators in ``mask``."""
        least = minima.get(mask)
        if least is None:
            least = minima[mask] = _orbit_minima(pool, [h for j, h in enumerate(gens)
                                                         if mask >> j & 1])
        return least

    def dfs(depth: int, hats: tuple, whole: tuple, start: int, unclean: int, fixmask: int):
        last = depth == k - 1
        # labels are dense, so max+1 is whole's count
        if last and crys and max(whole) != 0:
            return
        least = least_under(fixmask)
        for idx in range(start, len(pool)):
            mid = idx + 1
            # least under the stabilizer of the chosen colors, and no color's
            # H-orbit reaches below color 2
            if (least[idx] < idx or (depth > 2 and least_in_h[idx] < mids[2] - 1)
                    or not ranks_in_shard(mid)):
                continue
            # a leaf is connected, and in crystallization runs so is each of
            # its hat-residues
            if last and any(merge(s, mid)[1] != 1 for s in (hats if crys else (whole,))):
                continue
            mids.append(mid)
            now = unclean if allowance is None else add_unclean(unclean)
            if now is not None:
                if last:
                    survivor()
                else:
                    dfs(depth + 1, tuple(merge(s, mid)[0] for s in hats) + (whole,),
                        merge(whole, mid)[0], idx, now, fixmask & fixed_by(idx))
            mids.pop()

    dfs(2, (l1, l0), l01, 0, 0, full)
    return sorted(codes)


def _check_run(n_colors: int, max_order: int, filters, jobs: int = 1) -> tuple[str, ...]:
    """Refuse ``n_colors`` outside 3..255 (a canonical code's color field is
    one byte), an odd or too small ``max_order``, ``jobs`` below 1, unknown
    filters and filters not defined for ``n_colors`` colors; returns the
    filters as a tuple."""
    if not 3 <= n_colors <= 255:
        raise StructuralError(f"enumeration needs 3 to 255 colors, not {n_colors}")
    if max_order < 2 or max_order % 2:
        raise StructuralError("max_order must be even and >= 2")
    if jobs < 1:
        raise StructuralError(f"jobs must be at least 1, not {jobs}")
    filters = tuple(filters)
    for f in filters:
        if f not in FILTERS:
            raise StructuralError(f"unknown filter {f!r}; valid: {', '.join(FILTERS)}")
        least, most = FILTERS[f].colors
        if not least <= n_colors <= (most or n_colors):
            need = least if least == most else f"at least {least}"
            raise StructuralError(f"filter {f!r} needs {need} colors, not {n_colors}")
    return filters


def _exit_with_parent() -> None:
    """Pool worker initializer: a daemon thread ends the worker once its
    parent process is gone.  A killed parent cannot shut its pool down, and
    its workers, blocked on their task queue, would otherwise outlive it."""
    import threading
    import time

    def watch(parent: int) -> None:
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(1)

    threading.Thread(target=watch, args=(os.getppid(),), daemon=True).start()


def ProcessPoolExecutor(max_workers: int):
    """The standard library's process pool, imported on the first call:
    only ``jobs`` > 1 uses it, and importing it at ``import gemkit`` would
    load ``multiprocessing`` into every process.  Its workers exit when
    their parent does (``_exit_with_parent``)."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers, initializer=_exit_with_parent)


def _run_shards(n_colors: int, keys, filters: tuple[str, ...], jobs: int = 1):
    """Yield ``(key, codes)`` for each shard key of the list ``keys`` in order,
    run in min(jobs, len(keys)) worker processes if that exceeds 1, else here."""
    workers = min(jobs, len(keys))
    if workers <= 1:
        for p, i in keys:
            yield (p, i), run_shard(n_colors, p, i, filters)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from zip(keys, pool.map(run_shard, itertools.repeat(n_colors),
                                      [p for p, _ in keys], [i for _, i in keys],
                                      itertools.repeat(filters)))


# ---------------------------------------------------------------------------
# Catalogue files
# ---------------------------------------------------------------------------

META_SCHEMA = "gemkit-catalogue-meta/2"


def enumerate_gems(n_colors: int, max_order: int, filters=()) -> list[CatalogueRecord]:
    """In-process enumeration; returns records sorted by canonical code."""
    filters = _check_run(n_colors, max_order, filters)
    codes = set()
    for _, shard in _run_shards(n_colors, shard_keys(max_order), filters):
        codes.update(shard)
    return [build_record(c) for c in sorted(codes)]


def generate_catalogue(path, n_colors: int, max_order: int, filters=(),
                       jobs: int = 1, resume_meta=None) -> dict:
    """Write a JSONL catalogue plus a .meta checkpoint file.

    Shards run in parallel (``jobs`` processes).  The .meta file is the
    only checkpoint: as each shard finishes, its sorted codes are stored
    under its "p:i" key and the file is replaced atomically, so a run
    killed at any instant can be resumed with the same meta path.  A shard
    is done exactly when its entry is a code list; any other entry (such as
    the "done" flag of an older checkpoint) runs again.  Records are written
    in code order as they are built, one at a time, and carry no timestamps:
    two runs with different job counts produce byte-identical catalogues.
    """
    filters = _check_run(n_colors, max_order, filters, jobs)
    path = Path(path)
    meta_path = Path(resume_meta) if resume_meta else Path(str(path) + ".meta")

    if resume_meta and meta_path.exists():
        try:
            meta = json.loads("".join(core.read_lines(meta_path)))
        except (ValueError, RecursionError) as exc:
            raise GemFormatError(f"bad meta file {meta_path}: {exc}") from exc
        if not (isinstance(meta, dict) and isinstance(meta.get("params"), dict)
                and isinstance(meta.get("shards"), dict)
                and all(isinstance(code, str) for codes in meta["shards"].values()
                        if isinstance(codes, list) for code in codes)):
            raise GemFormatError(f"{meta_path} is not a catalogue meta object: it "
                                 "needs a params object and shards of string codes")
        params = meta["params"]
        if (params.get("n_colors"), params.get("max_order"), params.get("filters")) != \
                (n_colors, max_order, list(filters)):
            raise StructuralError("resume parameters differ from the checkpointed run")
        for name, codes in meta["shards"].items():
            for code in codes if isinstance(codes, list) else ():
                try:
                    g = core.decode_code(code)
                    if g.n_colors != n_colors:
                        raise GemFormatError(f"not {n_colors}-colored")
                    if str(g.order) != name.split(":")[0]:  # a shard "p:i" holds order p
                        raise GemFormatError(f"of order {g.order}, under shard {name!r}")
                except GemFormatError as exc:
                    raise GemFormatError(f"{meta_path} holds code {code!r}: {exc}") from exc
        meta["schema"] = META_SCHEMA
    else:
        meta = {
            "schema": META_SCHEMA,
            "params": {"n_colors": n_colors, "max_order": max_order,
                       "filters": list(filters)},
            "generator": GENERATOR_VERSION,
            "started": datetime.now(timezone.utc).isoformat(),
            "completed": None,
            "shards": {},
        }
    shards = meta["shards"]

    def write_meta():
        core.write_lines(meta_path, [json.dumps(meta, indent=1, sort_keys=True)])

    names = {key: f"{key[0]}:{key[1]}" for key in shard_keys(max_order)}
    pending = [key for key, name in names.items() if not isinstance(shards.get(name), list)]
    for key, codes in _run_shards(n_colors, pending, filters, jobs):
        shards[names[key]] = sorted(codes)
        write_meta()

    codes = sorted(set().union(*(shards[name] for name in names.values())))
    core.write_lines(path, (build_record(c).to_json_line() + "\n" for c in codes))
    meta["completed"] = datetime.now(timezone.utc).isoformat()
    meta["records"] = len(codes)
    write_meta()
    return {"records": len(codes), "path": str(path), "meta": str(meta_path)}


def _records_of(path):
    """The records of the catalogue file at ``path``, parsed as each line is read."""
    lines = (line.strip() for line in core.read_lines(path))
    return (CatalogueRecord.from_json_line(line) for line in lines if line)


def read_catalogue(path) -> list[CatalogueRecord]:
    """Every record of the catalogue file at ``path``, in file order."""
    return list(_records_of(path))


# ---------------------------------------------------------------------------
# Corpus verification
# ---------------------------------------------------------------------------

def _check_code(g, rec):
    if core.canonical_code(g).hex() != rec.code:
        raise InternalConsistencyError("re-canonicalization changed the code")


def _check_bipartite(g, rec):
    if core.is_bipartite(g) != rec.bipartite:
        raise InternalConsistencyError("bipartite flag mismatch")


def _check_digests(g, rec):
    # every digest must be reproducible from the code alone, by this generator
    if rec.generator != GENERATOR_VERSION:
        raise InternalConsistencyError(
            f"record written by generator {rec.generator!r}, not {GENERATOR_VERSION!r}")
    if build_record(rec.code) != rec:
        raise InternalConsistencyError("analysis digests drifted from the code")


def _check_manifold(g, rec):
    verdict = recognition.check_closed_manifold(g).verdict
    if rec.manifold and verdict != rec.manifold.get("verdict"):
        raise InternalConsistencyError("manifold verdict drifted")


def _check_residuals(g, rec):
    # pi1 is certified trivial here, so a nonzero residual raises
    for eps in genus.all_cyclic_permutations(5):
        classification.genus_subgenus_residuals(g, eps)


def _check_subgenus_target(g, rec):
    lower = [c for c in range(5) if c != recognition.top_color(g)]
    pinned = [(j, k, s) for j, k in itertools.combinations(lower, 2)
              if handles.pair_condition(g, j, k) for s in lower if s not in (j, k)]
    for j, k, s in pinned:
        handles.subgenus_target(g, j, k, s)
    return bool(pinned)


def _check_collapse(g, rec):
    # the report runs every witness's profile and collapse identities
    return bool(handles.handles_report(g).witnesses)


def _check_sibling(g, rec):
    # holds for every crystallization of a compact 4-manifold, simply-connected or not
    rep = genus.genus_all(g)
    for eps in genus.all_cyclic_permutations(5):
        sub = rep.subgenera[eps]
        for j in range(5):
            if sub[(j - 1) % 5] + sub[(j + 1) % 5] > rep.rho[eps]:
                raise InternalConsistencyError(
                    f"adjacent subgenera exceed the genus at {eps}")


# Every check of verify, in report order: its rung (see ``_GATES``) and its
# test of the decoded graph and the record.  A test returns False where the
# check does not apply, and otherwise None or a report, never False.
_VERIFY = MappingProxyType({
    "decode-recode": (0, _check_code),
    "bipartite-flag": (0, _check_bipartite),
    "record-digests": (0, _check_digests),
    "manifold-verdict": (1, _check_manifold),
    "euler-permutation-independent": (2, lambda g, rec: invariants.euler_via_genus(g)),
    "homology-dual-oracle": (2, lambda g, rec: invariants.homology(g)),
    "genus-subgenus-residuals": (3, _check_residuals),
    "weak-simple-characterization": (3, lambda g, rec:
                                     classification.weak_simple_consistency(g)),
    "betti2-identity": (3, lambda g, rec: invariants.beta2_via_genus(g)),
    "subgenus-pinned": (3, _check_subgenus_target),
    "collapse-identity": (3, _check_collapse),
    "bounds": (3, lambda g, rec: classification.check_bounds(g)),
    "sibling-subgenus-bound": (2, _check_sibling),
})
CHECKS = tuple(_VERIFY)


def verify_record(rec: CatalogueRecord) -> dict[str, str]:
    """Replay every applicable invariant on one record.

    Returns check -> "pass" | "fail: reason" | "skip".  A check runs when
    its rung holds; above a gate that does not hold every check is skipped,
    and above one that raises (the crystallization test, the pi1
    certificate) every check fails with its message.  A code that does not
    decode fails decode-recode alone.
    """
    out = dict.fromkeys(CHECKS, "skip")
    try:
        g = core.decode_code(rec.code)
    except GemFormatError as exc:
        out["decode-recode"] = f"fail: {exc}"
        return out
    held, above = 0, "skip"  # the rung g stands on, and the checks above it
    try:
        while held < len(_GATES) and _GATES[held](g):
            held += 1
    except Exception as exc:  # noqa: BLE001 - verification must report, not die
        above = f"fail: {exc}"
    for name, (rung, check) in _VERIFY.items():
        if rung > held:
            out[name] = above
            continue
        try:
            if check(g, rec) is not False:
                out[name] = "pass"
        except Exception as exc:  # noqa: BLE001 - verification must report, not die
            out[name] = f"fail: {exc}"
    return out


def verify_corpus(records) -> dict:
    """Pass/fail matrix over ``records`` (any iterable, or a catalogue path read
    a line at a time), keeping only the matrix and failures, which list codes."""
    if isinstance(records, (str, os.PathLike)):
        records = _records_of(records)
    matrix = {name: {"pass": 0, "fail": 0, "skip": 0} for name in CHECKS}
    failures = []
    count = 0
    for count, rec in enumerate(records, 1):
        for name, status in verify_record(rec).items():
            kind = status if status in ("pass", "skip") else "fail"
            matrix[name][kind] += 1
            if kind == "fail":
                failures.append({"code": rec.code, "check": name, "reason": status})
    return {"records": count, "checks": matrix, "failures": failures,
            "ok": not failures}
