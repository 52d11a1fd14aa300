"""Colored-graph data model: gems stored as one perfect matching per color.

A gem (graph-encoded manifold) on k colors is a k-regular multigraph with a
proper edge coloring: every vertex meets exactly one edge of each color, so
the c-colored edges form a fixed-point-free involution pi_c of the vertex
set.  ``matchings[c][v]`` is the vertex joined to ``v`` by its c-colored
edge.  Loops are forbidden; parallel edges of distinct colors are fine.

This module owns the graph value type, the partition primitives (one
union-find, one two-coloring, one spanning tree), residues (connected
components of color-restricted spanning subgraphs), bipartiteness,
canonical codes, connected sums, dipole moves and the `.gem` text format.
"""

from __future__ import annotations

import heapq
import itertools
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .errors import GemFormatError, StructuralError

COLOR_PRESERVING = "color-preserving"
UP_TO_COLOR_PERMUTATION = "up-to-color-permutation"
# Entries kept by each memo.  An enumeration asks for each code once (no
# hits), while one analysis asks many times for the same facts of one
# graph; the bound keeps the latter and stops the former from growing
# without limit.
MEMO_BOUND = 4096
MEMOS: list = []  # every memoised function, in definition order


def memo(fn):
    """``fn`` memoised by ``lru_cache`` under ``MEMO_BOUND``, registered in
    ``MEMOS``.  Exceptions are not kept, so a failing check fails on every
    call; results are shared between callers, so they must be immutable."""
    MEMOS.append(lru_cache(maxsize=MEMO_BOUND)(fn))
    return MEMOS[-1]


@dataclass(frozen=True, slots=True)
class ColoredGraph:
    """Immutable k-regular properly edge-colored multigraph.

    All operations in gemkit are pure functions over this value; "mutation"
    is construction of a new graph, so instances are safe to share freely.
    Equality is by value; the hash is computed once, at construction, as
    the value-keyed memos hash a graph on every lookup.  Slots keep each
    instance small, as the memos hold many.
    """

    matchings: tuple[tuple[int, ...], ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.matchings)
        object.__setattr__(self, "matchings", rows)
        if not rows:
            raise StructuralError("a gem needs at least one color")
        p = len(rows[0])
        if p < 2 or p % 2:
            raise StructuralError(f"vertex count must be even and >= 2, got {p}")
        for c, row in enumerate(rows):
            if len(row) != p:
                raise StructuralError(f"color {c}: expected {p} entries, got {len(row)}")
            for v, w in enumerate(row):
                if not 0 <= w < p:
                    raise StructuralError(f"color {c}: vertex {w} out of range")
                if w == v:
                    raise StructuralError(f"color {c}: loop at vertex {v}")
                if row[w] != v:
                    raise StructuralError(f"color {c}: not an involution at vertex {v}")
        object.__setattr__(self, "_hash", hash(rows))

    def __hash__(self):
        return self._hash

    @property
    def order(self) -> int:
        return len(self.matchings[0])

    @property
    def n_colors(self) -> int:
        return len(self.matchings)

    @property
    def colors(self) -> range:
        return range(len(self.matchings))

    def relabel(self, perm) -> "ColoredGraph":
        """Image under the vertex bijection ``v -> perm[v]``."""
        p = self.order
        perm = tuple(perm)
        if sorted(perm) != list(range(p)):
            raise StructuralError("relabel: not a vertex permutation")
        rows = []
        for row in self.matchings:
            new = [0] * p
            for v, w in enumerate(row):
                new[perm[v]] = perm[w]
            rows.append(tuple(new))
        return ColoredGraph(tuple(rows))

    def recolor(self, perm) -> "ColoredGraph":
        """Image under the color bijection ``c -> perm[c]``."""
        k = self.n_colors
        perm = tuple(perm)
        if sorted(perm) != list(range(k)):
            raise StructuralError("recolor: not a color permutation")
        rows = [()] * k
        for c, row in enumerate(self.matchings):
            rows[perm[c]] = row
        return ColoredGraph(tuple(rows))

    def __repr__(self):
        return f"ColoredGraph(order={self.order}, colors={self.n_colors})"


def residue_key(colors) -> tuple[int, ...]:
    """Canonical (sorted, duplicate-free) form of a color subset."""
    key = tuple(sorted(set(colors)))
    if not key:
        raise StructuralError("residue key must be a nonempty color set")
    return key


def complement_key(colors, n_colors: int) -> tuple[int, ...]:
    """Colors NOT in ``colors`` — the hat notation for residues."""
    drop = set(colors)
    return tuple(c for c in range(n_colors) if c not in drop)


def checked_key(g: ColoredGraph, key) -> tuple[int, ...]:
    """``residue_key(key)``, refused unless every color is one of g's."""
    key = residue_key(key)
    if key[-1] >= g.n_colors or key[0] < 0:
        raise StructuralError(f"color out of range in key {key}")
    return key


# ---------------------------------------------------------------------------
# Partitions: union-find, two-coloring, spanning trees
# ---------------------------------------------------------------------------

def find(parent: list[int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def join_classes(labels, pairs) -> tuple[tuple[int, ...], int]:
    """Coarsen a dense vertex partition by joining the classes of both ends
    of every pair.

    Returns ``(labels, count)``: the new class of each vertex, classes
    numbered 0.. in order of first appearance by vertex index.
    """
    size = max(labels) + 1
    parent = list(range(size))
    for a, b in pairs:
        ra, rb = find(parent, labels[a]), find(parent, labels[b])
        if ra != rb:
            parent[rb] = ra
    dense = [-1] * size
    out = []
    count = 0
    for x in labels:
        r = find(parent, x)
        if dense[r] < 0:
            dense[r] = count
            count += 1
        out.append(dense[r])
    return tuple(out), count


def two_coloring(rows, start: int = 0) -> tuple[int, ...] | None:
    """Vertex 2-coloring of the matchings ``rows`` consistent with every
    edge of the component of vertex ``start`` (which gets class 0), or None
    if that component has an odd cycle."""
    side = [-1] * len(rows[0])
    side[start] = 0
    stack = [start]
    while stack:
        v = stack.pop()
        for row in rows:
            w = row[v]
            if side[w] < 0:
                side[w] = 1 - side[v]
                stack.append(w)
            elif side[w] == side[v]:
                return None
    return tuple(side)


def spanning_tree(n_nodes: int, edges) -> list[int]:
    """Breadth-first spanning tree of a multigraph on nodes 0..n_nodes-1.

    ``edges`` lists (a, b) node pairs; returns the indices of the tree
    edges in discovery order, scanning each node's edges by index.  The
    tree spans every node iff it has n_nodes - 1 edges.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    for idx, (a, b) in enumerate(edges):
        adj[a].append((idx, b))
        adj[b].append((idx, a))
    seen = [False] * n_nodes
    seen[0] = True
    tree = []
    frontier = [0]
    for node in frontier:
        for idx, other in adj[node]:
            if not seen[other]:
                seen[other] = True
                tree.append(idx)
                frontier.append(other)
    return tree


# ---------------------------------------------------------------------------
# Residues
# ---------------------------------------------------------------------------

@memo
def residue_labels(g: ColoredGraph, key: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Component labels of the spanning subgraph on ``key`` colors.

    Returns ``(labels, count)`` where labels[v] is the component id of v,
    ids numbered 0.. in order of first appearance by vertex index.
    """
    rows = [g.matchings[c] for c in key]
    labels, count = [-1] * g.order, 0
    for start in range(g.order):
        if labels[start] < 0:
            labels[start], queue = count, [start]
            for x in queue:
                for row in rows:
                    if labels[y := row[x]] < 0:
                        labels[y] = count
                        queue.append(y)
            count += 1
    return tuple(labels), count


def residue_roots(labels) -> tuple[int, ...]:
    """Least vertex of each class of a residue labelling (as returned by
    ``residue_labels``), indexed by label."""
    roots = []
    for v, lab in enumerate(labels):
        if lab == len(roots):  # labels number residues by first appearance
            roots.append(v)
    return tuple(roots)


def residue_count(g: ColoredGraph, key) -> int:
    """Number of ``key``-residues: components of the ``key``-colored subgraph."""
    return residue_labels(g, checked_key(g, key))[1]


def hat_residue_counts(g: ColoredGraph) -> dict[int, int]:
    """Color c -> number of residues missing only c; g needs two colors,
    since a residue is over at least one."""
    if g.n_colors < 2:
        raise StructuralError(f"hat-residues need at least 2 colors, not {g.n_colors}")
    return {c: residue_count(g, complement_key((c,), g.n_colors)) for c in g.colors}


@dataclass(frozen=True)
class Residue:
    """One connected component of a color-restricted spanning subgraph.

    ``graph`` is the component re-indexed as a standalone gem over
    ``len(key)`` colors; ``graph`` color j corresponds to ``key[j]``.
    """

    key: tuple[int, ...]
    vertices: tuple[int, ...]
    graph: ColoredGraph


def extract_residues(g: ColoredGraph, key) -> list[Residue]:
    """All ``key``-residues of g, as standalone re-indexed gems.

    The vertex sets partition the vertices of g.
    """
    key = checked_key(g, key)
    labels, count = residue_labels(g, key)
    groups: list[list[int]] = [[] for _ in range(count)]
    for v, lab in enumerate(labels):
        groups[lab].append(v)
    return [Residue(key=key, vertices=tuple(verts),
                    graph=residue_graph(g.matchings, key, verts)) for verts in groups]


def residue_graph(rows, key, verts) -> ColoredGraph:
    """The ``key``-residue of the matchings ``rows`` on vertex set
    ``verts`` as a standalone gem: vertex i is verts[i], color j is key[j]."""
    index = {v: i for i, v in enumerate(verts)}
    return ColoredGraph(tuple(tuple(index[rows[c][v]] for v in verts) for c in key))


def is_connected(g: ColoredGraph) -> bool:
    return residue_labels(g, tuple(g.colors))[1] == 1


def require_connected(g: ColoredGraph):
    """Refuse a disconnected graph: every analysis is stated for connected gems."""
    if not is_connected(g):
        raise StructuralError("operation requires a connected graph")


@memo
def bipartition(g: ColoredGraph) -> tuple[int, ...] | None:
    """Vertex 2-coloring consistent with every edge, or None if impossible.

    Class of vertex 0 is 0.  Requires a connected graph.
    """
    require_connected(g)
    return two_coloring(g.matchings)


def is_bipartite(g: ColoredGraph) -> bool:
    return bipartition(g) is not None


# ---------------------------------------------------------------------------
# Canonical codes
# ---------------------------------------------------------------------------

def _bfs_stream(matchings, p, start, color_order, best):
    """Adjacency stream of the BFS relabeling seeded at (start, color_order).

    Vertices are renamed 0.. in discovery order, neighbors scanned in
    ``color_order``; the stream lists the renamed neighbor of each vertex,
    vertex-major then color.  Returns ``(stream, order)``, where vertex
    ``order[i]`` is renamed i, or None as soon as the stream is
    lexicographically worse than ``best``.
    """
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
    return stream, order


def _minimal_first_rows(matchings, p, k, permute):
    """Yield each start whose stream has the least first row, with a lazy
    iterable of the color orders that attain it.

    The first row names the neighbors of the start in first-appearance
    order, so it depends only on how the colors group by the neighbor
    they reach.  With the identity color order each start has one row;
    when colors may be permuted the least row lists the groups largest
    first (1,1,1,2,2 beats 1,1,2,2,2 and 1,2,1,...), so the winning starts
    have the greatest descending group-size profile, and every order
    that keeps the groups contiguous, largest first, attains it.  Colors
    with equal matchings fall in one group, and swapping them leaves the
    gem and so every stream unchanged: such colors are listed in
    ascending order only.
    """
    best_row, winners = None, []
    for start in range(p):
        groups = {}
        for c in range(k):
            groups.setdefault(matchings[c][start], []).append(c)
        if permute:
            blocks = sorted(groups.values(), key=len, reverse=True)
            order = [c for b in blocks for c in b]
        else:
            blocks, order = None, range(k)
        seen = {}
        row = [seen.setdefault(matchings[c][start], len(seen) + 1) for c in order]
        if best_row is None or row < best_row:
            best_row, winners = row, []
        if row == best_row:
            winners.append((start, blocks))
    twin = [matchings.index(m) for m in matchings] if permute else None
    for start, blocks in winners:
        yield start, (_color_orders(blocks, twin) if permute else (tuple(range(k)),))


def _color_orders(blocks, twin):
    """The color orders listing ``blocks`` contiguously, largest first:
    equal-size blocks in any order, each block's colors in any order that
    keeps colors of one ``twin`` class (equal matchings) ascending."""
    own = [_block_orders(b, twin) for b in blocks]
    runs = []
    for _, run in itertools.groupby(range(len(blocks)), key=lambda i: len(blocks[i])):
        runs.append([sum(inner, ()) for outer in itertools.permutations(run)
                     for inner in itertools.product(*(own[i] for i in outer))])
    for parts in itertools.product(*runs):
        yield sum(parts, ())


def _block_orders(block, twin):
    """The orders of one block's colors, colors of one twin class ascending."""
    classes = {}
    for c in block:  # blocks list their colors in ascending order
        classes.setdefault(twin[c], []).append(c)
    if len(classes) == len(block):
        return tuple(itertools.permutations(block))
    return tuple(_interleavings(list(classes.values())))


def _interleavings(seqs):
    """Every merge of the sequences ``seqs`` that keeps each one's order."""
    if not any(seqs):
        yield ()
        return
    for i, s in enumerate(seqs):
        if s:
            for tail in _interleavings(seqs[:i] + [s[1:]] + seqs[i + 1:]):
                yield (s[0],) + tail


@memo
def canonical_code(g: ColoredGraph, flavor: str = UP_TO_COLOR_PERMUTATION) -> bytes:
    """The bytes identifying the connected g up to the isomorphism flavor
    that byte 0 records (1: up to color permutation): equal codes iff
    isomorphic.  Found via the lexicographically minimal BFS adjacency stream.

    The minimum is over every start vertex and (for the
    up-to-color-permutation flavor) every color order, found by
    branch-and-bound pruning against the current minimum.  Only the pairs
    whose first row - the labels of the start's neighbors - is least are
    streamed (`_minimal_first_rows`): the least stream has the least
    first row, since the row is its prefix, so the restriction is exact.

    A stream equal to the least so far is an automorphism: it maps the
    vertex the least stream discovered i-th to the one this stream
    discovered i-th (and colors position by position).  Start vertices
    are joined into orbits under the automorphisms found (``find``); a
    start whose orbit holds a finished start is skipped, and a start is
    left as soon as a tie joins it to such an orbit.  Every pair so
    skipped is the image under an automorphism of a streamed pair, with
    the same stream, so the code bytes are those of the full search.  The
    code is decodable: it contains the full adjacency of the canonical
    representative.  Orders above 65535 do not fit its 2-byte order
    field, nor more than 255 colors its 1-byte color field.
    """
    if flavor not in (COLOR_PRESERVING, UP_TO_COLOR_PERMUTATION):
        raise StructuralError(f"unknown code flavor {flavor!r}")
    p, k = g.order, g.n_colors
    if p > 0xFFFF:
        raise StructuralError(f"canonical codes hold orders up to 65535, not {p}")
    if k > 0xFF:
        raise StructuralError(f"canonical codes hold up to 255 colors, not {k}")
    require_connected(g)
    best = best_order = None
    orbit = list(range(p))  # union-find of the starts under the automorphisms found
    finished = [False] * p  # by orbit root: the orbit holds a finished start
    for start, color_orders in _minimal_first_rows(
            g.matchings, p, k, flavor == UP_TO_COLOR_PERMUTATION):
        if finished[find(orbit, start)]:
            continue
        for color_order in color_orders:
            found = _bfs_stream(g.matchings, p, start, color_order, best)
            if found is None:
                continue
            if found[0] != best:
                best, best_order = found
                continue
            for v, w in zip(best_order, found[1]):
                rv, rw = find(orbit, v), find(orbit, w)
                if rv != rw:
                    orbit[rw] = rv
                    finished[rv] = finished[rv] or finished[rw]
            if finished[find(orbit, start)]:
                break
        finished[find(orbit, start)] = True
    width = 1 if p <= 0xFF else 2
    head = bytes([flavor == UP_TO_COLOR_PERMUTATION, k, width]) + p.to_bytes(2, "big")
    body = b"".join(x.to_bytes(width, "big") for x in best)
    return head + body


def decode_code(code: bytes | str) -> ColoredGraph:
    """Rebuild the canonical representative graph from its code, given as
    bytes or as a hex string."""
    data = code
    if isinstance(code, str):
        try:
            data = bytes.fromhex(code)
        except ValueError as exc:
            raise GemFormatError(f"bad code hex: {exc}") from exc
    if len(data) < 5:
        raise GemFormatError("canonical code too short")
    k, width = data[1], data[2]
    if k == 0:
        raise GemFormatError("canonical code has no colors")
    if width not in (1, 2):
        raise GemFormatError(f"canonical code width {width} is not 1 or 2")
    p = int.from_bytes(data[3:5], "big")
    body = data[5:]
    if len(body) != p * k * width:
        raise GemFormatError("canonical code length mismatch")
    vals = [int.from_bytes(body[i:i + width], "big") for i in range(0, len(body), width)]
    rows = tuple(tuple(vals[v * k + c] for v in range(p)) for c in range(k))
    try:
        return ColoredGraph(rows)
    except StructuralError as exc:
        raise GemFormatError(f"code does not encode a gem: {exc}") from exc


# ---------------------------------------------------------------------------
# Connected sum
# ---------------------------------------------------------------------------

def connected_sum(g1: ColoredGraph, g2: ColoredGraph, v1: int = 0,
                  v2: int | None = None) -> ColoredGraph:
    """Graph connected sum: delete v1, v2 and splice the hanging edges
    color by color.  Order is p1 + p2 - 2.

    When both inputs are bipartite and v2 is not given, v2 is chosen in the
    class opposite to v1 (classes read off the canonical bipartitions), the
    orientable-case convention; the result is then bipartite.  Orientation
    is not tracked beyond that: repeated ``connected_sum(g, cp2)`` mixes
    CP2 and -CP2 summands (cp2#10 built so has signature +-2, not +-10),
    which beta2 and the genus cannot tell apart.
    """
    if g1.n_colors != g2.n_colors:
        raise StructuralError("connected sum needs equal color counts")
    require_connected(g1)
    require_connected(g2)
    if not 0 <= v1 < g1.order:
        raise StructuralError("v1 out of range")
    if v2 is None:
        b1, b2 = bipartition(g1), bipartition(g2)
        if b1 is not None and b2 is not None:
            v2 = next(w for w in range(g2.order) if b2[w] != b1[v1])
        else:
            v2 = 0
    if not 0 <= v2 < g2.order:
        raise StructuralError("v2 out of range")

    rows = _union_rows(g1, g2)
    w2 = g1.order + v2
    _splice_out(rows, v1, w2)
    return residue_graph(rows, g1.colors, [w for w in range(len(rows[0])) if w not in (v1, w2)])


def disjoint_union(g1: ColoredGraph, g2: ColoredGraph) -> ColoredGraph:
    if g1.n_colors != g2.n_colors:
        raise StructuralError("disjoint union needs equal color counts")
    return ColoredGraph(_union_rows(g1, g2))


def _union_rows(g1: ColoredGraph, g2: ColoredGraph) -> list[list[int]]:
    """Mutable matchings of g1 beside g2, g2's vertices shifted past g1's."""
    off = g1.order
    return [list(r1) + [w + off for w in r2] for r1, r2 in zip(g1.matchings, g2.matchings)]


# ---------------------------------------------------------------------------
# Dipole moves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dipole:
    """A pair of vertices joined by exactly the edges of ``colors``, lying in
    distinct residues over the complementary colors.

    ``proper`` records whether elimination provably preserves the
    represented polyhedron (True), provably changes it (False), or could
    not be certified (None — never auto-eliminated).
    """

    vertices: tuple[int, int]
    colors: tuple[int, ...]
    proper: bool | None


def _residues_split(rows, comp, u: int, v: int) -> bool:
    """Whether u and v lie in distinct ``comp``-residues of ``rows``: a
    search from both in turn, ended when they meet or the smaller is spent."""
    side, queues = {u: 0, v: 1}, ([u], [v])
    for i in itertools.count():
        for s, queue in enumerate(queues):
            if i == len(queue):
                return True
            x = queue[i]
            for c in comp:
                y = rows[c][x]
                t = side.get(y)
                if t is None:
                    side[y] = s
                    queue.append(y)
                elif t != s:
                    return False


def _residue_at(rows, comp, x: int) -> ColoredGraph:
    """The ``comp``-residue of ``rows`` at x, vertices in increasing order."""
    verts, seen = [x], {x}
    for y in verts:
        for c in comp:
            z = rows[c][y]
            if z not in seen:
                seen.add(z)
                verts.append(z)
    return residue_graph(rows, comp, sorted(verts))


def _dipole_properness(rows, comp, u: int, v: int) -> bool | None:
    # Proper when at least one of the two complementary residues, at u and
    # at v, represents a sphere; certification delegated to recognition.
    from . import recognition

    statuses = set()
    for x in (u, v):  # v's residue is certified only if u's is no sphere
        statuses.add(recognition.sphere_certificate(_residue_at(rows, comp, x)).status)
        if recognition.CERTIFIED_SPHERE in statuses:
            return True
    return False if statuses == {recognition.CERTIFIED_NONSPHERE} else None


def find_dipoles(g: ColoredGraph) -> tuple[Dipole, ...]:
    """All dipoles of g (pairs joined by 1..k-1 equally-colored edges whose
    endpoints lie in distinct complementary residues), with properness flags.

    Order-2 graphs have none by definition.
    """
    require_connected(g)
    rows = g.matchings
    out = []
    for u in range(g.order):
        for v in {row[u] for row in rows if row[u] > u}:
            comp = tuple(c for c in g.colors if rows[c][u] != v)
            if comp and _residues_split(rows, comp, u, v):
                out.append(Dipole(vertices=(u, v), colors=complement_key(comp, g.n_colors),
                                  proper=_dipole_properness(rows, comp, u, v)))
    out.sort(key=lambda d: (d.vertices, d.colors))
    return tuple(out)


def add_dipole(g: ColoredGraph, at_vertex: int, colors) -> ColoredGraph:
    """Insert a proper dipole of the given colors next to ``at_vertex``.

    Two vertices u = p, v = p+1 are appended, joined to each other by the
    dipole colors; for every other color d, v takes over the d-edge slot at
    ``at_vertex`` and u picks up its old endpoint.  The complementary
    residue of v is then the order-2 sphere {v, at_vertex}, so the insertion
    is always proper, and eliminating (u, v) restores g exactly.
    """
    colors = checked_key(g, colors)
    k, p = g.n_colors, g.order
    if not 1 <= len(colors) <= k - 1:
        raise StructuralError("dipole must use between 1 and k-1 colors")
    if not 0 <= at_vertex < p:
        raise StructuralError("vertex out of range")
    u, v = p, p + 1
    cset = set(colors)
    rows = []
    for c in g.colors:
        row = list(g.matchings[c]) + [0, 0]
        if c in cset:
            row[u], row[v] = v, u
        else:
            y = g.matchings[c][at_vertex]
            row[u], row[y] = y, u
            row[v], row[at_vertex] = at_vertex, v
        rows.append(tuple(row))
    return ColoredGraph(tuple(rows))


def eliminate_dipole(g: ColoredGraph, vertices, colors=None) -> ColoredGraph:
    """Remove a dipole pair and rejoin the hanging edges color by color.

    ``vertices`` must form a valid dipole; ``colors``, when given, must
    match the joining color set exactly.
    """
    u, v = sorted(vertices)
    if not (0 <= u < g.order and 0 <= v < g.order and u != v):
        raise StructuralError("invalid dipole vertices")
    if g.order <= 2:
        raise StructuralError("cannot eliminate a dipole from an order-2 graph")
    comp = tuple(c for c in g.colors if g.matchings[c][u] != v)
    joining = complement_key(comp, g.n_colors)
    if colors is not None and residue_key(colors) != joining:
        raise StructuralError(f"vertices {u},{v} are joined by {joining}, not {tuple(colors)}")
    if not joining or not comp:
        raise StructuralError(f"vertices {u},{v} do not form a dipole")
    if not _residues_split(g.matchings, comp, u, v):
        raise StructuralError(f"vertices {u},{v} lie in the same complementary residue")

    rows = [list(row) for row in g.matchings]
    _splice_out(rows, u, v)
    return residue_graph(rows, g.colors, [w for w in range(g.order) if w not in (u, v)])


def _splice_out(rows, u: int, v: int) -> None:
    """Rejoin in place, color by color, the edges of ``rows`` at u and v."""
    for row in rows:  # a color joining u and v maps them to each other: no-op
        a, b = row[u], row[v]
        row[a], row[b] = b, a


def _needs_certification(g: ColoredGraph) -> bool:
    """Whether ``reduce`` must certify each dipole of g (see there)."""
    if g.n_colors <= 3:
        return False
    from . import recognition

    mc = recognition.check_closed_manifold(g)
    return mc.conditional or mc.verdict != f"closed-{g.n_colors - 1}-manifold"


def reduce(g: ColoredGraph) -> ColoredGraph:
    """Greedily eliminate proper dipoles until none are left.

    Dipoles flagged improper or unknown are never eliminated.  The proper
    dipole (u, v), u < v, with the greatest (v, u) goes first, so freshly
    added dipoles are unwound in reverse insertion order.  Returns g itself
    when nothing is eliminated.

    One mutable copy of the matchings is reduced in place: u and v are
    spliced out and marked dead, and the survivors keep their ids until
    one renumbering, in order, at the end, so the greatest (v, u) picks
    the same dipoles.  The residue test walks the complementary residues
    at u and at v in turn (about twice the smaller one).

    Adjacent pairs wait in a worklist, a max-heap on (v, u), and each is
    tested once.  This is exact because eliminating a dipole (a, b) never
    splits a residue.  Only the residues at a and b change.  Over colors
    C within the joining colors that residue is {a, b} and vanishes.
    Otherwise every survivor in it reaches a neighbor x_c of a or y_c of
    b by a C-color c not joining a and b; two x_c are joined by their
    bicolored cycle through a, which stays in a's complementary residue
    and so misses b (likewise for the y_c); and the splice joins each x_c
    to y_c.  So a pair found in one residue stays so while both ends
    live, and is dropped.  Edges between survivors are never removed; a
    splice adds the pairs (x_c, y_c), whose joining colors change, and
    only those are queued again.

    Certification is skipped, decided once from the input, when every
    dipole is known to be proper: over at most 3 colors every
    complementary residue has at most 2 colors, so it is a sphere; and
    every residue of a gem certified (unconditionally) a closed manifold is
    a sphere.  Eliminating a proper dipole keeps the manifold, so this
    holds at every later step.  Otherwise both complementary residues of
    each candidate are certified before elimination, and a dipole that is
    not certified proper is queued again after the next elimination, as
    residues that merge can change a certificate.
    """
    require_connected(g)
    return reduce_dipoles(g, _needs_certification(g))


def reduce_dipoles(g: ColoredGraph, certify: bool) -> ColoredGraph:
    """``reduce``'s loop; ``certify`` False vouches every dipole is proper."""
    rows = [list(row) for row in g.matchings]
    alive = [True] * g.order
    queued = {(u, v) for row in rows for u, v in enumerate(row) if u < v}
    heap = [(-v, -u) for u, v in queued]
    heapq.heapify(heap)
    held = []  # dipoles not certified proper since the last elimination
    while heap:
        v, u = heapq.heappop(heap)
        u, v = -u, -v
        queued.discard((u, v))
        if not (alive[u] and alive[v]):
            continue
        comp = tuple(c for c in g.colors if rows[c][u] != v)
        if not comp or not _residues_split(rows, comp, u, v):
            continue
        if certify and not _dipole_properness(rows, comp, u, v):
            held.append((u, v))
            continue
        fresh = {(min(a, b), max(a, b)) for a, b in (
            (rows[c][u], rows[c][v]) for c in comp)}
        _splice_out(rows, u, v)
        alive[u] = alive[v] = False
        for x, y in itertools.chain(fresh, held):
            if (x, y) not in queued:
                queued.add((x, y))
                heapq.heappush(heap, (-y, -x))
        held.clear()
    return g if all(alive) else residue_graph(
        rows, g.colors, [w for w in range(g.order) if alive[w]])


# ---------------------------------------------------------------------------
# .gem text format
# ---------------------------------------------------------------------------

def format_gem(g: ColoredGraph) -> str:
    """Bit-exact `.gem` text: header line, one involution row per color."""
    lines = [f"gem {g.n_colors} {g.order}"]
    lines += [" ".join(str(w) for w in row) for row in g.matchings]
    return "\n".join(lines) + "\n"


def parse_gem(text: str) -> ColoredGraph:
    """Parse the `.gem` format; `#`-prefixed lines are comments."""
    if not text.endswith("\n"):
        raise GemFormatError("gem data must end with a newline")
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GemFormatError("empty gem file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "gem":
        raise GemFormatError(f"bad header line {lines[0]!r}")
    try:
        k, p = int(head[1]), int(head[2])
    except ValueError as exc:
        raise GemFormatError(f"bad header numbers: {exc}") from exc
    if len(lines) != 1 + k:
        raise GemFormatError(f"expected {k} matching rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = tuple(int(tok) for tok in ln.split())
        except ValueError as exc:
            raise GemFormatError(f"bad matching row {ln!r}: {exc}") from exc
        if len(row) != p:
            raise GemFormatError(f"row has {len(row)} entries, expected {p}")
        rows.append(row)
    try:
        return ColoredGraph(tuple(rows))
    except StructuralError as exc:
        raise GemFormatError(str(exc)) from exc


def read_lines(path):
    """The lines of the UTF-8 file at ``path``, read one at a time; a file
    that cannot be opened, read or decoded, at any line, is malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise GemFormatError(f"cannot read {path}: {exc}") from exc


def load_gem(path) -> ColoredGraph:
    return parse_gem("".join(read_lines(path)))


def write_lines(path, chunks) -> None:
    """Write the strings ``chunks`` to ``path`` through a temp file beside
    it, so a kill or a failure at any instant leaves the old file or the
    new.  A file that cannot be written is refused like one that cannot be
    read, after the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise GemFormatError(f"cannot write {path}: {exc}") from exc


def save_gem(g: ColoredGraph, path) -> None:
    write_lines(path, [format_gem(g)])
