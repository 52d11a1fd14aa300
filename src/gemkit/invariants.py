"""Euler characteristic, fundamental-group presentations and homology.

Two independent routes to first homology are kept deliberately separate and
cross-checked on every call:

(A) the colored-graph presentation of the fundamental group read off two
    chosen colors (generators = residues missing both colors, relators =
    bicolored cycles, a spanning tree of the two-colored vertex subcomplex
    killing its share of generators), abelianized by Smith normal form;

(B) the edge-path group of the 2-skeleton of the dual pseudocomplex,
    rebuilt from residue duality (dual vertices = residues missing one
    color, dual edges = residues missing two, dual triangles = residues
    missing three), with generators the edges off a spanning tree and one
    relator per triangle boundary.

Route (A) presents pi1 of the compact manifold or of its singular model
depending on where the singular color sits relative to the chosen pair;
route (B) always computes the singular model.  Disagreement raises, and is
always a bug.

The genus routes are checked once per graph, in ``homology``: on a
crystallization the genus route to chi (2 - 2*rho + sum of subgenera, at
every cyclic order) must equal the chi counted from residues.  beta2 from
the genus (sum of subgenera - 2*rho) is that chi minus 2, so
``beta2_via_genus`` reads it off the homology report.

All matrix arithmetic is exact arbitrary-precision integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import core, genus, recognition
from .errors import AnalysisRefused, InternalConsistencyError, StructuralError

COMPACT = "compact-manifold"
SINGULAR = "singular-manifold"


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(rows: list[list[int]]) -> tuple[int, ...]:
    """Positive invariant factors d1 | d2 | ... of an integer matrix, as
    many as its rank.  One least-pivot loop over exact integers: a pass
    takes a least nonzero entry p, a unit when there is one, and clears its
    column with row operations, then its row with column operations (which
    change only that row once the column is clear).  A remainder is smaller
    than p and becomes the next pivot.  If there is none but p does not
    divide some entry, that entry's row is first added to p's row, which
    leaves one.  Otherwise p is the next factor; its row and column go.
    """
    a = [list(r) for r in rows]
    factors = []
    while a := [r for r in a if any(r)]:
        least = 0
        for r in a:
            v = min(map(abs, filter(None, r)))
            if not least or v < least:
                least, prow = v, r
                if v == 1:
                    break
        j = [abs(x) for x in prow].index(least)
        p = prow[j]
        for r in a:
            if r[j] and r is not prow:
                q = r[j] // p
                r[:] = [x - q * y for x, y in zip(r, prow)]
        if any(r[j] for r in a if r is not prow):
            continue
        if not any(x % p for x in prow):
            bad = next((r for r in a if least > 1 and any(x % p for x in r)), None)
            if bad is None:
                factors.append(least)
                a = [r[:j] + r[j + 1:] for r in a if r is not prow]
                continue
            prow[:] = [x + y for x, y in zip(prow, bad)]
        prow[:] = [x if k == j else x % p for k, x in enumerate(prow)]
    return tuple(factors)


def _abelian_invariants(gens: int, rows) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion factors) of the abelian group on ``gens``
    generators with relation rows ``rows``."""
    factors = smith_normal_form(rows)
    return gens - len(factors), tuple(d for d in factors if d > 1)


def h1_text(free_rank: int, torsion: tuple[int, ...]) -> str:
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append(f"Z^{free_rank}")
    parts += [f"Z/{t}" for t in torsion]
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Euler characteristics
# ---------------------------------------------------------------------------

def euler_characteristic(g: core.ColoredGraph) -> int:
    """Euler characteristic of the dual pseudocomplex of g.

    k-simplices of the complex correspond to residues over n-k colors
    (n = dimension), with the n-simplices being the graph vertices.
    """
    core.require_connected(g)
    k = g.n_colors
    n = k - 1
    chi = 0
    for dim in range(n + 1):
        size = n - dim
        if size == 0:
            count = g.order
        else:
            count = sum(core.residue_count(g, sub)
                        for sub in itertools.combinations(range(k), size))
        chi += count if dim % 2 == 0 else -count
    return chi


def euler_via_genus(g: core.ColoredGraph) -> int:
    """Euler characteristic of the represented singular 4-manifold from the
    genus/subgenus split: 2 - 2*rho_eps + sum_i rho with color eps_i dropped.

    Independent of eps; the all-permutation sweep is asserted and any
    mismatch is a structural bug (useful as a fuzz oracle).  Requires a
    5-colored crystallization.
    """
    recognition.require_crystallization(g)
    report = genus.genus_all(g)
    values = {e: 2 - 2 * report.rho[e] + sum(report.subgenera[e]) for e in report.rho}
    distinct = set(values.values())
    if len(distinct) != 1:
        raise InternalConsistencyError(
            f"euler characteristic from genus depends on the permutation: {values}")
    chi = distinct.pop()
    if chi.denominator != 1:
        raise InternalConsistencyError(f"non-integral euler characteristic {chi}")
    return int(chi)


# ---------------------------------------------------------------------------
# Fundamental-group presentations (route A)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    """Group presentation read off a color pair (i, j).

    Generators are 1-based and correspond to the residues missing both i
    and j; ``relators`` holds one signed word per {i,j}-colored cycle;
    ``tree_relators`` lists the generators killed by a maximal tree of the
    (i, j)-vertex subcomplex of the dual.
    """

    generator_count: int
    relators: tuple[tuple[int, ...], ...]
    tree_relators: tuple[int, ...]
    colors: tuple[int, int]

    def all_relators(self) -> tuple[tuple[int, ...], ...]:
        return self.relators + tuple((t,) for t in self.tree_relators)

    def to_text(self) -> str:
        """Plain-text export: generator line then one relator word per line
        as signed 1-based generator indices."""
        lines = ["gens: " + " ".join(f"x{i}" for i in range(1, self.generator_count + 1))]
        lines += [" ".join(str(x) for x in w) for w in self.all_relators()]
        return "\n".join(lines) + "\n"


def presentation_raw(g: core.ColoredGraph, i: int, j: int) -> Presentation:
    """Build the (i, j) presentation without any manifold-hood validation.

    Word rule: walk each {i,j}-cycle from its least vertex, i-colored edge
    first.  Every landing emits the generator of the landing vertex's
    residue missing both colors: positively after an i-edge, negatively
    after a j-edge.  Words are stored freely and cyclically reduced.  The
    sign convention is pinned by the edge-path oracle: it is the unique one
    of the natural candidates whose abelianization agrees with it across
    the enumerated corpus.
    """
    if g.n_colors < 4:
        raise StructuralError("group presentations need at least 4 colors")
    if i == j or not (0 <= i < g.n_colors and 0 <= j < g.n_colors):
        raise StructuralError(f"bad color pair ({i}, {j})")
    core.require_connected(g)
    comp_key = core.complement_key((i, j), g.n_colors)
    gen_labels, gen_count = core.residue_labels(g, comp_key)

    cycle_labels, _ = core.residue_labels(g, (i, j))
    relators = []
    for v0 in core.residue_roots(cycle_labels):
        word = []
        v = v0
        while True:
            w = g.matchings[i][v]
            word.append(gen_labels[w] + 1)
            v = g.matchings[j][w]
            word.append(-(gen_labels[v] + 1))
            if v == v0:
                break
        relators.append(tuple(_free_cyclic_reduce(word)))

    # spanning tree of the dual subcomplex on i- and j-labelled vertices:
    # nodes are the residues missing i (resp. j), one edge per generator
    i_labels, i_count = core.residue_labels(g, core.complement_key((i,), g.n_colors))
    j_labels, j_count = core.residue_labels(g, core.complement_key((j,), g.n_colors))
    edges = [(i_labels[v], i_count + j_labels[v]) for v in core.residue_roots(gen_labels)]
    tree = core.spanning_tree(i_count + j_count, edges)
    if len(tree) != i_count + j_count - 1:
        raise InternalConsistencyError("two-color vertex subcomplex is disconnected")
    return Presentation(generator_count=gen_count, relators=tuple(relators),
                        tree_relators=tuple(sorted(idx + 1 for idx in tree)),
                        colors=(i, j))


def color_pair(g: core.ColoredGraph, flavor: str = COMPACT) -> tuple[int, int]:
    """The color pair pi1 is read off by default.

    Compact manifold: the first two non-singular colors.  Singular model:
    both singular colors when there are two, (first other color, s) when
    s is the only one, and the compact pair when there are none.
    """
    sing = recognition.singular_colors(g)
    if flavor == SINGULAR and sing:
        if len(sing) > 2:
            raise StructuralError(
                f"{len(sing)} singular colors leave no color pair for the "
                "singular model's group")
        if len(sing) == 2:
            return sing
        return next(c for c in g.colors if c != sing[0]), sing[0]
    regular = [c for c in g.colors if c not in sing]
    if len(regular) < 2:
        raise StructuralError("no non-singular color pair available")
    return regular[0], regular[1]


def h1_from_presentation(pres: Presentation) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion factors) of the presented group's abelianization."""
    gens = pres.generator_count
    rows = []
    for word in pres.all_relators():
        row = [0] * gens
        for x in word:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    return _abelian_invariants(gens, rows)


# ---------------------------------------------------------------------------
# Tietze simplification
# ---------------------------------------------------------------------------

def _free_cyclic_reduce(word: list[int]) -> list[int]:
    stack: list[int] = []
    for x in word:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    while len(stack) >= 2 and stack[0] == -stack[-1]:
        stack = stack[1:-1]
    return stack


TIETZE_MAX_MOVES = 10_000
TIETZE_MAX_WORD_LENGTH = 4096


def tietze_trivializes(pres: Presentation) -> bool:
    """Bounded Tietze simplification; True when the empty presentation is
    reached, certifying the presented group trivial.  It gives up after
    ``TIETZE_MAX_MOVES`` eliminations or once a relator grows past
    ``TIETZE_MAX_WORD_LENGTH`` letters.

    The only moves are free/cyclic reduction and elimination of a generator
    occurring exactly once in some relator.  False means "gave up", never
    "nontrivial".
    """
    gens = pres.generator_count
    relators = [_free_cyclic_reduce(list(w)) for w in pres.all_relators()]
    moves = 0
    while True:
        relators = [w for w in relators if w]
        if gens == 0:
            return True
        target = None
        for ridx, w in enumerate(relators):
            counts: dict[int, int] = {}
            for x in w:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            once = [x for x, n in counts.items() if n == 1]
            if once:
                x = min(once)
                if target is None or len(w) < len(relators[target[0]]):
                    target = (ridx, x)
        if target is None:
            return False
        ridx, x = target
        w = relators.pop(ridx)
        pos = next(idx for idx, t in enumerate(w) if abs(t) == x)
        sign = 1 if w[pos] > 0 else -1
        rest = w[pos + 1:] + w[:pos]
        inv_rest = [-t for t in reversed(rest)]
        repl = inv_rest if sign > 0 else rest
        repl_inv = rest if sign > 0 else inv_rest

        for k, word in enumerate(relators):
            if x in word or -x in word:
                out: list[int] = []
                for t in word:
                    if abs(t) == x:
                        out.extend(repl if t > 0 else repl_inv)
                    else:
                        out.append(t)
                relators[k] = word = _free_cyclic_reduce(out)
            if len(word) > TIETZE_MAX_WORD_LENGTH:
                return False
        gens -= 1
        moves += 1
        if moves > TIETZE_MAX_MOVES:
            return False


# ---------------------------------------------------------------------------
# Edge-path oracle (route B)
# ---------------------------------------------------------------------------

def h1_via_edge_path(g: core.ColoredGraph) -> tuple[int, tuple[int, ...]]:
    """First homology of the dual polyhedron from its 2-skeleton.

    Dual vertices, edges and triangles are the residues missing one, two
    and three colors; generators are the dual edges off a breadth-first
    spanning tree, with one relator per triangle boundary.  This presents
    pi1 of the singular model and abelianizes to H1.
    """
    core.require_connected(g)
    k = g.n_colors
    if k < 4:
        raise StructuralError("edge-path homology needs at least 4 colors")

    node_labels = {}
    node_base = {}
    total_nodes = 0
    for c in range(k):
        labels, count = core.residue_labels(g, core.complement_key((c,), k))
        node_labels[c] = labels
        node_base[c] = total_nodes
        total_nodes += count

    edge_labels = {}
    edge_base = {}
    edge_ends = []
    for pair in itertools.combinations(range(k), 2):
        labels, _ = core.residue_labels(g, core.complement_key(pair, k))
        edge_labels[pair] = labels
        edge_base[pair] = len(edge_ends)
        a, b = pair
        edge_ends += [(node_base[a] + node_labels[a][v], node_base[b] + node_labels[b][v])
                      for v in core.residue_roots(labels)]

    # breadth-first spanning tree over the dual 1-skeleton (a multigraph)
    tree = set(core.spanning_tree(total_nodes, edge_ends))
    if len(tree) != total_nodes - 1:
        raise InternalConsistencyError("dual 1-skeleton is disconnected")
    gen_of_edge = {}
    for idx in range(len(edge_ends)):
        if idx not in tree:
            gen_of_edge[idx] = len(gen_of_edge) + 1

    def edge_id(pair, vertex):
        return edge_base[pair] + edge_labels[pair][vertex]

    rows = []
    gens = len(gen_of_edge)
    for triple in itertools.combinations(range(k), 3):
        a, b, c = triple
        labels, _ = core.residue_labels(g, core.complement_key(triple, k))
        for v in core.residue_roots(labels):
            # boundary word: (a->b) + (b->c) - (a->c)
            row = [0] * gens
            for pair, sgn in (((a, b), 1), ((b, c), 1), ((a, c), -1)):
                idx = edge_id(pair, v)
                if idx in gen_of_edge:
                    row[gen_of_edge[idx] - 1] += sgn
            rows.append(row)
    return _abelian_invariants(gens, rows)


# ---------------------------------------------------------------------------
# Simple-connectivity certificates and homology reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pi1Certificate:
    """Tri-state knowledge about pi1 of the represented compact manifold.

    ``m`` is the rank of the abelianization of the compact pair's
    presentation, a lower bound for the rank of pi1; "trivial" is certified
    by Tietze collapse of some non-singular pair's presentation to the
    empty one, "nontrivial" by m > 0.
    """

    status: str  # "trivial" | "nontrivial" | "unknown"
    m: int


@core.memo
def pi1_certificate(g: core.ColoredGraph) -> Pi1Certificate:
    compact = color_pair(g)
    pres = presentation_raw(g, *compact)
    free_rank, torsion = h1_from_presentation(pres)
    m = free_rank + len(torsion)
    if m > 0:
        return Pi1Certificate("nontrivial", m)
    sing = recognition.singular_colors(g)
    for pair in itertools.combinations(range(g.n_colors), 2):
        if not set(pair) & set(sing) and tietze_trivializes(
                pres if pair == compact else presentation_raw(g, *pair)):
            return Pi1Certificate("trivial", 0)
    return Pi1Certificate("unknown", m)


def require_simply_connected(g: core.ColoredGraph, certified: bool = False) -> Pi1Certificate:
    """The pi1 guard of the classification, beta2 and the handle profiles:
    refuse a non-crystallization, then a pi1 certified nontrivial or, when
    ``certified``, one not certified trivial.  Returns the certificate."""
    recognition.require_crystallization(g)
    cert = pi1_certificate(g)
    if cert.status == "nontrivial":
        raise AnalysisRefused(
            "classification is defined for simply-connected manifolds; "
            f"pi1 has abelianization rank {cert.m}")
    if certified and cert.status != "trivial":
        raise AnalysisRefused(f"needs certified trivial pi1 (status: {cert.status})")
    return cert


@dataclass(frozen=True)
class HomologyReport:
    betti1: int
    betti2: int
    betti1_singular: int
    torsion: tuple[int, ...]
    torsion_singular: tuple[int, ...]
    chi_singular: int
    contracted: bool
    conditional: bool

    def to_json(self) -> dict:
        return {
            "betti1": self.betti1,
            "betti2": self.betti2,
            "betti1_singular": self.betti1_singular,
            "torsion": list(self.torsion),
            "torsion_singular": list(self.torsion_singular),
            "chi_singular": self.chi_singular,
            "h1": h1_text(self.betti1, self.torsion),
            "contracted": self.contracted,
            "conditional": self.conditional,
        }


@core.memo
def homology(g: core.ColoredGraph) -> HomologyReport:
    """Homology of the represented compact 4-manifold and its singular model.

    H1 of the singular model is computed along both routes (A) and (B) and
    must agree; the second Betti number comes from the Euler characteristic
    and the first Betti numbers.
    """
    if g.n_colors != 5:
        raise StructuralError("homology needs a 5-colored graph")
    mc = recognition.check_closed_manifold(g)
    if not mc.is_manifold:
        raise StructuralError("not a manifold complex")
    sing = mc.singular_colors
    if len(sing) > 1:
        raise StructuralError("more than one singular color")

    b1, torsion = h1_from_presentation(presentation_raw(g, *color_pair(g)))
    if sing:
        b1_hat_a, torsion_hat_a = h1_from_presentation(
            presentation_raw(g, *color_pair(g, SINGULAR)))
    else:
        b1_hat_a, torsion_hat_a = b1, torsion
    b1_hat_b, torsion_hat_b = h1_via_edge_path(g)
    if (b1_hat_a, torsion_hat_a) != (b1_hat_b, torsion_hat_b):
        raise InternalConsistencyError(
            "H1 oracles disagree: presentation gives "
            f"{h1_text(b1_hat_a, torsion_hat_a)}, edge-path gives "
            f"{h1_text(b1_hat_b, torsion_hat_b)}")

    chi = euler_characteristic(g)
    if contracted := recognition.is_crystallization(g):
        chi_genus = euler_via_genus(g)
        if chi_genus != chi:
            raise InternalConsistencyError(
                f"euler characteristic mismatch: counts {chi}, genus {chi_genus}")
    betti2 = chi - 2 + b1_hat_b + b1
    return HomologyReport(betti1=b1, betti2=betti2, betti1_singular=b1_hat_b,
                          torsion=torsion, torsion_singular=torsion_hat_b,
                          chi_singular=chi, contracted=contracted,
                          conditional=mc.conditional)


@core.memo
def beta2_via_genus(g: core.ColoredGraph) -> int:
    """Second Betti number from the genus/subgenus split, for certified
    simply-connected crystallizations: sum of subgenera minus twice the
    genus, at any permutation.

    That value is the genus route to chi minus 2, and ``homology`` has
    already checked that route on a crystallization (independent of the
    permutation, integral and equal to the count chi), so it is read off
    the homology report.  Asserts it is nonnegative, never exceeds any
    single subgenus and matches the report's beta2.
    """
    require_simply_connected(g, certified=True)
    hom = homology(g)
    beta2 = hom.chi_singular - 2
    if beta2 < 0:
        raise InternalConsistencyError(f"bad beta2 value {beta2}")
    min_sub = min(min(vals) for vals in genus.genus_all(g).subgenera.values())
    if beta2 > min_sub:
        raise InternalConsistencyError(
            f"beta2 {beta2} exceeds some subgenus {min_sub}")
    if hom.betti2 != beta2:
        raise InternalConsistencyError(
            f"beta2 mismatch: genus route {beta2}, homology {hom.betti2}")
    return beta2
