"""Handle-decomposition detection from residue-count hypotheses.

Dual dictionary: an edge of the contracted triangulation between the
vertices labelled a and b corresponds to a residue over the other three
colors, so "exactly one edge between a and b" reads g(complement of
{a,b}) = 1.  Two such conditions through a shared pivot color rule out
1-handles; a third condition on the leftover pair upgrades the handle
decomposition to a special one (no 1- or 3-handles) and the attaching data
collapses to an undotted framed link.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from . import classification, core, genus, invariants, recognition
from .errors import InternalConsistencyError, StructuralError

NO_ONE_HANDLES = "no-1-handles"
SPECIAL = "special"


@dataclass(frozen=True)
class HypothesisWitness:
    """A color pattern licensing a handle decomposition without 1-handles.

    ``pair`` = {i, j} and ``pivot`` = k with both complement-residue counts
    g(hat i hat k) = g(hat j hat k) = 1.  For the special kind the leftover
    pair additionally satisfies g = 1 (equivalently, the pivot triple's own
    residue count is 1).  ``permutation`` is the induced cyclic order
    (i, j, r, k, l) used by the collapse construction, with the singular
    color last in the boundary case.
    """

    kind: str
    pair: tuple[int, int]
    pivot: int
    free_pair: tuple[int, int]
    boundary_case: bool
    permutation: tuple[int, ...]

    @property
    def triple(self) -> tuple[int, int, int]:
        return tuple(sorted(self.pair + (self.pivot,)))

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "pair": list(self.pair),
            "pivot": self.pivot,
            "free_pair": list(self.free_pair),
            "boundary_case": self.boundary_case,
            "permutation": genus.sequence_text(self.permutation),
        }


# the complementary triple of each ordered pair of distinct colors 0-4
_COMPLEMENTS = {pair: core.complement_key(pair, 5)
                for pair in itertools.permutations(range(5), 2)}


def pair_condition(g: core.ColoredGraph, a: int, b: int) -> bool:
    """Whether the 5-colored crystallization g has exactly one residue
    missing colors a and b: t = 0 at the complementary triple."""
    t = classification.t_values(g)
    triple = _COMPLEMENTS.get((a, b))
    if triple is None:
        raise StructuralError(f"a pair of distinct colors 0-4 is needed, got {a}, {b}")
    return t[triple] == 0


def _check_witness(g: core.ColoredGraph, w: HypothesisWitness) -> None:
    """Refuse a witness whose order (i, j, r, k, l) disagrees with its pair
    {i, j} and pivot k, or whose two pivot conditions do not hold on g."""
    if (w.permutation[:2], w.permutation[3]) != (w.pair, w.pivot) \
            or not all(pair_condition(g, c, w.pivot) for c in w.pair):
        raise StructuralError("witness conditions do not hold on this graph")


def find_hypothesis_witnesses(g: core.ColoredGraph) -> tuple[HypothesisWitness, ...]:
    """Scan all color pairs and pivots for witness patterns.

    Boundary case: the no-1-handles pattern must avoid the singular color
    entirely, and the special pattern must keep it in the free pair.
    An empty result is a valid answer.
    """
    recognition.require_crystallization(g)
    sing = recognition.singular_colors(g)
    s = sing[0] if sing else None
    out = []
    for pivot in range(5):
        for i, j in itertools.combinations(sorted(set(range(5)) - {pivot}), 2):
            if not (pair_condition(g, i, pivot) and pair_condition(g, j, pivot)):
                continue
            free = tuple(sorted(set(range(5)) - {i, j, pivot}))
            if s is not None and s not in free:
                continue  # boundary case: pattern colors must be non-singular
            last = s if s is not None else max(free)
            r = free[0] if free[1] == last else free[1]
            kinds = (NO_ONE_HANDLES, SPECIAL) if pair_condition(g, *free) else (NO_ONE_HANDLES,)
            out += [HypothesisWitness(kind=kind, pair=(i, j), pivot=pivot, free_pair=free,
                                      boundary_case=s is not None,
                                      permutation=(i, j, r, pivot, last)) for kind in kinds]
    return tuple(out)


@dataclass(frozen=True)
class HandleProfile:
    """Handle counts (h0..h4), the 3-handle count s and a framed-link
    summary: (undotted component count, dotted count, target token)."""

    h0: int
    h1: int
    h2: int
    h3: int
    h4: int
    s: int
    link_undotted: int
    link_dotted: int
    link_target: str
    boundary_h1: str | None

    def counts(self) -> tuple[int, int, int, int, int]:
        return (self.h0, self.h1, self.h2, self.h3, self.h4)

    def to_json(self) -> dict:
        return {
            "handles": list(self.counts()),
            "three_handle_count": self.s,
            "link": {"undotted": self.link_undotted, "dotted": self.link_dotted,
                     "target": self.link_target, "boundary_h1": self.boundary_h1},
        }


@core.memo
def _boundary_h1(g: core.ColoredGraph, s: int) -> str:
    """H1 of the boundary 3-manifold, read from the one residue missing s."""
    residue = core.residue_graph(g.matchings, core.complement_key((s,), 5), range(g.order))
    free, torsion = invariants.h1_from_presentation(invariants.presentation_raw(residue, 0, 1))
    return invariants.h1_text(free, torsion)


def handle_profile(g: core.ColoredGraph, w: HypothesisWitness) -> HandleProfile:
    """Handle decomposition induced by a witness: one 0-handle, no
    1-handles, beta2 + t 2-handles, t 3-handles (t = the witness triple's
    residue defect, 0 for the special kind, whose free pair's complement is
    the triple) and, in the closed case, one 4-handle."""
    _check_witness(g, w)
    if w.kind == SPECIAL and not pair_condition(g, *w.free_pair):
        raise StructuralError("special witness condition does not hold")
    beta2 = invariants.beta2_via_genus(g)
    t = classification.t_values(g)[w.triple]
    closed = not w.boundary_case
    if w.kind == SPECIAL:
        target = "S^3" if closed else "boundary(M^4)"
    else:
        target = f"#_{t}(S^2 x S^1)" if closed \
            else f"#_{t}(S^2 x S^1) # boundary(M^4)"
    boundary_h1 = _boundary_h1(g, w.permutation[-1]) if w.boundary_case else None
    return HandleProfile(h0=1, h1=0, h2=beta2 + t, h3=t,
                         h4=1 if closed else 0, s=t,
                         link_undotted=beta2 + t, link_dotted=0,
                         link_target=target, boundary_h1=boundary_h1)


def subgenus_target(g: core.ColoredGraph, j: int, k: int, s: int):
    """Subgenus pinned by a single pair condition.

    Given non-singular colors j, k with g(hat j hat k) = 1 and a start
    color s, the order (s, j, r, k, top) has its deleted-s subgenus equal
    to beta2 + t(s, j, k); when the leftover pair also satisfies g = 1 the
    defect vanishes and the subgenus is beta2 exactly.  Returns
    (value, permutation).
    """
    t = classification.t_values(g)
    top = recognition.top_color(g)
    lower = sorted(set(range(5)) - {top})
    if j == k or j not in lower or k not in lower:
        raise StructuralError(f"j, k must be distinct non-singular colors, got {j}, {k}")
    if s not in set(lower) - {j, k}:
        raise StructuralError(f"s must be a non-singular color off {{{j}, {k}}}")
    if not pair_condition(g, j, k):
        raise StructuralError(f"g(hat {j} hat {k}) != 1")
    r = next(c for c in lower if c not in (s, j, k))
    eps = (s, j, r, k, top)
    perm = genus.CyclicPermutation.canonical(eps)
    value = genus.genus_all(g).subgenera[perm][perm.seq.index(s)]
    beta2 = invariants.beta2_via_genus(g)
    defect = t[tuple(sorted((s, j, k)))]
    if value != beta2 + defect:
        raise InternalConsistencyError(
            f"subgenus {value} != beta2 + t = {beta2} + {defect} at {eps}")
    return value, eps


@dataclass(frozen=True)
class CollapseTrace:
    """Collapse bookkeeping for the 2-complex on the witness's three colors.

    Triangles are the bicolored cycles over the leftover pair (r, top);
    each lies over exactly one (i, j)-labelled dual edge.  Triangles whose
    edge supports only one remaining triangle collapse away (smallest index
    first, never emptying the complex); what remains is rho + h triangles
    over h edges with triangle multiplicities r_i summing to rho + h.
    Collapsing a triangle empties only its own edge, so the schedule is the
    triangles free at the start, less the last when all of them are.
    """

    permutation: tuple[int, ...]
    initial_triangles: int
    initial_edges: int
    schedule: tuple[int, ...]
    remaining_triangles: int
    remaining_edges: int
    multiplicities: tuple[int, ...]
    rho: int

    def to_json(self) -> dict:
        return {
            "permutation": genus.sequence_text(self.permutation),
            "initial_triangles": self.initial_triangles,
            "initial_edges": self.initial_edges,
            "collapsed": len(self.schedule),
            "remaining_triangles": self.remaining_triangles,
            "remaining_edges": self.remaining_edges,
            "multiplicities": list(self.multiplicities),
            "rho": self.rho,
        }


def collapse_2skeleton(g: core.ColoredGraph, w: HypothesisWitness) -> CollapseTrace:
    """Run the elementary collapses licensed by a witness and verify the
    counting identities relating triangles, edges and the deleted-start
    subgenus."""
    _check_witness(g, w)
    e0, e1, e2, _, e4 = w.permutation
    tri_labels, tri_count = core.residue_labels(g, (e2, e4))
    edge_labels, edge_count = core.residue_labels(g, core.complement_key((e0, e1), 5))
    edge_of = [edge_labels[v] for v in core.residue_roots(tri_labels)]

    eps = genus.CyclicPermutation.canonical(w.permutation)
    rho = genus.genus_all(g).subgenera[eps][eps.seq.index(e0)]
    if not isinstance(rho, int):
        raise InternalConsistencyError(f"half-integral subgenus {rho} in collapse")
    if tri_count != edge_count + rho:
        raise InternalConsistencyError(
            f"triangle/edge counts {tri_count}/{edge_count} do not split as "
            f"edges + subgenus {rho}")

    per_edge = Counter(edge_of)
    free = [t for t, e in enumerate(edge_of) if per_edge[e] == 1]
    schedule = free[:-1] if len(free) == tri_count else free
    for t in schedule:
        del per_edge[edge_of[t]]
    remaining = tri_count - len(schedule)
    h = len(per_edge)
    mult = tuple(sorted(per_edge.values()))
    if sum(mult) != remaining or remaining - h != rho:
        raise InternalConsistencyError(
            f"collapse identity failed: {remaining} triangles over {h} "
            f"edges with subgenus {rho}")
    if not 1 <= h <= edge_count:
        raise InternalConsistencyError(f"edge survivor count {h} out of range")
    return CollapseTrace(permutation=w.permutation,
                         initial_triangles=tri_count, initial_edges=edge_count,
                         schedule=tuple(schedule),
                         remaining_triangles=remaining, remaining_edges=h,
                         multiplicities=mult, rho=rho)


@dataclass(frozen=True)
class HandlesReport:
    witnesses: tuple
    profiles: tuple
    collapses: tuple

    def to_json(self) -> dict:
        return {
            "witnesses": [w.to_json() for w in self.witnesses],
            "profiles": [p.to_json() for p in self.profiles],
            "collapses": [c.to_json() for c in self.collapses],
        }


@core.memo
def handles_report(g: core.ColoredGraph) -> HandlesReport:
    """Witness scan plus a profile and collapse trace for each witness.
    A trace depends on the witness's permutation alone (which fixes its
    pair and pivot), so a special witness shares its no-1-handles twin's."""
    witnesses = find_hypothesis_witnesses(g)
    profiles = tuple(handle_profile(g, w) for w in witnesses)
    traces = {}
    for w in witnesses:
        if w.permutation not in traces:
            traces[w.permutation] = collapse_2skeleton(g, w)
    collapses = tuple(traces[w.permutation] for w in witnesses)
    return HandlesReport(witnesses=witnesses, profiles=profiles,
                         collapses=collapses)
