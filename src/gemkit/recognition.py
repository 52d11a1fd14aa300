"""Dimension-recursive manifold recognition for gems.

A k-colored gem represents a singular (k-1)-manifold iff every residue
missing one color represents, recursively, a closed connected manifold of
one dimension lower; it represents a closed manifold iff none of those
residues is singular (i.e. all are spheres).  Surfaces (3-colored gems)
bottom out the recursion exactly: genus and orientability are computable.

Sphere recognition above dimension 2 is a certificate-producing heuristic,
not a decision procedure: "unknown" propagates upward and marks verdicts as
conditional rather than ever guessing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from . import core, genus
from .errors import StructuralError

CERTIFIED_SPHERE = "certified-sphere"
CERTIFIED_NONSPHERE = "certified-nonsphere"
UNKNOWN = "unknown"

NOT_A_MANIFOLD = "not-a-manifold-complex"


@dataclass(frozen=True)
class SphereCertificate:
    """Outcome of sphere recognition on a gem.

    A sphere verdict carries a constructive witness (a genus-0 permutation
    or a dipole reduction to order 2); a nonsphere verdict carries an
    invariant obstruction (nontrivial first homology).
    """

    status: str
    method: str | None
    detail: str | None = None


@dataclass(frozen=True)
class ManifoldClass:
    """Verdict of the closed/singular-manifold check.

    ``certificates`` holds, per color, the per-residue sphere certificates
    (dimension >= 3 only).  ``conditional`` is set when some certificate is
    unknown, so the verdict relies on unproven sphere claims.
    """

    verdict: str
    dimension: int
    singular_colors: tuple[int, ...]
    conditional: bool
    surface_genus: int | Fraction | None = None
    orientable: bool | None = None
    certificates: tuple = ()

    @property
    def is_manifold(self) -> bool:
        return self.verdict != NOT_A_MANIFOLD

    @property
    def closed(self) -> bool:
        """Whether the verdict is a closed manifold of its dimension."""
        return self.verdict == f"closed-{self.dimension}-manifold"

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "dimension": self.dimension,
            "singular_colors": list(self.singular_colors),
            "conditional": self.conditional,
            "certificates": [
                {"color": c, "residues": [
                    {"status": s.status, "method": s.method} for s in certs]}
                for c, certs in self.certificates
            ],
        }
        if self.surface_genus is not None:
            out["surface_genus"] = genus.fraction_json(self.surface_genus)
            out["orientable"] = self.orientable
        return out


def classify_surface(g: core.ColoredGraph):
    """(genus, orientable) of the surface represented by a 3-colored gem.

    Bipartite gems give orientable surfaces with integer genus; otherwise
    the value is half the non-orientable genus (1/2 for the projective
    plane, 1 for the Klein bottle, ...).
    """
    if g.n_colors != 3:
        raise StructuralError("classify_surface needs a 3-colored graph")
    eps = genus.all_cyclic_permutations(3)[0]
    return genus.genus_of_sequence(g, eps), core.is_bipartite(g)


def _surface_certificate(rho: int | Fraction) -> SphereCertificate:
    """Sphere certificate of a surface of genus rho: a 2-sphere exactly when
    rho is 0."""
    if rho == 0:
        return SphereCertificate(CERTIFIED_SPHERE, "genus-zero")
    return SphereCertificate(CERTIFIED_NONSPHERE, "genus-zero",
                             detail=f"surface genus {genus.fraction_json(rho)}")


def _genus_zero_orders(g: core.ColoredGraph, key) -> list:
    """Per ``key``-residue of g, numbered as ``core.residue_labels`` numbers
    them, the first cyclic order of ``key`` at which it has genus 0, or
    None; read off g, and stopped once every residue has one."""
    found = [None] * core.residue_count(g, key)
    for eps in genus.cyclic_permutations(len(key)):
        for i, rho in enumerate(genus.residue_genera(g, [key[j] for j in eps.seq])):
            if rho == 0 and found[i] is None:
                found[i] = eps
        if None not in found:
            break
    return found


@core.memo
def sphere_certificate(g: core.ColoredGraph) -> SphereCertificate:
    """Try to decide whether a connected k-colored gem represents a sphere.

    Trivial in low dimensions; from 3 colors on, g is certified as its own
    single residue by ``_hat_certificates``: a surface by its genus, else a
    genus-zero order, the closed-manifold check (a singular or non-manifold
    complex is certainly not a sphere), then dipole reduction, which may
    reach order 2 or a genus-zero order; nontrivial H1 obstructs; else unknown.
    """
    core.require_connected(g)
    k = g.n_colors
    if k == 1:
        return SphereCertificate(CERTIFIED_SPHERE, "dipole-reduction-to-order-2")
    if k == 2:
        return SphereCertificate(CERTIFIED_SPHERE, "genus-zero")
    certs = _hat_certificates(g, tuple(g.colors))
    if certs is None:
        return SphereCertificate(
            CERTIFIED_NONSPHERE, "genus-zero",
            detail=f"some residue obstructs: {check_closed_manifold(g).verdict}")
    return certs[0]


def _reduction_certificate(g: core.ColoredGraph) -> SphereCertificate:
    """Sphere certificate of an unconditional closed manifold g with no
    genus-zero order, from its reduction on; every dipole of g is proper."""
    reduced = core.reduce_dipoles(g, certify=False)
    if reduced.order == 2:
        return SphereCertificate(CERTIFIED_SPHERE, "dipole-reduction-to-order-2")
    eps = _genus_zero_orders(reduced, reduced.colors)[0] if reduced is not g else None
    if eps is not None:
        return SphereCertificate(CERTIFIED_SPHERE, "genus-zero",
                                 detail=f"after reduction, {eps}")
    from . import invariants

    free_rank, torsion = invariants.h1_from_presentation(
        invariants.presentation_raw(reduced, 0, 1))
    if free_rank or torsion:
        return SphereCertificate(
            CERTIFIED_NONSPHERE, "homology-obstruction",
            detail=invariants.h1_text(free_rank, torsion))
    return SphereCertificate(UNKNOWN, None)


@core.memo
def check_closed_manifold(g: core.ColoredGraph) -> ManifoldClass:
    """Classify the polyhedron represented by a connected gem.

    3-colored graphs always represent surfaces.  A 4-colored graph is a
    closed 3-manifold when all its surface residues are spheres, otherwise
    a singular 3-manifold.  From 5 colors on, every 3-colored residue must
    have genus 0 and every hat-residue must represent a closed manifold
    (else it is not a manifold complex at all); sphere recognition on the
    hat-residues then separates closed from singular.
    """
    core.require_connected(g)
    k = g.n_colors
    n = k - 1
    if k < 3:
        raise StructuralError("manifold check needs at least 3 colors")
    if k == 3:
        rho, orientable = classify_surface(g)
        return ManifoldClass(verdict="surface", dimension=2, singular_colors=(),
                             conditional=False, surface_genus=rho,
                             orientable=orientable)
    if k >= 5:
        for triple in itertools.combinations(range(k), 3):
            for rho in genus.residue_genera(g, triple):
                cert = _surface_certificate(rho)
                if cert.status != CERTIFIED_SPHERE:
                    return ManifoldClass(
                        verdict=NOT_A_MANIFOLD, dimension=n, singular_colors=(),
                        conditional=False, certificates=((triple[0], (replace(
                            cert, detail=f"{triple}-residue has {cert.detail}"),)),))
    singular, certs = [], []
    for c in g.colors:
        col = _hat_certificates(g, core.complement_key((c,), k))
        if col is None:
            return ManifoldClass(verdict=NOT_A_MANIFOLD, dimension=n,
                                 singular_colors=(), conditional=False)
        if any(s.status == CERTIFIED_NONSPHERE for s in col):
            singular.append(c)
        certs.append((c, col))
    if not singular:
        verdict = f"closed-{n}-manifold"
    else:
        verdict = "singular-3-residue" if k == 4 else f"singular-{n}-manifold"
    conditional = any(s.status == UNKNOWN for _, col in certs for s in col)
    return ManifoldClass(verdict=verdict, dimension=n, singular_colors=tuple(singular),
                         conditional=conditional, certificates=tuple(certs))


def _hat_certificates(g: core.ColoredGraph, key) -> tuple[SphereCertificate, ...] | None:
    """Sphere certificates of the ``key``-residues of g, in
    ``core.residue_labels`` order, or None when one of them is no closed
    manifold.  A residue with a genus-zero order, read off g, is an
    unconditional closed manifold (its residues' genera are at most its
    own) and a sphere.  One with none is built and gets its own manifold
    check, except over 4 colors of a larger gem: its 3-residues are g's,
    certified a moment before.  A conditional check gives unknown; else
    the residue is reduced."""
    if len(key) == 3:
        return tuple(map(_surface_certificate, genus.residue_genera(g, key)))
    labels, certs = core.residue_labels(g, key)[0], []
    for i, eps in enumerate(_genus_zero_orders(g, key)):
        if eps is not None:
            certs.append(SphereCertificate(CERTIFIED_SPHERE, "genus-zero", detail=str(eps)))
            continue
        h = core.residue_graph(g.matchings, key, [v for v, lab in enumerate(labels) if lab == i])
        if len(key) > 4 or len(key) == g.n_colors:
            mc = check_closed_manifold(h)
            if not mc.closed:
                return None
            if mc.conditional:  # closed-manifold-hood rests on unknowns
                certs.append(SphereCertificate(UNKNOWN, None))
                continue
        certs.append(_reduction_certificate(h))
    return tuple(certs)


@core.memo
def is_crystallization(g: core.ColoredGraph) -> bool:
    """Whether g represents a compact manifold with empty or connected
    boundary (at most one singular color) and every hat-residue count is 1,
    i.e. the dual triangulation is contracted."""
    mc = check_closed_manifold(g)
    return (mc.is_manifold and len(mc.singular_colors) <= 1
            and all(v == 1 for v in core.hat_residue_counts(g).values()))


def require_crystallization(g: core.ColoredGraph) -> None:
    """Refuse anything but a 5-colored crystallization, the class the genus
    identities, the classification and the handle analysis are stated for."""
    if not (g.n_colors == 5 and is_crystallization(g)):
        # a 1-colored gem has no hat-residues to count
        counts = f", hat-residue counts {core.hat_residue_counts(g)}" if g.n_colors > 1 else ""
        raise StructuralError(f"not a 5-colored crystallization ({g.n_colors} colors{counts})")


def singular_colors(g: core.ColoredGraph) -> tuple[int, ...]:
    return check_closed_manifold(g).singular_colors


def top_color(g: core.ColoredGraph) -> int:
    """The top color of g: its singular color, else its greatest color (4
    on a 5-colored crystallization); two or more are refused."""
    sing = singular_colors(g)
    if len(sing) > 1:
        raise StructuralError(
            f"{len(sing)} singular colors: not a compact manifold with "
            "empty or connected boundary")
    return sing[0] if sing else g.n_colors - 1


def normalize_singular_color(g: core.ColoredGraph):
    """Recolor so the top color becomes the greatest.  Returns (graph,
    color_permutation), the identity when g is closed or normalized."""
    k = g.n_colors
    s = top_color(g)
    if s == k - 1:
        return g, tuple(range(k))
    perm = list(range(k))
    perm[s], perm[k - 1] = perm[k - 1], perm[s]
    return g.recolor(perm), tuple(perm)
