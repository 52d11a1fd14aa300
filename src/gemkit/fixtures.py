"""Small reference gems used by tests, docs and the CLI examples.

The order-8 fixtures were found by bounded searches (driven by this
package's own enumeration and filters) and frozen here; the test suite
re-validates every claimed property from scratch, and the smaller gems are
re-derived independently by brute-force enumeration in the tests.
"""

from __future__ import annotations

from .core import ColoredGraph


def sigma(n_colors: int) -> ColoredGraph:
    """The order-2 gem on n_colors colors: two vertices joined by every
    color.  Represents the sphere of dimension n_colors - 1."""
    return ColoredGraph(((1, 0),) * n_colors)


def torus() -> ColoredGraph:
    """Minimal torus gem: order 6, three pairwise-Hamiltonian bicolored
    cycles (genus 1, orientable)."""
    return ColoredGraph((
        (1, 0, 3, 2, 5, 4),
        (5, 2, 1, 4, 3, 0),
        (3, 4, 5, 0, 1, 2),
    ))


def projective_plane() -> ColoredGraph:
    """Minimal non-bipartite 3-colored gem: the complete 3-colored graph on
    4 vertices (half-genus 1/2, non-orientable)."""
    return ColoredGraph((
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    ))


def rp3() -> ColoredGraph:
    """Minimal crystallization of real projective 3-space: order 8,
    H1 = Z/2.  The unique such gem found by exhaustive 4-colored
    enumeration through order 8."""
    return ColoredGraph((
        (1, 0, 5, 6, 7, 2, 3, 4),
        (2, 5, 0, 7, 6, 1, 4, 3),
        (3, 6, 7, 0, 5, 4, 1, 2),
        (4, 7, 6, 5, 0, 3, 2, 1),
    ))


def cp2() -> ColoredGraph:
    """Simple crystallization of the complex projective plane: order 8,
    bipartite, chi = 3, betti2 = 1, regular genus 2 at every cyclic order.

    Unique closed output of the bounded search over bipartite order-8
    5-colored crystallizations with all triple residue counts equal to 1.
    """
    return ColoredGraph((
        (4, 5, 6, 7, 0, 1, 2, 3),
        (4, 6, 7, 5, 0, 3, 1, 2),
        (5, 4, 7, 6, 1, 0, 3, 2),
        (5, 6, 4, 7, 2, 0, 1, 3),
        (6, 7, 4, 5, 2, 3, 0, 1),
    ))


def rp3_boundary() -> ColoredGraph:
    """Simple crystallization of a compact simply-connected 4-manifold with
    connected boundary RP3 (color 4 singular): the rp3() gem extended by a
    fifth matching, the unique one-singular-color extension."""
    return ColoredGraph((
        (1, 0, 5, 6, 7, 2, 3, 4),
        (2, 5, 0, 7, 6, 1, 4, 3),
        (3, 6, 7, 0, 5, 4, 1, 2),
        (4, 7, 6, 5, 0, 3, 2, 1),
        (1, 0, 6, 7, 5, 4, 2, 3),
    ))


def nonsimply_connected() -> ColoredGraph:
    """A singular crystallization with H1 = Z (color 0 singular, boundary
    H1 = Z, chi of the singular model 1), found by order-8 enumeration.
    The certified-nontrivial negative control for refusal paths."""
    return ColoredGraph((
        (1, 0, 4, 5, 2, 3, 7, 6),
        (1, 0, 4, 6, 2, 7, 3, 5),
        (1, 0, 6, 5, 7, 3, 2, 4),
        (2, 4, 0, 5, 1, 3, 7, 6),
        (3, 5, 4, 0, 2, 1, 7, 6),
    ))


def torus_times_colors() -> ColoredGraph:
    """A 5-colored gem that is NOT a manifold complex: the torus gem kept
    as a genus-1 {0,1,2}-residue, padded by two more matchings.  Negative
    control for the manifold check."""
    base = torus()
    pad = (1, 0, 3, 2, 5, 4)
    return ColoredGraph(base.matchings + (pad, pad))
