"""Regular genus of gems with respect to cyclic color permutations.

A k-colored gem embeds regularly into a closed surface for every cyclic
ordering eps of its colors; the embedding surface is orientable exactly
when the graph is bipartite, and its (half-)genus rho_eps satisfies

    2 - 2*rho_eps = sum_j g_{eps_j, eps_{j+1}} + (1 - n) * p'

where n = k - 1, the sum runs over consecutive color pairs of eps, and the
graph has 2*p' vertices.  All arithmetic is exact, on twice rho as an int:
every genus here is an int when it is integral, and a Fraction only when it
is half-integral, which only non-bipartite residues can be.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import core
from .errors import InternalConsistencyError, StructuralError


def _cyclic_form(seq: tuple[int, ...]) -> tuple[int, ...]:
    """The distinct colors ``seq`` up to rotation and reversal, which induce
    the same embedding: greatest color last, in the direction that reads less."""
    if not seq:
        return seq
    i = seq.index(max(seq))
    rot = seq[i + 1:] + seq[:i + 1]
    return min(rot, rot[-2::-1] + rot[-1:])


def sequence_text(seq) -> str:
    """The text form of a color sequence, ``(0,1,2)``: the one writer of it."""
    return "(" + ",".join(map(str, seq)) + ")"


@dataclass(frozen=True)
class CyclicPermutation:
    """Cyclic ordering of the color set, stored in its ``_cyclic_form``."""

    seq: tuple[int, ...]

    @classmethod
    def canonical(cls, seq) -> "CyclicPermutation":
        """``seq``, refused unless it lists each of 0..len(seq)-1 once."""
        seq = tuple(seq)
        if sorted(seq) != list(range(len(seq))):
            raise StructuralError(f"{seq} is not a permutation of 0..{len(seq) - 1}")
        return cls(_cyclic_form(seq))

    @property
    def n_colors(self) -> int:
        return len(self.seq)

    def delete(self, i: int) -> tuple[int, ...]:
        """Induced cyclic order on the remaining colors after dropping
        position i (not re-canonicalized; only the cyclic order matters)."""
        return self.seq[i + 1:] + self.seq[:i]

    def __str__(self):
        return sequence_text(self.seq)


def cyclic_permutations(n_colors: int) -> Iterator[CyclicPermutation]:
    """The canonical cyclic orderings of 0..n_colors-1 in lexicographic
    order, one at a time (k!/2 /k classes; 12 for five colors, 3 for four,
    1 for three)."""
    top = n_colors - 1
    for perm in itertools.permutations(range(top)):
        if perm <= perm[::-1]:
            yield CyclicPermutation(perm + (top,))


@core.memo
def all_cyclic_permutations(n_colors: int) -> tuple[CyclicPermutation, ...]:
    """``cyclic_permutations(n_colors)`` as a tuple."""
    return tuple(cyclic_permutations(n_colors))


def as_permutation(g: core.ColoredGraph, eps) -> CyclicPermutation:
    """``eps`` (a CyclicPermutation or any color sequence) as the canonical
    cyclic order of g's colors: the one check that a sequence is such an
    order, which refuses one that does not list each of g's colors once."""
    perm = eps if isinstance(eps, CyclicPermutation) else CyclicPermutation.canonical(eps)
    if perm.n_colors != g.n_colors:
        raise StructuralError("permutation does not match the graph's color set")
    return perm


def _total(genera) -> int | Fraction:
    """Sum of genera: an int when it is integral."""
    total = sum(genera)
    return total if isinstance(total, int) or total.denominator != 1 else total.numerator


def residue_genera(g: core.ColoredGraph, seq) -> tuple[int | Fraction, ...]:
    """rho of every residue of g over the colors of ``seq``, with respect to
    the cyclic order ``seq``, numbered as ``core.residue_labels`` numbers
    the residues: an int when integral, else a half-integral Fraction.

    Read off g's own labels, with no residue gem built: each {i, j}-cycle
    lies in one residue, so one vertex's labels map it there; when there is
    one residue, each pair's cycle count is its own residue count.  Only a
    half-integral rho needs the residue's two-coloring.
    """
    k = len(seq)
    key = core.checked_key(g, seq)
    if len(key) != k:
        raise StructuralError(f"{tuple(seq)} repeats a color")
    labels, count = core.residue_labels(g, key)
    pairs = [core.residue_key((seq[i], seq[(i + 1) % k])) for i in range(k)]
    if count == 1:
        twice = [2 - sum(core.residue_labels(g, pair)[1] for pair in pairs)
                 + (k - 2) * (g.order // 2)]
    else:
        size, cycles = Counter(labels), Counter()
        for pair in pairs:
            cycles.update(dict(zip(core.residue_labels(g, pair)[0], labels)).values())
        twice = [2 - cycles[lab] + (k - 2) * (size[lab] // 2) for lab in range(count)]
    out = []
    for lab, t in enumerate(twice):
        rho = Fraction(t, 2) if t % 2 else t // 2
        if t < 0:
            raise StructuralError(f"negative genus {rho}: input is not a gem")
        if t % 2 and core.two_coloring(
                [g.matchings[c] for c in key], labels.index(lab)) is not None:
            raise InternalConsistencyError(f"bipartite graph with half-integral genus {rho}")
        out.append(rho)
    return tuple(out)


def genus_of_sequence(g: core.ColoredGraph, seq) -> int | Fraction:
    """rho of the connected g with respect to a cyclic order of its colors,
    canonical or not (see ``as_permutation``): the one-residue case of
    ``residue_genera``, integral when g is bipartite, else a multiple of 1/2."""
    seq = as_permutation(g, seq).seq
    core.require_connected(g)
    return residue_genera(g, seq)[0]


def subgenus(g: core.ColoredGraph, eps, i: int) -> int | Fraction:
    """Genus of the residue(s) missing color eps[i], w.r.t. the induced order.

    When several residues exist (non-contracted input) the value is the sum
    of the component genera; genus_all flags that case.
    """
    perm = as_permutation(g, eps)
    if not 0 <= i < perm.n_colors:
        raise StructuralError("subgenus position out of range")
    return _total(residue_genera(g, perm.delete(i)))


@dataclass(frozen=True)
class GenusReport:
    """Regular genus data for every canonical permutation.

    ``rho`` maps each permutation to its genus; ``subgenera`` maps it to the
    tuple of deleted-color residue genera in position order.  Both are
    read-only views: reports are memoised and shared between callers.
    ``residues_connected`` is False when some top residue is disconnected
    (non-contracted input), in which case subgenera are component sums.
    """

    orientable: bool
    rho: MappingProxyType
    regular_genus: int | Fraction
    subgenera: MappingProxyType
    residues_connected: bool
    min_witnesses: tuple

    def to_json(self) -> dict:
        return {
            "orientable": self.orientable,
            "rho": {str(e): fraction_json(v) for e, v in self.rho.items()},
            "regular_genus": fraction_json(self.regular_genus),
            "subgenera": {str(e): [fraction_json(v) for v in vals]
                          for e, vals in self.subgenera.items()},
            "residues_connected": self.residues_connected,
            "min_witnesses": [str(e) for e in self.min_witnesses],
        }


def fraction_json(v: int | Fraction):
    """JSON rendering of exact genera: int when integral, 'a/b' otherwise."""
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


@core.memo
def genus_all(g: core.ColoredGraph) -> GenusReport:
    """Genus for every canonical permutation plus all subgenera.

    A subgenus depends on the deleted color and the induced cyclic order
    only up to rotation and reversal, which many permutations share (15
    distinct of 60 over five colors): each is read once.  A subgenus is
    the genus of a residue over at least one color, so g needs two.
    """
    if g.n_colors < 2:
        raise StructuralError(f"subgenera need at least 2 colors, not {g.n_colors}")
    core.require_connected(g)
    perms = all_cyclic_permutations(g.n_colors)
    rho = {e: residue_genera(g, e.seq)[0] for e in perms}
    genera = {}  # induced cyclic order, in its cyclic form -> subgenus

    def sub_of(seq):
        seq = _cyclic_form(seq)
        if seq not in genera:
            genera[seq] = _total(residue_genera(g, seq))
        return genera[seq]

    sub = {e: tuple(sub_of(e.delete(i)) for i in range(g.n_colors)) for e in perms}
    regular = min(rho.values())
    connected = all(n == 1 for n in core.hat_residue_counts(g).values())
    return GenusReport(
        orientable=core.is_bipartite(g),
        rho=MappingProxyType(rho),
        regular_genus=regular,
        subgenera=MappingProxyType(sub),
        residues_connected=connected,
        min_witnesses=tuple(e for e in perms if rho[e] == regular),
    )
