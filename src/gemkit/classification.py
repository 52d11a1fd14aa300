"""t-values, simple / weak-simple detection and the genus lower bounds.

For a 5-colored crystallization the count of residues over any three colors
is 1 + t with t >= 0.  A crystallization of a simply-connected compact
4-manifold is weak simple with respect to a cyclic color order when the
five skew triples of that order all have t = 0, and simple when every one
of the ten triples does.  The genus of such a graph splits over deleted
colors with defects given exactly by the t-values, which pins the regular
genus against twice the second Betti number.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import core, genus, invariants, recognition
from .errors import InternalConsistencyError


@core.memo
def t_values(g: core.ColoredGraph) -> MappingProxyType:
    """Residue count minus one for every 3-subset of the colors (read-only)."""
    recognition.require_crystallization(g)
    return MappingProxyType({triple: core.residue_count(g, triple) - 1
                             for triple in itertools.combinations(range(5), 3)})


@core.memo
def skew_triples(eps: genus.CyclicPermutation) -> tuple[tuple[int, int, int], ...]:
    """The five triples {eps_i, eps_i+2, eps_i+4} of a cyclic 5-color order;
    each is the complement of a consecutive pair."""
    s = eps.seq
    return tuple(tuple(sorted((s[i], s[(i + 2) % 5], s[(i + 4) % 5])))
                 for i in range(5))


def detect_weak_simple(g: core.ColoredGraph) -> list[genus.CyclicPermutation]:
    """Cyclic orders whose five skew-triple residue counts are all 1.

    Refuses when pi1 is certified nontrivial; an unknown certificate lets
    the computation run (callers watermark the report as conditional).
    """
    invariants.require_simply_connected(g)
    t = t_values(g)
    return [eps for eps in genus.all_cyclic_permutations(5)
            if all(t[tr] == 0 for tr in skew_triples(eps))]


def detect_simple(g: core.ColoredGraph) -> bool:
    """True when all ten 3-subset residue counts equal 1."""
    return all(v == 0 for v in t_values(g).values())


@core.memo
def genus_subgenus_residuals(g: core.ColoredGraph, eps) -> tuple[int | Fraction, ...]:
    """The five residuals rho - rho(drop i) - rho(drop i+2) - t(skew triple).

    Zero, position by position, on every crystallization of a
    simply-connected compact 4-manifold with empty or connected boundary;
    a nonzero residual means a genus or residue-count bug.
    """
    cert = invariants.require_simply_connected(g)
    eps = genus.as_permutation(g, eps)
    report = genus.genus_all(g)
    rho = report.rho[eps]
    sub = report.subgenera[eps]
    t = t_values(g)
    skew = skew_triples(eps)  # position i's triple is the skew triple at i - 1
    out = [rho - sub[i] - sub[(i + 2) % 5] - t[skew[i - 1]] for i in range(5)]
    if cert.status == "trivial" and any(r != 0 for r in out):
        raise InternalConsistencyError(
            f"nonzero genus/subgenus residuals {out} at {eps}")
    return tuple(out)


@core.memo
def weak_simple_consistency(g: core.ColoredGraph) -> tuple[genus.CyclicPermutation, ...]:
    """Cross-check the two characterizations of weak-simple orders.

    The set of orders with all skew-triple counts 1 must equal the set of
    orders whose five subgenera each take half the genus; returns the
    common witness set.
    """
    witnesses = tuple(detect_weak_simple(g))
    report = genus.genus_all(g)
    by_subgenus = tuple(eps for eps in genus.all_cyclic_permutations(5)
                        if all(2 * v == report.rho[eps]
                               for v in report.subgenera[eps]))
    if witnesses != by_subgenus:
        raise InternalConsistencyError(
            f"weak-simple characterizations disagree: {list(map(str, witnesses))} "
            f"vs {list(map(str, by_subgenus))}")
    return witnesses


@dataclass(frozen=True)
class BoundsReport:
    """Regular genus against its sharp lower bounds.

    When the graph carries a weak-simple order, the regular genus equals
    both bounds and certifies the genus invariant of the manifold exactly.
    """

    rho: int | Fraction
    two_beta2: int
    two_chi_minus_4: int
    weak_simple: bool
    equality: bool
    genus_invariant_certified: bool
    conditional: bool

    def to_json(self) -> dict:
        return {
            "rho": genus.fraction_json(self.rho),
            "two_beta2": self.two_beta2,
            "two_chi_minus_4": self.two_chi_minus_4,
            "weak_simple": self.weak_simple,
            "equality": self.equality,
            "genus_invariant_certified": self.genus_invariant_certified,
            "conditional": self.conditional,
        }


@core.memo
def check_bounds(g: core.ColoredGraph) -> BoundsReport:
    """Compare the regular genus with twice the second Betti number.

    For certified simply-connected input the genus can never go below the
    bound, hits it exactly iff a weak-simple order exists, and at every
    weak-simple order all five subgenera equal chi(singular model) - 2.
    """
    cert = invariants.require_simply_connected(g)
    conditional = cert.status != "trivial"
    hom = invariants.homology(g)
    report = genus.genus_all(g)
    rho = report.regular_genus
    two_beta2 = 2 * hom.betti2
    two_chi_minus_4 = 2 * hom.chi_singular - 4
    witnesses = detect_weak_simple(g)
    equality = rho == two_beta2
    if not conditional:
        if two_beta2 != two_chi_minus_4:
            raise InternalConsistencyError(
                f"bound mismatch: 2*beta2 = {two_beta2}, "
                f"2*chi - 4 = {two_chi_minus_4}")
        if rho < two_beta2:
            raise InternalConsistencyError(
                f"regular genus {rho} below the Betti bound {two_beta2}")
        if equality != bool(witnesses):
            raise InternalConsistencyError(
                "genus meets the bound exactly iff a weak-simple order exists; "
                f"got equality={equality} with witnesses "
                f"{list(map(str, witnesses))}")
        for eps in witnesses:
            expected = hom.chi_singular - 2
            if any(v != expected for v in report.subgenera[eps]):
                raise InternalConsistencyError(
                    f"subgenera at weak-simple order {eps} differ from "
                    f"chi - 2 = {expected}: {report.subgenera[eps]}")
    return BoundsReport(rho=rho, two_beta2=two_beta2,
                        two_chi_minus_4=two_chi_minus_4,
                        weak_simple=bool(witnesses), equality=equality,
                        genus_invariant_certified=equality and not conditional,
                        conditional=conditional)


@dataclass(frozen=True)
class ClassificationReport:
    t: MappingProxyType
    simple: bool
    weak_simple_witnesses: tuple
    bounds: BoundsReport
    conditional: bool

    def to_json(self) -> dict:
        return {
            "t": {genus.sequence_text(k): v for k, v in self.t.items()},
            "simple": self.simple,
            "weak_simple_witnesses": [str(e) for e in self.weak_simple_witnesses],
            "bounds": self.bounds.to_json(),
            "conditional": self.conditional,
        }


def classification_report(g: core.ColoredGraph) -> ClassificationReport:
    """Full classification: t-table, witnesses (cross-checked both ways),
    simplicity flag and the bound ledger."""
    witnesses = weak_simple_consistency(g)
    simple = detect_simple(g)
    if simple and not witnesses:
        raise InternalConsistencyError("simple graph without weak-simple orders")
    for eps in genus.all_cyclic_permutations(5):
        genus_subgenus_residuals(g, eps)
    bounds = check_bounds(g)
    return ClassificationReport(t=t_values(g), simple=simple,
                                weak_simple_witnesses=witnesses,
                                bounds=bounds, conditional=bounds.conditional)
