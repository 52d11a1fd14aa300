"""Residue genera read off the whole gem, against the residue-gem route.

`genus.residue_genera` counts each residue's bicolored cycles from the
whole gem's labellings, and `recognition.check_closed_manifold` reads its
surface residues and the genus-zero orders of its hat-residues from it.  The oracle here is the route that builds a standalone gem for
every residue (`core.extract_residues`), takes the genus of each one and
certifies every hat-residue recursively through `sphere_certificate`; its
manifold verdicts, genus reports and subgenera must be identical.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

from gemkit import core, fixtures, genus, invariants, recognition
from gemkit.errors import InternalConsistencyError, StructuralError

from conftest import random_augment, random_matchings, random_relabel

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# The oracle: one standalone gem per residue
# ---------------------------------------------------------------------------

def oracle_genus(g: core.ColoredGraph, seq) -> int | Fraction:
    """rho of the connected g w.r.t. the cyclic sequence ``seq``, from the
    whole gem's bicolored-cycle counts: an int when integral, as
    `genus` gives it."""
    core.require_connected(g)
    k = len(seq)
    total = sum(core.residue_count(g, (seq[i], seq[(i + 1) % k])) for i in range(k))
    rho = Fraction(2 - total + (k - 2) * (g.order // 2), 2)
    if rho < 0:
        raise StructuralError(f"negative genus {rho}: input is not a gem")
    if core.is_bipartite(g) and rho.denominator != 1:
        raise InternalConsistencyError(f"bipartite graph with half-integral genus {rho}")
    return int(rho) if rho.denominator == 1 else rho


def oracle_subgenus(g: core.ColoredGraph, eps, i: int) -> int | Fraction:
    sub_seq = genus.as_permutation(g, eps).delete(i)
    total = 0
    for res in core.extract_residues(g, sub_seq):
        pos = {c: idx for idx, c in enumerate(res.key)}
        total += oracle_genus(res.graph, tuple(pos[c] for c in sub_seq))
    return int(total) if total.denominator == 1 else total


def oracle_genus_report(g: core.ColoredGraph) -> genus.GenusReport:
    perms = genus.all_cyclic_permutations(g.n_colors)
    rho = {e: oracle_genus(g, e.seq) for e in perms}
    sub = {e: tuple(oracle_subgenus(g, e, i) for i in range(g.n_colors)) for e in perms}
    regular = min(rho.values())
    return genus.GenusReport(
        orientable=core.is_bipartite(g),
        rho=MappingProxyType(rho),
        regular_genus=regular,
        subgenera=MappingProxyType(sub),
        residues_connected=all(n == 1 for n in core.hat_residue_counts(g).values()),
        min_witnesses=tuple(e for e in perms if rho[e] == regular),
    )


def oracle_surface_certificate(g: core.ColoredGraph) -> recognition.SphereCertificate:
    rho = oracle_genus(g, (0, 1, 2))
    if rho == 0:
        return recognition.SphereCertificate(recognition.CERTIFIED_SPHERE, "genus-zero")
    return recognition.SphereCertificate(
        recognition.CERTIFIED_NONSPHERE, "genus-zero",
        detail=f"surface genus {genus.fraction_json(rho)}")


def oracle_genus_zero_order(g: core.ColoredGraph):
    return next((eps for eps in genus.all_cyclic_permutations(g.n_colors)
                 if oracle_genus(g, eps.seq) == 0), None)


def oracle_sphere_certificate(g: core.ColoredGraph) -> recognition.SphereCertificate:
    core.require_connected(g)
    k = g.n_colors
    cert = recognition.SphereCertificate
    if k == 1:
        return cert(recognition.CERTIFIED_SPHERE, "dipole-reduction-to-order-2")
    if k == 2:
        return cert(recognition.CERTIFIED_SPHERE, "genus-zero")
    if k == 3:
        return oracle_surface_certificate(g)
    mc = oracle_check(g)
    if mc.verdict != f"closed-{k - 1}-manifold":
        return cert(recognition.CERTIFIED_NONSPHERE, "genus-zero",
                    detail=f"some residue obstructs: {mc.verdict}")
    if mc.conditional:
        return cert(recognition.UNKNOWN, None)
    eps = oracle_genus_zero_order(g)
    if eps is not None:
        return cert(recognition.CERTIFIED_SPHERE, "genus-zero", detail=str(eps))
    reduced = core.reduce(g)
    if reduced.order == 2:
        return cert(recognition.CERTIFIED_SPHERE, "dipole-reduction-to-order-2")
    eps = oracle_genus_zero_order(reduced) if reduced is not g else None
    if eps is not None:
        return cert(recognition.CERTIFIED_SPHERE, "genus-zero",
                    detail=f"after reduction, {eps}")
    free_rank, torsion = invariants.h1_from_presentation(
        invariants.presentation_raw(reduced, 0, 1))
    if free_rank or torsion:
        return cert(recognition.CERTIFIED_NONSPHERE, "homology-obstruction",
                    detail=invariants.h1_text(free_rank, torsion))
    return cert(recognition.UNKNOWN, None)


def oracle_check(g: core.ColoredGraph) -> recognition.ManifoldClass:
    """`check_closed_manifold` with every residue extracted as a gem."""
    core.require_connected(g)
    k = g.n_colors
    n = k - 1
    if k == 3:
        rho = oracle_genus(g, (0, 1, 2))
        return recognition.ManifoldClass(
            verdict="surface", dimension=2, singular_colors=(), conditional=False,
            surface_genus=rho, orientable=core.is_bipartite(g))
    if k >= 5:
        for triple in itertools.combinations(range(k), 3):
            for r in core.extract_residues(g, triple):
                cert = oracle_surface_certificate(r.graph)
                if cert.status != recognition.CERTIFIED_SPHERE:
                    return recognition.ManifoldClass(
                        verdict=recognition.NOT_A_MANIFOLD, dimension=n,
                        singular_colors=(), conditional=False,
                        certificates=((triple[0], (replace(
                            cert, detail=f"{triple}-residue has {cert.detail}"),)),))
    if k > 5:
        for c in g.colors:
            for r in core.extract_residues(g, core.complement_key((c,), k)):
                sub = oracle_check(r.graph)
                if not sub.is_manifold or sub.singular_colors:
                    return recognition.ManifoldClass(
                        verdict=recognition.NOT_A_MANIFOLD, dimension=n,
                        singular_colors=(), conditional=False)
    certify = oracle_surface_certificate if k == 4 else oracle_sphere_certificate
    singular, certs = [], []
    for c in g.colors:
        col = tuple(certify(r.graph)
                    for r in core.extract_residues(g, core.complement_key((c,), k)))
        if any(s.status == recognition.CERTIFIED_NONSPHERE for s in col):
            singular.append(c)
        certs.append((c, col))
    if not singular:
        verdict = f"closed-{n}-manifold"
    else:
        verdict = "singular-3-residue" if k == 4 else f"singular-{n}-manifold"
    conditional = any(s.status == recognition.UNKNOWN for _, col in certs for s in col)
    return recognition.ManifoldClass(
        verdict=verdict, dimension=n, singular_colors=tuple(singular),
        conditional=conditional, certificates=tuple(certs))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def random_gem(rng: random.Random, n_colors: int, order: int) -> core.ColoredGraph:
    """A seeded random connected gem: one random perfect matching per color."""
    while True:
        g = random_matchings(rng, n_colors, order)
        if core.is_connected(g):
            return g


def double(h: core.ColoredGraph) -> core.ColoredGraph:
    """Two copies of h joined vertex to vertex by one new color: its
    residues without the new color are two copies of h's."""
    p = h.order
    rows = [row + tuple(w + p for w in row) for row in h.matchings]
    rows.append(tuple(v + p for v in range(p)) + tuple(range(p)))
    return core.ColoredGraph(tuple(rows))


FIXTURES_5 = (fixtures.sigma(5), fixtures.cp2(), fixtures.rp3_boundary(),
              fixtures.nonsimply_connected(), fixtures.torus_times_colors())


def oracle_inputs(seed: int) -> list[core.ColoredGraph]:
    rng = random.Random(900 + seed)
    gems = [random_gem(rng, k, rng.randrange(2, 17, 2)) for k in (4, 4, 5, 5, 5)]
    # doubles of random 4-colored gems pass the triple loop more often
    gems.append(double(random_gem(rng, 4, rng.randrange(2, 9, 2))))
    base = FIXTURES_5[seed % len(FIXTURES_5)]
    gems.append(random_relabel(random_augment(base, rng, rng.randint(2, 6)), rng))
    gems.append(random_relabel(random_augment(fixtures.rp3(), rng, rng.randint(1, 4)), rng))
    return gems


def assert_matches_oracle(g: core.ColoredGraph) -> None:
    assert repr(recognition.check_closed_manifold(g)) == repr(oracle_check(g))
    assert repr(genus.genus_all(g)) == repr(oracle_genus_report(g))
    for eps in genus.all_cyclic_permutations(g.n_colors):
        for i in range(g.n_colors):
            assert genus.subgenus(g, eps, i) == oracle_subgenus(g, eps, i)


@pytest.mark.parametrize("seed", range(20))
def test_manifold_check_and_genera_match_the_oracle(seed):
    for g in oracle_inputs(seed):
        assert_matches_oracle(g)


def test_oracle_inputs_reach_every_branch():
    verdicts, half_integral = set(), False
    for seed in range(20):
        for g in oracle_inputs(seed):
            verdicts.add(recognition.check_closed_manifold(g).verdict)
            half_integral |= any(v.denominator == 2 for v in genus.genus_all(g).rho.values())
    assert half_integral
    assert {recognition.NOT_A_MANIFOLD, "singular-3-residue", "closed-3-manifold",
            "singular-4-manifold", "closed-4-manifold"} <= verdicts


def test_fixtures_and_their_doubles_match_the_oracle(small_manifold_corpus):
    gems = list(FIXTURES_5) + [fixtures.sigma(4), fixtures.rp3(), fixtures.torus(),
                               fixtures.projective_plane()]
    gems += [double(h) for h in small_manifold_corpus if h.n_colors == 4][::7]
    for g in gems:
        assert_matches_oracle(g)


def test_genera_are_ints_when_integral():
    gems = [g for seed in range(20) for g in oracle_inputs(seed)] + list(FIXTURES_5)
    gems += [fixtures.rp3(), fixtures.torus(), fixtures.projective_plane()]
    kinds, connected = set(), set()
    for g in gems:
        report = genus.genus_all(g)
        connected.add(report.residues_connected)
        values = [report.regular_genus, *report.rho.values()]
        for eps in genus.all_cyclic_permutations(g.n_colors):
            values += report.subgenera[eps]
            values += genus.residue_genera(g, eps.seq)
            for i in range(g.n_colors):
                values.append(genus.subgenus(g, eps, i))
                values += genus.residue_genera(g, eps.delete(i))
        for triple in itertools.combinations(range(g.n_colors), 3):
            values += genus.residue_genera(g, triple)
        for v in values:
            # an int when integral, else a half-integral Fraction
            assert type(v) is (int if v.denominator == 1 else Fraction), repr(v)
            assert v.denominator in (1, 2), repr(v)
            kinds.add(type(v))
    assert kinds == {int, Fraction}
    # residue_genera's one-residue branch and its tally over several residues
    assert connected == {True, False}


def six_colored_inputs(seed: int) -> list[core.ColoredGraph]:
    rng = random.Random(600 + seed)
    return [random_gem(rng, 6, rng.randrange(2, 13, 2)),
            double(random_gem(rng, 5, rng.randrange(2, 9, 2))),
            double(random_relabel(random_augment(fixtures.cp2(), rng, rng.randint(1, 3)), rng)),
            random_relabel(random_augment(fixtures.sigma(6), rng, rng.randint(1, 6)), rng)]


def test_six_colored_gem_matches_the_oracle():
    rng = random.Random(6)
    g = random_relabel(random_augment(fixtures.sigma(6), rng, 4), rng)
    assert g.n_colors == 6
    assert repr(recognition.check_closed_manifold(g)) == repr(oracle_check(g))
    assert repr(recognition.check_closed_manifold(double(fixtures.cp2()))) == \
        repr(oracle_check(double(fixtures.cp2())))
    # a singular 5-colored hat-residue (two copies of a gem with boundary)
    # makes g no manifold complex, with no certificate
    for h in (fixtures.rp3_boundary(), fixtures.nonsimply_connected()):
        mc = recognition.check_closed_manifold(double(h))
        assert (mc.verdict, mc.certificates) == (recognition.NOT_A_MANIFOLD, ())
    # 5-colored hat-residues read their genus-zero orders off g, as at k = 5
    verdicts, refusals = set(), set()
    gems = [double(fixtures.rp3_boundary()), double(fixtures.nonsimply_connected())]
    for seed in range(10):
        gems += six_colored_inputs(seed)
    for g in gems:
        assert g.n_colors == 6
        mc = recognition.check_closed_manifold(g)
        assert repr(mc) == repr(oracle_check(g))
        verdicts.add(mc.verdict)
        if mc.verdict == recognition.NOT_A_MANIFOLD:
            refusals.add(len(mc.certificates))
    assert {recognition.NOT_A_MANIFOLD, "closed-5-manifold"} <= verdicts
    # refused by a hat-residue (no certificate) and by a triple (one)
    assert refusals == {0, 1}


def test_residue_genera_refuses_colors_out_of_range():
    with pytest.raises(StructuralError):
        genus.residue_genera(fixtures.cp2(), (0, 1, 7))


# ---------------------------------------------------------------------------
# Each 3-colored residue is certified once, with no gem built for it
# ---------------------------------------------------------------------------

def test_manifold_check_builds_no_surface_gem(monkeypatch):
    rng = random.Random(20)
    g = random_relabel(random_augment(fixtures.cp2(), rng, 20), rng)
    assert g.order == 48
    for memo in core.MEMOS:
        memo.cache_clear()
    built, hats, certified, checked = [], [], [], []
    residue_graph, sphere_certificate = core.residue_graph, recognition.sphere_certificate
    check_closed_manifold = recognition.check_closed_manifold

    def counting_residue_graph(rows, key, verts):
        built.append(len(key))
        h = residue_graph(rows, key, verts)
        if rows is g.matchings:  # not the renumbering that ends a reduction
            hats.append(h)
        return h

    def counting_sphere_certificate(h):
        certified.append(h)
        return sphere_certificate(h)

    def counting_check(h):
        checked.append(h)
        return check_closed_manifold(h)

    monkeypatch.setattr(core, "residue_graph", counting_residue_graph)
    monkeypatch.setattr(recognition, "sphere_certificate", counting_sphere_certificate)
    monkeypatch.setattr(recognition, "check_closed_manifold", counting_check)
    mc = recognition.check_closed_manifold(g)
    assert mc.verdict == "closed-4-manifold" and not mc.conditional
    assert built.count(3) == 0
    # the built hat-residues are reduced at once: no manifold check or
    # sphere recognition of their own
    assert len(checked) == 1 and certified == []
    # a hat-residue is built only when it has no genus-zero order
    assert hats
    for h in hats:
        assert h.n_colors == 4
        assert all(genus.genus_of_sequence(h, eps) > 0 for eps in genus.all_cyclic_permutations(4))


def test_manifold_check_of_sigma_walks_the_cyclic_orders_lazily():
    # every hat-residue of sigma(11) has genus 0 at the first of the 9!/2
    # cyclic orders of its colors, so no list of them is built
    import tracemalloc

    g = fixtures.sigma(11)
    for memo in core.MEMOS:
        memo.cache_clear()
    tracemalloc.start()
    try:
        mc = recognition.check_closed_manifold(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mc.verdict == "closed-10-manifold" and not mc.conditional
    assert peak < 5 * 2**20, peak


def test_hat_certificates_match_sphere_certificate_on_the_built_residue():
    # a 4-colored hat-residue with no genus-zero order is reduced without its
    # own manifold check; `sphere_certificate` on the built residue, every
    # memo emptied first, must give the same certificate
    rng = random.Random(14)
    gems = [g for seed in range(20) for g in oracle_inputs(seed) if g.n_colors == 5]
    gems += [random_relabel(random_augment(base, rng, rng.randint(5, 20)), rng)
             for base in FIXTURES_5 for _ in range(2)]
    gems += [double(random_relabel(random_augment(fixtures.cp2(), rng, 3), rng)),
             random_relabel(random_augment(fixtures.sigma(6), rng, 6), rng)]
    methods = set()
    for g in gems:
        mc = recognition.check_closed_manifold(g)
        if mc.verdict == recognition.NOT_A_MANIFOLD:
            continue
        for c, certs in mc.certificates:
            residues = core.extract_residues(g, core.complement_key((c,), g.n_colors))
            assert len(residues) == len(certs)
            for r, cert in zip(residues, certs):
                for memo in core.MEMOS:
                    memo.cache_clear()
                assert repr(recognition.sphere_certificate(r.graph)) == repr(cert)
                methods.add((g.n_colors, cert.status, cert.method))
    assert {(5, recognition.CERTIFIED_SPHERE, "dipole-reduction-to-order-2"),
            (5, recognition.CERTIFIED_NONSPHERE, "homology-obstruction"),
            (6, recognition.CERTIFIED_SPHERE, "dipole-reduction-to-order-2")} <= methods


# ---------------------------------------------------------------------------
# The benchmark tracer wraps module attributes by name
# ---------------------------------------------------------------------------

def test_every_traced_function_is_a_module_attribute():
    import ast
    import importlib

    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    functions = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets))
    assert functions
    for module, names in functions.items():
        mod = importlib.import_module(f"gemkit.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"gemkit.{module}.{name}"
