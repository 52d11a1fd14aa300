import itertools
import random
from fractions import Fraction

import pytest

from gemkit import catalogue, core, fixtures, handles, recognition
from gemkit.errors import StructuralError

from conftest import naive_connected_gems, random_augment, random_relabel


def test_classify_surface_examples():
    assert recognition.classify_surface(fixtures.sigma(3)) == (0, True)
    assert recognition.classify_surface(fixtures.torus()) == (1, True)
    assert recognition.classify_surface(fixtures.projective_plane()) == \
        (Fraction(1, 2), False)


def test_projective_plane_is_minimal_non_bipartite():
    # enumeration oracle: order 4 is the smallest non-bipartite 3-colored gem
    assert all(core.is_bipartite(g) for g in naive_connected_gems(3, 2))
    nonbip = [g for g in naive_connected_gems(3, 4) if not core.is_bipartite(g)]
    assert nonbip
    for g in nonbip:
        assert recognition.classify_surface(g) == (Fraction(1, 2), False)


def test_classify_surface_euler_consistency():
    from conftest import chi_by_counting

    for p in (2, 4, 6):
        for g in naive_connected_gems(3, p):
            rho, orientable = recognition.classify_surface(g)
            assert chi_by_counting(g) == 2 - 2 * rho


def test_classify_surface_wrong_colors():
    with pytest.raises(StructuralError):
        recognition.classify_surface(fixtures.sigma(4))


def surface_route_certificate(g):
    """Oracle: a 3-colored gem's sphere certificate read off its surface
    classification, the route ``sphere_certificate`` took for surfaces
    before the residue path of ``_hat_certificates`` became the only one."""
    return recognition._surface_certificate(recognition.classify_surface(g)[0])


def test_surface_sphere_certificate_matches_the_surface_classification():
    rng = random.Random(28)
    named = [fixtures.torus(), fixtures.projective_plane(), fixtures.sigma(3)]
    gems = [core.decode_code(r.code) for r in catalogue.enumerate_gems(3, 8)] + named
    gems += [random_augment(g, rng, rng.randint(1, 4)) for g in named for _ in range(4)]
    statuses = set()
    for g in gems:
        cert = recognition.sphere_certificate(g)
        assert repr(cert) == repr(surface_route_certificate(g)), core.canonical_code(g).hex()
        statuses.add(cert.status)
    assert statuses == {recognition.CERTIFIED_SPHERE, recognition.CERTIFIED_NONSPHERE}


def test_check_closed_manifold_sigma5():
    mc = recognition.check_closed_manifold(fixtures.sigma(5))
    assert mc.verdict == "closed-4-manifold" and mc.closed
    assert mc.singular_colors == () and not mc.conditional


def test_singular_manifold_detection():
    mc = recognition.check_closed_manifold(fixtures.rp3_boundary())
    assert mc.verdict == "singular-4-manifold" and not mc.closed
    assert mc.singular_colors == (4,)
    assert not mc.conditional


def test_not_a_manifold_complex():
    mc = recognition.check_closed_manifold(fixtures.torus_times_colors())
    assert mc.verdict == "not-a-manifold-complex" and not mc.closed


def test_surface_and_3_manifold_verdicts():
    surface = recognition.check_closed_manifold(fixtures.torus())
    assert surface.verdict == "surface" and not surface.closed
    rp3 = recognition.check_closed_manifold(fixtures.rp3())
    assert rp3.verdict == "closed-3-manifold" and rp3.closed
    # 4-colored gem with a non-sphere residue: pad the torus with one color
    g = core.ColoredGraph(fixtures.torus().matchings + ((1, 0, 3, 2, 5, 4),))
    mc = recognition.check_closed_manifold(g)
    assert mc.verdict == "singular-3-residue" and not mc.closed
    assert mc.singular_colors != ()


def test_recognize_sphere3_order2():
    cert = recognition.sphere_certificate(fixtures.sigma(4))
    assert cert.status == recognition.CERTIFIED_SPHERE


def test_recognize_sphere3_via_reduction():
    rng = random.Random(9)
    for _ in range(10):
        g = random_augment(fixtures.sigma(4), rng, rng.randint(1, 3))
        cert = recognition.sphere_certificate(g)
        assert cert.status == recognition.CERTIFIED_SPHERE


def test_recognize_sphere3_rp3_obstruction():
    cert = recognition.sphere_certificate(fixtures.rp3())
    assert cert.status == recognition.CERTIFIED_NONSPHERE
    assert cert.method == "homology-obstruction"
    assert "Z/2" in cert.detail


def test_sphere_certificates_consistent_across_isomorphs():
    rng = random.Random(10)
    for g in (fixtures.sigma(4), fixtures.rp3()):
        base = recognition.sphere_certificate(g).status
        for _ in range(10):
            h = random_relabel(g, rng)
            assert recognition.sphere_certificate(h).status == base


def test_manifold_gems_have_sphere_triple_residues():
    # whenever the 5-colored check passes, every 3-colored residue is a
    # 2-sphere (and every 2-colored residue is trivially a cycle)
    import itertools

    for g in (fixtures.sigma(5), fixtures.cp2(), fixtures.rp3_boundary(),
              fixtures.nonsimply_connected()):
        assert recognition.check_closed_manifold(g).is_manifold
        for triple in itertools.combinations(range(5), 3):
            for r in core.extract_residues(g, triple):
                assert recognition.classify_surface(r.graph)[0] == 0


def test_sibling_subgenus_bound_without_simple_connectivity():
    from gemkit import genus

    g = fixtures.nonsimply_connected()
    rep = genus.genus_all(g)
    for eps in genus.all_cyclic_permutations(5):
        sub = rep.subgenera[eps]
        for j in range(5):
            assert sub[(j - 1) % 5] + sub[(j + 1) % 5] <= rep.rho[eps]


def test_is_crystallization():
    s5 = fixtures.sigma(5)
    assert recognition.is_crystallization(s5)
    assert set(core.hat_residue_counts(s5).values()) == {1}
    assert recognition.is_crystallization(fixtures.cp2())
    # adding a 1-dipole of color 0 splits the residues missing color 0
    g = core.add_dipole(fixtures.sigma(5), 0, (0,))
    assert not recognition.is_crystallization(g)
    assert core.hat_residue_counts(g)[0] == 2
    # a contracted non-manifold gem is not a crystallization
    assert not recognition.is_crystallization(fixtures.torus_times_colors())


def test_normalize_singular_color():
    bdy = fixtures.rp3_boundary()
    same, perm = recognition.normalize_singular_color(bdy)
    assert same == bdy and perm == (0, 1, 2, 3, 4)
    # move the singular color to 1, then normalize back
    swap = list(range(5))
    swap[1], swap[4] = swap[4], swap[1]
    moved = bdy.recolor(swap)
    assert recognition.singular_colors(moved) == (1,)
    normed, perm = recognition.normalize_singular_color(moved)
    assert recognition.singular_colors(normed) == (4,)
    assert core.canonical_code(normed) == core.canonical_code(bdy)


def test_top_color_is_the_singular_color_else_the_greatest():
    bdy = fixtures.rp3_boundary()
    assert recognition.top_color(fixtures.cp2()) == 4
    assert recognition.top_color(bdy) == 4
    # move the singular color to 1: the handle rules follow it there
    swap = [0, 4, 2, 3, 1]
    moved = bdy.recolor(swap)
    assert recognition.singular_colors(moved) == (1,)
    assert recognition.top_color(moved) == 1
    witnesses = handles.find_hypothesis_witnesses(moved)
    assert len(witnesses) == len(handles.find_hypothesis_witnesses(bdy)) > 0
    assert all(w.boundary_case and 1 in w.free_pair and w.permutation[-1] == 1
               for w in witnesses)
    j, k = next((j, k) for j, k in itertools.combinations((0, 2, 3, 4), 2)
                if handles.pair_condition(moved, j, k))
    s = next(c for c in (0, 2, 3, 4) if c not in (j, k))
    _, eps = handles.subgenus_target(moved, j, k, s)
    assert eps[-1] == 1
    r = fixtures.rp3()  # padded with a copy of a matching: two singular colors
    with pytest.raises(StructuralError):
        recognition.top_color(core.ColoredGraph(r.matchings + (r.matchings[3],)))


def test_two_singular_colors_refused_by_normalization():
    # pad rp3 with a copy of one of its own matchings: two singular colors
    r = fixtures.rp3()
    g = core.ColoredGraph(r.matchings + (r.matchings[3],))
    sing = recognition.singular_colors(g)
    assert len(sing) >= 2
    with pytest.raises(StructuralError):
        recognition.normalize_singular_color(g)
    assert not recognition.is_crystallization(g)
