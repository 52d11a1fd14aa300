import itertools
import random

import pytest

from gemkit import core, fixtures, invariants
from gemkit.errors import GemFormatError, StructuralError

from conftest import (brute_force_isomorphic, chi_by_counting, fpf_involutions,
                      random_augment, random_matchings, random_recolor, random_relabel)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_rejects_loops():
    with pytest.raises(StructuralError):
        core.ColoredGraph(((0, 1),))


def test_rejects_non_involution():
    with pytest.raises(StructuralError):
        core.ColoredGraph(((1, 2, 0),))


def test_rejects_odd_order():
    with pytest.raises(StructuralError):
        core.ColoredGraph(((1, 0, 2),))


def test_order_two_is_legal():
    g = fixtures.sigma(5)
    assert g.order == 2 and g.n_colors == 5


def test_sigma_of_no_colors_is_refused_by_the_graph_itself():
    with pytest.raises(StructuralError, match="at least one color"):
        fixtures.sigma(0)


def test_equal_graphs_share_hash_and_memo_entry():
    g1 = random_relabel(core.connected_sum(fixtures.cp2(), fixtures.rp3_boundary()),
                        random.Random(41))
    g2 = core.ColoredGraph(tuple(list(row) for row in g1.matchings))
    assert g2 is not g1 and g2 == g1 and hash(g2) == hash(g1)
    first = core.residue_labels(g1, (0, 1))
    before = core.residue_labels.cache_info()
    assert core.residue_labels(g2, (0, 1)) is first
    after = core.residue_labels.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# ---------------------------------------------------------------------------
# Residues
# ---------------------------------------------------------------------------

def test_sigma5_residue_counts():
    s5 = fixtures.sigma(5)
    assert core.residue_count(s5, (0, 1)) == 1
    assert core.residue_count(s5, (0,)) == 1
    assert core.residue_count(s5, (0, 1, 2, 3, 4)) == 1


def test_disconnected_union_counts_two():
    two = core.disjoint_union(fixtures.sigma(5), fixtures.sigma(5))
    assert core.residue_count(two, (0, 1, 2, 3, 4)) == 2
    assert len(core.extract_residues(two, (0, 1))) == 2


def test_extract_residues_partition():
    rng = random.Random(1)
    for g in (fixtures.sigma(5), fixtures.torus(), fixtures.cp2(),
              random_augment(fixtures.cp2(), rng, 2)):
        for size in range(1, g.n_colors):
            for key in itertools.combinations(range(g.n_colors), size):
                residues = core.extract_residues(g, key)
                assert len(residues) == core.residue_count(g, key)
                everything = sorted(v for r in residues for v in r.vertices)
                assert everything == list(range(g.order))
                for r in residues:
                    assert r.graph.order == len(r.vertices)


def test_residue_count_monotone_under_refinement():
    rng = random.Random(2)
    g = random_augment(fixtures.cp2(), rng, 3)
    for key in itertools.combinations(range(5), 3):
        for sub in itertools.combinations(key, 2):
            assert core.residue_count(g, sub) >= core.residue_count(g, key)


def test_residue_color_out_of_range():
    with pytest.raises(StructuralError):
        core.residue_count(fixtures.sigma(3), (0, 7))


# ---------------------------------------------------------------------------
# Bipartiteness
# ---------------------------------------------------------------------------

def test_bipartite_examples():
    assert core.is_bipartite(fixtures.sigma(5))
    assert core.is_bipartite(fixtures.sigma(3))
    assert core.is_bipartite(fixtures.torus())
    assert not core.is_bipartite(fixtures.projective_plane())


def test_bipartition_requires_connected():
    with pytest.raises(StructuralError):
        core.bipartition(core.disjoint_union(fixtures.sigma(3), fixtures.sigma(3)))


# ---------------------------------------------------------------------------
# Canonical codes
# ---------------------------------------------------------------------------

def test_code_invariant_under_relabeling():
    rng = random.Random(3)
    for g in (fixtures.sigma(5), fixtures.torus(), fixtures.rp3(), fixtures.cp2()):
        base = core.canonical_code(g)
        base_cp = core.canonical_code(g, core.COLOR_PRESERVING)
        for _ in range(100):
            h = random_relabel(g, rng)
            assert core.canonical_code(h) == base
            assert core.canonical_code(h, core.COLOR_PRESERVING) == base_cp


def test_code_invariant_under_recoloring_up_to_flavor():
    rng = random.Random(4)
    g = fixtures.cp2()
    base = core.canonical_code(g)
    for _ in range(30):
        h = random_recolor(g, rng)
        assert core.canonical_code(h) == base


def test_codes_match_brute_force_isomorphism_exhaustively():
    # every connected 3-colored gem on <= 4 vertices, both flavors
    gems = []
    for p in (2, 4):
        pi0 = tuple(v + 1 if v % 2 == 0 else v - 1 for v in range(p))
        for rest in itertools.product(fpf_involutions(p), repeat=2):
            g = core.ColoredGraph((pi0,) + rest)
            if core.is_connected(g):
                gems.append(g)
    for g1, g2 in itertools.combinations(gems, 2):
        same_free = core.canonical_code(g1) == core.canonical_code(g2)
        assert same_free == brute_force_isomorphic(g1, g2, up_to_colors=True)
        same_fixed = (core.canonical_code(g1, core.COLOR_PRESERVING)
                      == core.canonical_code(g2, core.COLOR_PRESERVING))
        assert same_fixed == brute_force_isomorphic(g1, g2, up_to_colors=False)


def test_code_decode_round_trip():
    for g in (fixtures.sigma(5), fixtures.torus(), fixtures.cp2(),
              fixtures.rp3_boundary()):
        code = core.canonical_code(g)
        h = core.decode_code(code)
        assert core.canonical_code(h) == code


def test_decode_code_rejects_bad_header():
    good = core.canonical_code(fixtures.sigma(5))
    for bad in (good[:1] + b"\x00" + good[2:],    # no colors
                good[:2] + b"\x00" + good[3:],    # width 0
                good[:2] + b"\x03" + good[3:]):   # width 3
        with pytest.raises(GemFormatError):
            core.decode_code(bad)
    with pytest.raises(GemFormatError):
        core.decode_code("0105000002")


def test_code_requires_connected():
    with pytest.raises(StructuralError):
        core.canonical_code(core.disjoint_union(fixtures.sigma(3), fixtures.sigma(3)))


# ---------------------------------------------------------------------------
# Connected sum
# ---------------------------------------------------------------------------

def test_sum_with_sphere_is_identity():
    s5 = fixtures.sigma(5)
    assert core.canonical_code(core.connected_sum(s5, s5)) == core.canonical_code(s5)
    for g in (fixtures.cp2(), fixtures.rp3_boundary()):
        for v1 in range(g.order):
            s = core.connected_sum(g, s5, v1=v1)
            assert core.canonical_code(s) == core.canonical_code(g)


def test_sum_order_arithmetic_and_bipartiteness():
    g = core.connected_sum(fixtures.cp2(), fixtures.cp2())
    assert g.order == 8 + 8 - 2
    assert core.is_bipartite(g)
    t = core.connected_sum(fixtures.torus(), fixtures.torus())
    assert t.order == 10 and core.is_bipartite(t)
    assert chi_by_counting(t) == -2  # genus-2 surface


def reference_sum(g1, g2, v1, v2):
    """The sum as the splice of v1 and v2 out of a validated disjoint union."""
    union = core.disjoint_union(g1, g2)
    w2 = g1.order + v2
    rows = [list(row) for row in union.matchings]
    for row in rows:
        a, b = row[v1], row[w2]
        row[a], row[b] = b, a
    return core.residue_graph(rows, union.colors,
                              [w for w in range(union.order) if w not in (v1, w2)])


def test_sum_matches_splice_of_disjoint_union():
    rng = random.Random(53)
    by_colors = [[fixtures.cp2, fixtures.rp3_boundary, fixtures.nonsimply_connected,
                  fixtures.torus_times_colors, lambda: fixtures.sigma(5)],
                 [fixtures.rp3, lambda: fixtures.sigma(4)],
                 [fixtures.torus, fixtures.projective_plane, lambda: fixtures.sigma(3)]]
    for _ in range(30):
        bases = rng.choice(by_colors)
        g1, g2 = (random_relabel(random_augment(rng.choice(bases)(), rng, rng.randint(0, 3)),
                                 rng) for _ in range(2))
        v1, v2 = rng.randrange(g1.order), rng.randrange(g2.order)
        assert (core.format_gem(core.connected_sum(g1, g2, v1, v2))
                == core.format_gem(reference_sum(g1, g2, v1, v2)))


def test_sum_rejects_mismatched_colors():
    with pytest.raises(StructuralError):
        core.connected_sum(fixtures.sigma(3), fixtures.sigma(5))


# ---------------------------------------------------------------------------
# Dipoles
# ---------------------------------------------------------------------------

def test_sigma5_has_no_dipoles():
    assert core.find_dipoles(fixtures.sigma(5)) == ()
    assert core.find_dipoles(fixtures.sigma(4)) == ()


def test_added_dipole_is_found_and_proper():
    s5 = fixtures.sigma(5)
    g = core.add_dipole(s5, 0, (0,))
    dipoles = core.find_dipoles(g)
    added = [d for d in dipoles if d.vertices == (2, 3) and d.colors == (0,)]
    assert len(added) == 1 and added[0].proper is True
    # every reported dipole must satisfy the definition
    for d in dipoles:
        u, v = d.vertices
        joining = tuple(c for c in g.colors if g.matchings[c][u] == v)
        assert joining == d.colors
        labels, _ = core.residue_labels(g, core.complement_key(d.colors, 5))
        assert labels[u] != labels[v]


def test_add_then_eliminate_is_identity():
    rng = random.Random(5)
    for g0 in (fixtures.sigma(5), fixtures.cp2(), fixtures.rp3()):
        for _ in range(20):
            at = rng.randrange(g0.order)
            h = rng.randint(1, g0.n_colors - 1)
            colors = tuple(sorted(rng.sample(range(g0.n_colors), h)))
            g1 = core.add_dipole(g0, at, colors)
            back = core.eliminate_dipole(g1, (g0.order, g0.order + 1), colors)
            assert back == g0  # exact, not just isomorphic


@pytest.mark.parametrize("colors", [(-1,), (0, 5)])
def test_add_dipole_refuses_colors_outside_the_gem(colors):
    # a negative color would index the matchings from the end
    with pytest.raises(StructuralError):
        core.add_dipole(fixtures.cp2(), 0, colors)


def test_eliminate_requires_valid_dipole():
    s5 = fixtures.sigma(5)
    with pytest.raises(StructuralError):
        core.eliminate_dipole(s5, (0, 1))  # order-2 graph
    g = core.add_dipole(s5, 0, (0,))
    with pytest.raises(StructuralError):
        core.eliminate_dipole(g, (2, 3), (1,))  # wrong color set
    with pytest.raises(StructuralError):
        core.eliminate_dipole(g, (0, 2))  # not joined


def test_reduce_round_trips_and_preserves_invariants():
    rng = random.Random(6)
    for g0 in (fixtures.sigma(5), fixtures.cp2()):
        code0 = core.canonical_code(g0)
        chi0 = invariants.euler_characteristic(g0)
        for _ in range(10):
            g = random_augment(g0, rng, rng.randint(1, 3))
            assert invariants.euler_characteristic(g) == chi0
            r = core.reduce(g)
            assert core.canonical_code(r) == code0


def test_reduce_is_fixpoint_on_sigma():
    s5 = fixtures.sigma(5)
    assert core.reduce(s5) == s5


# ---------------------------------------------------------------------------
# .gem format
# ---------------------------------------------------------------------------

def test_gem_format_round_trip_bit_exact():
    for g in (fixtures.sigma(5), fixtures.torus(), fixtures.cp2()):
        text = core.format_gem(g)
        assert text.endswith("\n")
        assert core.parse_gem(text) == g
        assert core.format_gem(core.parse_gem(text)) == text


def test_gem_format_sigma5_exact_text():
    assert core.format_gem(fixtures.sigma(5)) == \
        "gem 5 2\n1 0\n1 0\n1 0\n1 0\n1 0\n"


def test_gem_parse_comments_and_errors():
    text = "# a comment\ngem 3 2\n1 0\n# another\n1 0\n1 0\n"
    assert core.parse_gem(text) == fixtures.sigma(3)
    for bad in ("", "gem 3\n", "gem 3 2\n1 0\n1 0\n", "gem 3 2\n1 0\n1 0\nx y\n",
                "gem 3 2\n1 0\n1 0\n0 1\n"):
        with pytest.raises(GemFormatError):
            core.parse_gem(bad)


def test_gem_file_io(tmp_path):
    path = tmp_path / "g.gem"
    core.save_gem(fixtures.rp3(), path)
    assert core.load_gem(path) == fixtures.rp3()


def test_read_lines_splits_as_the_whole_text_does(tmp_path):
    # universal newlines, and only "\n" ends a line: not \x0c or \x85, as in
    # str.splitlines
    path = tmp_path / "mixed.txt"
    path.write_bytes("a\r\nb\rc\n\n d\x0ce f\x85g\nlast".encode())
    whole = path.read_text(encoding="utf-8")
    lines = list(core.read_lines(path))
    assert "".join(lines) == whole
    assert [line.removesuffix("\n") for line in lines] == whole.split("\n")


def test_read_lines_maps_a_decode_error_past_the_first_lines(tmp_path):
    path = tmp_path / "late.txt"
    path.write_bytes((b"x" * 99 + b"\n") * 1000 + b"\xff\n")
    lines = core.read_lines(path)
    assert next(lines) == "x" * 99 + "\n"  # read lazily: the bad byte lies 100 KB on
    with pytest.raises(GemFormatError, match="cannot read"):
        list(lines)


# ---------------------------------------------------------------------------
# Partition primitives
# ---------------------------------------------------------------------------

def test_join_classes_numbers_by_first_appearance():
    assert core.join_classes((0, 1, 2, 3, 4), [(3, 1), (4, 0)]) == ((0, 1, 2, 1, 0), 3)
    assert core.join_classes((0, 0, 1, 2), [(2, 3)]) == ((0, 0, 1, 1), 2)


def union_find_labels(g, key):
    """The oracle: the components of the ``key``-colored subgraph joined
    pair by pair through `join_classes`' union-find."""
    return core.join_classes(range(g.order), [(v, w) for c in key
                                              for v, w in enumerate(g.matchings[c]) if v < w])


def test_residue_labels_match_the_union_find_oracle():
    rng = random.Random(14)
    gems = []
    for k in range(2, 7):
        gems += [random_matchings(rng, k, rng.randrange(2, 25, 2)) for _ in range(8)]
        h = random_relabel(random_augment(fixtures.sigma(k), rng, 3), rng)
        gems += [h, core.disjoint_union(h, random_matchings(rng, k, 6))]
    connected = set()
    for g in gems:
        connected.add(core.is_connected(g))
        for size in range(1, g.n_colors + 1):
            for key in itertools.combinations(g.colors, size):
                assert core.residue_labels(g, key) == union_find_labels(g, key)
    assert connected == {True, False}


def test_residue_roots_are_least_vertices():
    rng = random.Random(3)
    for g in (fixtures.cp2(), fixtures.rp3(), fixtures.nonsimply_connected()):
        g = random_relabel(g, rng)
        for key in itertools.combinations(g.colors, 2):
            labels, count = core.residue_labels(g, key)
            roots = core.residue_roots(labels)
            assert roots == tuple(min(v for v in range(g.order) if labels[v] == lab)
                                  for lab in range(count))


def test_spanning_tree_is_breadth_first_and_detects_disconnection():
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (0, 1)]
    assert core.spanning_tree(4, edges) == [0, 2, 3]
    assert len(core.spanning_tree(5, edges)) < 4
