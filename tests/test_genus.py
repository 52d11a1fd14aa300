import itertools
import random
from fractions import Fraction

import pytest

from gemkit import classification, core, fixtures, genus, handles
from gemkit.errors import AnalysisRefused, StructuralError

from conftest import chi_by_counting, naive_connected_gems, random_relabel


def test_canonical_permutation_class_counts():
    assert len(genus.all_cyclic_permutations(3)) == 1
    assert len(genus.all_cyclic_permutations(4)) == 3
    assert len(genus.all_cyclic_permutations(5)) == 12


def inline_sequence_text(seq):
    """Oracle: the text that the reports wrote inline for a color sequence
    before ``genus.sequence_text`` became its one writer."""
    return "(" + ",".join(str(c) for c in seq) + ")"


def test_sequence_text_of_every_five_color_order():
    orders = genus.all_cyclic_permutations(5)
    assert len(orders) == 12 and str(orders[0]) == "(0,1,2,3,4)"
    for eps in orders:
        assert str(eps) == genus.sequence_text(eps.seq) == inline_sequence_text(eps.seq)


def test_sequence_text_of_every_report_order_of_the_order_8_corpus(
        crystallization_corpus_order8):
    orders = t_keys = 0
    for g in crystallization_corpus_order8:
        try:
            report = handles.handles_report(g)
            classified = classification.classification_report(g)
        except AnalysisRefused:
            continue
        out = report.to_json()
        for items, rows in ((report.witnesses, out["witnesses"]),
                            (report.collapses, out["collapses"])):
            for item, row in zip(items, rows, strict=True):
                assert row["permutation"] == inline_sequence_text(item.permutation)
                orders += 1
        keys = list(classified.to_json()["t"])
        assert keys == [inline_sequence_text(k) for k in classified.t]
        t_keys += len(keys)
    assert orders and t_keys


def test_cyclic_permutations_stream_the_canonical_orders_in_order():
    for n in range(3, 8):
        every = {genus.CyclicPermutation.canonical(p) for p in itertools.permutations(range(n))}
        expected = tuple(sorted(every, key=lambda e: e.seq))
        assert tuple(genus.cyclic_permutations(n)) == expected
        assert genus.all_cyclic_permutations(n) == expected


def test_canonical_form_fixes_reversal_and_rotation():
    e = genus.CyclicPermutation.canonical((2, 0, 1, 3, 4))
    assert e.seq[-1] == 4
    assert genus.CyclicPermutation.canonical(tuple(reversed(e.seq))) == e
    rotated = e.seq[2:] + e.seq[:2]
    assert genus.CyclicPermutation.canonical(rotated) == e


def test_sigma_graphs_have_genus_zero():
    for k in (3, 4, 5, 6):
        g = fixtures.sigma(k)
        for eps in genus.all_cyclic_permutations(k):
            assert genus.genus_of_sequence(g, eps) == 0


def test_torus_gem_derived_by_enumeration():
    # oracle: the smallest bipartite 3-colored gems with chi = 0 have genus 1
    found = None
    for p in (2, 4, 6):
        for g in naive_connected_gems(3, p):
            if core.is_bipartite(g) and chi_by_counting(g) == 0:
                found = g
                break
        if found:
            break
    assert found is not None and found.order == 6
    assert genus.genus_of_sequence(found, genus.all_cyclic_permutations(3)[0]) == 1
    assert genus.genus_of_sequence(fixtures.torus(),
                                   genus.all_cyclic_permutations(3)[0]) == 1


def test_genus_equals_inverse_permutation_genus():
    rng = random.Random(7)
    gems = [fixtures.cp2(), fixtures.rp3_boundary(), fixtures.sigma(5)]
    for g in gems:
        for eps in genus.all_cyclic_permutations(5):
            rev = genus.CyclicPermutation.canonical(tuple(reversed(eps.seq)))
            assert genus.genus_of_sequence(g, eps) == genus.genus_of_sequence(g, rev)
        # raw (non-canonical) sequences agree with their reversals too
        for _ in range(20):
            seq = list(range(5))
            rng.shuffle(seq)
            assert genus.genus_of_sequence(g, tuple(seq)) == \
                genus.genus_of_sequence(g, tuple(reversed(seq)))


def test_bipartite_genus_is_integral_on_enumerated_gems():
    for g in naive_connected_gems(3, 6):
        rho = genus.genus_of_sequence(g, genus.all_cyclic_permutations(3)[0])
        assert rho >= 0
        if core.is_bipartite(g):
            assert rho.denominator == 1
        else:
            assert (2 * rho).denominator == 1


def test_genus_requires_connected():
    with pytest.raises(StructuralError):
        genus.genus_of_sequence(core.disjoint_union(fixtures.sigma(3), fixtures.sigma(3)),
                                genus.all_cyclic_permutations(3)[0])


def test_genus_all_sigma5():
    rep = genus.genus_all(fixtures.sigma(5))
    assert rep.regular_genus == 0
    assert all(v == 0 for v in rep.rho.values())
    assert all(all(s == 0 for s in subs) for subs in rep.subgenera.values())
    assert rep.orientable and rep.residues_connected
    assert len(rep.min_witnesses) == 12


def test_genus_all_cp2_witness_structure():
    rep = genus.genus_all(fixtures.cp2())
    assert rep.regular_genus == 2
    for eps in rep.min_witnesses:
        assert all(s == 1 for s in rep.subgenera[eps])


def test_genus_all_reads_each_induced_order_once(monkeypatch):
    # 12 cyclic orders, then 5 deleted colors times the 3 cyclic orders of
    # the other four: 27 reads, where one per (order, position) made 72
    seqs = []
    residue_genera = genus.residue_genera

    def spy(g, seq):
        seqs.append(seq)
        return residue_genera(g, seq)

    g = fixtures.cp2()
    genus.genus_all.cache_clear()
    monkeypatch.setattr(genus, "residue_genera", spy)
    rep = genus.genus_all(g)
    assert len(seqs) == 27
    assert rep.subgenera == {e: tuple(genus.subgenus(g, e, i) for i in range(5))
                             for e in genus.all_cyclic_permutations(5)}


def test_genus_invariant_under_relabeling():
    rng = random.Random(8)
    g = fixtures.cp2()
    base = sorted(genus.genus_all(g).rho.values())
    for _ in range(10):
        h = random_relabel(g, rng)
        assert sorted(genus.genus_all(h).rho.values()) == base


def test_subgenus_sums_components_on_non_contracted_input():
    # a dipole-augmented sigma5 has disconnected top residues
    g = core.add_dipole(fixtures.sigma(5), 0, (0,))
    rep = genus.genus_all(g)
    assert not rep.residues_connected
    eps = genus.all_cyclic_permutations(5)[0]
    i = eps.seq.index(0)
    residues = core.extract_residues(g, core.complement_key((0,), 5))
    assert len(residues) == 2
    assert genus.subgenus(g, eps, i) == 0  # two sphere residues, genera sum to 0


def test_genus_euler_split_is_permutation_free_on_any_gem():
    # 2 - 2*rho + sum of subgenera is the same for all 12 cyclic orders even
    # on non-contracted gems (component-sum convention)
    rng = random.Random(13)
    gems = [fixtures.cp2(), core.add_dipole(fixtures.sigma(5), 0, (0,)),
            core.add_dipole(fixtures.cp2(), 1, (0, 2))]
    for _ in range(5):
        g = fixtures.sigma(5)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(g.order)
            h = rng.randint(1, 4)
            g = core.add_dipole(g, at, tuple(sorted(rng.sample(range(5), h))))
        gems.append(g)
    for g in gems:
        rep = genus.genus_all(g)
        values = {2 - 2 * rep.rho[e] + sum(rep.subgenera[e]) for e in rep.rho}
        assert len(values) == 1


def test_genus_reversal_property_on_random_augmented_gems():
    rng = random.Random(14)
    for _ in range(100):
        g = fixtures.sigma(5) if rng.random() < 0.5 else fixtures.cp2()
        g = g.relabel(rng.sample(range(g.order), g.order))
        seq = tuple(rng.sample(range(5), 5))
        assert genus.genus_of_sequence(g, seq) == \
            genus.genus_of_sequence(g, tuple(reversed(seq)))


def test_genus_report_json_shapes():
    rep = genus.genus_all(fixtures.projective_plane())
    data = rep.to_json()
    assert data["regular_genus"] == "1/2"
    rep5 = genus.genus_all(fixtures.cp2()).to_json()
    assert set(rep5["rho"]) == {str(e) for e in genus.all_cyclic_permutations(5)}
    assert all(len(v) == 5 for v in rep5["subgenera"].values())


def test_genus_report_is_read_only():
    g = fixtures.cp2()
    rep = genus.genus_all(g)
    eps = next(iter(rep.rho))
    with pytest.raises(TypeError):
        rep.rho[eps] = 99
    with pytest.raises(TypeError):
        rep.subgenera[eps] = ()
    with pytest.raises(AttributeError):
        rep.regular_genus = 0
    assert genus.genus_all(g).rho[eps] == 2


def least_first_form(seq):
    """The cyclic form genus used to key induced orders by: rotated to its
    least color, in whichever direction reads less."""
    if not seq:
        return seq
    i = seq.index(min(seq))
    rot = seq[i:] + seq[:i]
    return min(rot, rot[:1] + rot[:0:-1])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cyclic_form_groups_induced_orders_as_the_least_first_form(n):
    # every canonical order with every position deleted: both forms must
    # split these induced orders into the same classes
    induced = [e.delete(i) for e in genus.all_cyclic_permutations(n) for i in range(n)]
    pairs = {(least_first_form(s), genus._cyclic_form(s)) for s in induced}
    assert len({old for old, _ in pairs}) == len({new for _, new in pairs}) == len(pairs)
    for s in induced:
        assert genus._cyclic_form(s)[-1] == max(s)


@pytest.mark.parametrize("seq", [(0, 1, 2), (0, 1, 1, 2, 3, 4), (0, 1, 2, 3, 5), ()])
def test_genus_of_sequence_refuses_what_is_no_cyclic_order_of_the_colors(seq):
    with pytest.raises(StructuralError):
        genus.genus_of_sequence(fixtures.cp2(), seq)


@pytest.mark.parametrize("seq", [(0, 1, 1), (0, 1, 2, 1)])
def test_residue_genera_refuses_a_repeated_color(seq):
    with pytest.raises(StructuralError, match="repeats a color"):
        genus.residue_genera(fixtures.cp2(), seq)
