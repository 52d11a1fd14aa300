"""Dipole reduction against a reference: the rescan-everything `reduce`.

The reference is built only from whole-gem residue labellings
(`residue_labels`) and a fresh rebuild per elimination: after each
elimination it lists every dipole, certifies both complementary residues
of each, and eliminates the greatest proper one.  It shares no residue
walk, residue extraction or splice with the library.  The library's
`reduce` works on one mutable copy with local residue tests, skips
certification on certified closed manifolds and takes pairs from a
worklist, dropping each once found in one residue; its output must be
byte-identical.  The lemma that makes the worklist exact (eliminating a
dipole splits no residue) is checked on its own, over every color set,
as is the number of residue tests.  `find_dipoles` and
`eliminate_dipole` are checked against the same reference.
"""

from __future__ import annotations

import itertools
import random

import pytest

from gemkit import core, fixtures, recognition

from conftest import random_augment, random_relabel


def reference_residue(g, comp, labels, x) -> core.ColoredGraph:
    verts = [w for w in range(g.order) if labels[w] == labels[x]]
    index = {w: i for i, w in enumerate(verts)}
    return core.ColoredGraph(tuple(tuple(index[g.matchings[c][w]] for w in verts)
                                   for c in comp))


def reference_dipoles(g: core.ColoredGraph):
    """Every dipole of g as ((u, v), colors, proper), u < v; proper when a
    complementary residue at u or at v is certified a sphere."""
    out = []
    for v in range(g.order):
        for u in range(v):
            colors = tuple(c for c in g.colors if g.matchings[c][u] == v)
            if not 1 <= len(colors) < g.n_colors:
                continue
            comp = tuple(c for c in g.colors if c not in colors)
            labels, _ = core.residue_labels(g, comp)
            if labels[u] == labels[v]:
                continue
            proper = any(recognition.sphere_certificate(reference_residue(g, comp, labels, x))
                         .status == recognition.CERTIFIED_SPHERE for x in (u, v))
            out.append(((u, v), colors, proper))
    return out


def reference_eliminate(g: core.ColoredGraph, u: int, v: int, colors) -> core.ColoredGraph:
    remap = {w: i for i, w in enumerate(w for w in range(g.order) if w not in (u, v))}
    rows = []
    for c in g.colors:
        row = [0] * (g.order - 2)
        for a, b in enumerate(g.matchings[c]):
            if a not in (u, v) and b not in (u, v):
                row[remap[a]] = remap[b]
        if c not in colors:
            a, b = remap[g.matchings[c][u]], remap[g.matchings[c][v]]
            row[a], row[b] = b, a
        rows.append(tuple(row))
    return core.ColoredGraph(tuple(rows))


def reduce_oracle(g: core.ColoredGraph) -> core.ColoredGraph:
    while True:
        proper = [(uv, colors) for uv, colors, ok in reference_dipoles(g) if ok]
        if not proper:
            return g
        (u, v), colors = max(proper, key=lambda d: (d[0][1], d[0][0], d[1]))
        g = reference_eliminate(g, u, v, colors)


BASES = {"cp2": fixtures.cp2, "rp3": fixtures.rp3, "sigma5": lambda: fixtures.sigma(5),
         "rp3_boundary": fixtures.rp3_boundary,
         "nonsimply_connected": fixtures.nonsimply_connected,
         "torus_times_colors": fixtures.torus_times_colors,
         "projective_plane": fixtures.projective_plane}


def cp2_sum(k: int, rng: random.Random) -> core.ColoredGraph:
    """cp2#k, built by repeated connected sums with cp2, relabelled."""
    g = fixtures.cp2()
    for _ in range(k - 1):
        g = core.connected_sum(g, fixtures.cp2())
    return random_relabel(g, rng)


def oracle_inputs(seed: int, name: str) -> list[core.ColoredGraph]:
    rng = random.Random(100 + seed)
    if name in BASES:
        return [random_relabel(random_augment(BASES[name](), rng, rng.randint(5, 12)), rng)
                for _ in range(2)]
    # the hat-residues sphere recognition reduces: 4-colored S3 gems whose
    # every dipole is a 2-dipole
    g = cp2_sum(int(name.removeprefix("cp2#").removesuffix("-hats")), rng)
    return [r.graph for c in g.colors
            for r in core.extract_residues(g, core.complement_key((c,), g.n_colors))]


CASES = list(enumerate([*BASES, "cp2#2-hats", "cp2#3-hats", "cp2#5-hats"]))


@pytest.mark.parametrize("seed, name", CASES)
def test_reduce_matches_oracle(seed, name):
    # closed bases take the skipping path, the others certify each dipole
    for g in oracle_inputs(seed, name):
        assert core.format_gem(core.reduce(g)) == core.format_gem(reduce_oracle(g))


@pytest.mark.parametrize("seed, name", CASES)
def test_certifying_reduce_matches_oracle(monkeypatch, seed, name):
    monkeypatch.setattr(core, "_needs_certification", lambda g: True)
    for g in oracle_inputs(seed, name):
        assert core.format_gem(core.reduce(g)) == core.format_gem(reduce_oracle(g))


@pytest.mark.parametrize("seed, name", CASES)
def test_find_and_eliminate_dipoles_match_reference(seed, name):
    g = oracle_inputs(seed, name)[0]
    dipoles = reference_dipoles(g)
    assert dipoles
    assert ([(d.vertices, d.colors, d.proper is True) for d in core.find_dipoles(g)]
            == sorted(dipoles))
    for (u, v), colors, _ in dipoles:
        assert (core.format_gem(core.eliminate_dipole(g, (u, v), colors))
                == core.format_gem(reference_eliminate(g, u, v, colors)))


def survivors_stay_together(before, after, u, v) -> bool:
    """Whether every two survivors of eliminating (u, v) from ``before``
    that share a residue, over any color set, share one in ``after``."""
    survivors = [w for w in range(before.order) if w not in (u, v)]
    for size in range(1, before.n_colors + 1):
        for key in itertools.combinations(before.colors, size):
            old, _ = core.residue_labels(before, key)
            new, _ = core.residue_labels(after, key)
            seen = {}
            for i, w in enumerate(survivors):
                if seen.setdefault(old[w], new[i]) != new[i]:
                    return False
    return True


@pytest.mark.parametrize("seed, name", CASES)
def test_eliminating_a_dipole_splits_no_residue(seed, name):
    # the lemma behind reduce's worklist: a pair once found in one residue
    # stays in one while both ends live
    for g in oracle_inputs(seed, name):
        dipoles = core.find_dipoles(g)
        assert dipoles
        for d in dipoles:
            assert survivors_stay_together(g, core.eliminate_dipole(g, d.vertices, d.colors),
                                           *d.vertices)


def test_reduce_tests_each_pair_once(monkeypatch):
    # skipping path: each adjacent pair is tested once, and each elimination
    # queues at most k - 1 new pairs
    g = cp2_sum(40, random.Random(40))
    hats = [r.graph for c in g.colors
            for r in core.extract_residues(g, core.complement_key((c,), g.n_colors))]
    calls = []
    split = core._residues_split
    monkeypatch.setattr(core, "_residues_split", lambda *a: calls.append(a) or split(*a))
    for h in hats:
        assert not core._needs_certification(h)
        pairs = {(min(v, w), max(v, w)) for row in h.matchings for v, w in enumerate(row)}
        calls.clear()
        eliminated = (h.order - core.reduce(h).order) // 2
        assert eliminated
        assert len(calls) <= len(pairs) + (h.n_colors - 1) * eliminated


def test_relabelled_cp2_160_is_a_closed_manifold():
    mc = recognition.check_closed_manifold(cp2_sum(160, random.Random(160)))
    assert mc.verdict == "closed-4-manifold" and not mc.conditional


def test_reduce_returns_its_input_when_nothing_is_eliminated():
    g = fixtures.cp2()
    assert not [d for d in core.find_dipoles(g) if d.proper]
    assert core.reduce(g) is g


def memo_entries_after_check(k: int) -> int:
    """`residue_labels` entries left by one manifold check of cp2#k, every
    memo on its path emptied first."""
    g = cp2_sum(k, random.Random(k))
    for memo in core.MEMOS:
        memo.cache_clear()
    assert recognition.check_closed_manifold(g).verdict == "closed-4-manifold"
    return core.residue_labels.cache_info().currsize


def test_recognition_memo_does_not_grow_with_the_sum():
    assert memo_entries_after_check(10) == memo_entries_after_check(20) > 0


class CertificationRequested(Exception):
    pass


def _refuse(*args):
    raise CertificationRequested


def test_reduce_skips_certification_on_closed_manifold(monkeypatch):
    rng = random.Random(7)
    g = random_relabel(random_augment(fixtures.cp2(), rng, 20), rng)
    monkeypatch.setattr(core, "_dipole_properness", _refuse)
    assert core.canonical_code(core.reduce(g)) == core.canonical_code(fixtures.cp2())


def test_reduce_certifies_on_singular_manifold(monkeypatch):
    rng = random.Random(8)
    g = random_relabel(random_augment(fixtures.rp3_boundary(), rng, 6), rng)
    monkeypatch.setattr(core, "_dipole_properness", _refuse)
    with pytest.raises(CertificationRequested):
        core.reduce(g)
