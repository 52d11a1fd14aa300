"""Dipole reduction against a reference: the rescan-everything `reduce`.

The reference lists every dipole with ``find_dipoles`` after each
elimination, certifying each one, and eliminates the greatest proper one.
The library's `reduce` skips certification on certified closed manifolds
and stops scanning at the first dipole it may eliminate; its output must
be byte-identical.
"""

from __future__ import annotations

import random

import pytest

from gemkit import core, fixtures

from conftest import random_augment, random_relabel


def reduce_oracle(g: core.ColoredGraph) -> core.ColoredGraph:
    while True:
        proper = [d for d in core.find_dipoles(g) if d.proper]
        if not proper:
            return g
        d = max(proper, key=lambda d: (d.vertices[1], d.vertices[0], d.colors))
        g = core.eliminate_dipole(g, d.vertices, d.colors)


BASES = {"cp2": fixtures.cp2, "rp3": fixtures.rp3, "sigma5": lambda: fixtures.sigma(5),
         "rp3_boundary": fixtures.rp3_boundary,
         "nonsimply_connected": fixtures.nonsimply_connected,
         "torus_times_colors": fixtures.torus_times_colors,
         "projective_plane": fixtures.projective_plane}


@pytest.mark.parametrize("seed, name", enumerate(BASES))
def test_reduce_matches_oracle(seed, name):
    # closed bases take the skipping path, the others certify each dipole
    rng = random.Random(100 + seed)
    for _ in range(2):
        g = random_relabel(random_augment(BASES[name](), rng, rng.randint(5, 12)), rng)
        assert core.format_gem(core.reduce(g)) == core.format_gem(reduce_oracle(g))


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
