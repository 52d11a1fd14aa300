"""Byte pins: catalogue bytes, presentation text and CLI outputs recorded
from a known-good build.  Any refactor of the partition primitives must
leave every value here unchanged."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import pytest

from gemkit import catalogue, cli, core, fixtures, invariants

from conftest import random_augment, random_relabel


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("k, p, filters, digest", [
    (5, 6, ("crystallization",),
     "0353d94d0f7ddd5685c0e57605cbb706a82eab077ff726dc39247c0a673871a6"),
    (4, 6, ("bipartite",),
     "39301dfb4e9b4ba24fe7e963ffc922dffb3e7e393b670572bdd8ac1043d41773"),
    (4, 6, (),
     "91800a648420edd33f71952a326a29ffabf32a9947b07ebbfeaa0c363a11a03f"),
    (3, 6, ("manifold",),
     "99303464d879141ed3476565a5aa4099e6d53cc93f7fd9a53e2ecf383c8cba70"),
])
def test_catalogue_bytes_pinned(tmp_path, k, p, filters, digest):
    out = tmp_path / "cat.jsonl"
    catalogue.generate_catalogue(out, k, p, filters, 1)
    assert _sha(out.read_bytes()) == digest


def test_presentation_text_pinned():
    g = core.connected_sum(fixtures.cp2(), fixtures.cp2())
    assert invariants.presentation_raw(g, 0, 1).to_text() == "gens: x1\n\n\n\n1\n"


def test_presentation_spanning_tree_pinned():
    # a 4-colored gem whose (0, 1) dual subcomplex has a nontrivial tree:
    # five generators, three of them killed by tree edges
    g = core.ColoredGraph((
        (1, 0, 10, 11, 5, 4, 7, 6, 9, 8, 2, 3),
        (11, 9, 5, 10, 6, 2, 4, 8, 7, 1, 3, 0),
        (8, 4, 3, 2, 1, 10, 7, 6, 0, 11, 5, 9),
        (8, 11, 3, 2, 9, 10, 7, 6, 0, 4, 5, 1),
    ))
    text = invariants.presentation_raw(g, 0, 1).to_text()
    assert text == "gens: x1 x2 x3 x4 x5\n4 -3 4 -3\n1\n3\n5\n"
    assert invariants.h1_via_edge_path(g) == (0, ())


def singular_pair_gem() -> core.ColoredGraph:
    """An order-8, 4-colored gem whose singular colors are (2, 3): neither
    is color 0."""
    return core.decode_code(
        "01040100080101010200000003030304000202050106060207070703060404070505050604"
    ).recolor((2, 3, 0, 1))


@pytest.mark.parametrize("command, fixture, code, digest", [
    ("info", fixtures.cp2, 0,
     "9d45ed0ccdcda07e927293ca511f507ce339ae3218227d217a833ff0c3bf6cce"),
    ("classify", fixtures.nonsimply_connected, 1, None),
    ("homology", fixtures.rp3, 2, None),
    ("handles", fixtures.rp3_boundary, 0,
     "6338521710a6df7ea9939931d2f3739abb2d8f30bc1307060468e67fe47d7a3d"),
    ("homology", fixtures.cp2, 0,
     "34c7089689f4e6ea3f28f5cb3e958d7f84b0f8157788f9fcacc19ac55bd16cb9"),
    ("homology", fixtures.rp3_boundary, 0,
     "e34fbb5393c32dc130660ed5b1ba91255dbd4874bb43ddf0dd5633f2b58c9a0c"),
    ("homology", fixtures.nonsimply_connected, 0,
     "81e74067e14872b7621a849f38b83c38a50aafd58a6b0eba0712c49256019b20"),
    ("classify", fixtures.cp2, 0,
     "0e51c9fb223113b8a6981dd9cd6c8726b47b8ba78e5c32d2be1e8a2e2fdfaeea"),
    ("classify", fixtures.rp3_boundary, 0,
     "e5ccc95a3631d49612ccb957cf3d2df08f10ed6923bbac3264f88f8dbfd443f1"),
    ("info", fixtures.rp3, 0,
     "122506295a9cf325f3962fc6a5a67eb61a91d04824dd0940f7f82e238569ac08"),
    ("info", singular_pair_gem, 0,
     "5ccadb624da6260959fa68c8372e7bc36e8fa70ccfafe7f12929f4ccbf0d004e"),
])
def test_cli_pinned(tmp_path, command, fixture, code, digest):
    names = {fixtures.cp2: "cp2.gem", fixtures.nonsimply_connected: "ns.gem",
             fixtures.rp3: "rp3.gem", fixtures.rp3_boundary: "cp2b.gem",
             singular_pair_gem: "sing23.gem"}
    path = tmp_path / names[fixture]
    core.save_gem(fixture(), path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["--json", command, str(path)])
    assert rc == code
    text = out.getvalue().replace(str(tmp_path), "")
    assert _sha(text.encode()) == (digest or _sha(b""))


@pytest.mark.parametrize("fixture, seed, steps, digest, gem_digest", [
    (fixtures.rp3_boundary, 11, 8,
     "d91dfc0cfdc1c8f4cbdcd9eaa4967e5cf615e1e133ab662898b59d78a04ad7b2",
     "1ceaa9ce581fd911fff52e85bd5a8f9d4b82fb678c54ab2693c5ed8d8fdb7ac9"),
    (fixtures.cp2, 12, 10,
     "f8bfff138af227589a864376273fdfd104cafa60863649b168433b645376da2c",
     "bcc332d3a299cc0e42dc411cbfaa0ddc18513235da54acbfe96cd68b8edd8fb8"),
])
def test_cli_reduce_pinned(tmp_path, fixture, seed, steps, digest, gem_digest):
    # a singular gem (reduce certifies each dipole) and a closed one (it skips)
    rng = random.Random(seed)
    g = random_relabel(random_augment(fixture(), rng, steps), rng)
    path, out_path = tmp_path / "buried.gem", tmp_path / "reduced.gem"
    core.save_gem(g, path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["--json", "reduce", str(path), str(out_path)])
    assert rc == 0
    text = out.getvalue().replace(str(tmp_path), "")
    assert _sha(text.encode()) == digest
    assert _sha(out_path.read_bytes()) == gem_digest


def _corrupted_catalogue(path):
    """The order <= 6 5-color crystallizations, two of them corrupted, then
    records that stop at each rung of verify: 2, 3 and 4 colors, a
    nontrivial pi1, a gate that raises and a code that does not decode."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[0]["bipartite"] = not records[0]["bipartite"]
    records[1]["manifold"] = {**records[1]["manifold"], "verdict": "not-a-manifold"}
    for fixture in (fixtures.sigma(2), fixtures.torus(), fixtures.rp3(),
                    fixtures.nonsimply_connected()):
        records.append(json.loads(
            catalogue.build_record(core.canonical_code(fixture).hex()).to_json_line()))
    # two order-2 5-colored components: the crystallization test raises
    records.append({"code": "0105010004" + "0101010101" "0000000000" "0303030303"
                    "0202020202", "order": 4, "colors": 5, "bipartite": True,
                    "generator": "elsewhere"})
    records.append({"code": "0105000002", "order": 2, "colors": 5, "bipartite": True})
    bad = path.with_name("corrupted.jsonl")
    bad.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    return bad


@pytest.mark.parametrize("corrupted, as_json, code, digest", [
    (False, False, 0, "3db252f3c44c9c98654ee974c52e65e32bcf3ebc7223c0f890c1a129db121a27"),
    (False, True, 0, "76e41986273b630e6000d1f5e3e46edb42344066fcaaf15ede1cc8d222d52ef4"),
    (True, False, 3, "224eb189a8e3feba25c9138cb8fdfdc915435d052d0eb9d97ef38112498f4255"),
    (True, True, 3, "c8694b0da417125ae9c03b558ec0c21916a5513d232f4902ecbb32a89ed06eea"),
])
def test_verify_output_pinned(tmp_path, corrupted, as_json, code, digest):
    # the order of the checks and the message a raising gate gives every
    # check behind it; a failing corpus writes its report to stdout, then its
    # diagnostic to stderr, and the record from generator "elsewhere" fails
    # record-digests
    path = tmp_path / "cat.jsonl"
    catalogue.generate_catalogue(path, 5, 6, ("crystallization",))
    if corrupted:
        path = _corrupted_catalogue(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["--json"] * as_json + ["verify", str(path)])
    assert rc == code
    report = json.dumps(catalogue.verify_corpus(path), sort_keys=True)
    assert _sha((out.getvalue() + err.getvalue() + report).encode()) == digest
