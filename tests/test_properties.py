"""Property tests over the input boundaries: arbitrary `.gem` text, codes
and catalogue lines are either accepted or refused with the documented
error, and `gemkit verify` answers every file with a documented exit code
and a JSON diagnostic.  Example counts are bounded and the search is
derandomized so the suite's time stays flat."""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from gemkit import catalogue, cli, core, fixtures
from gemkit.errors import GemFormatError

BOUNDED = settings(max_examples=150, deadline=None, derandomize=True)

GOOD_CODES = [core.canonical_code(g).hex()
              for g in (fixtures.sigma(5), fixtures.sigma(3), fixtures.rp3())]


@st.composite
def code_bytes(draw):
    """Byte strings near the code format: a plausible header and a body of
    roughly the declared length, or raw bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    flavor = draw(st.integers(0, 2))
    k = draw(st.integers(0, 6))
    width = draw(st.integers(0, 3))
    p = draw(st.integers(0, 8))
    size = max(0, p * k * max(width, 1) + draw(st.integers(-2, 2)))
    body = draw(st.lists(st.integers(0, 9), min_size=size, max_size=size))
    return bytes([flavor, k, width]) + p.to_bytes(2, "big") + \
        b"".join(x.to_bytes(max(width, 1), "big") for x in body)


@BOUNDED
@given(code_bytes())
def test_decode_code_accepts_or_refuses(data):
    try:
        g = core.decode_code(data)
    except GemFormatError:
        return
    assert isinstance(g, core.ColoredGraph)
    assert core.decode_code(data.hex()) == g


@st.composite
def gem_texts(draw):
    """`.gem` text: a header and rows of small integers, or raw text."""
    if draw(st.booleans()):
        return draw(st.text(max_size=40))
    k, p = draw(st.integers(-1, 4)), draw(st.integers(-1, 6))
    n_rows = max(0, k + draw(st.integers(-1, 1)))
    rows = [" ".join(map(str, draw(st.lists(st.integers(-1, 6), min_size=max(p, 0),
                                            max_size=max(p, 0) + 1))))
            for _ in range(n_rows)]
    return "\n".join([f"gem {k} {p}"] + rows) + draw(st.sampled_from(["\n", ""]))


@BOUNDED
@given(gem_texts())
def test_parse_gem_accepts_or_refuses(text):
    try:
        g = core.parse_gem(text)
    except GemFormatError:
        return
    assert core.parse_gem(core.format_gem(g)) == g


scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 300), st.text(max_size=8))
codes = st.one_of(st.sampled_from(GOOD_CODES), st.binary(max_size=12).map(bytes.hex), scalars)
partial_records = st.fixed_dictionaries(
    {}, optional={"code": codes, "order": scalars, "colors": scalars,
                  "bipartite": scalars, "generator": scalars, "manifold": scalars})
# whole records of real gems, some with one field overwritten
real_records = st.builds(
    lambda code, key, value: {**json.loads(catalogue.build_record(code).to_json_line()),
                              **({key: value} if key else {})},
    st.sampled_from(GOOD_CODES),
    st.sampled_from([None, "order", "bipartite", "generator", "manifold", "genus"]),
    scalars)
lines = st.one_of(st.text(max_size=30), partial_records.map(json.dumps),
                  real_records.map(json.dumps), st.lists(scalars, max_size=3).map(json.dumps))


@BOUNDED
@given(lines)
def test_catalogue_line_accepts_or_refuses(line):
    try:
        rec = catalogue.CatalogueRecord.from_json_line(line)
    except GemFormatError:
        return
    assert isinstance(rec.code, str)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(lines, max_size=3))
def test_verify_exit_code_and_diagnostic(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("verify") / "cat.jsonl"
    path.write_text("\n".join(content) + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["verify", str(path)])
    assert rc in (0, 1, 2, 3)
    if rc == 0:
        assert err.getvalue() == ""
    else:
        assert "error" in json.loads(err.getvalue())


ANALYSES = ("info", "genus", "classify", "homology", "handles", "reduce")
SMALL_FIXTURES = (fixtures.sigma(5), fixtures.sigma(3), fixtures.torus(),
                  fixtures.projective_plane(), fixtures.rp3(), fixtures.cp2(),
                  fixtures.rp3_boundary(), fixtures.nonsimply_connected(),
                  fixtures.torus_times_colors(), fixtures.sigma(1))


@st.composite
def small_gem_texts(draw):
    """`.gem` text of at most 5 colors and order at most 12: random
    matchings (often disconnected, singular or no manifold at all), a
    fixture under one added dipole, or malformed text."""
    kind = draw(st.sampled_from(["random", "fixture", "malformed"]))
    if kind == "malformed":
        return draw(gem_texts())
    if kind == "fixture":
        g = draw(st.sampled_from(SMALL_FIXTURES))
        # a dipole needs a proper nonempty color set: none on one color
        if g.order <= 10 and g.n_colors > 1 and draw(st.booleans()):
            colors = draw(st.sets(st.integers(0, g.n_colors - 1), min_size=1,
                                  max_size=g.n_colors - 1))
            g = core.add_dipole(g, draw(st.integers(0, g.order - 1)), colors)
        return core.format_gem(g)
    k, p = draw(st.integers(1, 5)), 2 * draw(st.integers(1, 6))
    rows = []
    for _ in range(k):
        perm = draw(st.permutations(range(p)))
        row = [0] * p
        for a, b in zip(perm[::2], perm[1::2]):
            row[a], row[b] = b, a
        rows.append(row)
    return core.format_gem(core.ColoredGraph(tuple(map(tuple, rows))))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_gem_texts())
def test_analysis_exit_code_and_diagnostic(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("analyse")
    path = folder / "g.gem"
    path.write_text(text, encoding="utf-8")
    for cmd in ANALYSES:
        argv = [cmd, str(path)] + ([str(folder / "out.gem")] if cmd == "reduce" else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        assert rc in (0, 1, 2, 3)
        if rc:
            diagnostic = json.loads(err.getvalue())["error"]
            # a traceback caught by the last-resort handler is a bug, not an answer
            assert diagnostic["type"] != "unexpected-error", (cmd, text, diagnostic)
            # nor is a refusal that names an internal key instead of the input's fault
            assert "residue key must be a nonempty color set" not in diagnostic["message"], \
                (cmd, text, diagnostic)
