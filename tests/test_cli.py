import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gemkit import catalogue, cli, core, fixtures
from gemkit.errors import StructuralError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def gem_file(tmp_path):
    def write(g, name):
        path = tmp_path / name
        core.save_gem(g, path)
        return str(path)
    return write


def test_info_success(capsys, gem_file):
    path = gem_file(fixtures.sigma(5), "s5.gem")
    code, out, err = run(capsys, "info", path)
    assert code == 0 and err == ""
    assert "closed-4-manifold" in out


def test_json_and_human_agree(capsys, gem_file):
    path = gem_file(fixtures.cp2(), "cp2.gem")
    code, out_json, _ = run(capsys, "--json", "genus", path)
    assert code == 0
    report = json.loads(out_json)
    assert report["genus"]["regular_genus"] == 2
    code, out_human, _ = run(capsys, "genus", path)
    assert code == 0
    assert "regular_genus: 2" in out_human


def test_runs_are_byte_identical(capsys, gem_file):
    path = gem_file(fixtures.cp2(), "cp2.gem")
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "--json", "classify", path)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_genus_permutation_flag(capsys, gem_file):
    path = gem_file(fixtures.sigma(5), "s5.gem")
    code, out, _ = run(capsys, "--json", "genus", path, "--permutation", "(0,1,2,3,4)")
    assert code == 0
    report = json.loads(out)
    assert report["genus"]["requested"] == {"(0,1,2,3,4)": 0}


@pytest.mark.parametrize("permutation", ["(0,1,2,3)", "(0,1,1,2,3)", "(0,1,2,3,5)", ""])
def test_genus_refuses_a_permutation_of_other_colors(capsys, gem_file, permutation):
    # wrong length, a repeated color, a color out of range, no color at all
    path = gem_file(fixtures.sigma(5), "s5.gem")
    code, out, err = run(capsys, "genus", path, "--permutation", permutation)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "structural-error"


def test_genus_refuses_a_one_colored_gem_by_its_color_count(capsys, tmp_path):
    one, two = tmp_path / "one.gem", tmp_path / "two.gem"
    one.write_text("gem 1 2\n1 0\n")
    two.write_text("gem 2 2\n1 0\n1 0\n")
    code, out, err = run(capsys, "--json", "genus", str(one))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"type": "structural-error",
                                        "message": "subgenera need at least 2 colors, not 1"}
    code, out, err = run(capsys, "--json", "genus", str(two))
    assert code == 0 and err == ""
    assert json.loads(out)["genus"]["subgenera"] == {"(0,1)": [0, 0]}


@pytest.mark.parametrize("command, message", [
    ("info", "hat-residues need at least 2 colors, not 1"),
    ("classify", "not a 5-colored crystallization (1 colors)"),
    ("handles", "not a 5-colored crystallization (1 colors)"),
])
def test_analyses_refuse_a_one_colored_gem_by_its_color_count(capsys, tmp_path,
                                                             command, message):
    # no refusal names the residue over no colors
    one = tmp_path / "one.gem"
    one.write_text("gem 1 2\n1 0\n")
    code, out, err = run(capsys, command, str(one))
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": {"message": message, "type": "structural-error"}}) + "\n"


def test_classify_cp2(capsys, gem_file):
    path = gem_file(fixtures.cp2(), "cp2.gem")
    code, out, _ = run(capsys, "--json", "classify", path)
    assert code == 0
    report = json.loads(out)
    assert report["classification"]["simple"] is True
    assert report["classification"]["bounds"]["genus_invariant_certified"] is True


def test_homology_and_presentation(capsys, gem_file):
    path = gem_file(fixtures.cp2(), "cp2.gem")
    code, out, _ = run(capsys, "--json", "homology", path)
    assert code == 0
    report = json.loads(out)
    assert report["homology"]["betti2"] == 1
    assert report["pi1_presentation"]["trivialized"] is True
    assert report["pi1_presentation"]["text"].startswith("gens:")


def test_handles_profile(capsys, gem_file):
    path = gem_file(fixtures.cp2(), "cp2.gem")
    code, out, _ = run(capsys, "--json", "handles", path)
    assert code == 0
    report = json.loads(out)
    profiles = {tuple(p["handles"]) for p in report["handles"]["profiles"]}
    assert (1, 0, 1, 0, 1) in profiles


def test_reduce_and_sum_commands(capsys, gem_file, tmp_path):
    aug = core.add_dipole(fixtures.sigma(5), 0, (1, 2))
    path = gem_file(aug, "aug.gem")
    out_path = str(tmp_path / "reduced.gem")
    code, out, _ = run(capsys, "reduce", path, out_path)
    assert code == 0
    assert core.load_gem(out_path) == fixtures.sigma(5)

    p1 = gem_file(fixtures.cp2(), "a.gem")
    p2 = gem_file(fixtures.cp2(), "b.gem")
    sum_path = str(tmp_path / "sum.gem")
    code, out, _ = run(capsys, "sum", p1, p2, sum_path)
    assert code == 0
    assert core.load_gem(sum_path).order == 14


def test_canon_command(capsys, gem_file):
    path = gem_file(fixtures.rp3(), "rp3.gem")
    code, out, _ = run(capsys, "--json", "canon", path)
    assert code == 0
    report = json.loads(out)
    assert report["canonical_code"] == core.canonical_code(fixtures.rp3()).hex()


def test_canon_of_many_colors(capsys, gem_file):
    # a code's header holds the color count in one byte
    code, out, err = run(capsys, "--json", "canon", gem_file(fixtures.sigma(64), "s64.gem"))
    assert code == 0 and err == ""
    assert json.loads(out)["canonical_code"] == "014001" + "0002" + "01" * 64 + "00" * 64
    code, out, err = run(capsys, "--json", "canon", gem_file(fixtures.sigma(256), "s256.gem"))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "structural-error" and "255 colors" in error["message"]


@pytest.mark.parametrize("colors", ["2", "300", "1200", "1000000"])
def test_generate_refuses_color_counts_no_code_holds(capsys, tmp_path, colors):
    # a code's color field is one byte: refused before any shard runs
    out = tmp_path / "cat.jsonl"
    code, stdout, err = run(capsys, "generate", "--colors", colors, "--max-order", "2",
                            "--out", str(out))
    assert code == 2 and stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"]["type"] == "structural-error"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_generate_refuses_jobs_below_one(capsys, tmp_path, jobs):
    # refused with the color counts, before any shard runs
    out = tmp_path / "cat.jsonl"
    code, stdout, err = run(capsys, "generate", "--colors", "4", "--max-order", "2",
                            "--jobs", jobs, "--out", str(out))
    assert code == 2 and stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "structural-error" and "jobs" in error["message"]
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(StructuralError):
        catalogue.generate_catalogue(out, 4, 2, jobs=int(jobs))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--json"], ["bogus"], ["info"],
    ["generate", "--colors", "x", "--max-order", "2", "--out", "c.jsonl"],
])
def test_usage_error_is_one_json_line(capsys, gem_file, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exit_.value.code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"]["type"] == "usage-error"
    # the parser main keeps still serves the next call
    code, out, err = run(capsys, "--json", "info", gem_file(fixtures.sigma(5), "s5.gem"))
    assert code == 0 and err == "" and json.loads(out)["input"]["order"] == 2


def test_help_is_text_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["generate", "--help"])
    captured = capsys.readouterr()
    assert exit_.value.code == 0 and captured.err == ""
    assert captured.out.startswith("usage: gemkit generate")


def test_main_builds_its_parser_once(capsys, monkeypatch, gem_file):
    built, real = [], cli.build_parser

    def build():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", build)
    monkeypatch.setattr(cli, "_parser", None)
    path = gem_file(fixtures.sigma(5), "s5.gem")
    for cmd in ("info", "genus", "canon", "info"):
        assert run(capsys, "--json", cmd, path)[0] == 0
    assert len(built) == 1
    # each caller of build_parser gets a parser of its own
    assert real() is not real()


def test_exit_1_analysis_refused(capsys, gem_file):
    path = gem_file(fixtures.nonsimply_connected(), "n.gem")
    code, out, err = run(capsys, "classify", path)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "analysis-refused"


def test_exit_2_malformed_input(capsys, tmp_path):
    bad = tmp_path / "bad.gem"
    bad.write_text("gem 3 2\n1 0\n1 0\n0 1\n")
    code, out, err = run(capsys, "info", str(bad))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "format-error"


def test_exit_2_structural_error(capsys, gem_file):
    path = gem_file(fixtures.torus(), "t.gem")  # 3-colored: no classification
    code, out, err = run(capsys, "classify", path)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "structural-error"


def test_info_refuses_a_disconnected_gem(capsys, gem_file):
    # two order-2 3-colored components: refused by the canonical code
    path = gem_file(core.ColoredGraph(((1, 0, 3, 2),) * 3), "two.gem")
    code, out, err = run(capsys, "--json", "info", path)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"]["type"] == "structural-error"


def test_exit_3_internal_consistency(capsys, tmp_path):
    # a corrupted catalogue line triggers the verify failure path
    recs_path = tmp_path / "cat.jsonl"
    from gemkit import catalogue
    catalogue.generate_catalogue(recs_path, n_colors=3, max_order=4)
    lines = recs_path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["bipartite"] = not rec["bipartite"]
    recs_path.write_text("\n".join([json.dumps(rec, sort_keys=True)] + lines[1:]) + "\n")
    code, out, err = run(capsys, "verify", str(recs_path))
    assert code == 3
    assert json.loads(err)["error"]["type"] == "internal-consistency-error"


def test_generate_and_verify_round_trip(capsys, tmp_path):
    out_path = tmp_path / "cat.jsonl"
    code, out, _ = run(capsys, "--json", "generate", "--colors", "3",
                       "--max-order", "6", "--out", str(out_path))
    assert code == 0
    assert json.loads(out)["records"] == 8
    code, out, _ = run(capsys, "--json", "verify", str(out_path))
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("line", [
    '{"order": 2}', "[1,2]", '{"code":"0105000002"}',
    pytest.param("[" * 100000, id="deep-nesting"),
    pytest.param('{"code": "00", "order": 1' + "0" * 5000 + "}", id="huge-int"),
])
def test_verify_malformed_catalogue_line_exits_2(capsys, tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "format-error"


@pytest.mark.parametrize("tail", [b'{"order": 2}\n', b"\xff\n"],
                         ids=["lacks-code", "not-utf8"])
def test_verify_bad_line_after_a_good_one_exits_2(capsys, tmp_path, tail):
    # lines are parsed as they are read: a bad later line still refuses the file
    good = catalogue.build_record(core.canonical_code(fixtures.sigma(3)).hex())
    path = tmp_path / "bad.jsonl"
    path.write_bytes(good.to_json_line().encode() + b"\n" + tail)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "format-error"


def test_verify_undecodable_code_is_a_check_failure(capsys, tmp_path):
    # width byte 0: reported by the decode-recode check, not a traceback
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"code": "0105000002", "order": 2, "colors": 5,
                                "bipartite": True}) + "\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 3
    assert "decode-recode" in json.loads(err)["error"]["message"]


def test_unexpected_exception_exits_3_with_json_diagnostic(capsys, monkeypatch, gem_file):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_info", boom)
    path = gem_file(fixtures.sigma(5), "s5.gem")
    code, out, err = run(capsys, "info", path)
    assert code == 3 and out == ""
    assert "Traceback" not in err
    assert json.loads(err) == {"error": {"type": "unexpected-error",
                                         "message": "RuntimeError: boom"}}


@pytest.mark.parametrize("argv, content", [
    (("verify", "{dir}/missing.jsonl"), None),
    (("verify", "{dir}"), None),
    (("verify", "{dir}/input"), b"\xff\xfe{}\n"),
    (("info", "{dir}/input"), b"gem 5 2\n\xff\n"),
    (("generate", "--resume", "{dir}"), None),
    (("generate", "--resume", "{dir}/input"), b"not json"),
    (("generate", "--resume", "{dir}/input"), b"[]"),
    (("generate", "--resume", "{dir}/input"), b'{"params": 3}'),
    (("generate", "--resume", "{dir}/input"), b'{"params": {"n_colors": 4}}'),
    (("generate", "--resume", "{dir}/input"),
     b'{"params": {}, "shards": {"2:0": [2]}}'),
    # params of the run below, so only the checkpointed code is wrong
    (("generate", "--resume", "{dir}/input"),
     b'{"params": {"n_colors": 4, "max_order": 4, "filters": []}, "shards": {"2:0": ["zz"]}}'),
    (("generate", "--resume", "{dir}/input"),
     b'{"params": {"n_colors": 4, "max_order": 4, "filters": []}, '
     b'"shards": {"2:0": ["0103010002010101000000"]}}'),
], ids=["verify-missing", "verify-directory", "verify-not-utf8", "info-not-utf8",
        "resume-directory", "resume-not-json", "resume-not-object",
        "resume-params-not-object", "resume-no-shards", "resume-code-not-string",
        "resume-code-not-a-gem", "resume-code-wrong-colors"])
def test_unreadable_input_exits_2(capsys, tmp_path, argv, content):
    if content is not None:
        (tmp_path / "input").write_bytes(content)
    out_path = tmp_path / "out" / "cat.jsonl"
    out_path.parent.mkdir()
    argv = [a.format(dir=tmp_path) for a in argv]
    if argv[0] == "generate":
        argv += ["--colors", "4", "--max-order", "4", "--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "format-error"
    assert list(out_path.parent.iterdir()) == []
    # refused before any shard ran: a resumed meta is left as it was
    input_path = tmp_path / "input"
    assert (input_path.read_bytes() if input_path.exists() else None) == content


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("argv", [
    ("reduce", "{gem}", "{dir}/missing/out.gem"),
    ("sum", "{gem}", "{gem}", "{dir}/taken"),
    ("generate", "--colors", "4", "--max-order", "2", "--out", "{dir}/missing/c.jsonl"),
    # the checkpoint cannot be written, so the old catalogue stays
    ("generate", "--colors", "4", "--max-order", "2", "--out", "{dir}/cat.jsonl"),
], ids=["reduce-into-missing-dir", "sum-onto-a-directory", "generate-into-missing-dir",
        "generate-meta-onto-a-directory"])
def test_unwritable_output_exits_2(capsys, tmp_path, argv):
    gem = tmp_path / "cp2.gem"
    core.save_gem(fixtures.cp2(), gem)
    (tmp_path / "taken").mkdir()
    (tmp_path / "cat.jsonl").write_text("an older catalogue\n")
    (tmp_path / "cat.jsonl.meta").mkdir()
    before = _tree(tmp_path)
    code, out, err = run(capsys, *(a.format(dir=tmp_path, gem=gem) for a in argv))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "format-error" and error["message"].startswith("cannot write")
    # no temp file is left, and every existing file keeps its bytes
    assert _tree(tmp_path) == before


def test_closed_stdout_exits_2_without_a_traceback(tmp_path):
    gem = tmp_path / "cp2.gem"
    core.save_gem(fixtures.cp2(), gem)
    paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, "-m", "gemkit.cli", "--json", "genus", str(gem)],
                             stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
                             timeout=60)
    finally:
        os.close(write_end)
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr and "Exception ignored" not in run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "format-error"
    assert error["message"].startswith("cannot write the report")


@pytest.mark.parametrize("name, refused, accepted", [
    ("weak-simple", "4", "5"), ("handle-witness", "4", "5"),
    ("simply-connected", "3", "4"), ("weak-simple", "6", "5"),
])
def test_filter_runs_only_inside_its_color_domain(capsys, monkeypatch, tmp_path,
                                                  name, refused, accepted):
    # outside it the run is refused before any shard runs, and writes nothing
    def shard_ran(*args):
        raise AssertionError("a shard ran")

    monkeypatch.setattr(catalogue, "run_shard", shard_ran)
    out_path = tmp_path / "out" / "cat.jsonl"
    out_path.parent.mkdir()
    code, out, err = run(capsys, "generate", "--colors", refused, "--max-order", "6",
                         "--filters", name, "--out", str(out_path))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "structural-error"
    assert name in error["message"] and refused in error["message"]
    assert list(out_path.parent.iterdir()) == []
    monkeypatch.undo()
    code, out, _ = run(capsys, "--json", "generate", "--colors", accepted, "--max-order", "4",
                       "--filters", name, "--out", str(out_path))
    assert code == 0 and json.loads(out)["records"] == 2
