import hashlib
import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from gemkit import catalogue, core, fixtures, invariants, recognition

from conftest import fpf_involutions
from shard_parent import layout_keys


def naive_codes(n_colors, max_order, filters=()):
    """Independent oracle: plain product enumeration, library dedup."""
    seen = set()
    for p in range(2, max_order + 1, 2):
        pi0 = tuple(v + 1 if v % 2 == 0 else v - 1 for v in range(p))
        for rest in itertools.product(fpf_involutions(p), repeat=n_colors - 1):
            g = core.ColoredGraph((pi0,) + rest)
            if not core.is_connected(g):
                continue
            if "bipartite" in filters and not core.is_bipartite(g):
                continue
            if "manifold" in filters and \
                    not recognition.check_closed_manifold(g).is_manifold:
                continue
            if "crystallization" in filters and \
                    not recognition.is_crystallization(g):
                continue
            seen.add(core.canonical_code(g).hex())
    return seen


@pytest.mark.parametrize("n_colors,max_order", [(3, 6), (4, 6)])
@pytest.mark.parametrize("filters", [(), ("crystallization",), ("bipartite",)])
def test_enumeration_matches_naive_oracle(n_colors, max_order, filters):
    records = catalogue.enumerate_gems(n_colors, max_order, filters)
    assert {r.code for r in records} == naive_codes(n_colors, max_order, filters)
    codes = [r.code for r in records]
    assert codes == sorted(codes)  # deterministic output order


def test_single_record_bases():
    recs = catalogue.enumerate_gems(5, 2)
    assert len(recs) == 1
    assert core.decode_code(recs[0].code) == fixtures.sigma(5)
    recs = catalogue.enumerate_gems(3, 2)
    assert len(recs) == 1
    assert recs[0].manifold["verdict"] == "surface"


def test_4colored_order8_contains_rp3():
    recs = catalogue.enumerate_gems(4, 8, filters=("crystallization",))
    # regression counts frozen from the first run of this enumeration;
    # includes one-boundary-component gems
    by_order = {}
    for r in recs:
        by_order[r.order] = by_order.get(r.order, 0) + 1
    assert by_order == {2: 1, 4: 1, 6: 4, 8: 18}
    closed = [r for r in recs
              if r.manifold and r.manifold["verdict"] == "closed-3-manifold"]
    assert len(closed) == 14
    rp3_code = core.canonical_code(fixtures.rp3()).hex()
    assert rp3_code in {r.code for r in recs}
    nonspheres = [r for r in recs
                  if recognition.sphere_certificate(core.decode_code(r.code)).status
                  == recognition.CERTIFIED_NONSPHERE]
    assert rp3_code in {r.code for r in nonspheres}


def test_record_digests_reproducible_from_code():
    recs = catalogue.enumerate_gems(4, 6)
    for r in recs:
        again = catalogue.build_record(r.code)
        assert again == r


def test_generate_deterministic_across_jobs(tmp_path):
    out1 = tmp_path / "cat-j1.jsonl"
    out2 = tmp_path / "cat-j2.jsonl"
    catalogue.generate_catalogue(out1, n_colors=4, max_order=6, jobs=1)
    catalogue.generate_catalogue(out2, n_colors=4, max_order=6, jobs=2)
    assert out1.read_bytes() == out2.read_bytes()


def test_jobs_start_no_more_workers_than_pending_shards(tmp_path, monkeypatch):
    asked = []

    class InProcessPool:
        """Records its worker count and maps here: no process is started."""
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(catalogue, "ProcessPoolExecutor", InProcessPool)
    one, many = tmp_path / "j1.jsonl", tmp_path / "j64.jsonl"
    catalogue.generate_catalogue(one, 3, 4, jobs=1)
    catalogue.generate_catalogue(many, 3, 4, jobs=64)  # 3 shards
    assert asked == [3] and many.read_bytes() == one.read_bytes()
    # a finished meta leaves no shard pending, and no pool is made
    catalogue.generate_catalogue(many, 3, 4, jobs=64, resume_meta=str(many) + ".meta")
    assert asked == [3] and many.read_bytes() == one.read_bytes()


def test_shard_order_is_partition_order():
    for p in range(2, 33, 2):
        reps = layout_keys(p)
        assert list(reps) == sorted(reps)
        pi0, shard = catalogue.standard_matching(p), catalogue._shard_of_partition(p)
        assert [shard[catalogue._cycle_partition(pi0, rep)] for rep in reps] == \
            list(range(len(reps)))


def test_fpf_involutions_come_sorted():
    # the recursion's own order, with no sort after it
    for p in range(0, 13, 2):
        invs = catalogue.fpf_involutions(p)
        assert list(invs) == sorted(invs)
        assert len(invs) == len(set(invs)) == math.prod(range(1, p, 2))
        if p <= 8:
            brute = [m for m in itertools.permutations(range(p))
                     if all(m[v] != v and m[m[v]] == v for v in range(p))]
            assert list(invs) == brute


def _earlier_records_alive(monkeypatch, name):
    """Wrap ``catalogue.<name>``, which takes or returns one record; the
    list it returns gains, at each call, how many records of earlier calls
    are still alive."""
    refs, alive = [], []
    fn = getattr(catalogue, name)

    def tracked(arg):
        alive.append(sum(ref() is not None for ref in refs))
        out = fn(arg)
        refs.append(weakref.ref(out if isinstance(out, catalogue.CatalogueRecord) else arg))
        return out

    monkeypatch.setattr(catalogue, name, tracked)
    return alive


def test_generate_and_verify_hold_one_record_at_a_time(tmp_path, monkeypatch):
    path = tmp_path / "cat.jsonl"
    built = _earlier_records_alive(monkeypatch, "build_record")
    catalogue.generate_catalogue(path, n_colors=3, max_order=6)
    monkeypatch.undo()
    checked = _earlier_records_alive(monkeypatch, "verify_record")
    result = catalogue.verify_corpus(path)
    assert result["ok"] and result["records"] == len(built) == len(checked) == 8
    assert max(built) <= 2 and max(checked) <= 2


def test_verify_corpus_takes_any_iterable_of_records():
    recs = catalogue.enumerate_gems(3, 6)
    assert catalogue.verify_corpus(rec for rec in recs) == catalogue.verify_corpus(recs)
    assert catalogue.verify_corpus(iter(()))["records"] == 0


def test_generate_resume_completes_partial_run(tmp_path):
    fresh = tmp_path / "fresh.jsonl"
    catalogue.generate_catalogue(fresh, n_colors=3, max_order=6, jobs=1)

    resumed = tmp_path / "resumed.jsonl"
    meta_path = Path(str(resumed) + ".meta")
    parts = Path(str(resumed) + ".parts")
    parts.mkdir()
    # simulate an interrupted run: only the first shard finished
    keys = catalogue.shard_keys(6)
    first = keys[0]
    codes = catalogue.run_shard(3, first[0], first[1], ())
    (parts / f"shard-{first[0]}-{first[1]}.json").write_text(json.dumps(codes))
    meta_path.write_text(json.dumps({
        "schema": "gemkit-catalogue-meta/1",
        "params": {"n_colors": 3, "max_order": 6, "filters": []},
        "generator": catalogue.GENERATOR_VERSION,
        "started": "then",
        "completed": None,
        "shards": {f"{first[0]}:{first[1]}": "done"},
    }))
    catalogue.generate_catalogue(resumed, n_colors=3, max_order=6,
                                 resume_meta=meta_path)
    assert resumed.read_bytes() == fresh.read_bytes()


def test_resume_reruns_done_shard_with_missing_part(tmp_path):
    fresh = tmp_path / "fresh.jsonl"
    catalogue.generate_catalogue(fresh, n_colors=3, max_order=6, jobs=1)

    resumed = tmp_path / "resumed.jsonl"
    meta_path = Path(str(resumed) + ".meta")
    (tmp_path / "resumed.jsonl.parts").mkdir()
    # every shard checkpointed as done, but no part file survived
    keys = catalogue.shard_keys(6)
    meta_path.write_text(json.dumps({
        "schema": "gemkit-catalogue-meta/1",
        "params": {"n_colors": 3, "max_order": 6, "filters": []},
        "generator": catalogue.GENERATOR_VERSION,
        "started": "then",
        "completed": None,
        "shards": {f"{p}:{i}": "done" for p, i in keys},
    }))
    catalogue.generate_catalogue(resumed, n_colors=3, max_order=6,
                                 resume_meta=meta_path)
    assert resumed.read_bytes() == fresh.read_bytes()
    assert json.loads(meta_path.read_text())["completed"] is not None
    assert not list(tmp_path.glob("**/*.tmp"))


def test_killed_run_resumes_from_meta_alone(tmp_path, monkeypatch):
    keys = catalogue.shard_keys(6)
    run_shard = catalogue.run_shard
    calls = []

    def killed_on_third(n_colors, p, i, filters):
        calls.append((p, i))
        if len(calls) == 3:
            raise KeyboardInterrupt
        return run_shard(n_colors, p, i, filters)

    out = tmp_path / "cat.jsonl"
    meta_path = tmp_path / "cat.jsonl.meta"
    monkeypatch.setattr(catalogue, "run_shard", killed_on_third)
    with pytest.raises(KeyboardInterrupt):
        catalogue.generate_catalogue(out, n_colors=4, max_order=6, jobs=1)
    meta = json.loads(meta_path.read_text())
    assert meta["shards"] == {f"{p}:{i}": run_shard(4, p, i, ()) for p, i in keys[:2]}
    assert [f.name for f in tmp_path.iterdir()] == [meta_path.name]

    resumed = []

    def recorded(n_colors, p, i, filters):
        resumed.append((p, i))
        return run_shard(n_colors, p, i, filters)

    monkeypatch.setattr(catalogue, "run_shard", recorded)
    catalogue.generate_catalogue(out, n_colors=4, max_order=6, resume_meta=meta_path)
    assert resumed == keys[2:]
    fresh = tmp_path / "fresh" / "cat.jsonl"
    fresh.parent.mkdir()
    catalogue.generate_catalogue(fresh, n_colors=4, max_order=6, jobs=1)
    assert out.read_bytes() == fresh.read_bytes()


def test_sigkilled_generate_leaves_no_worker_and_resumes_to_the_same_file(tmp_path):
    # a real SIGKILL to the parent of a pool of two, at a seeded instant
    # after its first shard is checkpointed; the workers must exit on their
    # own, and the resumed file must be the uninterrupted one
    paths = [str(Path(catalogue.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out, meta = tmp_path / "cat.jsonl", tmp_path / "cat.jsonl.meta"
    argv = [sys.executable, "-m", "gemkit.cli", "generate", "--colors", "5",
            "--max-order", "10", "--filters", "crystallization", "--jobs", "2",
            "--out", str(out)]
    proc = subprocess.Popen(argv, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not meta.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(random.Random(27).uniform(0, 0.5))
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        done = json.loads(meta.read_text())["shards"]
        assert 0 < len(done) < len(catalogue.shard_keys(10)), "killed outside the shard phase"
        deadline = time.monotonic() + 10
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a pool worker outlived its parent"
            time.sleep(0.05)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert not out.exists()
    subprocess.run(argv + ["--resume", str(meta)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "98555c07bcf2c5355155a3d4eacca8ddddfb4303aef4a26810576315cd75bb03"


def test_failed_write_leaves_existing_catalogue_unchanged(tmp_path, monkeypatch):
    path = tmp_path / "cat.jsonl"
    catalogue.generate_catalogue(path, n_colors=3, max_order=6, jobs=1)
    before = path.read_bytes()
    assert before.count(b"\n") >= 2
    to_json_line = catalogue.CatalogueRecord.to_json_line
    written = []

    def fail_on_second(rec):
        written.append(rec)
        if len(written) == 2:
            raise RuntimeError("killed while writing")
        return to_json_line(rec)

    monkeypatch.setattr(catalogue.CatalogueRecord, "to_json_line", fail_on_second)
    with pytest.raises(RuntimeError):
        catalogue.generate_catalogue(path, n_colors=3, max_order=6, jobs=1)
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("**/*.tmp"))


def test_resume_rejects_changed_parameters(tmp_path):
    out = tmp_path / "cat.jsonl"
    catalogue.generate_catalogue(out, n_colors=3, max_order=4)
    from gemkit.errors import StructuralError
    with pytest.raises(StructuralError):
        catalogue.generate_catalogue(out, n_colors=3, max_order=6,
                                     resume_meta=str(out) + ".meta")
    # a meta whose params lack the run parameters differs from every run
    meta = tmp_path / "bare.meta"
    meta.write_text(json.dumps({"params": {}, "shards": {}}))
    with pytest.raises(StructuralError):
        catalogue.generate_catalogue(out, n_colors=3, max_order=4, resume_meta=meta)


def test_resume_refuses_a_code_of_another_order(tmp_path):
    # cp2's order-8 code checkpointed under an order-6 shard: refused before
    # any shard runs, the meta left as it was
    from gemkit.errors import GemFormatError
    out, meta = tmp_path / "cat.jsonl", tmp_path / "cat.meta"
    text = json.dumps({"params": {"n_colors": 5, "max_order": 6, "filters": ["crystallization"]},
                       "shards": {"6:0": [core.canonical_code(fixtures.cp2()).hex()]}})
    meta.write_text(text)
    with pytest.raises(GemFormatError, match="of order 8, under shard '6:0'"):
        catalogue.generate_catalogue(out, 5, 6, ("crystallization",), resume_meta=meta)
    assert meta.read_text() == text
    assert list(tmp_path.iterdir()) == [meta]


@pytest.mark.parametrize("index", [-1, 3, 100])
def test_run_shard_refuses_an_index_that_names_no_shard(index):
    # order 6 has three shards, one per partition of 3
    from gemkit.errors import StructuralError
    with pytest.raises(StructuralError, match="shards 0 to 2"):
        catalogue.run_shard(4, 6, index, ())


def test_verify_corpus_clean_and_corrupted(tmp_path):
    recs = catalogue.enumerate_gems(5, 4, filters=("crystallization",))
    result = catalogue.verify_corpus(recs)
    assert result["ok"] and result["records"] == len(recs)

    # negative control: swap in the wrong manifold verdict
    bad = catalogue.CatalogueRecord(
        code=recs[0].code, order=recs[0].order, colors=recs[0].colors,
        bipartite=not recs[0].bipartite,
        manifold={"verdict": "not-a-manifold-complex"},
        genus=recs[0].genus, classification=None, handles=None,
        generator=recs[0].generator)
    result = catalogue.verify_corpus([bad])
    assert not result["ok"]
    failed_checks = {f["check"] for f in result["failures"]}
    assert "bipartite-flag" in failed_checks
    assert "manifold-verdict" in failed_checks

    # a tampered digest must be caught by the record replay
    tampered_genus = dict(recs[0].genus)
    tampered_genus["regular_genus"] = 99
    tampered = catalogue.CatalogueRecord(
        code=recs[0].code, order=recs[0].order, colors=recs[0].colors,
        bipartite=recs[0].bipartite, manifold=recs[0].manifold,
        genus=tampered_genus, classification=recs[0].classification,
        handles=recs[0].handles, generator=recs[0].generator)
    result = catalogue.verify_corpus([tampered])
    assert any(f["check"] == "record-digests" for f in result["failures"])

    # corrupted code bytes: the decode check itself must fail, not crash
    broken = catalogue.CatalogueRecord(
        code=recs[0].code[:-2], order=recs[0].order, colors=recs[0].colors,
        bipartite=recs[0].bipartite, manifold=recs[0].manifold,
        genus=None, classification=None, handles=None,
        generator=recs[0].generator)
    result = catalogue.verify_corpus([broken])
    assert not result["ok"]
    assert any(f["check"] == "decode-recode" for f in result["failures"])


def test_catalogue_file_round_trip(tmp_path):
    out = tmp_path / "c.jsonl"
    catalogue.generate_catalogue(out, n_colors=3, max_order=6)
    recs = catalogue.read_catalogue(out)
    assert recs == catalogue.enumerate_gems(3, 6)
    meta = json.loads((Path(str(out) + ".meta")).read_text())
    assert meta["records"] == len(recs)
    assert meta["completed"] is not None


def test_enumeration_covers_random_samples_at_order_10():
    # beyond the exhaustive oracle's reach: every randomly built gem must
    # already be in the enumerated class list
    import random

    codes = set()
    for p, i in catalogue.shard_keys(10):
        if p == 10:
            codes.update(catalogue.run_shard(3, 10, i, ()))
    assert len(codes) == 81  # frozen on first run
    rng = random.Random(99)
    invs = catalogue.fpf_involutions(10)
    probed = 0
    for _ in range(200):
        rows = (catalogue.standard_matching(10), rng.choice(invs), rng.choice(invs))
        g = core.ColoredGraph(rows)
        if not core.is_connected(g):
            continue
        probed += 1
        assert core.canonical_code(g).hex() in codes
    assert probed > 100


def test_record_counts_monotone_under_filter_chains():
    chains = [(), ("manifold",), ("manifold", "crystallization"),
              ("manifold", "crystallization", "simply-connected"),
              ("manifold", "crystallization", "simply-connected", "weak-simple"),
              ("manifold", "crystallization", "simply-connected", "weak-simple",
               "handle-witness")]
    counts = [len(catalogue.enumerate_gems(5, 4, filters=chain))
              for chain in chains]
    assert counts == sorted(counts, reverse=True)
    short = [(), ("bipartite",), ("bipartite", "crystallization")]
    counts4 = [len(catalogue.enumerate_gems(4, 6, filters=chain))
               for chain in short]
    assert counts4 == sorted(counts4, reverse=True)


def test_filters_validated():
    from gemkit.errors import StructuralError
    with pytest.raises(StructuralError):
        catalogue.enumerate_gems(3, 4, filters=("no-such-filter",))
    with pytest.raises(StructuralError):
        catalogue.enumerate_gems(3, 5)  # odd max_order via generate path



def test_record_line_without_optional_keys_round_trips():
    line = json.dumps({"code": "00", "order": 2, "colors": 3, "bipartite": True})
    rec = catalogue.CatalogueRecord.from_json_line(line)
    assert (rec.manifold, rec.genus, rec.classification, rec.handles) == (None,) * 4
    assert rec.generator == ""
    assert json.loads(rec.to_json_line()) == {
        "code": "00", "order": 2, "colors": 3, "bipartite": True, "manifold": None,
        "genus": None, "classification": None, "handles": None, "generator": ""}
    from gemkit.errors import GemFormatError
    with pytest.raises(GemFormatError, match="lacks order, bipartite"):
        catalogue.CatalogueRecord.from_json_line('{"code": "00", "colors": 3}')


@pytest.mark.parametrize("max_order,filters", [(5, ()), (6, ("no-such-filter",))])
def test_generate_refuses_before_writing(tmp_path, max_order, filters):
    from gemkit.errors import StructuralError
    with pytest.raises(StructuralError):
        catalogue.generate_catalogue(tmp_path / "cat.jsonl", 3, max_order, filters)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n_colors, p, filters", [
    (5, 7, ()),                  # odd order
    (5, 0, ()),                  # order below 2
    (2, 4, ()),                  # too few colors
    (5, 4, ("nope",)),           # unknown filter
    (3, 4, ("weak-simple",)),    # a filter defined for 5 colors only
])
def test_run_shard_refuses_what_a_run_refuses(n_colors, p, filters):
    from gemkit.errors import StructuralError
    with pytest.raises(StructuralError):
        catalogue.run_shard(n_colors, p, 0, filters)


# two order-2 components, over 3 and over 5 colors: decodable, not connected
DISCONNECTED = {3: "0103010004" + "010101" "000000" "030303" "020202",
                5: "0105010004" + "0101010101" "0000000000" "0303030303" "0202020202"}


def test_verify_reports_a_disconnected_code_instead_of_raising():
    rec = catalogue.CatalogueRecord(code=DISCONNECTED[3], order=4, colors=3,
                                    bipartite=True)
    result = catalogue.verify_record(rec)
    failed = {name for name, status in result.items() if status != "skip"}
    assert failed == {"decode-recode", "bipartite-flag", "record-digests", "manifold-verdict"}
    # the record names no generator, so its digests are not this generator's
    assert result["record-digests"] == \
        f"fail: record written by generator '', not {catalogue.GENERATOR_VERSION!r}"
    assert all(result[name] == "fail: operation requires a connected graph"
               for name in failed - {"record-digests"})
    report = catalogue.verify_corpus([rec])
    assert report["ok"] is False
    assert {f["check"] for f in report["failures"]} == failed


def test_every_check_behind_a_raising_gate_fails_with_its_message():
    # the crystallization test refuses the disconnected gem: every check not
    # yet run fails with that message, none is skipped; record-digests fails
    # first, on the foreign generator
    rec = catalogue.CatalogueRecord(code=DISCONNECTED[5], order=4, colors=5,
                                    bipartite=True, generator="elsewhere")
    result = catalogue.verify_record(rec)
    assert result["record-digests"] == \
        f"fail: record written by generator 'elsewhere', not {catalogue.GENERATOR_VERSION!r}"
    assert all(status == "fail: operation requires a connected graph"
               for name, status in result.items() if name != "record-digests")


@pytest.fixture()
def cold_memos():
    """Clear every memo before the test and after it, so that results derived
    under a monkeypatched analysis neither meet nor outlive the test."""
    for memo in core.MEMOS:
        memo.cache_clear()
    yield
    for memo in core.MEMOS:
        memo.cache_clear()


def test_unknown_pi1_gives_a_conditional_record_without_handles(monkeypatch, cold_memos):
    # handles are built, as verify checks them, only under a trivial certificate
    unknown = invariants.Pi1Certificate("unknown", 0)
    monkeypatch.setattr(invariants, "pi1_certificate", lambda g: unknown)
    rec = catalogue.build_record(core.canonical_code(fixtures.cp2()).hex())
    assert rec.classification["conditional"] is True
    assert rec.handles is None
    result = catalogue.verify_record(rec)
    assert result["record-digests"] == "pass"
    assert not [name for name, status in result.items() if status.startswith("fail")]


def test_a_shard_keeps_no_triple_partitions():
    # the per-shard tables hold DFS states, pair ranks and triple bytes;
    # measured in a fresh process, so earlier tests' memos do not count
    script = ("import tracemalloc\n"
              "from gemkit import catalogue\n"
              "tracemalloc.start()\n"
              "catalogue.run_shard(5, 8, 0, ('crystallization',))\n"
              "print(tracemalloc.get_traced_memory()[1])\n")
    paths = [str(Path(catalogue.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) < 1.4 * 2**20
