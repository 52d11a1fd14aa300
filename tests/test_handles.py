import dataclasses
import itertools
import random
from collections import Counter

import pytest

from gemkit import classification, core, fixtures, genus, handles, invariants, recognition
from gemkit.errors import StructuralError

from conftest import random_recolor, random_relabel


def test_sigma5_every_pattern_is_a_witness():
    ws = handles.find_hypothesis_witnesses(fixtures.sigma(5))
    kinds = {}
    for w in ws:
        kinds[w.kind] = kinds.get(w.kind, 0) + 1
    # 5 pivots x 6 pairs, every one qualifying for both kinds
    assert kinds == {handles.NO_ONE_HANDLES: 30, handles.SPECIAL: 30}


def test_sigma5_profile_and_link():
    ws = handles.find_hypothesis_witnesses(fixtures.sigma(5))
    for w in ws:
        p = handles.handle_profile(fixtures.sigma(5), w)
        assert p.counts() == (1, 0, 0, 0, 1)
        assert (p.link_undotted, p.link_dotted) == (0, 0)
        assert p.s == 0


def test_cp2_special_profile():
    cp2 = fixtures.cp2()
    ws = handles.find_hypothesis_witnesses(cp2)
    specials = [w for w in ws if w.kind == handles.SPECIAL]
    assert specials
    for w in specials:
        p = handles.handle_profile(cp2, w)
        assert p.counts() == (1, 0, 1, 0, 1)
        assert p.link_undotted == 1 and p.link_target == "S^3"


def test_cp2_sums_scale_profiles():
    g = fixtures.cp2()
    for k in range(2, 5):
        g = core.connected_sum(g, fixtures.cp2())
        ws = [w for w in handles.find_hypothesis_witnesses(g)
              if w.kind == handles.SPECIAL]
        assert ws
        p = handles.handle_profile(g, ws[0])
        assert p.counts() == (1, 0, k, 0, 1)
        assert p.link_undotted == k


def test_boundary_case_profiles():
    bdy = fixtures.rp3_boundary()
    ws = handles.find_hypothesis_witnesses(bdy)
    assert ws and all(w.boundary_case for w in ws)
    # boundary-case patterns route around the singular color
    for w in ws:
        assert 4 not in w.pair and w.pivot != 4
        assert 4 in w.free_pair
        assert w.permutation[-1] == 4
    specials = [w for w in ws if w.kind == handles.SPECIAL]
    p = handles.handle_profile(bdy, specials[0])
    assert p.counts() == (1, 0, 1, 0, 0)  # no 4-handle with boundary
    assert p.link_target == "boundary(M^4)"
    assert p.boundary_h1 == "Z/2"
    na = [w for w in ws if w.kind == handles.NO_ONE_HANDLES][0]
    pa = handles.handle_profile(bdy, na)
    assert "boundary(M^4)" in pa.link_target


def test_weak_simple_order_yields_special_witness():
    # a weak-simple order epsilon forces the partition
    # {eps2, eps4} | {eps0, eps1, eps3} with pivot eps3 to be special
    for g in (fixtures.sigma(5), fixtures.cp2(), fixtures.rp3_boundary()):
        ws = {(w.kind, w.pair, w.pivot, w.free_pair)
              for w in handles.find_hypothesis_witnesses(g)}
        for eps in classification.detect_weak_simple(g):
            s = eps.seq
            pair = tuple(sorted((s[0], s[1])))
            free = tuple(sorted((s[2], s[4])))
            assert (handles.SPECIAL, pair, s[3], free) in ws


def test_no_1_handles_invariants_on_witnesses():
    for g in (fixtures.cp2(), fixtures.rp3_boundary(),
              core.add_dipole(fixtures.cp2(), 0, (0, 1))):
        t = classification.t_values(g)
        beta2 = invariants.beta2_via_genus(g)
        for w in handles.find_hypothesis_witnesses(g):
            p = handles.handle_profile(g, w)
            assert p.h1 == 0
            assert p.h3 == t[w.triple]
            assert p.h2 == beta2 + t[w.triple]
            if w.kind == handles.SPECIAL:
                assert t[w.triple] == 0


def test_subgenus_target_all_admissible_starts():
    for g in (fixtures.sigma(5), fixtures.cp2(), fixtures.rp3_boundary()):
        beta2 = invariants.beta2_via_genus(g)
        t = classification.t_values(g)
        hit = 0
        for j, k in itertools.combinations(range(4), 2):
            if core.residue_count(g, core.complement_key((j, k), 5)) != 1:
                continue
            for s in range(4):
                if s in (j, k):
                    continue
                value, eps = handles.subgenus_target(g, j, k, s)
                assert value == beta2 + t[tuple(sorted((s, j, k)))]
                assert eps[0] == s and eps[-1] == 4
                hit += 1
        assert hit


def test_subgenus_target_validation():
    with pytest.raises(StructuralError):
        handles.subgenus_target(fixtures.sigma(5), 0, 0, 1)
    with pytest.raises(StructuralError):
        handles.subgenus_target(fixtures.rp3_boundary(), 0, 4, 1)


def test_collapse_sigma5_trace():
    ws = [w for w in handles.find_hypothesis_witnesses(fixtures.sigma(5))
          if w.kind == handles.SPECIAL]
    tr = handles.collapse_2skeleton(fixtures.sigma(5), ws[0])
    assert tr.remaining_triangles == 1
    assert tr.remaining_edges == 1
    assert tr.multiplicities == (1,)
    assert tr.rho == 0
    assert tr.schedule == ()


def test_collapse_identities_on_fixtures_and_augmented():
    gems = [fixtures.cp2(), fixtures.rp3_boundary(),
            core.connected_sum(fixtures.cp2(), fixtures.cp2()),
            core.add_dipole(fixtures.cp2(), 0, (0, 1))]
    for g in gems:
        for w in handles.find_hypothesis_witnesses(g):
            tr = handles.collapse_2skeleton(g, w)
            assert sum(tr.multiplicities) == tr.remaining_triangles
            assert tr.remaining_triangles - tr.remaining_edges == tr.rho
            assert 1 <= tr.remaining_edges <= tr.initial_edges
            assert tr.initial_triangles == tr.initial_edges + tr.rho


def test_collapse_identities_on_corpus(crystallization_corpus_order6):
    for g in crystallization_corpus_order6:
        if invariants.pi1_certificate(g).status != "trivial":
            continue
        for w in handles.find_hypothesis_witnesses(g):
            handles.collapse_2skeleton(g, w)  # raises on identity violation


def test_report_traces_each_permutation_once(monkeypatch):
    traced, real = [], handles.collapse_2skeleton

    def collapse(g, w):
        traced.append(w.permutation)
        return real(g, w)

    monkeypatch.setattr(handles, "collapse_2skeleton", collapse)
    g = core.connected_sum(fixtures.cp2(), fixtures.cp2())
    report = handles.handles_report.__wrapped__(g)  # past the memo
    perms = [w.permutation for w in report.witnesses]
    # each special witness shares its no-1-handles twin's permutation
    assert len(set(perms)) < len(perms)
    assert sorted(traced) == sorted(set(perms))
    assert report.collapses == tuple(real(g, w) for w in report.witnesses)


def test_empty_witness_list_is_a_valid_answer():
    # no pivot of this crystallization has two unit pair conditions; any
    # graph with every pair-complement count >= 2 lands here a fortiori
    assert handles.find_hypothesis_witnesses(fixtures.nonsimply_connected()) == ()


def test_witness_with_a_foreign_order_is_refused(crystallization_corpus_order8):
    # a hand-made witness whose order does not start from its own pair and
    # pivot is refused by the profile and the collapse alike
    refused = 0
    for g in crystallization_corpus_order8:
        for w in handles.find_hypothesis_witnesses(g)[:1]:
            for perm in itertools.permutations(range(5)):
                if perm[:2] == w.pair and perm[3] == w.pivot:
                    continue
                bad = dataclasses.replace(w, permutation=perm)
                for analysis in (handles.handle_profile, handles.collapse_2skeleton):
                    with pytest.raises(StructuralError):
                        analysis(g, bad)
                refused += 1
    assert refused


def test_witness_rejected_on_wrong_graph():
    ws = handles.find_hypothesis_witnesses(fixtures.cp2())
    g = core.add_dipole(fixtures.cp2(), 0, (2, 3))
    # the added dipole splits residues; some witness conditions now fail
    bad = 0
    for w in ws:
        try:
            handles.handle_profile(g, w)
        except StructuralError:
            bad += 1
    assert bad > 0


# ---------------------------------------------------------------------------
# Oracles: the residue-count pair rule and the one-at-a-time collapse
# ---------------------------------------------------------------------------

def oracle_pair_condition(g, a, b):
    """g(hat a hat b) = 1, counted straight from the residues."""
    return core.residue_count(g, core.complement_key((a, b), 5)) == 1


def oracle_witnesses(g):
    """The witness scan with the residue-count pair rule."""
    sing = recognition.singular_colors(g)
    s = sing[0] if sing else None
    out = []
    for pivot in range(5):
        for i, j in itertools.combinations(sorted(set(range(5)) - {pivot}), 2):
            if not (oracle_pair_condition(g, i, pivot)
                    and oracle_pair_condition(g, j, pivot)):
                continue
            free = tuple(sorted(set(range(5)) - {i, j, pivot}))
            if s is not None and s not in free:
                continue
            last = s if s is not None else max(free)
            r = free[0] if free[1] == last else free[1]
            kinds = [handles.NO_ONE_HANDLES]
            if oracle_pair_condition(g, *free):
                kinds.append(handles.SPECIAL)
            out += [handles.HypothesisWitness(
                kind=kind, pair=(i, j), pivot=pivot, free_pair=free,
                boundary_case=s is not None, permutation=(i, j, r, pivot, last))
                for kind in kinds]
    return tuple(out)


def oracle_profile(g, w):
    """The handle profile with t counted straight from the residues."""
    beta2 = invariants.beta2_via_genus(g)
    t = core.residue_count(g, w.triple) - 1
    closed = not w.boundary_case
    if w.kind == handles.SPECIAL:
        assert t == 0
        target = "S^3" if closed else "boundary(M^4)"
    else:
        target = f"#_{t}(S^2 x S^1)" + ("" if closed else " # boundary(M^4)")
    boundary_h1 = None
    if w.boundary_case:
        res = core.extract_residues(g, core.complement_key((w.permutation[-1],), 5))
        boundary_h1 = invariants.h1_text(*invariants.h1_from_presentation(
            invariants.presentation_raw(res[0].graph, 0, 1)))
    return handles.HandleProfile(h0=1, h1=0, h2=beta2 + t, h3=t, h4=1 if closed else 0,
                                 s=t, link_undotted=beta2 + t, link_dotted=0,
                                 link_target=target, boundary_h1=boundary_h1)


def collapse_oracle(g, w):
    """Collapse one free triangle at a time, smallest first, recounting the
    triangles on every edge after each removal, until one triangle is left
    or none is free."""
    e0, e1, e2, _, e4 = w.permutation
    tri_labels, tri_count = core.residue_labels(g, (e2, e4))
    edge_labels, edge_count = core.residue_labels(g, core.complement_key((e0, e1), 5))
    edge_of = {t: edge_labels[v] for t, v in enumerate(core.residue_roots(tri_labels))}
    eps = genus.CyclicPermutation.canonical(w.permutation)
    rho = int(genus.genus_all(g).subgenera[eps][eps.seq.index(e0)])

    remaining = set(range(tri_count))
    schedule = []
    while len(remaining) > 1:
        per_edge = {}
        for t in remaining:
            per_edge[edge_of[t]] = per_edge.get(edge_of[t], 0) + 1
        free = sorted(t for t in remaining if per_edge[edge_of[t]] == 1)
        if not free:
            break
        remaining.remove(free[0])
        schedule.append(free[0])

    per_edge = {}
    for t in remaining:
        per_edge[edge_of[t]] = per_edge.get(edge_of[t], 0) + 1
    return handles.CollapseTrace(
        permutation=w.permutation, initial_triangles=tri_count,
        initial_edges=edge_count, schedule=tuple(schedule),
        remaining_triangles=len(remaining), remaining_edges=len(per_edge),
        multiplicities=tuple(sorted(per_edge.values())), rho=rho)


def oracle_report_json(g):
    ws = oracle_witnesses(g)
    return handles.HandlesReport(
        witnesses=ws, profiles=tuple(oracle_profile(g, w) for w in ws),
        collapses=tuple(collapse_oracle(g, w) for w in ws)).to_json()


def oracle_corpus(order8):
    gems = list(order8)
    g = fixtures.cp2()
    for _ in range(2, 6):
        g = core.connected_sum(g, fixtures.cp2())
        gems.append(g)
    rng = random.Random(13)
    gems += [random_recolor(random_relabel(fixtures.rp3_boundary(), rng), rng)
             for _ in range(6)]
    return gems


def test_collapse_matches_the_one_at_a_time_oracle(crystallization_corpus_order8):
    outcomes = Counter()
    for g in oracle_corpus(crystallization_corpus_order8):
        for w in handles.find_hypothesis_witnesses(g):
            trace = handles.collapse_2skeleton(g, w)
            assert trace == collapse_oracle(g, w)
            if trace.remaining_triangles == 1:
                outcomes["all free" if trace.initial_triangles > 1 else "one"] += 1
            else:
                outcomes["partway" if trace.schedule else "none free"] += 1
    # every way the collapse can end occurs, the order <= 8 corpus alone
    # giving 242 "all free" and 25 "partway" witnesses
    assert outcomes["all free"] >= 242 and outcomes["partway"] >= 25
    assert outcomes["one"] and outcomes["none free"]


def test_pair_rule_matches_the_residue_count_oracle(crystallization_corpus_order8):
    witnesses = 0
    for g in oracle_corpus(crystallization_corpus_order8):
        for a, b in itertools.combinations(range(5), 2):
            assert handles.pair_condition(g, a, b) == oracle_pair_condition(g, a, b)
            assert handles.pair_condition(g, b, a) == oracle_pair_condition(g, a, b)
        assert handles.find_hypothesis_witnesses(g) == oracle_witnesses(g)
        assert handles.handles_report(g).to_json() == oracle_report_json(g)
        witnesses += len(oracle_witnesses(g))
    assert witnesses > 1012


@pytest.mark.parametrize("a, b", [(0, 0), (3, 3), (0, 5), (-1, 2), (7, 8)])
def test_pair_condition_refuses_a_bad_pair(a, b):
    with pytest.raises(StructuralError):
        handles.pair_condition(fixtures.cp2(), a, b)


def test_pair_condition_refuses_a_non_crystallization():
    with pytest.raises(StructuralError, match="not a 5-colored crystallization"):
        handles.pair_condition(fixtures.rp3(), 0, 1)
