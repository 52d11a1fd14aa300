import contextlib
import dataclasses
import itertools
import random
import signal
from types import MappingProxyType

import pytest

from gemkit import classification, core, fixtures, genus, invariants, recognition
from gemkit.errors import AnalysisRefused, InternalConsistencyError, StructuralError

from conftest import chi_by_counting, random_augment


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_snf_known_cases():
    assert invariants.smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == \
        (2, 2, 156)
    assert invariants.smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
    assert invariants.smith_normal_form([[0, 0], [0, 0]]) == ()
    assert invariants.smith_normal_form([[2]]) == (2,)
    assert invariants.smith_normal_form([[6, 4]]) == (2,)
    assert invariants.smith_normal_form([]) == ()
    assert invariants.smith_normal_form([[]]) == ()
    assert invariants.smith_normal_form([[0, 0]]) == ()


def test_snf_against_sympy_on_random_matrices():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(11)
    for trial in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        ours = invariants.smith_normal_form(m)
        ref = sympy_snf(sympy.Matrix(m))
        diag = [abs(ref[i, i]) for i in range(min(rows, cols))]
        assert list(ours) == [d for d in diag if d != 0]


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_snf_against_sympy_on_larger_matrices():
    # sizes and entries at which elimination that lets coefficients grow
    # takes seconds or more on one matrix
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(22)
    cases = []
    for _ in range(50):
        rows, cols = rng.randint(10, 18), rng.randint(10, 18)
        bound = rng.choice((1, 3, 50, 1000))
        density = rng.choice((0.2, 0.5, 1.0))
        m = [[rng.randint(-bound, bound) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        ref = sympy_snf(sympy.Matrix(m))
        diag = [abs(ref[i, i]) for i in range(min(rows, cols))]
        cases.append((m, tuple(d for d in diag if d != 0)))
    with time_limit(10):
        for m, expected in cases:
            assert invariants.smith_normal_form(m) == expected, m


def test_snf_divisibility_chain():
    rng = random.Random(12)
    for _ in range(40):
        m = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(4)]
        factors = invariants.smith_normal_form(m)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


# ---------------------------------------------------------------------------
# Euler characteristics
# ---------------------------------------------------------------------------

def test_euler_characteristic_examples():
    assert invariants.euler_characteristic(fixtures.sigma(5)) == 2
    assert invariants.euler_characteristic(fixtures.torus()) == 0
    assert invariants.euler_characteristic(fixtures.cp2()) == 3
    assert invariants.euler_characteristic(fixtures.rp3()) == 0
    g = fixtures.rp3_boundary()
    assert invariants.euler_characteristic(g) == chi_by_counting(g) == 3


def test_euler_via_genus_matches_and_is_permutation_free():
    assert invariants.euler_via_genus(fixtures.sigma(5)) == 2
    assert invariants.euler_via_genus(fixtures.cp2()) == 3
    assert invariants.euler_via_genus(fixtures.rp3_boundary()) == 3


def test_euler_via_genus_refuses_non_crystallization():
    g = core.add_dipole(fixtures.sigma(5), 0, (0,))
    with pytest.raises(StructuralError):
        invariants.euler_via_genus(g)


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------

def test_presentation_counts_match_residues():
    for g in (fixtures.sigma(5), fixtures.cp2(), fixtures.rp3()):
        for i, j in itertools.combinations(range(g.n_colors), 2):
            pres = invariants.presentation_raw(g, i, j)
            comp = core.complement_key((i, j), g.n_colors)
            assert pres.generator_count == core.residue_count(g, comp)
            assert len(pres.relators) == core.residue_count(g, (i, j))
            n_i = core.residue_count(g, core.complement_key((i,), g.n_colors))
            n_j = core.residue_count(g, core.complement_key((j,), g.n_colors))
            assert len(pres.tree_relators) == n_i + n_j - 1


def test_sigma5_presentation_trivializes():
    pres = invariants.presentation_raw(fixtures.sigma(5), 0, 1)
    assert pres.generator_count == 1
    assert invariants.h1_from_presentation(pres) == (0, ())
    assert invariants.tietze_trivializes(pres)


def test_cp2_presentation_trivializes():
    pres = invariants.presentation_raw(fixtures.cp2(), 0, 1)
    assert invariants.h1_from_presentation(pres) == (0, ())
    assert invariants.tietze_trivializes(pres)


def test_rp3_abelianization_is_z2():
    pres = invariants.presentation_raw(fixtures.rp3(), 0, 1)
    assert invariants.h1_from_presentation(pres) == (0, (2,))
    assert not invariants.tietze_trivializes(pres)


def tietze_trivializes_oracle(pres):
    """The Tietze loop as it was before it stopped renumbering: after each
    elimination every word is rewritten and the generators above the
    eliminated one are numbered down."""
    def reduce(word):
        stack = []
        for x in word:
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
        while len(stack) >= 2 and stack[0] == -stack[-1]:
            stack = stack[1:-1]
        return stack

    gens = pres.generator_count
    relators = [reduce(list(w)) for w in pres.all_relators()]
    moves = 0
    while True:
        relators = [w for w in relators if w]
        if gens == 0:
            return True
        target = None
        for ridx, w in enumerate(relators):
            counts = {}
            for x in w:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            once = [x for x, n in counts.items() if n == 1]
            if once:
                x = min(once)
                if target is None or len(w) < len(relators[target[0]]):
                    target = (ridx, x)
        if target is None:
            return gens == 0
        ridx, x = target
        w = relators.pop(ridx)
        pos = next(idx for idx, t in enumerate(w) if abs(t) == x)
        sign = 1 if w[pos] > 0 else -1
        rest = w[pos + 1:] + w[:pos]
        inv_rest = [-t for t in reversed(rest)]
        repl = inv_rest if sign > 0 else rest
        repl_inv = rest if sign > 0 else inv_rest
        new_relators = []
        for word in relators:
            out = []
            for t in word:
                if abs(t) == x:
                    out.extend(repl if t > 0 else repl_inv)
                else:
                    out.append(t)
            out = reduce(out)
            if len(out) > invariants.TIETZE_MAX_WORD_LENGTH:
                return False
            new_relators.append(out)
        relators = [[t - (1 if t > x else 0) if t > 0 else t + (1 if -t > x else 0)
                     for t in word] for word in new_relators]
        gens -= 1
        moves += 1
        if moves > invariants.TIETZE_MAX_MOVES:
            return False


def test_tietze_matches_the_renumbering_oracle(crystallization_corpus_order8,
                                               small_manifold_corpus):
    buried = [random_augment(fixtures.cp2(), random.Random(seed), 5 + seed)
              for seed in range(40)]
    answers = []
    for g in crystallization_corpus_order8 + small_manifold_corpus + buried:
        for i, j in itertools.permutations(range(g.n_colors), 2):
            pres = invariants.presentation_raw(g, i, j)
            answer = invariants.tietze_trivializes(pres)
            assert answer == tietze_trivializes_oracle(pres), (core.canonical_code(g).hex(), i, j)
            answers.append(answer)
    assert True in answers and False in answers


def test_default_singular_pair_holds_both_singular_colors():
    # neither singular color is 0: the default pair is the two of them
    g = core.decode_code(
        "01040100080101010200000003030304000202050106060207070703060404070505050604"
    ).recolor((2, 3, 0, 1))
    assert recognition.check_closed_manifold(g).verdict == "singular-3-residue"
    assert recognition.singular_colors(g) == (2, 3)
    assert invariants.color_pair(g, invariants.SINGULAR) == (2, 3)
    assert invariants.color_pair(g) == (0, 1)


@pytest.mark.parametrize("analysis", [
    classification.genus_subgenus_residuals,
    genus.genus_of_sequence,
], ids=["genus_subgenus_residuals", "genus_of_sequence"])
def test_cyclic_order_of_wrong_length_is_refused(analysis):
    with pytest.raises(StructuralError, match="permutation"):
        analysis(fixtures.cp2(), (0, 1, 2))


def test_presentation_text_export():
    pres = invariants.presentation_raw(fixtures.sigma(5), 0, 1)
    text = pres.to_text()
    lines = text.splitlines()
    assert lines[0] == "gens: x1"
    assert len(lines) == 1 + len(pres.all_relators())


# ---------------------------------------------------------------------------
# Dual-oracle homology
# ---------------------------------------------------------------------------

def test_h1_oracles_agree_on_mixed_corpus(small_manifold_corpus):
    for g in small_manifold_corpus:
        sing = recognition.singular_colors(g)
        pair = [c for c in g.colors if c in sing or c == max(
            [x for x in g.colors if x not in sing][:1] + list(sing))]
        # route A on the singular model: singular colors inside the pair
        j = sing[0] if sing else 1
        i = next(c for c in g.colors if c != j)
        a = invariants.h1_from_presentation(invariants.presentation_raw(g, i, j))
        b = invariants.h1_via_edge_path(g)
        assert a == b


def test_homology_reports():
    s5 = invariants.homology(fixtures.sigma(5))
    assert (s5.betti1, s5.betti2, s5.chi_singular) == (0, 0, 2)
    assert s5.torsion == ()
    cp2 = invariants.homology(fixtures.cp2())
    assert (cp2.betti1, cp2.betti2, cp2.chi_singular) == (0, 1, 3)
    bdy = invariants.homology(fixtures.rp3_boundary())
    assert (bdy.betti1, bdy.betti2, bdy.betti1_singular) == (0, 1, 0)
    assert bdy.chi_singular == 3


def test_homology_connected_sum_additivity():
    cp2 = fixtures.cp2()
    s = cp2
    for k in range(2, 5):
        s = core.connected_sum(s, cp2)
        hom = invariants.homology(s)
        assert hom.betti2 == k and hom.betti1 == 0
        assert hom.chi_singular == 2 + k


def test_homology_rejects_non_manifold():
    with pytest.raises(StructuralError):
        invariants.homology(fixtures.torus_times_colors())


# ---------------------------------------------------------------------------
# Certificates and the genus route to betti2
# ---------------------------------------------------------------------------

def test_pi1_certificates():
    assert invariants.pi1_certificate(fixtures.sigma(5)).status == "trivial"
    assert invariants.pi1_certificate(fixtures.cp2()).status == "trivial"
    assert invariants.pi1_certificate(fixtures.rp3_boundary()).status == "trivial"
    cert = invariants.pi1_certificate(fixtures.nonsimply_connected())
    assert cert.status == "nontrivial" and cert.m == 1


def test_pi1_certificate_reads_no_singular_pair(monkeypatch):
    # the certificate is about the compact manifold: no presentation of the
    # gem over a pair holding its singular color 4 is built
    g = fixtures.rp3_boundary()
    assert recognition.singular_colors(g) == (4,)
    pairs = []
    raw = invariants.presentation_raw

    def spy(h, i, j):
        if h == g:  # hat-residues' presentations come from sphere certification
            pairs.append((i, j))
        return raw(h, i, j)

    monkeypatch.setattr(invariants, "presentation_raw", spy)
    for memo in core.MEMOS:
        memo.cache_clear()
    assert invariants.pi1_certificate(g).status == "trivial"
    assert pairs and all(4 not in pair for pair in pairs), pairs


@pytest.mark.parametrize("make", [fixtures.cp2, fixtures.rp3_boundary])
def test_pi1_certificate_builds_each_presentation_once(monkeypatch, make):
    # the compact pair's presentation gives H1 and is the first one Tietze
    # simplifies: it is built once
    g = make()
    pairs = []
    raw = invariants.presentation_raw

    def spy(h, i, j):
        if h == g:  # hat-residues' presentations come from sphere certification
            pairs.append((i, j))
        return raw(h, i, j)

    monkeypatch.setattr(invariants, "presentation_raw", spy)
    for memo in core.MEMOS:
        memo.cache_clear()
    assert invariants.pi1_certificate(g).status == "trivial"
    assert pairs and len(pairs) == len(set(pairs)), pairs


def test_boundary_sum_of_simply_connected_stays_simply_connected():
    # the boundary H1 (Z/2 + Z/2 after the sum) dies in the 4-manifold
    bdy = fixtures.rp3_boundary()
    double = core.connected_sum(bdy, bdy)
    assert invariants.pi1_certificate(double).status == "trivial"
    res = core.extract_residues(double, (0, 1, 2, 3))[0].graph
    assert invariants.h1_via_edge_path(res) == (0, (2, 2))


def test_beta2_via_genus_values_and_refusal():
    assert invariants.beta2_via_genus(fixtures.sigma(5)) == 0
    assert invariants.beta2_via_genus(fixtures.cp2()) == 1
    s = core.connected_sum(fixtures.cp2(), fixtures.cp2())
    assert invariants.beta2_via_genus(s) == 2
    with pytest.raises(AnalysisRefused):
        invariants.beta2_via_genus(fixtures.nonsimply_connected())


def test_beta2_via_genus_refuses_a_negative_value(monkeypatch):
    g = fixtures.cp2()
    invariants.beta2_via_genus.cache_clear()  # cp2's beta2 may be memoised
    hom = dataclasses.replace(invariants.homology(g), chi_singular=1, betti2=-1)
    monkeypatch.setattr(invariants, "homology", lambda _: hom)
    with pytest.raises(InternalConsistencyError, match="bad beta2 value -1"):
        invariants.beta2_via_genus(g)


def test_beta2_via_genus_refuses_a_value_above_a_subgenus(monkeypatch):
    g = fixtures.cp2()
    invariants.beta2_via_genus.cache_clear()  # cp2's beta2 may be memoised
    invariants.homology(g)  # warm: homology reads genus_all for its chi check
    rep = genus.genus_all(g)
    low = dataclasses.replace(rep, subgenera=MappingProxyType(
        {e: (0,) + vals[1:] for e, vals in rep.subgenera.items()}))
    monkeypatch.setattr(genus, "genus_all", lambda _: low)
    with pytest.raises(InternalConsistencyError, match="exceeds some subgenus 0"):
        invariants.beta2_via_genus(g)


def test_beta2_via_genus_refuses_a_homology_mismatch(monkeypatch):
    g = fixtures.cp2()
    invariants.beta2_via_genus.cache_clear()  # cp2's beta2 may be memoised
    hom = invariants.homology(g)
    assert hom.betti2 == hom.chi_singular - 2 == 1
    off = dataclasses.replace(hom, betti2=hom.betti2 + 1)
    monkeypatch.setattr(invariants, "homology", lambda _: off)
    with pytest.raises(InternalConsistencyError, match="beta2 mismatch"):
        invariants.beta2_via_genus(g)


def test_beta2_never_exceeds_subgenera(crystallization_corpus_order6):
    for g in crystallization_corpus_order6:
        cert = invariants.pi1_certificate(g)
        if cert.status != "trivial":
            continue
        beta2 = invariants.beta2_via_genus(g)
        rep = genus.genus_all(g)
        for eps in rep.subgenera:
            assert all(beta2 <= s for s in rep.subgenera[eps])


def test_beta2_via_genus_refuses_a_non_crystallization_before_asking_pi1(monkeypatch):
    # a 1-dipole of color 0 splits the residues missing color 0, so neither
    # gem is a crystallization, whatever its pi1
    def pi1_asked(g):
        raise AssertionError("pi1 asked of a non-crystallization")

    monkeypatch.setattr(invariants, "pi1_certificate", pi1_asked)
    for g in (fixtures.sigma(5), fixtures.nonsimply_connected()):
        with pytest.raises(StructuralError, match="not a 5-colored crystallization"):
            invariants.beta2_via_genus(core.add_dipole(g, 0, (0,)))
