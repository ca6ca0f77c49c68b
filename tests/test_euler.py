from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction

import pytest

import segreml.euler
import segreml.factors
from segreml.euler import (
    PairType,
    _arrangement,
    _curve_points,
    chi_VI,
    chi_VI_XJ,
    classify_type,
    degree_bound,
    mldeg,
    mldeg_matrix,
    mldeg_value,
    pair_types,
)
from segreml.cli import main
from segreml.errors import UnstableCountError
from segreml.exact import BinaryForm, RatMatrix, binary_gcd, distinct_root_count, integer_row, rank
from segreml.factors import all_factors, eval_hyp222, hyp223_vanishes, vanishing_pattern
from segreml.realize import _solve_minor, realize
from segreml.strata import atlas
from segreml.tensor import ScalingTensor

from helpers import (
    COUNTEREXAMPLE_W,
    COUNTEREXAMPLE_W_PRIME,
    HOOK_EXAMPLE,
    TWIN_CONJUGATES_W,
    _tall_rational,
    all_ones,
    degenerate_tensor,
    duplicate_last_slice,
    line_heavy_tensor,
    permute_slices,
    random_positive_tensor,
    random_tensor,
    swap_xy,
    torus_rescale,
)
from references import chi_VI_closed_form, mldeg_point_formula, pair_det_form


def test_pencil_minors():
    assert pair_det_form(COUNTEREXAMPLE_W, 0, 1).coeffs == (0, 8, 14)  # 2 y1 (4 y0 + 7 y1)
    assert pair_det_form(all_ones(1), 0, 1).is_zero
    assert pair_det_form(COUNTEREXAMPLE_W_PRIME, 1, 2).coeffs == (0, -22, -17)  # -y1 (22 y0 + 17 y1)
    with pytest.raises(ValueError):
        chi_VI(COUNTEREXAMPLE_W, ())


def _degenerate_n2(rng: random.Random) -> ScalingTensor:
    """n = 2, entries in +-{1,2,3}, then forced minors and a duplicated or proportional slice."""
    pool = [-3, -2, -1, 1, 2, 3]
    entries = [[[Fraction(rng.choice(pool)) for _ in range(3)] for _ in range(2)] for _ in range(2)]
    minors = [f for f in all_factors(2) if f.is_minor]
    for fid in rng.sample(minors, rng.randint(0, 3)):
        _solve_minor(entries, fid, rng.choice(sorted(fid.variables())))
    if rng.random() < 0.5:
        src, dst = rng.sample(range(3), 2)
        lam = rng.choice(pool)  # lam = 1 duplicates the slice
        for plane in entries:
            for row in plane:
                row[dst] = lam * row[src]
    return ScalingTensor.from_entries(2, entries)


def test_hyp223_and_chi_VI_agree_through_pair_det_form():
    """The 2x2x3 factor vanishes exactly when the three quadrics meet (chi != 0)."""
    rng = random.Random(23)
    tensors = [realize(2, r) for r in range(1, 13)]
    tensors += [COUNTEREXAMPLE_W, COUNTEREXAMPLE_W_PRIME, HOOK_EXAMPLE, all_ones(2)]
    tensors += [_degenerate_n2(rng) for _ in range(300)]
    outcomes = set()
    for W in tensors:
        for ks in itertools.combinations(range(W.n + 1), 3):
            vanishes = hyp223_vanishes(W, *ks)
            assert vanishes == (chi_VI(W, ks) != 0), (W.to_json_dict(), ks)
            outcomes.add(vanishes)
    assert outcomes == {True, False}


def test_classify_type_examples():
    assert classify_type(COUNTEREXAMPLE_W, 0, 1) == PairType.I
    assert classify_type(all_ones(1), 0, 1) == PairType.III
    proportional = ScalingTensor.from_slices([[[1, 2], [3, 4]], [[2, 4], [6, 8]]])
    assert classify_type(proportional, 0, 1) == PairType.IV_ROWS
    cols = ScalingTensor.from_slices([[[1, 2], [3, 6]], [[5, 7], [15, 21]]])
    assert classify_type(cols, 0, 1) == PairType.IV_COLS
    factored = ScalingTensor.from_slices([[[1, 2], [3, 6]], [[5, 10], [7, 14]]])
    assert classify_type(factored, 0, 1) == PairType.II


def test_chi_VI_examples():
    assert chi_VI(COUNTEREXAMPLE_W, (0, 1, 2)) == 2
    assert chi_VI(COUNTEREXAMPLE_W_PRIME, (0, 1, 2)) == 1
    assert chi_VI(COUNTEREXAMPLE_W, (0,)) == 2  # nonsingular slice
    assert chi_VI(all_ones(1), (0, 1)) == 3
    assert chi_VI(all_ones(1), (0,)) == 3  # singular slice: 4 - 1


def test_chi_VI_closed_form_examples():
    assert chi_VI_closed_form(COUNTEREXAMPLE_W, (0, 1, 2)) == 2
    assert chi_VI_closed_form(COUNTEREXAMPLE_W_PRIME, (0, 1, 2)) == 1
    assert chi_VI_closed_form(all_ones(2), (0, 1, 2)) == 3
    assert chi_VI_closed_form(HOOK_EXAMPLE, (0, 1, 2)) == 0  # H[0,1,2] nonzero
    with pytest.raises(ValueError):
        chi_VI_closed_form(COUNTEREXAMPLE_W, (0,))


def test_chi_VI_XJ():
    W = COUNTEREXAMPLE_W
    I = (0, 1, 2)
    assert chi_VI_XJ(W, I, ((1,), ())) == 0  # x1 = 0: rank-2 rows
    assert chi_VI_XJ(W, I, ((), (1,))) == 1  # y1 = 0: rank-1 rows
    assert chi_VI_XJ(W, I, ((1,), (0,))) == 0
    assert chi_VI_XJ(W, I, ((), ())) == chi_VI(W, I)
    # J is one of the nine tuples: a coordinate outside {0, 1} must not index another face
    for J in (((0, 1), ()), ((), (5,)), ((2,), ()), ((-1,), ()), ((), (-2,)), ((0,), (3,))):
        for I in ((0, 1), (0, 1, 2)):
            with pytest.raises(ValueError):
                chi_VI_XJ(W, I, J)


def test_slice_indices_are_checked_on_every_path():
    # every J routes I through one check, with chi_VI's errors: negative
    # indices must not wrap round to slice n, nor an empty X_J hide a bad I
    W = COUNTEREXAMPLE_W  # n = 2
    for J in itertools.product(((), (0,), (1,)), repeat=2):
        for I in ((-1,), (0, 3), (3,), (-1, 1)):
            with pytest.raises(IndexError, match="slice indices out of range"):
                chi_VI_XJ(W, I, J)
        with pytest.raises(ValueError, match="I must be nonempty"):
            chi_VI_XJ(W, (), J)
    for args in ((-1, 1, 2), (0, 1, 3)):
        with pytest.raises(IndexError, match="slice indices out of range"):
            hyp223_vanishes(W, *args)
    for args in ((-1, 1), (0, 3)):
        with pytest.raises(IndexError, match="slice indices out of range"):
            classify_type(W, *args)
        with pytest.raises(IndexError, match="slice indices out of range"):
            eval_hyp222(W, *args)
    # order is checked before range
    with pytest.raises(ValueError, match="slice indices must strictly increase"):
        hyp223_vanishes(W, 3, 1, 0)
    with pytest.raises(ValueError, match="slice indices must strictly increase"):
        classify_type(W, 3, 0)


def test_a_repeated_slice_index_counts_once():
    # on every J, I answers as its set, whatever the order and the repeats
    rng = random.Random(33)
    for W in (COUNTEREXAMPLE_W, COUNTEREXAMPLE_W_PRIME, HOOK_EXAMPLE, all_ones(2)):
        for ks in [ks for size in (1, 2, 3) for ks in itertools.combinations(range(W.n + 1), size)]:
            for _ in range(3):
                I = list(ks) + [rng.choice(ks) for _ in range(rng.randint(1, 3))]
                rng.shuffle(I)
                assert chi_VI(W, I) == chi_VI(W, ks), (ks, I)
                for J in itertools.product(((), (0,), (1,)), repeat=2):
                    assert chi_VI_XJ(W, I, J) == chi_VI_XJ(W, ks, J), (ks, I, J)


def _chi_VI_from_entries(W, ks):
    """chi(V_I) by the procedure of euler's docstring, from fresh pair forms and raw entries.

    Returns (chi, r0), with r0 the row-proportionality test on the entries.
    """
    p, q = W.w[0][0][ks[0]], W.w[0][1][ks[0]]
    r0 = int(all(p * c1[k] == q * c0[k] for c0, c1 in W.w for k in ks))
    if len(ks) == 1:
        return 4 - rank(RatMatrix.from_rows([[W.w[i][j][ks[0]] for j in range(2)] for i in range(2)])), r0
    forms = [pair_det_form(W, a, b) for a, b in itertools.combinations(ks, 2)]
    g = binary_gcd([BinaryForm(tuple(integer_row(f.coeffs))) for f in forms])  # raw entries: clear denominators
    if g.is_zero:
        return 2 + r0, r0
    roots = distinct_root_count(g)
    return (roots + r0 if roots else 0), r0


def test_face_classes_match_bareiss_and_row_proportionality():
    """chi_VI_XJ's class lookups equal the Bareiss rank of the face rows; chi_VI's r0 the entry test."""
    rng = random.Random(808)
    one_sided = [((0,), ()), ((1,), ()), ((), (0,)), ((), (1,))]
    seen_terms, seen_r0 = set(), set()
    for _ in range(100):
        W = degenerate_tensor(rng, rng.choice((1, 2, 3, 4)))
        subsets = [ks for size in range(1, W.n + 2) for ks in itertools.combinations(range(W.n + 1), size)]
        rng.shuffle(subsets)  # any order: chi_VI's gcd memo must not depend on the subset sum's
        for ks in subsets:
            for J in one_sided:
                if J[0]:
                    i = 1 - J[0][0]
                    rows = [[W.w[i][0][k], W.w[i][1][k]] for k in ks]
                else:
                    j = 1 - J[1][0]
                    rows = [[W.w[0][j][k], W.w[1][j][k]] for k in ks]
                value = chi_VI_XJ(W, ks, J)
                assert value == 2 - rank(RatMatrix.from_rows(rows)), (W.to_json_dict(), ks, J)
                seen_terms.add((len(ks) > 1, value))
            chi, r0 = _chi_VI_from_entries(W, ks)
            assert chi_VI(W, ks) == chi, (W.to_json_dict(), ks)
            if len(ks) > 1 and chi:
                seen_r0.add(r0)
    assert seen_terms == {(False, 1), (True, 0), (True, 1)}
    assert seen_r0 == {0, 1}


def test_mldeg_examples():
    report = mldeg(COUNTEREXAMPLE_W)
    assert report.mldeg == 8 and report.chi_Y == -8
    assert vanishing_pattern(COUNTEREXAMPLE_W).names() == ["F[*0(0,1)]", "F[*0(0,2)]", "F[*0(1,2)]", "H[0,1,2]"]
    assert mldeg(COUNTEREXAMPLE_W_PRIME).mldeg == 9
    assert mldeg_value(all_ones(1)) == 1
    assert mldeg_value(all_ones(2)) == 1
    rng = random.Random(2)
    assert mldeg_value(random_tensor(rng, 2, bound=40)) == 12


def test_mldeg_answers_without_the_pattern(monkeypatch):
    def refuse(W):
        raise AssertionError("euler.mldeg read the vanishing pattern")

    monkeypatch.setattr(segreml.factors, "vanishing_pattern", refuse)
    assert not hasattr(segreml.euler, "vanishing_pattern") and not hasattr(segreml.euler, "VanishingPattern")
    assert mldeg(COUNTEREXAMPLE_W).mldeg == 8
    assert mldeg(COUNTEREXAMPLE_W_PRIME).mldeg == 9


def test_report_terms():
    report = mldeg(all_ones(1))
    # terms: 3 subsets x 9 J-combinations
    assert len(report.terms) == 27
    json_map = report.term_map_json()
    assert json_map["I=[0, 1];J=[[], []]"] == 3
    assert json_map["I=[0];J=[[1], []]"] == 1


def test_mldeg_matrix_values():
    assert mldeg_matrix(RatMatrix.from_rows([[1, 1], [1, 1]])) == 1
    assert mldeg_matrix(RatMatrix.from_rows([[1, 2], [3, 5]])) == 2
    assert mldeg_matrix(RatMatrix.from_rows([[1, 2, 3], [5, 7, 11]])) == 3
    assert mldeg_matrix(RatMatrix.from_rows([[1, 2, 3], [5, 7, 11], [13, 17, 23]])) == 6
    assert mldeg_matrix(RatMatrix.from_rows([[1, 2, 3, 7], [5, 11, 13, 17]])) == 4
    with pytest.raises(ValueError):
        mldeg_matrix(RatMatrix.from_rows([[1, 0], [1, 1]]))


def _rank_sum(M: RatMatrix) -> int:
    """The signed rank sum over all submatrices, on M's own Fraction entries."""
    total = 0
    for rsize in range(1, M.nrows + 1):
        for rows in itertools.combinations(M.entries, rsize):
            for csize in range(1, M.ncols + 1):
                for cols in itertools.combinations(range(M.ncols), csize):
                    total += (-1) ** (rsize + csize) * rank(RatMatrix(tuple(tuple(row[c] for c in cols) for row in rows)))
    return total


def test_mldeg_matrix_of_the_transpose():
    """A wide matrix and its transpose have the same ML degree, with rank-deficient submatrices too."""
    rng = random.Random(37)
    degenerate = 0
    for rows, cols in ((1, 4), (2, 3), (2, 5), (3, 4), (2, 7), (3, 6), (4, 5), (3, 7), (4, 6), (5, 5)):
        # small entries repeat, so some minors vanish; the row and column scalars make entries of about 30 digits
        pool = [Fraction(v) for v in (-2, -1, 1, 2, 3)]
        r = [_tall_rational(rng, 15) for _ in range(rows)]
        c = [_tall_rational(rng, 15) for _ in range(cols)]
        M = RatMatrix(tuple(tuple(r[i] * c[j] * rng.choice(pool) for j in range(cols)) for i in range(rows)))
        value = mldeg_matrix(M)
        assert value == mldeg_matrix(RatMatrix(tuple(zip(*M.entries)))), M.entries
        if rows + cols <= 7:
            assert value == _rank_sum(M), M.entries
        degenerate += value < math.comb(rows + cols - 2, rows - 1)
    assert degenerate >= 3


def test_point_formula_examples():
    assert mldeg_point_formula(HOOK_EXAMPLE) == 7
    assert mldeg_point_formula(COUNTEREXAMPLE_W) is None  # H[0,1,2] vanishes
    rng = random.Random(9)
    W = random_tensor(rng, 1, bound=30)
    assert mldeg_point_formula(W) == 6


def test_point_formula_agrees_with_engine():
    rng = random.Random(31)
    applicable = 0
    for _ in range(1000):
        n = rng.choice((1, 2, 3))
        W = random_tensor(rng, n, bound=12)
        shortcut = mldeg_point_formula(W)
        if shortcut is not None:
            assert shortcut == mldeg_value(W)
            applicable += 1
    assert applicable > 900  # random integer tensors rarely kill a resultant


def test_mldeg_bounds_on_positive_tensors():
    rng = random.Random(13)
    for _ in range(1000):
        n = rng.choice((1, 2, 3))
        value = mldeg_value(random_positive_tensor(rng, n))
        assert 1 <= value <= degree_bound(n)


def test_equal_patterns_equal_mldeg_for_n1():
    # Two independently generated witnesses per stratum must agree.
    from segreml.strata import enumerate_strata_n1, witness_for_stratum

    for stratum in enumerate_strata_n1():
        a = witness_for_stratum(stratum, seed=1)
        b = witness_for_stratum(stratum, seed=2)
        assert vanishing_pattern(a).factors == vanishing_pattern(b).factors
        assert mldeg_value(a) == mldeg_value(b) == stratum.chi


def test_duplicated_slice_tensor_keeps_mldeg():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.choice((1, 2))
        W = random_tensor(rng, n, bound=10)
        assert mldeg_value(duplicate_last_slice(W)) == mldeg_value(W)


_POOL = [sign * Fraction(v) for v in (1, 2, 3, Fraction(1, 2), Fraction(2, 3)) for sign in (1, -1)]


def _random_slice(rng: random.Random) -> list[list[Fraction]]:
    return [[rng.choice(_POOL) for _ in range(2)] for _ in range(2)]


def _degenerate_tensor(rng: random.Random, n: int) -> ScalingTensor:
    """Entries in +-{1, 2, 3, 1/2, 2/3}; about 30% of slices are a multiple of an earlier one."""
    slices = [_random_slice(rng)]
    for _ in range(n):
        if rng.random() < 0.3:
            lam = rng.choice(_POOL)
            slices.append([[lam * x for x in row] for row in rng.choice(slices)])
        else:
            slices.append(_random_slice(rng))
    return ScalingTensor.from_slices(slices)


def _components_through_points(W: ScalingTensor) -> tuple[list[str], dict[tuple, set[int]]]:
    """The kind of each component and, per torus point, the components through it, rebuilt pair by pair.

    Checks on the way that the arrangement's pair count at each point is C(m_p, 2) of these sets.
    """
    forms, pairs = _arrangement(W)
    w00, w01, w10, w11 = zip(*forms)
    w = (w00, w01), (w10, w11)
    points: dict[tuple, set[int]] = {}
    for j, k in itertools.combinations(range(len(forms)), 2):
        for key in _curve_points(w, j, k):
            points.setdefault(key, set()).update((j, k))
    assert pairs == {key: math.comb(len(through), 2) for key, through in points.items()}, W.to_json_dict()
    # a curve has w00 != 0; an x-line is (0, a, 0, c) times y1, a y-line x1 times (0, 0, a, b)
    return ["curve" if a else "x" if c == 0 else "y" for a, _, c, _ in forms], points


def test_arrangement_agrees_with_inclusion_exclusion():
    """mldeg_value (curve arrangement) equals mldeg (inclusion-exclusion sum)."""
    tensors = [witness for seed in range(3) for _, witness in atlas(seed=seed)]
    tensors += [realize(n, r) for n in range(1, 5) for r in range(1, degree_bound(n) + 1)]
    tensors += [realize(n, r, seed=1) for n in (6, 7, 8) for r in (n + 3, degree_bound(n))]
    tensors.append(TWIN_CONJUGATES_W)  # two conjugate pairs share a t-polynomial
    rng = random.Random(17)
    tensors += [_degenerate_tensor(rng, rng.randint(1, 4)) for _ in range(2000)]
    for W in tensors:
        assert mldeg_value(W) == mldeg(W).mldeg, W.to_json_dict()
    # Line-heavy and degeneracy-biased draws, n = 1..6: every kind of component pair meets.
    rng = random.Random(23)
    seen = set()
    for i in range(300):
        W = (line_heavy_tensor if i % 3 else degenerate_tensor)(rng, 1 + i % 6)
        assert mldeg_value(W) == mldeg(W).mldeg, W.to_json_dict()
        kinds, points = _components_through_points(W)
        seen.update(("parallel", a) for a, b in itertools.combinations(kinds, 2) if a == b != "curve")
        for through in points.values():
            seen.update(itertools.combinations([kinds[c] for c in sorted(through)], 2))
            if len(through) >= 3 and any(kinds[c] != "curve" for c in through):
                seen.add("m_p >= 3 on a line")
    expected = {("x", "y"), ("curve", "x"), ("x", "curve"), ("curve", "y"), ("y", "curve")}
    expected |= {("parallel", "x"), ("parallel", "y"), "m_p >= 3 on a line"}
    assert expected <= seen, expected - seen


def _pencil_tensor(rng: random.Random) -> ScalingTensor:
    """Slice 2 = slice 0 + lam * slice 1, then 0-2 random slices."""
    while True:
        s0, s1 = _random_slice(rng), _random_slice(rng)
        lam = rng.choice(_POOL)
        s2 = [[x + lam * y for x, y in zip(r0, r1)] for r0, r1 in zip(s0, s1)]
        if all(x != 0 for row in s2 for x in row):
            return ScalingTensor.from_slices([s0, s1, s2] + [_random_slice(rng) for _ in range(rng.randint(0, 2))])


def test_pencil_base_points_meet_three_components():
    """A pencil puts three components through each base point, rational and conjugate alike."""
    rng = random.Random(7)
    triple_points = {1: 0, 2: 0}  # orbit size -> points with m_p >= 3
    for _ in range(400):
        W = _pencil_tensor(rng)
        _, pairs = _arrangement(W)
        for key, count in pairs.items():
            if count >= 3:  # C(m_p, 2) pairs meet there
                triple_points[2 if len(key) == 6 else 1] += 1
        assert mldeg_value(W) == mldeg(W).mldeg, W.to_json_dict()
    assert triple_points[1] > 0 and triple_points[2] > 0, triple_points


# Two faults in the point keys: a conjugate pair keyed without the B term of
# s = (A + B t) / N, and a rational point keyed by t alone.  Each merges points
# that only share a t-polynomial or a fibre t = y0/y1.
_KEY_FAULTS = {
    "conjugate key without B": (TWIN_CONJUGATES_W, lambda key: key[:4] + (0,) + key[5:] if len(key) == 6 else key),
    "rational key by t alone": (_pencil_tensor(random.Random(5)), lambda key: key if len(key) == 6 else (key[0], None)),
}


@pytest.mark.parametrize("fault", sorted(_KEY_FAULTS))
def test_a_merged_point_key_fails_the_pair_count_check(fault, monkeypatch, tmp_path, capsys):
    """A key that merges points leaves a pair count that is no C(m, 2): mldeg_value raises and `segreml mldeg` exits 3."""
    W, plant = _KEY_FAULTS[fault]
    assert mldeg_value(W) == mldeg(W).mldeg
    original = segreml.euler._curve_points
    monkeypatch.setattr(segreml.euler, "_curve_points", lambda w, j, k: [plant(key) for key in original(w, j, k)])
    with pytest.raises(UnstableCountError, match="component pairs meet at"):
        mldeg_value(W)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(W.to_json_dict()))
    assert main(["mldeg", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


def test_arrangement_beyond_inclusion_exclusion():
    """At n where the subset sum cannot run: realize's target and the model symmetries."""
    rng = random.Random(19)
    scalars = lambda count: [rng.choice(_POOL) * rng.choice((1, 5, Fraction(1, 7))) for _ in range(count)]
    for n, targets in ((12, (1, 100, 182)), (16, (150, 306)), (24, (300, 650)), (40, (1, 861, 1722)), (60, (1, 1891, 3782))):
        for r in targets:
            W = realize(n, r, seed=n)
            assert mldeg_value(W) == r
            perm = list(range(n + 1))
            rng.shuffle(perm)
            assert mldeg_value(torus_rescale(W, scalars(2), scalars(2), scalars(n + 1))) == r
            assert mldeg_value(permute_slices(W, perm)) == r
            assert mldeg_value(swap_xy(W)) == r


@pytest.mark.skipif(not os.environ.get("SEGREML_EXHAUSTIVE"), reason="~12s grid sweep; set SEGREML_EXHAUSTIVE=1")
def test_exhaustive_grid_pattern_determines_mldeg():
    """Over every tensor with entries in +-{1,2}, the ML degree equals the
    Euler characteristic assigned to its vanishing pattern."""
    import itertools

    from references import classify_pattern_n1

    for combo in itertools.product((-2, -1, 1, 2), repeat=8):
        e = [[[combo[0], combo[1]], [combo[2], combo[3]]], [[combo[4], combo[5]], [combo[6], combo[7]]]]
        W = ScalingTensor.from_entries(1, e)
        chi = classify_pattern_n1(vanishing_pattern(W))
        assert chi is not None
        assert mldeg_value(W) == chi


def test_zero_tests_never_read_the_scaled_values(monkeypatch):
    """The vanishing pattern, the pair types and the point formula answer with factor_values raising, on fresh tensors."""
    rng = random.Random(31)
    tensors = [degenerate_tensor(rng, n) for n in (1, 2, 3, 4) for _ in range(5)] + [W for _, W in atlas(seed=5)]
    answer = lambda W: (vanishing_pattern(W), pair_types(W), mldeg_point_formula(W))
    expected = [answer(W) for W in tensors]

    def scaled(W):
        raise AssertionError("a zero test read factor_values")

    for module in (segreml.factors, segreml.euler):
        monkeypatch.setattr(module, "factor_values", scaled, raising=False)
    assert [answer(ScalingTensor(W.n, W.w)) for W in tensors] == expected  # new memos
