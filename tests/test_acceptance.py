"""Acceptance suite: one test per criterion, exact values, stated budgets.

Each test's docstring first line is echoed with PASS/FAIL in the terminal
summary (see conftest).  Run with `pytest tests/test_acceptance.py -v`.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

from segreml.euler import (
    chi_VI,
    degree_bound,
    mldeg,
    mldeg_matrix,
    mldeg_value,
)
from segreml.exact import RatMatrix
from segreml.factors import vanishing_pattern
from segreml.oracle import oracle_mldeg
from segreml.realize import random_entry, realize
from segreml.strata import (
    atlas,
    enumerate_strata_n1,
    sample_sign_patterns,
    witness_for_stratum,
)
from segreml.tensor import ScalingTensor

from helpers import (
    COUNTEREXAMPLE_W,
    COUNTEREXAMPLE_W_PRIME,
    HOOK_EXAMPLE,
    _tall_rational,
    degenerate_tensor,
    line_heavy_tensor,
    random_positive_tensor,
    random_rational_tensor,
    random_tensor,
)
from references import (
    NEGATIVE_H_PATTERNS,
    chi_VI_closed_form,
    count_critical_points_matrix,
    find_negative_h_patterns,
    map_factor,
    mldeg_point_formula,
)

EXPECTED_PATTERN = ["F[*0(0,1)]", "F[*0(0,2)]", "F[*0(1,2)]", "H[0,1,2]"]


def test_criterion_1_counterexample_pair():
    """criterion 1: counterexample tensors give ML degrees 8 and 9 with equal patterns"""
    t0 = time.perf_counter()
    report_w = mldeg(COUNTEREXAMPLE_W)
    assert time.perf_counter() - t0 < 1.0
    t0 = time.perf_counter()
    report_wp = mldeg(COUNTEREXAMPLE_W_PRIME)
    assert time.perf_counter() - t0 < 1.0
    assert report_w.mldeg == 8 and report_w.chi_Y == -8
    assert report_wp.mldeg == 9 and report_wp.chi_Y == -9
    assert report_w.factor_pattern.names() == EXPECTED_PATTERN
    assert report_wp.factor_pattern.names() == EXPECTED_PATTERN
    assert report_w.factor_pattern.factors == report_wp.factor_pattern.factors


def test_criterion_2_hook_example_both_routes():
    """criterion 2: three-quadric hook example has ML degree 7 by engine and point formula"""
    t0 = time.perf_counter()
    assert mldeg_value(HOOK_EXAMPLE) == 7
    assert mldeg_point_formula(HOOK_EXAMPLE) == 7
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_stratification_atlas():
    """criterion 3: 41 strata with class sizes (1,7,21,8,3,1) and verified witnesses"""
    t0 = time.perf_counter()
    strata = enumerate_strata_n1()
    assert len(strata) == 41
    assert Counter(s.chi for s in strata) == {6: 1, 5: 7, 4: 21, 3: 8, 2: 3, 1: 1}
    for stratum, witness in atlas(seed=0):
        assert vanishing_pattern(witness).factors == stratum.pattern.factors
        assert mldeg_value(witness) == stratum.chi
    assert time.perf_counter() - t0 < 10.0


def test_criterion_4_realizability():
    """criterion 4: every ML degree in [1, (n+1)(n+2)] is realized for n = 1, 2, 3"""
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        for r in range(1, degree_bound(n) + 1):
            W = realize(n, r, seed=1)
            assert W.n == n and mldeg_value(W) == r
    assert time.perf_counter() - t0 < 60.0


def test_criterion_5_oracle_cross_validation():
    """criterion 5: critical-point counts match the engine on witnesses and random tensors"""

    def check(W):
        result = oracle_mldeg(W, trials=2, seed=1234)
        assert result.stable, result
        assert result.count == mldeg_value(W)

    for stratum in enumerate_strata_n1():
        check(witness_for_stratum(stratum, seed=0))
    check(COUNTEREXAMPLE_W)
    check(COUNTEREXAMPLE_W_PRIME)
    for n in (1, 2):
        for r in range(1, degree_bound(n) + 1):
            check(realize(n, r, seed=1))
    rng = random.Random(55)
    for _ in range(10):
        W = random_tensor(rng, 2, bound=25)
        result = oracle_mldeg(W, trials=2, seed=rng.randrange(2**20))
        assert result.stable
        engine = mldeg_value(W)
        assert result.count == engine
        if vanishing_pattern(W).is_empty():
            assert engine == 12


def _pair_families(rng: random.Random):
    """n=1 tensors hitting every pair type."""
    from segreml.strata import _tangency_witness

    out = []
    a = [random_entry(rng) for _ in range(4)]
    # type II / III: row pencil times a constant matrix of rank 2 / rank 1
    ell = (random_entry(rng), random_entry(rng))
    m = [[random_entry(rng) for _ in range(2)] for _ in range(2)]
    slices_ii = [
        [[m[k][0] * ell[0], m[k][0] * ell[1]], [m[k][1] * ell[0], m[k][1] * ell[1]]]
        for k in range(2)
    ]
    out.append(ScalingTensor.from_slices(slices_ii))  # II if rank m = 2, III if 1
    mu = random_entry(rng)
    slices_iii = [
        [[m[k][0] * ell[0], m[k][0] * ell[1]], [mu * m[k][0] * ell[0], mu * m[k][0] * ell[1]]]
        for k in range(2)
    ]
    out.append(ScalingTensor.from_slices(slices_iii))
    # IV with proportional rows: lam-scaled nonsingular slice
    s = [[a[0], a[1]], [a[2], a[3]]]
    lam = random_entry(rng)
    out.append(ScalingTensor.from_slices([s, [[lam * x for x in row] for row in s]]))
    # IV with proportional columns: both slices have row1 = mu * row0
    c0, c1, d0, d1 = (random_entry(rng) for _ in range(4))
    out.append(
        ScalingTensor.from_slices(
            [[[c0, c1], [mu * c0, mu * c1]], [[d0, d1], [mu * d0, mu * d1]]]
        )
    )
    # type V: tangent quadrics
    w = _tangency_witness(rng, None)
    if w is not None:
        out.append(w)
    # generic: type I
    out.append(random_tensor(rng, 1, bound=15))
    return out


def _triple_families(rng: random.Random):
    """n=2 tensors hitting every constructible |I| = 3 branch."""
    from segreml.strata import _tangency_witness

    out = []

    def rs():
        return [[random_entry(rng), random_entry(rng)], [random_entry(rng), random_entry(rng)]]

    def through(point, slice2):
        x_s, y_s = point
        slice2[0][0] = -(slice2[1][0] * x_s + slice2[0][1] * y_s + slice2[1][1] * x_s * y_s)
        return slice2

    # V-branch: tangency pair plus a third pencil member (any quadric in the
    # pencil of f0, f1 passes through their contact point, so V stays nonempty)
    w = _tangency_witness(rng, None)
    if w is not None:
        s0 = [list(row) for row in w.slice(0).entries]
        s1 = [list(row) for row in w.slice(1).entries]
        alpha, beta = random_entry(rng), random_entry(rng)
        s2 = [[alpha * s0[i][j] + beta * s1[i][j] for j in range(2)] for i in range(2)]
        if all(x != 0 for row in s2 for x in row):
            out.append(ScalingTensor.from_slices([s0, s1, s2]))
    # II,II,II: three slices from one row pencil with independent mixing rows
    ell = (random_entry(rng), random_entry(rng))
    m = [[random_entry(rng) for _ in range(2)] for _ in range(3)]
    slices = [
        [[m[k][0] * ell[0], m[k][0] * ell[1]], [m[k][1] * ell[0], m[k][1] * ell[1]]]
        for k in range(3)
    ]
    out.append(ScalingTensor.from_slices(slices))
    # II,II,III: same pencil, two mixing rows proportional
    lam0 = random_entry(rng)
    prop = [m[0], m[1], [lam0 * m[1][0], lam0 * m[1][1]]]
    out.append(
        ScalingTensor.from_slices(
            [
                [[r[0] * ell[0], r[0] * ell[1]], [r[1] * ell[0], r[1] * ell[1]]]
                for r in prop
            ]
        )
    )
    # II plus two type-I pairs: pencil pair plus a generic slice
    out.append(ScalingTensor.from_slices(slices[:2] + [rs()]))
    # II plus IV_cols: pencil pair plus a column-proportional partner
    mu = m[0][1] / m[0][0]
    c0, c1 = random_entry(rng), random_entry(rng)
    out.append(
        ScalingTensor.from_slices(slices[:2] + [[[c0, c1], [mu * c0, mu * c1]]])
    )
    # all III: proportional singular slices
    aa, bb, cc = random_entry(rng), random_entry(rng), random_entry(rng)
    sing = [[aa, bb], [cc, bb * cc / aa]]
    lam, nu = random_entry(rng), random_entry(rng)
    out.append(
        ScalingTensor.from_slices(
            [sing, [[lam * x for x in row] for row in sing], [[nu * x for x in row] for row in sing]]
        )
    )
    # IV,IV,IV: proportional nonsingular slices
    s = rs()
    out.append(
        ScalingTensor.from_slices(
            [s, [[lam * x for x in row] for row in s], [[nu * x for x in row] for row in s]]
        )
    )
    # two I plus IV_rows: generic slice plus a proportional pair
    out.append(ScalingTensor.from_slices([rs(), s, [[lam * x for x in row] for row in s]]))
    # two I plus IV_cols: generic slice plus a column-proportional pair
    d0, d1, e0, e1 = (random_entry(rng) for _ in range(4))
    out.append(
        ScalingTensor.from_slices(
            [rs(), [[d0, d1], [mu * d0, mu * d1]], [[e0, e1], [mu * e0, mu * e1]]]
        )
    )
    # three I with rank-2 flattening: third slice inside the pencil of the first two
    s0, s1 = rs(), rs()
    alpha, beta = random_entry(rng), random_entry(rng)
    s2 = [[alpha * s0[i][j] + beta * s1[i][j] for j in range(2)] for i in range(2)]
    if all(x != 0 for row in s2 for x in row):
        out.append(ScalingTensor.from_slices([s0, s1, s2]))
    # three I with rank-3 flattening: three quadrics through one torus point
    x_s = random_entry(rng)
    y_s = random_entry(rng)
    trio = []
    for _ in range(3):
        cand = through((x_s, y_s), rs())
        trio.append(cand)
    if all(x != 0 for sl in trio for row in sl for x in row):
        out.append(ScalingTensor.from_slices(trio))
    # generic: nonvanishing resultant, chi 0
    out.append(random_tensor(rng, 2, bound=15))
    return out


def test_criterion_6_closed_form_agreement():
    """criterion 6: chi closed forms agree with the gcd/rank procedure on 10^4 cases"""
    rng = random.Random(808)
    checked = 0
    seen_types = set()
    while checked < 10_000:
        for W in _pair_families(rng):
            from segreml.euler import classify_type

            seen_types.add(classify_type(W, 0, 1))
            assert chi_VI(W, (0, 1)) == chi_VI_closed_form(W, (0, 1))
            checked += 1
        for W in _triple_families(rng):
            assert chi_VI(W, (0, 1, 2)) == chi_VI_closed_form(W, (0, 1, 2))
            for pair in itertools.combinations(range(3), 2):
                assert chi_VI(W, pair) == chi_VI_closed_form(W, pair)
                checked += 1
            checked += 1
        W = random_rational_tensor(rng, rng.choice((2, 3)))
        ks = tuple(sorted(rng.sample(range(W.n + 1), 3)))
        assert chi_VI(W, ks) == chi_VI_closed_form(W, ks)
        checked += 1
    from segreml.euler import PairType

    assert seen_types == set(PairType)


def test_criterion_7_degree_bound_law():
    """criterion 7: ML degree hits (n+1)(n+2) exactly when no factor vanishes"""
    rng = random.Random(4004)
    for _ in range(1000):
        n = rng.choice((1, 2, 3))
        W = random_tensor(rng, n, bound=9)
        assert (mldeg_value(W) == degree_bound(n)) == vanishing_pattern(W).is_empty()
    # constructed degenerate witnesses sit strictly below the bound
    for stratum in enumerate_strata_n1():
        if stratum.chi < 6:
            W = witness_for_stratum(stratum, seed=3)
            assert mldeg_value(W) < degree_bound(1)
    for n in (1, 2):
        for r in range(1, degree_bound(n)):
            W = realize(n, r, seed=4)
            assert not vanishing_pattern(W).is_empty()


def test_criterion_8_symmetry_laws():
    """criterion 8: ML degree and relabeled patterns survive the model symmetries"""
    rng = random.Random(606)
    for _ in range(1000):
        n = rng.choice((1, 2))
        W = random_tensor(rng, n, bound=6)
        base_mldeg = mldeg_value(W)
        base_pattern = vanishing_pattern(W).factors

        scalars = lambda count: [Fraction(rng.choice([1, 2, 3, -1, -2, 5]), rng.choice([1, 2, 3])) for _ in range(count)]
        rescaled = W.torus_rescale(scalars(2), scalars(2), scalars(n + 1))
        assert mldeg_value(rescaled) == base_mldeg
        assert vanishing_pattern(rescaled).factors == base_pattern

        perm = list(range(n + 1))
        rng.shuffle(perm)
        permuted = W.permute_slices(perm)
        assert mldeg_value(permuted) == base_mldeg
        assert {map_factor(f, perm=perm) for f in vanishing_pattern(permuted).vanishing} == base_pattern

        swapped = W.swap_xy()
        assert mldeg_value(swapped) == base_mldeg
        assert {map_factor(f, swap=True) for f in vanishing_pattern(swapped).vanishing} == base_pattern

    # Degeneracy-biased and line-heavy tensors with n up to 6, rescaled by 100-digit scalars.
    rng = random.Random(808)
    tall = lambda count: [_tall_rational(rng, 100) for _ in range(count)]
    for i in range(300):
        n = 1 + i % 6
        W = (line_heavy_tensor if i % 2 else degenerate_tensor)(rng, n)
        base_mldeg = mldeg_value(W)
        perm = list(range(n + 1))
        rng.shuffle(perm)
        assert mldeg_value(W.torus_rescale(tall(2), tall(2), tall(n + 1))) == base_mldeg
        assert mldeg_value(W.permute_slices(perm)) == base_mldeg
        assert mldeg_value(W.swap_xy()) == base_mldeg
        assert mldeg_value(W.duplicate_last_slice()) == base_mldeg


def test_criterion_9_two_simplex_formula():
    """criterion 9: two-simplex rank-sum values 1,2,3,6,4 with oracle confirmation"""
    ones = RatMatrix.from_rows([[1, 1], [1, 1]])
    g22 = RatMatrix.from_rows([[1, 2], [3, 5]])
    g23 = RatMatrix.from_rows([[1, 2, 3], [5, 7, 11]])
    g33 = RatMatrix.from_rows([[1, 2, 3], [5, 7, 11], [13, 17, 23]])
    g24 = RatMatrix.from_rows([[1, 2, 3, 7], [5, 11, 13, 17]])
    assert mldeg_matrix(ones) == 1
    assert mldeg_matrix(g22) == 2
    assert mldeg_matrix(g23) == 3
    assert mldeg_matrix(g33) == 6
    assert mldeg_matrix(g24) == 4
    rng = random.Random(31)
    for M, expected in [(g22, 2), (g23, 3)]:
        for _ in range(2):
            u = [[rng.randint(1, 400) for _ in range(M.ncols)] for _ in range(M.nrows)]
            assert count_critical_points_matrix(M, u) == expected


def test_criterion_10_sign_patterns():
    """criterion 10: negative-H sign patterns are exactly the four realizable ones"""
    counts = sample_sign_patterns(100_000, 50, seed=2024)
    negative = {p for p in counts if p.endswith("-")}
    positive = {p for p in counts if p.endswith("+")}
    assert negative <= NEGATIVE_H_PATTERNS
    assert len(positive) >= 64
    found = find_negative_h_patterns(seed=77)
    assert set(found) == set(NEGATIVE_H_PATTERNS)
    # the full region count is reported, never asserted
    print(f"distinct sign patterns discovered: {len(counts)} (expected count per region analysis: 68)")
