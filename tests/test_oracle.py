from __future__ import annotations

import random
import time

import pytest

import segreml.oracle
from segreml.errors import DimensionMismatchError, UnstableCountError
from segreml.euler import mldeg_value
from segreml.exact import RatMatrix
from segreml.groebner import count_solutions
from segreml.realize import realize
from segreml.oracle import (
    DataVector,
    count_critical_points,
    count_critical_points_matrix,
    matrix_score_system,
    oracle_mldeg,
    score_system,
)

from helpers import COUNTEREXAMPLE_W, all_ones, random_tensor


def test_data_vector_validation():
    u = DataVector.from_entries([[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
    assert u.n == 1 and u.total == 36
    with pytest.raises(ValueError):
        DataVector.from_entries([[[0, 1], [1, 1]], [[1, 1], [1, 1]]])
    with pytest.raises(DimensionMismatchError):
        DataVector.from_entries([[[1, 1], [1, 1]]])
    assert DataVector.from_json_dict(u.to_json_dict()) == u


def test_score_system_structure():
    unit = DataVector.from_entries([[[1, 1], [1, 1]], [[1, 1], [1, 1]]])
    system = score_system(all_ones(1), unit)
    assert system.nvars == 4  # x, y, z1, s
    assert len(system.polys) == 4  # two P1 scores, one z score, saturation
    # Each score of the all-ones tensor with unit data is 4 f - 8 v f_v:
    # coefficient 4 on v-degree-0 monomials, -4 on v-degree-1 monomials.
    for var, score in enumerate(system.polys[:-1]):
        assert len(score) == 8
        for mono, coeff in score:
            assert coeff == (4 if mono[var] == 0 else -4)
    # saturation equation: s*x*y*z1*f - 1
    sat = dict(system.polys[-1])
    assert sat[(0, 0, 0, 0)] == -1
    assert all(mono == (0, 0, 0, 0) or min(mono) >= 1 for mono in sat)


def test_score_system_weights_per_coordinate():
    # Cell (i, j, k) of f is x^i y^j z_k; variables x, y, z1, z2, s.  The score
    # of v has coefficient weight_v - total * deg_v on each cell's monomial.
    u = DataVector.from_entries([[[1, 2, 3], [4, 5, 6]], [[7, 8, 9], [10, 11, 12]]])
    system = score_system(all_ones(2), u)
    assert system.nvars == 5 and len(system.polys) == 5
    monos = [(i, j, int(k == 1), int(k == 2), 0) for i in range(2) for j in range(2) for k in range(3)]
    weights = [57, 48, 26, 30]  # x = 1 cells, y = 1 cells, the z1 and z2 slices; total 78
    for var, weight in enumerate(weights):
        assert dict(system.polys[var]) == {mono: weight - 78 * mono[var] for mono in monos}
    sat = {tuple(e + 1 for e in mono): 1 for mono in monos}
    assert dict(system.polys[-1]) == {**sat, (0, 0, 0, 0, 0): -1}


def test_score_system_shape_for_counterexample():
    u = DataVector.random(2, random.Random(0))
    system = score_system(COUNTEREXAMPLE_W, u)
    assert system.nvars == 5
    assert len(system.polys) == 5
    with pytest.raises(DimensionMismatchError):
        score_system(COUNTEREXAMPLE_W, DataVector.random(1, random.Random(0)))


def test_all_ones_has_one_critical_point():
    unit = DataVector.from_entries([[[1, 1], [1, 1]], [[1, 1], [1, 1]]])
    assert count_critical_points(all_ones(1), unit) == 1
    generic = DataVector.random(1, random.Random(3))
    assert count_critical_points(all_ones(1), generic) == 1


def test_oracle_examples():
    assert oracle_mldeg(COUNTEREXAMPLE_W, trials=2, seed=1).count == 8
    result = oracle_mldeg(all_ones(2), trials=3, seed=2)
    assert result.count == 1 and result.stable
    assert len(result.trials) == 3


def test_oracle_matches_engine_on_random_n1():
    rng = random.Random(20)
    for _ in range(5):
        W = random_tensor(rng, 1, bound=8)
        result = oracle_mldeg(W, trials=2, seed=rng.randrange(2**20))
        assert result.stable and result.count == mldeg_value(W)


def test_oracle_scope_limit():
    with pytest.raises(DimensionMismatchError):
        count_critical_points(random_tensor(random.Random(0), 4), DataVector.random(4, random.Random(0)))
    with pytest.raises(DimensionMismatchError):
        oracle_mldeg(random_tensor(random.Random(0), 4))
    with pytest.raises(ValueError):
        oracle_mldeg(all_ones(1), trials=1)


def test_oracle_reaches_n3():
    # the F_p oracle agrees with the curve arrangement on P1 x P1 x P3 samples
    start = time.perf_counter()
    for r in (1, 4, 9, 14, 20):
        W = realize(3, r, seed=1)
        result = oracle_mldeg(W, trials=2, seed=r)
        assert result.stable and result.count == mldeg_value(W) == r
    assert time.perf_counter() - start < 30.0


def _unlucky_drawer(monkeypatch, small_primes):
    """Make the k-th prime drawn by the oracle small_primes[k] where given; returns the draw log."""
    drawn = []
    honest = segreml.oracle.random_prime

    def drawer(rng):
        drawn.append(len(drawn))
        return small_primes.get(len(drawn) - 1) or honest(rng)

    monkeypatch.setattr(segreml.oracle, "random_prime", drawer)
    return drawn


def _first_trial_data():
    # the first data trial of oracle_mldeg(..., seed=1)
    return DataVector.random(2, random.Random(random.Random(1).randrange(2**32)))


def test_unlucky_prime_is_recounted(monkeypatch):
    # 59 divides the leading coefficient of the first score of the first
    # trial's system for COUNTEREXAMPLE_W, and over F_59 that system has 5
    # solutions where Q has 8; 239 divides the second score's and gives 3.
    system = score_system(COUNTEREXAMPLE_W, _first_trial_data())
    leads = [max(poly, key=lambda t: (sum(t[0]), tuple(-e for e in reversed(t[0]))))[1] for poly in system.polys]
    assert leads[0] % 59 == 0 and leads[1] % 239 == 0
    assert count_solutions(system.polys, system.nvars, 59) == 5
    assert count_solutions(system.polys, system.nvars, 239) == 3
    honest = oracle_mldeg(COUNTEREXAMPLE_W, trials=2, seed=1)
    assert honest.stable and honest.count == 8

    # one unlucky first prime: the disagreement makes both trials count again
    drawn = _unlucky_drawer(monkeypatch, {0: 59})
    result = oracle_mldeg(COUNTEREXAMPLE_W, trials=2, seed=1)
    assert len(drawn) == 4
    assert result == honest

    # unlucky again in the recount: reported unstable, never a wrong stable count
    monkeypatch.undo()
    _unlucky_drawer(monkeypatch, {0: 59, 2: 239})
    result = oracle_mldeg(COUNTEREXAMPLE_W, trials=2, seed=1)
    assert not result.stable and sorted(c for _, c in result.trials) == [3, 8]

    # fixed data is counted under two primes, which must agree
    monkeypatch.undo()
    assert count_critical_points(COUNTEREXAMPLE_W, _first_trial_data()) == 8
    _unlucky_drawer(monkeypatch, {0: 59})
    with pytest.raises(UnstableCountError):
        count_critical_points(COUNTEREXAMPLE_W, _first_trial_data())


def test_matrix_oracle():
    rng = random.Random(14)
    M = RatMatrix.from_rows([[1, 1], [1, 1]])
    u = [[rng.randint(1, 60) for _ in range(2)] for _ in range(2)]
    assert count_critical_points_matrix(M, u) == 1
    assert matrix_score_system(M, u).nvars == 3  # x1, y1, s
    with pytest.raises(DimensionMismatchError):
        count_critical_points_matrix(RatMatrix.from_rows([[1] * 4, [1] * 4, [1] * 4]), [[1] * 4] * 3)
    with pytest.raises(DimensionMismatchError):
        matrix_score_system(M, [[1, 1, 1], [1, 1, 1]])
    with pytest.raises(ValueError):
        count_critical_points_matrix(M, [[1, 0], [1, 1]])


def test_matrix_data_must_be_positive_integers():
    # the same entry check as DataVector: 1.7 is not truncated, True and "5" are not counts
    M = RatMatrix.from_rows([[1, 2], [3, 5]])
    for bad in (1.7, True, "5"):
        with pytest.raises(TypeError):
            count_critical_points_matrix(M, [[bad, 2], [3, 4]])


def test_matrix_score_weights_per_row_and_column():
    # Cell (a, b) of g is x_a y_b (x_0 = y_0 = 1); variables x1, y1, y2, s.  The
    # row score has weight = row sum, each column score weight = column sum.
    M = RatMatrix.from_rows([[1, 1, 1], [1, 1, 1]])
    system = matrix_score_system(M, [[1, 2, 3], [4, 5, 6]])
    assert system.nvars == 4 and len(system.polys) == 4
    monos = [(a, int(b == 1), int(b == 2), 0) for a in range(2) for b in range(3)]
    weights = [15, 7, 9]  # row 1, column 1, column 2; total 21
    for var, weight in enumerate(weights):
        assert dict(system.polys[var]) == {mono: weight - 21 * mono[var] for mono in monos}
    sat = {tuple(e + 1 for e in mono): 1 for mono in monos}
    assert dict(system.polys[-1]) == {**sat, (0, 0, 0, 0): -1}


def test_matrix_oracle_matches_rank_formula_up_to_3x3():
    from segreml.euler import mldeg_matrix

    rng = random.Random(8)
    cases = [
        RatMatrix.from_rows([[1, 1], [1, 1]]),  # rank one: 1
        RatMatrix.from_rows([[1, 2], [3, 5]]),  # generic 2x2: 2
        RatMatrix.from_rows([[1, 2, 3], [5, 7, 11]]),  # generic 2x3: 3
        RatMatrix.from_rows([[1, 2, 3], [5, 7, 11], [13, 17, 23]]),  # generic 3x3: 6
    ]
    for M in cases:
        u = [[rng.randint(1, 200) for _ in range(M.ncols)] for _ in range(M.nrows)]
        assert count_critical_points_matrix(M, u) == mldeg_matrix(M)
