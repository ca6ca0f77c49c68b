from __future__ import annotations

import ast
import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import segreml.oracle
from segreml.cli import main
from segreml.errors import DimensionMismatchError, NotZeroDimensionalError, UnstableCountError
from segreml.euler import degree_bound, mldeg_value
from segreml.exact import RatMatrix
from segreml.groebner import count_solutions, groebner_basis, is_prime, random_prime
from segreml.realize import realize
from segreml.strata import atlas
from segreml.tensor import ScalingTensor
from segreml.oracle import (
    CountResult,
    DataVector,
    _by_cell,
    _count_two_primes,
    _simplex_product_model,
    count_critical_points,
    oracle_mldeg,
    score_model,
    score_system,
)

from helpers import (
    COUNTEREXAMPLE_W,
    COUNTEREXAMPLE_W_PRIME,
    TWIN_CONJUGATES_W,
    all_ones,
    degenerate_tensor,
    full_score_system,
    line_heavy_tensor,
    random_tensor,
    torus_rescale,
)
from references import count_critical_points_matrix, matrix_score_system


def _total(u: DataVector) -> int:
    return sum(x for plane in u.u for row in plane for x in row)


def test_data_vector_validation():
    u = DataVector.from_entries([[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
    assert u.n == 1 and _total(u) == 36
    with pytest.raises(ValueError):
        DataVector.from_entries([[[0, 1], [1, 1]], [[1, 1], [1, 1]]])
    with pytest.raises(DimensionMismatchError):
        DataVector.from_entries([[[1, 1], [1, 1]]])
    assert DataVector.from_json_dict({"u": [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]}) == u


def test_score_system_structure():
    # all_ones(1): both slices are (1 + x)(1 + y), so the components are one
    # x-line and one y-line, each with exponent N = 8.  With unit data the
    # scores are U_v (1 + v) - 8 v = 4 - 4 v.
    unit = DataVector.from_entries([[[1, 1], [1, 1]], [[1, 1], [1, 1]]])
    system = score_system(all_ones(1), unit)
    assert system.nvars == 2  # x, y; z1 is eliminated
    assert system.components == (((((0, 0), 1), ((1, 0), 1)), 8), ((((0, 0), 1), ((0, 1), 1)), 8))
    assert [dict(score) for score in system.polys] == [{(0, 0): 4, (1, 0): -4}, {(0, 0): 4, (0, 1): -4}]
    assert system.nonzero == tuple(c for c, _ in system.components)  # h is the product of the components


def test_score_system_weights_per_coordinate():
    # all_ones(2) with data 1..12: U_x = 57 (the x = 1 cells), U_y = 48 (the
    # y = 1 cells), and both lines carry every slice, E = N = 78.
    u = DataVector.from_entries([[[1, 2, 3], [4, 5, 6]], [[7, 8, 9], [10, 11, 12]]])
    system = score_system(all_ones(2), u)
    assert [E for _, E in system.components] == [78, 78]
    assert [dict(score) for score in system.polys] == [{(0, 0): 57, (1, 0): 57 - 78}, {(0, 0): 48, (0, 1): 48 - 78}]


def test_score_system_shape_for_counterexample():
    # no slice of the counterexample is singular or proportional to another:
    # three curves, each carrying its own slice's data total
    u = DataVector.random(2, random.Random(0))
    system = score_system(COUNTEREXAMPLE_W, u)
    assert system.nvars == 2 and len(system.polys) == 2
    totals = [sum(u.u[i][j][k] for i in range(2) for j in range(2)) for k in range(3)]
    assert [E for _, E in system.components] == totals
    assert [len(c) for c, _ in system.components] == [4, 4, 4]
    with pytest.raises(DimensionMismatchError):
        score_system(COUNTEREXAMPLE_W, DataVector.random(1, random.Random(0)))


def _reduced_and_reference(W, u, prime):
    """The count on the two-variable system and on the n + 3-variable reference, over F_prime."""
    system = score_system(W, u)
    nvars, polys = full_score_system(W, u)
    (reduced,) = count_solutions([system.polys], system.nvars, (prime,), system.nonzero)
    (reference,) = count_solutions([polys], nvars, (prime,))
    return reduced, reference


def test_one_model_serves_every_trial():
    # a model applied to several data vectors in turn gives what a fresh
    # score_system gives for each: no trial leaks into the next
    rng = random.Random(23)
    tensors = []
    for n in (1, 2, 3):
        for _ in range(4):
            tensors += [
                realize(n, rng.randint(1, degree_bound(n)), seed=rng.randrange(1000)),
                degenerate_tensor(rng, n),
                line_heavy_tensor(rng, n),
            ]
    for W in tensors:
        system = score_model(W)
        for u in [DataVector.random(W.n, rng) for _ in range(3)]:
            assert system(u.u) == score_system(W, u)  # polys and components alike


def test_reduced_count_matches_the_full_system_and_the_engine():
    # realize outputs and degeneracy-biased tensors with generic data
    rng = random.Random(15)
    prime = random_prime(random.Random("primes"))
    cases = []
    for n, draws in ((1, 10), (2, 10), (3, 3)):
        for _ in range(draws):
            realized = realize(n, rng.randint(1, degree_bound(n)), seed=rng.randrange(1000))
            for W in (realized, degenerate_tensor(rng, n)):
                cases.append((W, DataVector.random(n, rng)))
    # line-heavy tensors: lines recur across slices and crossings carry three
    # or more components, where the oracle's own rank-one split and the
    # engine's line forms could disagree
    rng = random.Random(17)
    for n, draws in ((1, 20), (2, 20), (3, 6)):
        for _ in range(draws):
            W = line_heavy_tensor(rng, n)
            cases.append((W, DataVector.random(n, rng)))
    for W, u in cases:
        reduced, reference = _reduced_and_reference(W, u, prime)
        assert reduced == reference == mldeg_value(W), W


def test_merged_components():
    rng = random.Random(16)
    prime = random_prime(random.Random("primes"))

    # all_ones(n): every slice is (1 + x)(1 + y), one x-line and one y-line
    # that carry all the data, and one critical point
    for n in (1, 2, 3):
        u = DataVector.random(n, rng)
        lines = {(((0, 0), 1), ((1, 0), 1)): _total(u), (((0, 0), 1), ((0, 1), 1)): _total(u)}
        assert dict(score_system(all_ones(n), u).components) == lines
        assert _reduced_and_reference(all_ones(n), u, prime) == (1, 1)
    # proportional slices of one curve merge into it
    W = ScalingTensor.from_slices([[[1, 2], [3, 5]], [[2, 4], [6, 10]], [[-3, -6], [-9, -15]]])
    u = DataVector.random(2, rng)
    assert dict(score_system(W, u).components) == {(((0, 0), 1), ((0, 1), 2), ((1, 0), 3), ((1, 1), 5)): _total(u)}
    assert _reduced_and_reference(W, u, prime) == (mldeg_value(W),) * 2
    # (1 + 2x)(1 + 3y) and 2 (1 + 2x)(1 - y) share the x-line 1 + 2x, beside a curve
    W = ScalingTensor.from_slices([[[1, 3], [2, 6]], [[2, -2], [4, -4]], [[1, 1], [1, 2]]])
    u = DataVector.random(2, rng)
    U = [sum(u.u[i][j][k] for i in range(2) for j in range(2)) for k in range(3)]
    system = score_system(W, u)
    assert dict(system.components) == {
        (((0, 0), 1), ((1, 0), 2)): U[0] + U[1],
        (((0, 0), 1), ((0, 1), 3)): U[0],
        (((0, 0), 1), ((0, 1), -1)): U[1],
        (((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), 2)): U[2],
    }
    assert _reduced_and_reference(W, u, prime) == (mldeg_value(W),) * 2
    # the paper's counterexample pair: one vanishing pattern, ML degrees 8 and 9
    u = DataVector.random(2, rng)
    assert count_critical_points(COUNTEREXAMPLE_W, u) == 8
    assert count_critical_points(COUNTEREXAMPLE_W_PRIME, u) == 9


def test_h_needs_no_coordinate_factor():
    # At v = 0 the score F_v is U_v P_v, so a solution with x = 0 or y = 0
    # lies on a component that holds v, and h = prod l_c already saturates
    # it away: adding x y as a factor of h changes no count.  The count off
    # the axes alone falls below the plain count on enough of the systems
    # to show that solutions on an axis occur.
    prime = 2**61 - 1
    rng = random.Random(26)
    tensors = [W for seed in range(3) for _, W in atlas(seed=seed)]
    for n, draws in ((1, 40), (2, 40), (3, 20)):
        for _ in range(draws):
            tensors += [degenerate_tensor(rng, n), line_heavy_tensor(rng, n)]
            if n < 3:
                tensors.append(realize(n, rng.randint(1, degree_bound(n)), seed=rng.randrange(1000)))
    assert len(tensors) >= 400
    on_axis = 0
    for W in tensors:
        system = score_system(W, DataVector.random(W.n, rng))
        count = lambda factors: count_solutions([system.polys], system.nvars, (prime,), factors)
        xy = (((1,) * system.nvars, 1),)
        assert count(system.nonzero) == count((xy, *system.nonzero)), W.to_json_dict()
        on_axis += count([(((1, 0), 1),), (((0, 1), 1),)]) < count(())
    assert on_axis >= 100, on_axis


def test_drawn_primes_count_as_a_61_bit_prime():
    # Unlucky primes at the oracle's size: each seeded system at n = 1..3,
    # some torus-rescaled by 30-digit rationals, counts the same under five
    # drawn 30-bit primes as under 2^61 - 1.
    rng = random.Random(27)
    primes = random.Random("primes 27")
    tall = lambda count: [Fraction(rng.randrange(10**29, 10**30), rng.randrange(10**29, 10**30)) for _ in range(count)]
    tensors = []
    for n, draws in ((1, 24), (2, 16), (3, 4)):
        for i in range(draws):
            realized = realize(n, rng.randint(1, degree_bound(n)), seed=rng.randrange(1000))
            tensors += [realized, degenerate_tensor(rng, n), line_heavy_tensor(rng, n)]
            if i < 2:
                tensors.append(torus_rescale(realized, tall(2), tall(2), tall(n + 1)))
    for W in tensors:
        system = score_system(W, DataVector.random(W.n, rng))
        expected = count_solutions([system.polys], system.nvars, (2**61 - 1,), system.nonzero)
        for _ in range(5):
            prime = random_prime(primes)
            assert prime < 2**30 and count_solutions([system.polys], system.nvars, (prime,), system.nonzero) == expected, (
                W.to_json_dict(),
                prime,
            )


def test_oracle_shares_no_code_with_the_engine():
    # the count is independent evidence for the ML degree only while the
    # oracle finds its components itself
    engine = {"euler", "factors", "realize", "strata"}
    tree = ast.parse(inspect.getsource(segreml.oracle))
    modules = {node.module.rpartition(".")[2] for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name.rpartition(".")[2] for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert modules and not modules & engine
    # and at run time: a fresh interpreter that imports the oracle loads no engine module
    src = Path(segreml.oracle.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, segreml.oracle; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "segreml.oracle" in loaded and not loaded & {f"segreml.{m}" for m in engine}, sorted(loaded)


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
    # two conjugate pairs over one t-polynomial, told apart by the curve
    # arrangement's point key alone; this count shares no code with that key,
    # and the arrangement must reach it
    result = oracle_mldeg(TWIN_CONJUGATES_W, 2, 0)
    assert result.count == 18 and result.stable
    assert mldeg_value(TWIN_CONJUGATES_W) == result.count


def test_oracle_output_is_pinned(tmp_path, capsys):
    # sha256 of `segreml oracle t.json --trials 2 --seed 9` stdout, t.json holding realize(2, 8, seed=0)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(realize(2, 8, seed=0).to_json_dict()))
    assert main(["oracle", str(path), "--trials", "2", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "3e80c2a72f4a5dbb0d8ddeefdddb23e163d9c83d2b8b54c935c054e59596e6a1"


def test_oracle_matches_engine_on_random_n1():
    rng = random.Random(20)
    for _ in range(5):
        W = random_tensor(rng, 1, bound=8)
        result = oracle_mldeg(W, trials=2, seed=rng.randrange(2**20))
        assert result.stable and result.count == mldeg_value(W)


def test_oracle_scope_limit():
    with pytest.raises(DimensionMismatchError):
        count_critical_points(random_tensor(random.Random(0), 5), DataVector.random(5, random.Random(0)))
    with pytest.raises(DimensionMismatchError):
        oracle_mldeg(random_tensor(random.Random(0), 5))
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


def test_oracle_reaches_n4():
    # n = ORACLE_MAX_N: up to (n + 1)(n + 2) = 30 critical points
    start = time.perf_counter()
    for r in (3, 16, 30):
        W = realize(4, r, seed=2)
        result = oracle_mldeg(W, trials=2, seed=r)
        assert result.stable and result.count == mldeg_value(W) == r
    assert time.perf_counter() - start < 20.0


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
    # The leading coefficient of F_v is (U_v - N) times the product of the
    # components' xy coefficients.  For the first trial of COUNTEREXAMPLE_W,
    # 59 divides N - U_x and 239 divides N - U_y; over F_59 the system has 5
    # solutions off h = 0 where Q has 8, and over F_239 it has 3.
    u = _first_trial_data()
    system = score_system(COUNTEREXAMPLE_W, u)
    leads = [max(poly, key=lambda t: (sum(t[0]), tuple(-e for e in reversed(t[0]))))[1] for poly in system.polys]
    assert leads[0] % 59 == 0 and leads[1] % 239 == 0
    assert (_total(u) - sum(map(sum, u.u[1]))) % 59 == 0 and (_total(u) - sum(u.u[i][1][k] for i in range(2) for k in range(3))) % 239 == 0
    assert count_solutions([system.polys], system.nvars, (59,), system.nonzero) == (5,)
    assert count_solutions([system.polys], system.nvars, (239,), system.nonzero) == (3,)
    honest = oracle_mldeg(COUNTEREXAMPLE_W, trials=2, seed=1)
    assert honest.stable and honest.count == 8

    # one unlucky first prime: the disagreement makes both trials count again
    drawn = _unlucky_drawer(monkeypatch, {0: 59})
    result = oracle_mldeg(COUNTEREXAMPLE_W, trials=2, seed=1)
    assert len(drawn) == 4
    assert result == honest

    # three trials share one score model through the recount
    monkeypatch.undo()
    drawn = _unlucky_drawer(monkeypatch, {0: 59})
    result = oracle_mldeg(COUNTEREXAMPLE_W, trials=3, seed=1)
    assert len(drawn) == 6
    assert result == CountResult(8, True, ((3280387012, 8), (1095513148, 8), (1930549411, 8)))

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


def test_a_pair_that_draws_one_prime_twice_counts_each_trial(monkeypatch):
    # The two trials of a pair are counted by one count_solutions call on
    # their own systems; when both draw one prime, it counts each alone.
    honest = oracle_mldeg(COUNTEREXAMPLE_W, trials=2, seed=1)
    prime = random_prime(random.Random("primes"))
    drawn = _unlucky_drawer(monkeypatch, {0: prime, 1: prime})
    calls = []

    def spy(systems, nvars, primes, nonzero=()):
        calls.append((systems, tuple(primes)))
        return count_solutions(systems, nvars, primes, nonzero)

    monkeypatch.setattr(segreml.oracle, "count_solutions", spy)
    assert oracle_mldeg(COUNTEREXAMPLE_W, trials=2, seed=1) == honest
    assert len(drawn) == 2 and len(calls) == 1
    (first, second), primes = calls[0]
    assert primes == (prime, prime) and first != second

    # one generator list per prime
    system = score_system(COUNTEREXAMPLE_W, _first_trial_data())
    for systems, primes in (([system.polys], (prime, prime)), ([system.polys] * 2, (prime,))):
        with pytest.raises(ValueError, match="systems for"):
            count_solutions(systems, system.nvars, primes, system.nonzero)


def test_joint_counts_equal_separate_counts(tmp_path, capsys):
    # count_solutions under a pair of primes counts each prime's system
    # once, mod their product, and must read what each prime counted alone
    # reads.  Primes from 101..2000 are often unlucky, so the pairs whose
    # counts differ reach both fallbacks: bases whose leads differ, and
    # bases with the same leads, which the joint elimination can only tell
    # apart at a pivot that is zero mod one prime and not the other.
    rng = random.Random(11)
    small = [q for q in range(101, 2000) if is_prime(q)]
    tensors = [W for _, W in atlas(seed=11)]
    for n in (1, 2, 3):
        tensors += [degenerate_tensor(rng, n), line_heavy_tensor(rng, n)]
        tensors.append(realize(n, rng.randint(1, degree_bound(n)), seed=rng.randrange(1000)))
    pairs = split = apart = 0
    for W in tensors:
        system = score_system(W, DataVector.random(W.n, rng))
        leads = lambda p: [g[0][0] for g in groebner_basis(system.polys, p)]
        alone = {}
        for p in rng.sample(small, 12):
            try:
                (alone[p],) = count_solutions([system.polys], system.nvars, (p,), system.nonzero)
            except NotZeroDimensionalError:
                continue
        primes = list(alone)
        for pair in zip(primes, primes[1:] + primes[:1]):  # each prime in two pairs
            counts = tuple(map(alone.get, pair))
            assert count_solutions([system.polys] * 2, system.nvars, pair, system.nonzero) == counts, (W.to_json_dict(), pair)
            pairs += 1
            if counts[0] != counts[1]:
                same_leads = leads(pair[0]) == leads(pair[1])
                split += same_leads
                apart += not same_leads
    assert pairs >= 500 and split >= 5 and apart >= 5, (pairs, split, apart)

    # the witness of test_unlucky_prime_is_recounted, counted jointly and
    # with a prime repeated
    system = score_system(COUNTEREXAMPLE_W, _first_trial_data())
    assert count_solutions([system.polys] * 2, system.nvars, (59, 239), system.nonzero) == (5, 3)
    assert count_solutions([system.polys] * 3, system.nvars, (59, 239, 59), system.nonzero) == (5, 3, 5)
    prime = random_prime(random.Random("primes"))
    assert count_solutions([system.polys] * 2, system.nvars, (prime, prime), system.nonzero) == (8, 8)
    # over F_71 its reduced basis has the leads it has over F_101, but it
    # has 7 solutions off h = 0, not 8
    assert [g[0][0] for g in groebner_basis(system.polys, 71)] == [g[0][0] for g in groebner_basis(system.polys, 101)]
    assert count_solutions([system.polys] * 2, system.nvars, (71, 101), system.nonzero) == (7, 8)

    # three trials: one pair counted jointly and one trial alone, each
    # under the first prime of its own stream
    for W in (COUNTEREXAMPLE_W, realize(2, 5, seed=4), realize(1, 3, seed=2)):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(W.to_json_dict()))
        assert main(["oracle", str(path), "--trials", "3", "--seed", "5"]) == 0
        trials = json.loads(capsys.readouterr().out)["trials"]
        expected = []
        for seed, _ in trials:
            system = score_system(W, DataVector.random(W.n, random.Random(seed)))
            prime = random_prime(random.Random(f"primes {seed}"))
            expected += [[seed, *count_solutions([system.polys], system.nvars, (prime,), system.nonzero)]]
        assert trials == expected


def test_matrix_oracle():
    rng = random.Random(14)
    M = RatMatrix.from_rows([[1, 1], [1, 1]])
    u = [[rng.randint(1, 60) for _ in range(2)] for _ in range(2)]
    assert count_critical_points_matrix(M, u) == 1
    assert matrix_score_system(M, u).nvars == 1  # x1; y1 is eliminated
    tall = RatMatrix.from_rows([[1, 2], [3, 5], [7, 11], [13, 19]])
    assert matrix_score_system(tall, [[1, 2]] * 4).nvars == 1  # the four rows are eliminated
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
    # Eliminating the columns of an all-ones 2 x 3 matrix leaves one
    # component, the column hyperplane 1 + x1, carrying every column's data
    # (E = N = 21); the row-1 weight is 15, so the score is 15 (1 + x1) - 21 x1.
    M = RatMatrix.from_rows([[1, 1, 1], [1, 1, 1]])
    system = matrix_score_system(M, [[1, 2, 3], [4, 5, 6]])
    assert system.nvars == 1 and system.components == (((((0,), 1), ((1,), 1)), 21),)
    assert [dict(score) for score in system.polys] == [{(0,): 15, (1,): -6}]
    # proportional columns 0 and 2 give one hyperplane, carrying both column
    # totals; column 1 is another
    system = matrix_score_system(RatMatrix.from_rows([[1, 2, 2], [3, 5, 6]]), [[1, 2, 3], [4, 5, 6]])
    assert [E for _, E in system.components] == [5 + 9, 7]
    with pytest.raises(ValueError):
        matrix_score_system(RatMatrix.from_rows([[1, 0], [3, 5]]), [[1, 2], [3, 4]])


def test_matrix_oracle_matches_rank_formula_up_to_3x3():
    from segreml.euler import mldeg_matrix

    rng = random.Random(8)
    cases = [
        RatMatrix.from_rows([[1, 1], [1, 1]]),  # rank one: 1
        RatMatrix.from_rows([[1, 2], [3, 5]]),  # generic 2x2: 2
        RatMatrix.from_rows([[1, 2, 3], [5, 7, 11]]),  # generic 2x3: 3
        RatMatrix.from_rows([[1, 2, 3], [5, 7, 11], [13, 17, 23]]),  # generic 3x3: 6
        # taller than wide: counted as the transpose, since eliminating the
        # two columns would leave three scores that all vanish on a line
        RatMatrix.from_rows([[1, 2], [3, 5], [7, 11], [13, 19]]),  # generic 4x2: 4
        RatMatrix.from_rows([[1], [2], [3], [5]]),  # 4x1: 1
    ]
    for M in cases:
        u = [[rng.randint(1, 200) for _ in range(M.ncols)] for _ in range(M.nrows)]
        assert count_critical_points_matrix(M, u) == mldeg_matrix(M)


@pytest.mark.skipif(not os.environ.get("SEGREML_EXHAUSTIVE"), reason="~3 s at n = 5, 6; set SEGREML_EXHAUSTIVE=1")
def test_exhaustive_oracle_beyond_its_cap():
    # The oracle past ORACLE_MAX_N: each model is built directly, since
    # score_model refuses n > 4, and counted under two primes.
    rng = random.Random(56)
    for n in (5, 6):
        dims = (1, 1, n)
        for _ in range(5):
            realized = realize(n, rng.randint(1, degree_bound(n)), seed=rng.randrange(1000))
            for W in (realized, degenerate_tensor(rng, n), line_heavy_tensor(rng, n)):
                system = _simplex_product_model(dims, _by_cell(W.w, dims))(DataVector.random(n, rng).u)
                assert _count_two_primes(system) == mldeg_value(W), W.to_json_dict()
