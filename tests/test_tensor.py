from __future__ import annotations

import random
from fractions import Fraction

import pytest

from segreml.errors import DimensionMismatchError, ZeroEntryError
from segreml.euler import mldeg
from segreml.exact import rank
from segreml.factors import eval_minor, face_minor_x, face_minor_y, vanishing_pattern
from segreml.realize import realize
from segreml.tensor import ScalingTensor

from helpers import (
    COUNTEREXAMPLE_W,
    all_ones,
    degenerate_tensor,
    duplicate_last_slice,
    permute_slices,
    random_tensor,
    swap_xy,
    torus_rescale,
)
from references import flattening


def test_make_tensor_validates():
    assert all_ones(1).n == 1
    assert COUNTEREXAMPLE_W.n == 2
    with pytest.raises(ZeroEntryError) as err:
        ScalingTensor.from_entries(1, [[[0, 1], [1, 1]], [[1, 1], [1, 1]]])
    assert err.value.index == (0, 0, 0)
    with pytest.raises(DimensionMismatchError):
        ScalingTensor.from_entries(2, [[[1, 1], [1, 1]], [[1, 1], [1, 1]]])
    with pytest.raises(DimensionMismatchError):
        ScalingTensor.from_entries(0, [[[1], [1]], [[1], [1]]])


def test_from_entries_refuses_extra_entries():
    # A longer row or a third plane is refused, not truncated to [2][2][n+1].
    with pytest.raises(DimensionMismatchError):
        ScalingTensor.from_entries(1, [[[1, 1, 1], [1, 1]], [[1, 1], [1, 1]]])
    with pytest.raises(DimensionMismatchError):
        ScalingTensor.from_entries(1, [[[1, 1], [1, 1]], [[1, 1], [1, 1]], [[1, 1], [1, 1]]])
    with pytest.raises(DimensionMismatchError):
        ScalingTensor.from_entries(1, [[[1, 1], [1, 1], [1, 1]], [[1, 1], [1, 1]]])


def test_slice_and_face_views():
    W = COUNTEREXAMPLE_W
    assert [[W.w[i][j][0] for j in range(2)] for i in range(2)] == [[1, 3], [2, 4]]


def test_flattening_mode3():
    flat = flattening(COUNTEREXAMPLE_W, (0, 1, 2))
    assert [list(r) for r in flat.entries] == [
        [1, 3, 2, 4],
        [2, 1, 4, 6],
        [3, 4, 6, 10],
    ]
    assert rank(flat) == 2


def test_index_conventions_vs_prose_labels():
    # The face submatrix definitions pin down which minors vanish on the
    # counterexample tensor: the three y-side minors do, the x-side ones
    # do not (the 0-side x minor evaluates to -5).
    W = COUNTEREXAMPLE_W
    assert eval_minor(W, face_minor_x(0, 0, 1)) == -5
    for pair in [(0, 1), (0, 2), (1, 2)]:
        assert eval_minor(W, face_minor_y(0, *pair)) == 0


def test_torus_rescale():
    W = torus_rescale(all_ones(1), (1, 2), (1, 3), (1, 5))
    assert W.w[1][1][1] == 30
    assert all(W.w[i][j][k] != 0 for i in range(2) for j in range(2) for k in range(2))
    with pytest.raises(ValueError):
        torus_rescale(all_ones(1), (0, 1), (1, 1), (1, 1))
    with pytest.raises(DimensionMismatchError):
        torus_rescale(all_ones(1), (1, 1), (1, 1), (1, 1, 1))


def test_permute_and_swap():
    W = COUNTEREXAMPLE_W
    perm = [1, 0, 2]
    P = permute_slices(W, perm)
    assert all(P.w[i][j][k] == W.w[i][j][perm[k]] for i in range(2) for j in range(2) for k in range(3))
    S = swap_xy(W)
    assert all(
        S.w[i][j][k] == W.w[j][i][k] for i in range(2) for j in range(2) for k in range(3)
    )
    with pytest.raises(ValueError):
        permute_slices(W, [0, 0, 1])


def test_duplicate_last_slice():
    W = duplicate_last_slice(COUNTEREXAMPLE_W)
    assert W.n == 3
    assert all(W.w[i][j][3] == COUNTEREXAMPLE_W.w[i][j][2] for i in range(2) for j in range(2))


def test_json_round_trip():
    rng = random.Random(0)
    for n in (1, 2, 3):
        W = random_tensor(rng, n)
        again = ScalingTensor.from_json_dict(W.to_json_dict())
        assert again == W
    halves = ScalingTensor.from_entries(1, [[[Fraction(1, 2), 1], [1, 1]], [[1, 1], [1, Fraction(-3, 7)]]])
    data = halves.to_json_dict()
    assert data["w"][0][0][0] == "1/2" and data["w"][1][1][1] == "-3/7"
    assert ScalingTensor.from_json_dict(data) == halves
    with pytest.raises(DimensionMismatchError):
        ScalingTensor.from_json_dict({"n": 1, "w": [[["1", "x"], ["1", "1"]], [["1", "1"], ["1", "1"]]]})


def test_memo_takes_no_part_in_identity():
    rng = random.Random(4)
    tensors = [realize(3, 13), duplicate_last_slice(COUNTEREXAMPLE_W)]
    tensors += [degenerate_tensor(rng, 3) for _ in range(10)]
    for W in tensors:
        fresh = ScalingTensor.from_json_dict(W.to_json_dict())
        expected = (repr(fresh), hash(fresh), fresh.to_json_dict())
        before = vanishing_pattern(ScalingTensor.from_json_dict(W.to_json_dict()))
        mldeg(W)
        assert W._memo and not fresh._memo
        assert W == fresh and (repr(W), hash(W), W.to_json_dict()) == expected
        # the pattern read through a filled memo equals the one from an empty memo
        assert vanishing_pattern(W) == before
        derived = [
            torus_rescale(W, (2, 3), (5, 7), range(1, W.n + 2)),
            permute_slices(W, list(reversed(range(W.n + 1)))),
            swap_xy(W),
            duplicate_last_slice(W),
            ScalingTensor.from_json_dict(W.to_json_dict()),
        ]
        assert all(not V._memo for V in derived)
