from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from segreml import cli
from segreml.errors import GenerationFailedError
from segreml.euler import degree_bound, mldeg_value
from segreml.factors import face_minor_y, hyp222, slice_minor, vanishing_pattern
from segreml.oracle import oracle_mldeg
from segreml.realize import _RETRY_BUDGET, alt_hooks, first_witness, generic_solution, hook_constraint_universe, realize


def test_alt_hooks_shape():
    assert [f.name for f in alt_hooks(1)] == ["F[*0(0,1)]", "F[1*(0,1)]"]
    assert [f.name for f in alt_hooks(2)] == [
        "F[*0(0,1)]",
        "F[1*(0,1)]",
        "F[0*(1,2)]",
        "F[*1(1,2)]",
    ]
    for n in (1, 2, 3, 4, 6):
        hooks = alt_hooks(n)
        assert len(hooks) == 2 * n
        assert len(set(hooks)) == 2 * n
    with pytest.raises(ValueError):
        alt_hooks(0)


def test_generic_solution_exact_patterns():
    # exhaustively for n = 1 and n = 2: pattern == S and the hook law holds
    for n in (1, 2):
        universe = hook_constraint_universe(n)
        for size in range(len(universe) + 1):
            for S in itertools.combinations(universe, size):
                W = generic_solution(S, n, seed=11)
                assert vanishing_pattern(W).factors == frozenset(S)
                assert mldeg_value(W) == degree_bound(n) - len(S)


def test_generic_solution_random_n3():
    rng = random.Random(77)
    universe = hook_constraint_universe(3)
    for _ in range(200):
        S = [f for f in universe if rng.random() < 0.5]
        W = generic_solution(S, 3, seed=rng.randrange(2**30))
        assert vanishing_pattern(W).factors == frozenset(S)
        assert mldeg_value(W) == degree_bound(3) - len(S)


def test_generic_solution_rejects_foreign_constraints():
    with pytest.raises(ValueError):
        generic_solution([face_minor_y(1, 0, 1)], 1)  # not in altH(1) + {F[**1]}
    with pytest.raises(ValueError):
        generic_solution([slice_minor(0)], 2)


def test_realize_full_range():
    for n in (1, 2, 3):
        for r in range(1, degree_bound(n) + 1):
            assert mldeg_value(realize(n, r, seed=2)) == r
    with pytest.raises(ValueError):
        realize(1, 0)
    with pytest.raises(ValueError):
        realize(2, 13)


def test_realize_special_cases():
    top = realize(2, 12, seed=0)
    assert vanishing_pattern(top).is_empty()
    low = realize(2, 1, seed=0)
    assert low.n == 2 and mldeg_value(low) == 1
    frame = realize(1, 2, seed=0)
    assert len(vanishing_pattern(frame)) == 5
    full = realize(1, 1, seed=0)
    assert len(vanishing_pattern(full)) == 7


def test_realize_pads_large_n_without_recursion():
    # the tensor is built at n = 1 (r = 1) or n = 2 (r = 7) and padded with copies of its last slice
    for r in (1, 7):
        W = realize(1500, r)
        assert W.n == 1500 and mldeg_value(W) == r


def test_benchmark_pinned_realize_inputs_stay_stable():
    # the benchmark's oracle workload pins realize(2, 8, seed=s), s = 0..3, with data seed 9
    for s in range(4):
        result = oracle_mldeg(realize(2, 8, seed=s), trials=2, seed=9)
        assert result.stable and result.count == 8


# sha256 of `segreml realize --n n --r r --seed s` stdout: the tensor and its
# verified ML degree and pattern.  Every output is pattern-gated, so these pin
# which entry force_minors solves through; realize(2, 8, seed=s), s = 0..3, are
# the benchmark's pinned oracle inputs.
REALIZE_DIGESTS = {
    (2, 8, 0): "0a81a241fefc43bac284653c95b7610b708d7a5db6b0d7bb86614e0193f04acd",
    (2, 8, 1): "3e12be3faf9b997df406dcb534ddde0f9f58cd63d5d77eca7e38e6eb370ef7cd",
    (2, 8, 2): "6a1b5bc61e96c683e5d3c53b6682e13a3318f37b03574bfbb5a8bd41065d8841",
    (2, 8, 3): "a9be2c66707c7af61e123e77fec2384b22d744306010bbde2bb2e8835c84e9a4",
    (1, 3, 0): "712e99260ade16cedd4c1f7e4e351b33fb04a4cce508f067097a7831369b64f1",
    (2, 7, 0): "3ac5f6824315219691e2eca421bad77bfced92f8667b694797ef294f3ecf4c36",
    (3, 13, 0): "79923b09906a949d378f4a4f6265f9c28e289c1cbffd4c2a269df2f75e1dadff",
    (4, 20, 0): "cc14cbdd6742d20291e3b4e5c756e4f656fad470b2d8bcfcda197acf6c4e14b2",
}


def test_realize_output_is_pinned(capsys):
    for (n, r, seed), digest in REALIZE_DIGESTS.items():
        assert cli.main(["realize", "--n", str(n), "--r", str(r), "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (n, r, seed, out)


def test_first_witness_gives_up_after_the_budget():
    generic = realize(1, 6)
    draws = []

    def draw(rng):
        draws.append(rng.random())
        return generic

    with pytest.raises(GenerationFailedError):
        first_witness(draw, frozenset({hyp222(0, 1)}), random.Random(0))
    assert len(draws) == _RETRY_BUDGET


def test_hook_pairs_are_hooks():
    # each consecutive cube contributes a hook: a minor of each face kind, sharing exactly two entries
    for n in (2, 3, 4):
        hooks = alt_hooks(n)
        for c in range(n):
            f, g = hooks[2 * c : 2 * c + 2]
            assert {f.kind, g.kind} == {"face_x", "face_y"}
            assert len(f.variables() & g.variables()) == 2
