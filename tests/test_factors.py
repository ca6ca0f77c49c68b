from __future__ import annotations

import itertools
import math
import random

import pytest

from segreml.factors import (
    FactorId,
    all_factors,
    classify_pattern_n1,
    detect_structures,
    eval_hyp222,
    eval_minor,
    face_minor_x,
    face_minor_y,
    forces_hyperdeterminant,
    hyp222,
    hyp223,
    hyp223_vanishes,
    map_factor,
    slice_minor,
    vanishing_pattern,
    VanishingPattern,
)
from segreml.realize import _solve_minor, generic_solution, hook_constraint_universe
from segreml.strata import atlas
from segreml.tensor import ScalingTensor

from helpers import (
    COUNTEREXAMPLE_W,
    COUNTEREXAMPLE_W_PRIME,
    all_ones,
    degenerate_tensor,
    random_rational_tensor,
    random_tensor,
)


def test_factor_names_round_trip_and_order():
    for n in (1, 2, 3, 4):
        factors = all_factors(n)
        pairs = math.comb(n + 1, 2)
        assert len(factors) == (n + 1) + 4 * pairs + pairs + math.comb(n + 1, 3)
        assert factors == sorted(factors, key=FactorId.sort_key)
        for fid in factors:
            assert FactorId.parse(fid.name) == fid
    assert slice_minor(0).name == "F[**0]"
    assert face_minor_x(0, 0, 1).name == "F[0*(0,1)]"
    assert face_minor_y(1, 1, 2).name == "F[*1(1,2)]"
    assert hyp222(0, 1).name == "H[0,1]"
    assert hyp223(0, 1, 2).name == "H[0,1,2]"
    with pytest.raises(ValueError):
        FactorId.parse("F[2*(0,1)]")
    with pytest.raises(ValueError):
        face_minor_x(0, 1, 1)


def test_eval_minor_examples():
    W = COUNTEREXAMPLE_W
    assert eval_minor(W, face_minor_y(0, 0, 1)) == 0
    assert eval_minor(W, slice_minor(0)) == -2
    assert all(eval_minor(all_ones(1), f) == 0 for f in all_factors(1) if f.is_minor)
    with pytest.raises(ValueError):
        eval_minor(W, hyp222(0, 1))


def _minor_by_layout(W, fid):
    """The minor as the determinant of tensor.py's layout W[..k], W[i.(k1,k2)] or W[.j(k1,k2)]."""
    w = W.w
    if fid.kind == "slice":
        (k,) = fid.index
        m = [[w[0][0][k], w[0][1][k]], [w[1][0][k], w[1][1][k]]]
    elif fid.kind == "face_x":
        i, k1, k2 = fid.index
        m = [[w[i][0][k1], w[i][1][k1]], [w[i][0][k2], w[i][1][k2]]]
    else:
        j, k1, k2 = fid.index
        m = [[w[0][j][k1], w[1][j][k1]], [w[0][j][k2], w[1][j][k2]]]
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def test_minor_cells_follow_the_tensor_layouts():
    """eval_minor and the forcing step both read FactorId.cells; check them against the written-out layouts."""
    rng = random.Random(23)
    tensors = [random_rational_tensor(rng, 2) for _ in range(30)] + [degenerate_tensor(rng, 2) for _ in range(30)]
    minors = [f for f in all_factors(2) if f.is_minor]
    nonzero = 0
    for W in tensors:
        for fid in minors:
            value = eval_minor(W, fid)
            assert value == _minor_by_layout(W, fid), (W.to_json_dict(), fid)
            nonzero += value != 0
            assert fid.variables() == {pos for row in fid.cells() for pos in row}
            for pos in sorted(fid.variables()):
                entries = [[list(row) for row in plane] for plane in W.w]
                _solve_minor(entries, fid, pos)
                forced = ScalingTensor.from_entries(2, entries)
                assert _minor_by_layout(forced, fid) == 0, (W.to_json_dict(), fid, pos)
                changed = {(i, j, k) for i in range(2) for j in range(2) for k in range(3) if forced.w[i][j][k] != W.w[i][j][k]}
                assert changed <= {pos}
    assert nonzero >= 500


def test_hyp222_examples():
    assert eval_hyp222(COUNTEREXAMPLE_W, 0, 1) == 64
    assert eval_hyp222(all_ones(1), 0, 1) == 0
    rank_one = all_ones(1).torus_rescale((1, 2), (1, 3), (1, 5))
    assert eval_hyp222(rank_one, 0, 1) == 0


def _hyp222_12_terms(W, k1, k2):
    """Cayley's 2x2x2 hyperdeterminant of slices (k1, k2), term by term."""
    a000, a001, a010, a011 = (W.w[0][j][k] for j in range(2) for k in (k1, k2))
    a100, a101, a110, a111 = (W.w[1][j][k] for j in range(2) for k in (k1, k2))
    return (
        a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2 + a011**2 * a100**2
        - 2 * a000 * a001 * a110 * a111
        - 2 * a000 * a010 * a101 * a111
        - 2 * a000 * a011 * a100 * a111
        - 2 * a001 * a010 * a101 * a110
        - 2 * a001 * a011 * a100 * a110
        - 2 * a010 * a011 * a100 * a101
        + 4 * a000 * a011 * a101 * a110
        + 4 * a001 * a010 * a100 * a111
    )


def test_hyp222_equals_pencil_discriminant():
    """eval_hyp222 (the discriminant of the memoized pair form) against the 12-term quartic."""
    rng = random.Random(11)
    tensors = [random_tensor(rng, rng.choice((1, 2)), bound=9) for _ in range(300)]
    tensors += [random_rational_tensor(rng, rng.choice((1, 2, 3))) for _ in range(300)]
    tensors += [degenerate_tensor(rng, rng.choice((1, 2, 3))) for _ in range(200)]
    # the atlas witnesses cover the degenerate vanishing patterns
    tensors += [W for _, W in atlas(seed=0)]
    zeros = 0
    for W in tensors:
        for k1, k2 in itertools.combinations(range(W.n + 1), 2):
            value = eval_hyp222(W, k1, k2)
            assert value == _hyp222_12_terms(W, k1, k2), (W.to_json_dict(), k1, k2)
            zeros += value == 0
    assert zeros >= 50


def test_hyp223_examples():
    assert hyp223_vanishes(COUNTEREXAMPLE_W, 0, 1, 2)
    assert hyp223_vanishes(COUNTEREXAMPLE_W_PRIME, 0, 1, 2)
    rng = random.Random(5)
    hits = 0
    for _ in range(50):
        W = random_tensor(rng, 2, bound=20)
        if hyp223_vanishes(W, 0, 1, 2):
            hits += 1
    assert hits == 0  # vanishing has codimension one; random integer draws miss it


def _chart_emptiness_oracle(W, k1, k2, k3) -> bool:
    """Independent decision of V(q_k1, q_k2, q_k3) != 0 via sympy bases.

    The biprojective zero set is nonempty iff the dehomogenized system has
    a complex solution in at least one of the four affine charts, i.e. iff
    some chart ideal is not the unit ideal.
    """
    import sympy

    u, v = sympy.symbols("u v")
    for x_chart in (0, 1):
        for y_chart in (0, 1):
            x = [1, u] if x_chart == 0 else [u, 1]
            y = [1, v] if y_chart == 0 else [v, 1]
            polys = []
            for k in (k1, k2, k3):
                q = sum(
                    sympy.Rational(W.w[i][j][k]) * x[i] * y[j]
                    for i in range(2)
                    for j in range(2)
                )
                polys.append(sympy.expand(q))
            gb = sympy.groebner(polys, u, v, order="grevlex")
            if 1 not in gb.exprs:
                return True
    return False


def test_hyp223_matches_chart_emptiness_oracle():
    cases = [COUNTEREXAMPLE_W, COUNTEREXAMPLE_W_PRIME]
    rng = random.Random(3030)
    from segreml.realize import random_entry

    for _ in range(6):
        cases.append(random_tensor(rng, 2, bound=12))
    # three slices in one pencil: the triple factor must vanish
    for _ in range(3):
        s0 = [[random_entry(rng) for _ in range(2)] for _ in range(2)]
        s1 = [[random_entry(rng) for _ in range(2)] for _ in range(2)]
        al, be = random_entry(rng), random_entry(rng)
        s2 = [[al * s0[i][j] + be * s1[i][j] for j in range(2)] for i in range(2)]
        if all(x != 0 for row in s2 for x in row):
            from segreml.tensor import ScalingTensor

            cases.append(ScalingTensor.from_slices([s0, s1, s2]))
    for W in cases:
        assert hyp223_vanishes(W, 0, 1, 2) == _chart_emptiness_oracle(W, 0, 1, 2)


def test_vanishing_patterns():
    rng = random.Random(1)
    generic = random_tensor(rng, 2, bound=50)
    assert vanishing_pattern(generic).is_empty()
    assert len(vanishing_pattern(all_ones(1))) == 7
    expected = {
        face_minor_y(0, 0, 1),
        face_minor_y(0, 0, 2),
        face_minor_y(0, 1, 2),
        hyp223(0, 1, 2),
    }
    assert vanishing_pattern(COUNTEREXAMPLE_W).factors == expected
    assert vanishing_pattern(COUNTEREXAMPLE_W_PRIME).factors == expected


def test_pattern_serialization():
    p = vanishing_pattern(COUNTEREXAMPLE_W)
    assert p.names() == ["F[*0(0,1)]", "F[*0(0,2)]", "F[*0(1,2)]", "H[0,1,2]"]
    assert VanishingPattern.from_names(2, p.names()) == p


def test_structures():
    hook = {slice_minor(0), face_minor_y(0, 0, 1)}
    report = detect_structures(hook, 1)
    assert len(report.hooks) == 1 and not report.mirrors and not report.square_cups

    mirror = {face_minor_x(0, 0, 1), face_minor_x(1, 0, 1)}
    report = detect_structures(mirror, 1)
    assert len(report.mirrors) == 1 and not report.hooks

    cup = {face_minor_x(0, 0, 1), face_minor_x(1, 0, 1), slice_minor(0)}
    report = detect_structures(cup, 1)
    assert len(report.square_cups) == 1

    # A corner triple is three pairwise hooks, not a square cup: no two of
    # its minors have disjoint variables.
    corner = {slice_minor(0), face_minor_x(0, 0, 1), face_minor_y(0, 0, 1)}
    report = detect_structures(corner, 1)
    assert len(report.hooks) == 3 and not report.square_cups and not report.mirrors

    frame = {face_minor_x(0, 0, 1), face_minor_x(1, 0, 1), face_minor_y(0, 0, 1), face_minor_y(1, 0, 1)}
    report = detect_structures(frame, 1)
    assert len(report.cubic_frames) == 1

    slice_frame = {face_minor_x(0, 0, 1), face_minor_x(1, 0, 1), slice_minor(0), slice_minor(1)}
    assert len(detect_structures(slice_frame, 1).cubic_frames) == 1

    # a whole pattern can be passed directly; hyperdeterminant ids are ignored
    report = detect_structures(vanishing_pattern(all_ones(1)), 1)
    assert len(report.cubic_frames) == 3 and len(report.mirrors) == 3


def test_forces_hyperdeterminant():
    cup = {face_minor_x(0, 0, 1), face_minor_x(1, 0, 1), slice_minor(0)}
    assert forces_hyperdeterminant(cup)
    assert not forces_hyperdeterminant(set(hook_constraint_universe(2)))
    assert not forces_hyperdeterminant({slice_minor(0)})
    # two of the three minors of one face of a 2x2x3 subtensor
    assert forces_hyperdeterminant({face_minor_y(0, 0, 1), face_minor_y(0, 0, 2)})
    # same face, disjoint slice pairs: nothing forced (alternating hooks rely on it)
    assert not forces_hyperdeterminant({face_minor_y(0, 0, 1), face_minor_y(0, 2, 3)})
    assert not forces_hyperdeterminant({slice_minor(0), slice_minor(1)})


def test_forced_h_never_appears_on_hook_families():
    rng = random.Random(99)
    checked = 0
    for _ in range(200):
        n = rng.choice((1, 2, 3))
        universe = hook_constraint_universe(n)
        S = [f for f in universe if rng.random() < 0.5]
        assert not forces_hyperdeterminant(S)
        W = generic_solution(S, n, seed=rng.randrange(2**30))
        pattern = vanishing_pattern(W)
        assert not any(f.kind in ("hyp222", "hyp223") for f in pattern.vanishing)
        checked += 1
    assert checked == 200


def test_vanishing_cascades_on_forced_tensors():
    """Forcing certain minor sets drags further factors to zero.

    Two overlapping minors on one face force the third minor of that face
    and the 2x2x3 factor; a square cup forces the rest of its cubic frame,
    the cube's hyperdeterminant, and both 2x2x3 factors containing it.
    """
    from segreml.realize import force_minors, random_entry

    rng = random.Random(42)

    def forced_pattern(n, minors):
        for _ in range(100):
            entries = [
                [[random_entry(rng) for _ in range(n + 1)] for _ in range(2)] for _ in range(2)
            ]
            if not force_minors(entries, minors):
                continue
            from segreml.tensor import ScalingTensor

            return vanishing_pattern(ScalingTensor.from_entries(n, entries))
        raise AssertionError("forcing failed")

    # same-face overlap: the third face minor and the resultant factor follow
    overlap = [face_minor_y(0, 0, 1), face_minor_y(0, 0, 2)]
    pattern = forced_pattern(2, overlap)
    assert face_minor_y(0, 1, 2) in pattern
    assert hyp223(0, 1, 2) in pattern
    assert forces_hyperdeterminant(overlap)

    # square cup inside the (0,1) cube of an n=2 tensor (slice first so the
    # greedy entry assignment has room for all three)
    cup = [slice_minor(0), face_minor_x(0, 0, 1), face_minor_x(1, 0, 1)]
    pattern = forced_pattern(2, cup)
    assert slice_minor(1) in pattern
    assert hyp222(0, 1) in pattern
    assert hyp223(0, 1, 2) in pattern
    assert forces_hyperdeterminant(cup)


def test_classify_pattern_n1():
    def pat(*factors):
        return VanishingPattern(1, tuple(factors))

    assert classify_pattern_n1(pat()) == 6
    assert classify_pattern_n1(pat(hyp222(0, 1))) == 5
    assert classify_pattern_n1(pat(face_minor_x(0, 0, 1), face_minor_y(0, 0, 1), slice_minor(0))) == 3
    assert classify_pattern_n1(pat(face_minor_x(0, 0, 1), face_minor_x(1, 0, 1), slice_minor(0))) is None
    full = all_factors(1)
    assert classify_pattern_n1(pat(*full)) == 1
    for quad in itertools.combinations(full, 4):
        assert classify_pattern_n1(pat(*quad)) is None
    with pytest.raises(ValueError):
        classify_pattern_n1(VanishingPattern(2, (slice_minor(0),)))


def test_classification_counts():
    universe = all_factors(1)
    sizes: dict[int, int] = {}
    for r in range(8):
        for subset in itertools.combinations(universe, r):
            chi = classify_pattern_n1(VanishingPattern(1, subset))
            if chi is not None:
                sizes[chi] = sizes.get(chi, 0) + 1
    assert sizes == {6: 1, 5: 7, 4: 21, 3: 8, 2: 3, 1: 1}
    assert sum(sizes.values()) == 41


def test_pattern_relabeling_under_symmetries():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.choice((1, 2))
        W = random_tensor(rng, n, bound=4)
        perm = list(range(n + 1))
        rng.shuffle(perm)
        permuted = vanishing_pattern(W.permute_slices(perm))
        assert {map_factor(f, perm=perm) for f in permuted.vanishing} == vanishing_pattern(W).factors
        swapped = vanishing_pattern(W.swap_xy())
        assert {map_factor(f, swap=True) for f in swapped.vanishing} == vanishing_pattern(W).factors
