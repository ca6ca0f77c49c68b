from __future__ import annotations

import copy
import itertools
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import segreml.exact
from segreml.cli import _analyze_payload
from segreml.euler import chi_VI, mldeg_value
from segreml.exact import primitive
from segreml.factors import (
    FactorId,
    all_factors,
    eval_hyp222,
    eval_minor,
    face_classes,
    face_minor_x,
    face_minor_y,
    factor_values,
    hyp222,
    hyp223,
    hyp223_vanishes,
    integer_slices,
    integer_values,
    pair_forms,
    slice_minor,
    subset_gcd,
    vanishing_pattern,
    VanishingPattern,
)
from segreml.realize import _solve_minor, generic_solution, hook_constraint_universe, realize
from segreml.strata import atlas
from segreml.tensor import ScalingTensor

from helpers import (
    COUNTEREXAMPLE_W,
    COUNTEREXAMPLE_W_PRIME,
    all_ones,
    degenerate_tensor,
    line_heavy_tensor,
    permute_slices,
    random_rational_tensor,
    random_tensor,
    swap_xy,
    tall_torus_image,
    torus_rescale,
)
from references import classify_pattern_n1, discriminant, map_factor, pair_det_form


def test_factor_names_and_order():
    for n in (1, 2, 3, 4):
        factors = all_factors(n)
        pairs = math.comb(n + 1, 2)
        assert len(factors) == (n + 1) + 4 * pairs + pairs + math.comb(n + 1, 3)
        assert factors == tuple(sorted(factors, key=FactorId.sort_key))
        assert all_factors(n) is factors  # built once per n, immutable
    assert slice_minor(0).name == "F[**0]"
    assert face_minor_x(0, 0, 1).name == "F[0*(0,1)]"
    assert face_minor_y(1, 1, 2).name == "F[*1(1,2)]"
    assert hyp222(0, 1).name == "H[0,1]"
    assert hyp223(0, 1, 2).name == "H[0,1,2]"
    with pytest.raises(ValueError):
        face_minor_x(0, 1, 1)
    # a negative slice index would read slice n through Python's negative
    # indexing, and a face index outside {0, 1} a row the tensor lacks
    for make, index in (
        (slice_minor, (-1,)),
        (face_minor_x, (0, -1, 1)),
        (face_minor_x, (2, 0, 1)),
        (face_minor_y, (-1, 0, 1)),
        (hyp222, (-1, 0)),
        (hyp223, (-1, 0, 1)),
    ):
        with pytest.raises(ValueError, match="nonnegative"):
            make(*index)
    with pytest.raises(ValueError, match="face index 0 or 1"):
        FactorId("face_x", (5, 0, 1))
    # the kind order, pinned apart from FactorId.sort_key
    kinds = [f.kind for f in all_factors(2)]
    assert kinds == ["slice"] * 3 + ["face_x"] * 6 + ["face_y"] * 6 + ["hyp222"] * 3 + ["hyp223"]
    with pytest.raises(ValueError, match="unknown factor kind"):
        FactorId("hyp224", (0, 1, 2))
    with pytest.raises(ValueError, match="takes 2 indices"):
        FactorId("hyp222", (0, 1, 2))


def test_eval_minor_examples():
    W = COUNTEREXAMPLE_W
    assert eval_minor(W, face_minor_y(0, 0, 1)) == 0
    assert eval_minor(W, slice_minor(0)) == -2
    assert all(eval_minor(all_ones(1), f) == 0 for f in all_factors(1) if f.is_minor)
    with pytest.raises(ValueError):
        eval_minor(W, hyp222(0, 1))
    # only the tensor knows n: above it, eval_minor refuses as eval_hyp222 does
    assert eval_minor(W, slice_minor(W.n)) == 6
    for fid in (slice_minor(W.n + 1), face_minor_x(1, 0, W.n + 1), face_minor_y(0, 1, W.n + 1)):
        with pytest.raises(IndexError, match="slice indices out of range"):
            eval_minor(W, fid)
    with pytest.raises(IndexError, match="slice indices out of range"):
        eval_hyp222(W, 0, W.n + 1)


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


def test_cached_cells_keep_the_record_contract():
    """The cells are kept in a slot that is no field: ==, hash, repr, copy and pickle read kind and index only."""
    assert list(FactorId.__annotations__) == ["kind", "index"]
    for fid in all_factors(2):
        assert hash(fid) == hash((fid.kind, fid.index)) and repr(fid) == f"FactorId({fid.name!r})"
        for again in (copy.copy(fid), pickle.loads(pickle.dumps(fid))):
            assert again == fid and hash(again) == hash(fid) and repr(again) == repr(fid)
            if fid.is_minor:
                assert again.cells() == fid.cells()
    for fid in (hyp222(0, 1), hyp223(0, 1, 2)):
        with pytest.raises(ValueError):
            fid.cells()
        with pytest.raises(ValueError):
            fid.variables()


def test_hyp222_examples():
    assert eval_hyp222(COUNTEREXAMPLE_W, 0, 1) == 64
    assert eval_hyp222(all_ones(1), 0, 1) == 0
    rank_one = torus_rescale(all_ones(1), (1, 2), (1, 3), (1, 5))
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
    assert not vanishing_pattern(generic).vanishing
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


def test_forced_h_never_appears_on_hook_families():
    rng = random.Random(99)
    checked = 0
    for _ in range(200):
        n = rng.choice((1, 2, 3))
        universe = hook_constraint_universe(n)
        S = [f for f in universe if rng.random() < 0.5]
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

    # square cup inside the (0,1) cube of an n=2 tensor (slice first so the
    # greedy entry assignment has room for all three)
    cup = [slice_minor(0), face_minor_x(0, 0, 1), face_minor_x(1, 0, 1)]
    pattern = forced_pattern(2, cup)
    assert slice_minor(1) in pattern
    assert hyp222(0, 1) in pattern
    assert hyp223(0, 1, 2) in pattern


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
        permuted = vanishing_pattern(permute_slices(W, perm))
        assert {map_factor(f, perm=perm) for f in permuted.vanishing} == vanishing_pattern(W).factors
        swapped = vanishing_pattern(swap_xy(W))
        assert {map_factor(f, swap=True) for f in swapped.vanishing} == vanishing_pattern(W).factors


def test_integer_view_is_built_once_and_read_by_every_table(monkeypatch):
    """integer_slices is W's torus image with content 1 on every plane, column and slice, a > 0; the pair forms are ints, and mldeg_value rescales nothing."""
    real = segreml.exact.integer_row
    calls = []

    def counting(row):
        calls.append(row)
        return real(row)

    for name, module in list(sys.modules.items()):
        if name.startswith("segreml") and getattr(module, "integer_row", None) is real:
            monkeypatch.setattr(module, "integer_row", counting)
    rng = random.Random(23)
    for W in [COUNTEREXAMPLE_W] + [degenerate_tensor(rng, rng.choice((1, 2, 3, 4))) for _ in range(40)]:
        W = ScalingTensor(W.n, W.w)  # a new memo
        calls.clear()
        vanishing_pattern(W)
        assert len(calls) >= W.n + 1  # the counter sees the slices being scaled
        calls.clear()
        mldeg_value(W)
        assert calls == []
        R = integer_slices(W)
        (a, b), (c, d) = R
        assert all(type(x) is int for x in a + b + c + d) and all(x > 0 for x in a)
        planes_and_columns = [a + b, c + d, a + c, b + d]
        assert [math.gcd(*cells) for cells in planes_and_columns + list(zip(a, b, c, d))] == [1] * (4 + W.n + 1)
        # the cell scales c_ijk = w_ijk / R_ijk are x_i y_j z_k: c_ijk / c_00k depends on (i, j) alone
        scales = [[[w / r for w, r in zip(*row)] for row in zip(*plane)] for plane in zip(W.w, R)]
        ratios = {(i, j): [scales[i][j][k] / scales[0][0][k] for k in range(W.n + 1)] for i in range(2) for j in range(2)}
        assert all(len(set(column)) == 1 for column in ratios.values())
        assert ratios[1, 1][0] == ratios[0, 1][0] * ratios[1, 0][0]  # so c_00k c_11k = c_01k c_10k
        assert all(type(coeff) is int for form in pair_forms(W).values() for coeff in form)


@st.composite
def _small_tensors(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return degenerate_tensor(draw(st.randoms(use_true_random=False)), n)
    return realize(n, draw(st.integers(1, (n + 1) * (n + 2))), seed=draw(st.integers(0, 3)))


_TALL = st.integers(10**29, 10**30)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_small_tensors(), st.lists(st.tuples(st.sampled_from((-1, 1)), _TALL, _TALL), min_size=5, max_size=5))
def test_slice_scales_change_no_decision(W, scalars):
    """Rescaling each slice by a tall rational leaves the integer view and every decision; values match the raw entries."""
    V = torus_rescale(W, (1, 1), (1, 1), [sign * Fraction(p, q) for sign, p, q in scalars[: W.n + 1]])
    assert integer_slices(V) == integer_slices(W)
    assert face_classes(V) == face_classes(W)
    subsets = [ks for size in range(1, W.n + 2) for ks in itertools.combinations(range(W.n + 1), size)]
    assert [subset_gcd(V, ks) for ks in subsets] == [subset_gcd(W, ks) for ks in subsets]
    assert vanishing_pattern(V) == vanishing_pattern(W)
    assert [chi_VI(V, ks) for ks in subsets] == [chi_VI(W, ks) for ks in subsets]
    for X in (W, V):
        for fid, value in factor_values(X).items():
            reference = eval_minor(X, fid) if fid.is_minor else discriminant(pair_det_form(X, *fid.index))
            assert value == reference, (X.to_json_dict(), fid)


def _raw_values(W: ScalingTensor) -> dict:
    """Every minor and H[k1,k2] evaluated on W's Fraction entries: the cells' determinant, the raw pair form's discriminant."""
    return {
        fid: eval_minor(W, fid) if fid.is_minor else discriminant(pair_det_form(W, *fid.index))
        for fid in all_factors(W.n)
        if fid.kind != "hyp223"
    }


def test_integer_values_vanish_where_the_raw_entries_do():
    """integer_values has the zero set of the raw evaluation, and factor_values is its value, on degenerate draws and rescales."""
    rng = random.Random(2021)
    tensors = [draw(rng, n) for draw in (degenerate_tensor, line_heavy_tensor) for n in range(1, 7) for _ in range(3)]
    tensors += [realize(n, r, seed=n + r) for n in range(1, 5) for r in range(1, (n + 1) * (n + 2) + 1)]
    tensors += [witness for seed in range(4) for _, witness in atlas(seed=seed)]
    tensors += [tall_torus_image(W, rng, 100) for W in tensors]
    h_zeros = 0
    for W in tensors:
        W = ScalingTensor(W.n, W.w)  # a new memo
        raw = _raw_values(W)
        ints = integer_values(W)
        assert ints.keys() == raw.keys() and all(type(v) is int for v in ints.values())
        zeros = {fid for fid, value in raw.items() if value == 0}
        assert {fid for fid, value in ints.items() if value == 0} == zeros, W.to_json_dict()
        assert {fid for fid in vanishing_pattern(W).factors if fid.kind != "hyp223"} == zeros
        assert factor_values(W) == raw, W.to_json_dict()
        h_zeros += sum(fid.kind == "hyp222" for fid in zeros)
    assert h_zeros > 0  # the draws reach vanishing discriminants


def _view_bits(W: ScalingTensor) -> int:
    return max(abs(x).bit_length() for plane in integer_slices(W) for row in plane for x in row)


# The most bits a torus image's view may gain over its base tensor's.  The reduced view is
# one content-1 point of the orbit, not a canonical one, so it may be a few bits longer:
# these draws gain at most 7, and 800 more images of realize, degenerate and line-heavy
# draws at n <= 4 gained at most 11.
_IMAGE_BITS = 12


def test_torus_images_keep_the_short_view_and_every_output():
    """A torus image by 30- or 100-digit scalars has a view about as short as its base's, the same torus invariants, and raw factor values."""
    rng = random.Random(34)
    bases = [realize(n, r, seed=r) for n in range(1, 5) for r in range(1, (n + 1) * (n + 2) + 1, 2)]
    bases += [draw(rng, n) for draw in (degenerate_tensor, line_heavy_tensor) for n in range(1, 5) for _ in range(4)]
    invariants = ("pattern", "pair_types", "chi_V", "terms", "mldeg")
    worst = 0
    for B in bases:
        base = _analyze_payload(B)
        for digits in (30, 100):
            V = tall_torus_image(B, rng, digits)
            worst = max(worst, _view_bits(V) - _view_bits(B))
            image = _analyze_payload(V)
            assert [image[key] for key in invariants] == [base[key] for key in invariants], V.to_json_dict()
            assert [entry["vanishes"] for entry in image["factors"]] == [entry["vanishes"] for entry in base["factors"]]
            assert mldeg_value(V) == mldeg_value(B) == base["mldeg"]
            assert factor_values(V) == _raw_values(V), V.to_json_dict()
    assert worst <= _IMAGE_BITS, worst


_HUNDRED_DIGITS = st.integers(10**99, 10**100)


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(_small_tensors(), st.lists(st.tuples(st.sampled_from((-1, 1)), _HUNDRED_DIGITS, _HUNDRED_DIGITS), min_size=5, max_size=5))
def test_memoized_subset_gcds_are_primitive_ints(W, scalars):
    """After analyze's payload on 100-digit slice scalars, every subset gcd in the memo is a primitive int form."""
    V = torus_rescale(W, (1, 1), (1, 1), [sign * Fraction(p, q) for sign, p, q in scalars[: W.n + 1]])
    _analyze_payload(V)
    gcds = V.memo("subset_gcds", lambda V: pytest.fail("analyze filled no subset gcds"))
    assert len(gcds) == 2 ** (W.n + 1) - 1
    for form in gcds.values():
        assert all(type(c) is int for c in form) and form == primitive(form), form
