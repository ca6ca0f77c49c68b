"""The complete Euler stratification atlas for the 2x2x2 case.

The coefficient space of two bilinear quadrics splits into 41 strata by
which factors vanish: the empty pattern (chi 6), 7 singletons (5), all 21
pairs (4), 8 corner triples (3), 3 cubic-frame-plus-H quintuples (2) and
the full pattern (1).  `enumerate_strata_n1` is the only statement of
this n = 1 classification (the tests look patterns up in it through
tests/references.py); a corner stratum is named by the one cell its
three minors share.
Every stratum here carries a constructive witness recipe drawn with the
witness toolkit of `realize`: minors are zeroed by `forced_draw`, the
frames and the full pattern come from `scaled_pair`, and every candidate
passes the exact vanishing-pattern gate of `first_witness` before being
returned.

Witnesses involving the hyperdeterminant are built geometrically rather
than by solving H = 0 directly (whose discriminant is rarely a rational
square): a tangency is forced by adding a multiple of the product of the
two lines through a chosen rational point of the first quadric, an
axis tangency by the analogous degenerate pencil member, and a node
incidence by passing the second quadric through the singular point of the
first.  All constructions stay rational.

The module also hosts the sign-pattern sampling experiment over the seven
factor values (F[0*(0,1)], F[1*(0,1)], F[*0(0,1)], F[*1(0,1)], F[**0],
F[**1], H[0,1]), in that order; the targeted search for the four
patterns with H < 0 and the reference sampler, on nested entries drawn
with `rng.randrange`, are test references (tests/references.py).
"""

from __future__ import annotations

import functools
import itertools
import random
import zlib
from fractions import Fraction
from functools import partial

from .exact import Record
from .factors import (
    FactorId,
    VanishingPattern,
    all_factors,
    face_minor_x,
    face_minor_y,
    hyp222,
    slice_minor,
)
from .realize import first_witness, forced_draw, random_entry, randbelow, rank_one_slice, scaled_pair
from .tensor import ScalingTensor

SIGN_FACTOR_ORDER = (
    face_minor_x(0, 0, 1),
    face_minor_x(1, 0, 1),
    face_minor_y(0, 0, 1),
    face_minor_y(1, 0, 1),
    slice_minor(0),
    slice_minor(1),
    hyp222(0, 1),
)
# The sampler keeps a tensor's eight entries as one flat list, cell (i, j, k) at
# index 4i + 2j + k; per minor of SIGN_FACTOR_ORDER the flat indices (a, d, b, c)
# of its cells ((a, b), (c, d)), so that its value is e[a] e[d] - e[b] e[c].
_SIGN_MINOR_INDICES = tuple(
    tuple(4 * i + 2 * j + k for i, j, k in (a, d, b, c)) for (a, b), (c, d) in (f.cells() for f in SIGN_FACTOR_ORDER[:6])
)


class Stratum(Record):
    """One realizable n=1 vanishing pattern with its Euler characteristic."""

    __slots__ = ("pattern", "chi", "witness_recipe", "symmetry_class")
    pattern: VanishingPattern
    chi: int
    witness_recipe: str
    symmetry_class: str

    @property
    def name(self) -> str:
        inner = ",".join(self.pattern.names())
        return f"{{{inner}}}"


@functools.cache
def enumerate_strata_n1() -> tuple[Stratum, ...]:
    """All 41 strata in deterministic order (by class, then pattern); built once."""
    h = hyp222(0, 1)
    universe = all_factors(1)
    out = [Stratum(VanishingPattern(1, ()), 6, "generic entries", "empty")]
    for f in universe:
        recipe = "tangent quadrics" if f == h else f"solve {f.name} = 0 for one entry"
        out.append(Stratum(VanishingPattern(1, (f,)), 5, recipe, "single"))
    for f, g in itertools.combinations(universe, 2):
        if h in (f, g):
            m = f if g == h else g
            recipe = f"degenerate-pencil tangency keeping {m.name} = 0"
        else:
            recipe = "solve both minors through designated entries"
        out.append(Stratum(VanishingPattern(1, (f, g)), 4, recipe, "pair"))
    # A corner is the three minors through cell w[i][j][k], one per axis.
    for i, j, k in itertools.product(range(2), repeat=3):
        corner = (face_minor_x(i, 0, 1), face_minor_y(j, 0, 1), slice_minor(k))
        recipe = f"corner at w[{i}][{j}][{k}]: three independent solves"
        out.append(Stratum(VanishingPattern(1, corner), 3, recipe, "corner"))
    # A frame is two of the three minor pairs x, y, slice, plus H[0,1].
    fx = (face_minor_x(0, 0, 1), face_minor_x(1, 0, 1))
    fy = (face_minor_y(0, 0, 1), face_minor_y(1, 0, 1))
    sl = (slice_minor(0), slice_minor(1))
    for frame, recipe in (
        (fx + fy, "proportional nonsingular slices"),
        (fx + sl, "row-scaled singular slices (shared horizontal line)"),
        (fy + sl, "column-scaled singular slices (shared vertical line)"),
    ):
        out.append(Stratum(VanishingPattern(1, (*frame, h)), 2, recipe, "frame"))
    out.append(
        Stratum(VanishingPattern(1, tuple(universe)), 1, "proportional singular slices", "full")
    )
    return tuple(out)


# -- witness construction ------------------------------------------------------


def _double_line_slice(kind: str, side: int, base: list[list[Fraction]]) -> tuple[tuple, tuple]:
    """The factors (u, v) of the degenerate (1,1)-form u(x) v(y) used for axis tangencies.

    For a face minor on side i of the x-axis, u is the line that vanishes
    at the contact x = (1-i : i), that is x_{1-i}, and v is row i of the
    base slice, the y-line through its root; mirrored for y-face minors.
    Adding a multiple of u v to the base quadric keeps the relevant face
    minor zero and makes the intersection a double point on that axis.
    """
    axis = (Fraction(side), Fraction(1 - side))
    if kind == "face_x":
        return axis, tuple(base[side])
    return (base[0][side], base[1][side]), axis


def _tangency_witness(rng: random.Random, minor: FactorId | None) -> ScalingTensor | None:
    """One candidate tensor with H = 0, plus `minor` = 0 when given.

    With no minor: pick a rational torus point P on the first quadric and
    add a multiple of the product of the two lines through P.  With a face
    minor: the contact point moves to the corresponding axis.  With a
    slice minor: make the first quadric a line pair and pass the second
    through its node.
    """
    if minor is not None and minor.kind == "slice":
        which = minor.index[0]
        pair = rank_one_slice(rng)  # singular: a pair of axis-parallel lines
        (_, b), (c, d) = pair
        x_star, y_star = -b / d, -c / d
        other = [[random_entry(rng) for _ in range(2)] for _ in range(2)]
        # Pass the other quadric through the node: a double intersection point.
        other[0][0] = -(other[1][0] * x_star + other[0][1] * y_star + other[1][1] * x_star * y_star)
        if other[0][0] == 0:
            return None
        slices = [pair, other] if which == 0 else [other, pair]
        return ScalingTensor.from_slices(slices)
    s0 = [[random_entry(rng) for _ in range(2)] for _ in range(2)]
    if s0[0][0] * s0[1][1] == s0[0][1] * s0[1][0]:
        return None
    alpha, beta = random_entry(rng), random_entry(rng)
    if minor is None:
        x_star = random_entry(rng) * (1, -1)[randbelow(rng, 2)]
        denom = s0[0][1] + s0[1][1] * x_star
        if denom == 0:
            return None
        y_star = -(s0[0][0] + s0[1][0] * x_star) / denom
        if y_star == 0:
            return None
        u, v = (-x_star, Fraction(1)), (-y_star, Fraction(1))  # (x - x*)(y - y*)
    else:
        u, v = _double_line_slice(minor.kind, minor.index[0], s0)
    # u v in slice layout [[const, y], [x, xy]]
    s1 = [[alpha * s0[i][j] + beta * u[i] * v[j] for j in range(2)] for i in range(2)]
    if any(x == 0 for row in s1 for x in row):
        return None
    return ScalingTensor.from_slices([s0, s1])


@functools.cache
def _witness_plan(stratum: Stratum) -> tuple[int, frozenset[FactorId], partial]:
    """The stratum's name CRC, which seeds its draws, its target pattern and its draw; worked out once per stratum."""
    target = stratum.pattern.factors
    minors = [f for f in stratum.pattern.vanishing if f.is_minor]
    kinds = {f.kind for f in minors}
    if len(target) == 7:
        draw = partial(scaled_pair, singular=True)
    elif len(target) == 5 and kinds == {"face_x", "face_y"}:
        draw = partial(scaled_pair, singular=False)
    elif len(target) == 5:
        draw = partial(scaled_pair, singular=True, axis="x" if "face_x" in kinds else "y")
    elif hyp222(0, 1) in target:
        draw = partial(_tangency_witness, minor=minors[0] if minors else None)
    else:
        draw = partial(forced_draw, n=1, minors=minors)
    return zlib.crc32(stratum.name.encode()), target, draw


def witness_for_stratum(stratum: Stratum, seed: int = 0) -> ScalingTensor:
    """A tensor whose vanishing pattern equals the stratum's, exactly."""
    crc, target, draw = _witness_plan(stratum)
    return first_witness(draw, target, random.Random((seed << 32) ^ crc))


def atlas(seed: int = 0) -> list[tuple[Stratum, ScalingTensor]]:
    """All 41 strata paired with verified witnesses."""
    return [(s, witness_for_stratum(s, seed)) for s in enumerate_strata_n1()]


# -- sign-pattern experiment ---------------------------------------------------


def sample_sign_patterns(samples: int, bound: int, seed: int = 0) -> dict[str, int]:
    """Sample integer tensors and tally exact sign patterns of the factors.

    Entries are uniform in [-bound, bound] without 0; draws on which any
    factor is exactly zero are skipped.  Returns pattern -> count.  Each
    entry is `realize.randbelow(rng, 2 * bound)`, drawn by its rule inline,
    so the tally is the one rng.randrange would give; the reference sampler,
    with randrange and nested entries, is in tests/references.py.
    """
    if samples < 1 or bound < 2:
        raise ValueError("need samples >= 1 and bound >= 2")
    getrandbits = random.Random(seed).getrandbits
    span = 2 * bound
    k = span.bit_length()
    minors = _SIGN_MINOR_INDICES
    counts: dict[str, int] = {}
    for _ in range(samples):
        e = []
        for _ in range(8):
            r = getrandbits(k)
            while r >= span:
                r = getrandbits(k)
            e.append(r - bound + (r >= bound))
        values = [e[a] * e[d] - e[b] * e[c] for a, d, b, c in minors]
        if 0 in values:
            continue
        # H[0,1] = c1^2 - 4 c0 c2 of pair_det_coeffs(w, 0, 1), whose c0 and c2 are the
        # face-y minors F[*0(0,1)] and F[*1(0,1)] above; c1 is its bracket at flat indices
        c1 = e[0] * e[7] + e[2] * e[5] - e[4] * e[3] - e[6] * e[1]
        h = c1 * c1 - 4 * values[2] * values[3]
        if h == 0:
            continue
        values.append(h)
        key = "".join(["+" if v > 0 else "-" for v in values])
        counts[key] = counts.get(key, 0) + 1
    return counts
