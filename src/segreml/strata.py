"""The complete Euler stratification atlas for the 2x2x2 case.

The coefficient space of two bilinear quadrics splits into 41 strata by
which factors vanish: the empty pattern (chi 6), 7 singletons (5), all 21
pairs (4), 8 corner triples (3), 3 cubic-frame-plus-H quintuples (2) and
the full pattern (1).  `enumerate_strata_n1` is the only statement of
this n = 1 classification, and `classify_pattern_n1` looks a pattern up
in it; a corner stratum is named by the one cell its three minors share.
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
F[**1], H[0,1]), in that order.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

from .factors import (
    FactorId,
    VanishingPattern,
    all_factors,
    face_minor_x,
    face_minor_y,
    hyp222,
    pair_det_coeffs,
    slice_minor,
)
from .realize import first_witness, forced_draw, random_entry, rank_one_slice, scaled_pair
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
_SIGN_MINOR_CELLS = tuple(f.cells() for f in SIGN_FACTOR_ORDER[:6])

# The only realizable sign patterns with H < 0, in the order
# (F[0*(0,1)], F[1*(0,1)], F[*0(0,1)], F[*1(0,1)], F[**0], F[**1], H[0,1]).
# Confirmed by exhaustive exact enumeration over all entries in +-{1,2,3}:
# that grid realizes 68 patterns in total, these four on the H < 0 side.
NEGATIVE_H_PATTERNS = frozenset({"-------", "++++---", "++--++-", "--++++-"})
NEGATIVE_H_BUDGET = 200_000
NEGATIVE_H_BOUND = 10


@dataclass(frozen=True)
class Stratum:
    """One realizable n=1 vanishing pattern with its Euler characteristic."""

    pattern: VanishingPattern
    chi: int
    witness_recipe: str
    symmetry_class: str

    @property
    def name(self) -> str:
        inner = ",".join(self.pattern.names())
        return f"{{{inner}}}"


def enumerate_strata_n1() -> list[Stratum]:
    """All 41 strata in deterministic order (by class, then pattern)."""
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
    return out


@cache
def _chi_by_pattern() -> dict[frozenset[FactorId], int]:
    return {s.pattern.factors: s.chi for s in enumerate_strata_n1()}


def classify_pattern_n1(pattern: VanishingPattern) -> int | None:
    """Euler characteristic of the n = 1 stratum with this pattern, or None if no stratum has it."""
    if pattern.n != 1:
        raise ValueError("classification is specific to n = 1")
    if not pattern.factors <= set(all_factors(1)):
        raise ValueError("pattern contains factors outside the n=1 universe")
    return _chi_by_pattern().get(pattern.factors)


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
        x_star = random_entry(rng) * rng.choice((1, -1))
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


def witness_for_stratum(stratum: Stratum, seed: int = 0) -> ScalingTensor:
    """A tensor whose vanishing pattern equals the stratum's, exactly."""
    rng = random.Random((seed << 32) ^ zlib.crc32(stratum.name.encode()))
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
    return first_witness(draw, target, rng)


def atlas(seed: int = 0) -> list[tuple[Stratum, ScalingTensor]]:
    """All 41 strata paired with verified witnesses."""
    return [(s, witness_for_stratum(s, seed)) for s in enumerate_strata_n1()]


# -- sign-pattern experiment ---------------------------------------------------


def _sign_vector(e) -> tuple[int, ...] | None:
    """The seven factor values in SIGN_FACTOR_ORDER, as ints, for integer entries e[i][j][k]; None if one is 0."""
    values = [
        e[a0][a1][a2] * e[d0][d1][d2] - e[b0][b1][b2] * e[c0][c1][c2]
        for ((a0, a1, a2), (b0, b1, b2)), ((c0, c1, c2), (d0, d1, d2)) in _SIGN_MINOR_CELLS
    ]
    c0, c1, c2 = pair_det_coeffs(e, 0, 1)
    values.append(c1 * c1 - 4 * c0 * c2)
    if 0 in values:
        return None
    return tuple(values)


def _sign_string(values) -> str:
    return "".join("+" if v > 0 else "-" for v in values)


def _sample_entries(rng: random.Random, bound: int) -> list[list[list[int]]]:
    """Eight entries uniform in [-bound, bound] without 0, drawn with no list of those values."""
    e = [i - bound + (i >= bound) for i in (rng.randrange(2 * bound) for _ in range(8))]
    return [[e[0:2], e[2:4]], [e[4:6], e[6:8]]]


def sample_sign_patterns(samples: int, bound: int, seed: int = 0) -> dict[str, int]:
    """Sample integer tensors and tally exact sign patterns of the factors.

    Entries are uniform in [-bound, bound] without 0; draws on which any
    factor is exactly zero are skipped.  Returns pattern -> count.
    """
    if samples < 1 or bound < 2:
        raise ValueError("need samples >= 1 and bound >= 2")
    rng = random.Random(seed)
    counts: dict[str, int] = {}
    for _ in range(samples):
        values = _sign_vector(_sample_entries(rng, bound))
        if values is None:
            continue
        key = _sign_string(values)
        counts[key] = counts.get(key, 0) + 1
    return counts


def find_negative_h_patterns(seed: int = 0) -> dict[str, list[list[list[int]]]]:
    """Locate integer witnesses for every sign pattern with negative H.

    Any sample with H < 0 realizes one such pattern; sign flips of one
    x-row, one y-column or one slice map it onto the others (they scale
    each factor by a monomial in the flips, so exact vanishing and H are
    preserved).  Draws up to NEGATIVE_H_BUDGET tensors with entries in
    [-NEGATIVE_H_BOUND, NEGATIVE_H_BOUND] without 0.  Returns pattern ->
    witness entries.
    """
    rng = random.Random(seed)
    found: dict[str, list[list[list[int]]]] = {}
    for _ in range(NEGATIVE_H_BUDGET):
        e = _sample_entries(rng, NEGATIVE_H_BOUND)
        values = _sign_vector(e)
        if values is None or values[-1] > 0:
            continue
        for flip_x, flip_y, flip_z in itertools.product((1, -1), repeat=3):
            flipped = [
                [
                    [e[i][j][k] * (flip_x if i else 1) * (flip_y if j else 1) * (flip_z if k else 1) for k in range(2)]
                    for j in range(2)
                ]
                for i in range(2)
            ]
            fv = _sign_vector(flipped)
            if fv is not None and fv[-1] < 0:
                found.setdefault(_sign_string(fv), flipped)
        if len(found) >= 4:
            break
    return found
