"""Euler characteristics of quadric intersections and the ML degree engine.

The ML degree is the signed Euler characteristic of the complement of the
bilinear quadrics q_k inside the 2-torus T = (C*)^2 of P1 x P1.  Since
chi(T) = 0, Huh's theorem (The maximum likelihood degree of a very affine
variety, Compositio Math. 2013) gives mldeg = -chi_T(union of the Q_k),
and `mldeg_value` reads that off the curve arrangement in O(n^2) work:

    mldeg = 2 * #smooth components + sum_p |orbit(p)| * (m_p - 1),

where p runs over the torus points where two components meet and m_p is
the number of components through p.

* Components, deduplicated in slice order.  A nonsingular slice k gives
  one (1,1)-curve (isomorphic to P1 minus four axis points, chi_T = -2),
  keyed by its slice up to scale.  A singular slice factors as
  (w00k x0 + w10k x1)(w00k y0 + w01k y1) / w00k and gives the two lines
  x0/x1 = -w10k/w00k and y0/y1 = -w01k/w00k (each C*, chi_T = 0).
* Points, kept only inside T.  Two curves j, k meet over the roots of
  factors.pair_det_form(W, j, k) with y0 y1 != 0, at x = (-B_j(y) : A_j(y))
  where (A_j, B_j) = (w00j y0 + w01j y1, w10j y0 + w11j y1); a curve meets
  a line, and an x-line meets a y-line, in at most one point, found by one
  division.
* Point keys.  A rational point is keyed by (t, s) = (y0/y1, x0/x1).  A
  pair of conjugate points over Q(sqrt d) is one key with orbit size 2:
  (the monic minimal polynomial t^2 + p t + q, s = alpha + beta t reduced
  modulo it).  Conjugate points always lie in T.

The paper's route is kept as the reference: for I a set of slice indices,
V_I is the common zero set in P1 x P1 of the q_k, k in I.  Fixing y, the
system is T_I(y) x = 0 for the |I| x 2 pencil matrix whose k-th row is

    (w00k y0 + w01k y1,  w10k y0 + w11k y1),

so V_I lives over the locus where T_I(y) drops rank.  The 2x2 minor of
rows k1 < k2 is factors.pair_det_form(W, k1, k2), the same quadric in y
whose common roots decide the 2x2x3 factor, and chi(V_I) is computed by
one exact procedure for every |I| >= 1:

    g  = gcd of pair_det_form(W, k1, k2) over the pairs in I (a binary
         form of degree <= 2; the zero form when |I| = 1, which has no
         pairs), read from factors.subset_gcd like the 2x2x3 decision
    r0 = 1 if every row (w_i0k, w_i1k), i in {0, 1}, k in I, is
         proportional to the first (a unique rank-0 point exists), else 0
    chi = 0 if g is a nonzero constant,
          2 + r0 if g is identically zero,
          (#distinct roots of g) + r0 otherwise.

For a single slice r0 = 1 exactly when the slice is singular, so the rule
gives chi(V_{k}) = 4 - rank(slice k).  The closed forms for |I| in {2, 3}
(pair types I..V and the triple case analysis) are kept as independent
cross-checks.

`mldeg` evaluates the inclusion-exclusion sum over subsets I and
coordinate-hyperplane sets X_J; with two P1 factors the outer sign is +1:

    mldeg = sum_{I != 0} (-1)^|I| sum_{J1, J2 proper} (-1)^(|J1|+|J2|)
            chi(V_I  ^  X_(J1,J2)),

and chi(Y) = (-1)^(n+1) * mldeg.  It enumerates 2^(n+1) - 1 subsets, so
it backs the `analyze` term table at desk scale and checks `mldeg_value`.
`mldeg` reads the subset gcds and the face classes (factors.subset_gcd,
factors.face_classes), built once per tensor, so each of its 9 * (2^(n+1)
- 1) terms costs a gcd step or a class lookup: g(I) extends the memoized
g(I minus max I) by the new pair forms only, r0 asks whether every x-face
class id in I is the same, and a one-sided term is 1 when the face rows
of I share one class and 0 otherwise.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from .errors import DimensionMismatchError
# binary_gcd is unused here: perfbench's harness test checks euler.binary_gcd as its sample binding.
from .exact import RatMatrix, binary_gcd, distinct_root_count
from .factors import (
    VanishingPattern,
    face_classes,
    face_minor_x,
    face_minor_y,
    factor_values,
    hyp222,
    hyp223_vanishes,
    pair_det_form,
    slice_minor,
    subset_gcd,
    vanishing_pattern,
)
from .tensor import ScalingTensor


class PairType(enum.Enum):
    """Degeneration type of the 2 x 2 pencil matrix of a slice pair."""

    I = "I"
    II = "II"
    III = "III"
    IV_ROWS = "IV_rows"
    IV_COLS = "IV_cols"
    V = "V"

    @property
    def chi(self) -> int:
        return {"I": 2, "II": 2, "III": 3, "IV_rows": 2, "IV_cols": 2, "V": 1}[self.value]


def classify_type(W: ScalingTensor, i: int, j: int) -> PairType:
    """Type of the slice-pair pencil, read off the six minors and H[i,j]."""
    if not i < j:
        raise ValueError("require i < j")
    values = factor_values(W)
    if values[hyp222(i, j)] != 0:
        return PairType.I
    si = values[slice_minor(i)] == 0
    sj = values[slice_minor(j)] == 0
    fx0 = values[face_minor_x(0, i, j)] == 0
    fx1 = values[face_minor_x(1, i, j)] == 0
    fy0 = values[face_minor_y(0, i, j)] == 0
    fy1 = values[face_minor_y(1, i, j)] == 0
    if si and sj and fx0 and fx1 and fy0 and fy1:
        return PairType.III
    if si and sj and fx0 and fx1:
        return PairType.II
    if si and sj and fy0 and fy1:
        return PairType.IV_COLS
    if fx0 and fx1 and fy0 and fy1:
        return PairType.IV_ROWS
    return PairType.V


def chi_VI(W: ScalingTensor, I) -> int:
    """chi of V_I in P1 x P1, by the rank/gcd procedure (any |I| >= 1)."""
    ks = tuple(sorted(I))
    if not ks:
        raise ValueError("I must be nonempty")
    if ks[0] < 0 or ks[-1] > W.n:
        raise IndexError("slice indices out of range")
    g = subset_gcd(W, ks)
    # Row (w_i0k, w_i1k) of face x_i holds the y0, y1 coefficients of pencil
    # entry (k, i); a rank-0 point exists iff all these rows share one class.
    x0, x1 = face_classes(W)[:2]
    first = x0[ks[0]]
    r0 = int(all(x0[k] == first and x1[k] == first for k in ks))
    if g.is_zero:
        return 2 + r0
    roots = distinct_root_count(g)  # an int, since g is nonzero
    return roots + r0 if roots else 0


def chi_VI_closed_form(W: ScalingTensor, I) -> int:
    """chi(V_I) for |I| in {2, 3} via the explicit case analyses.

    Pairs go through the type table.  Triples: nonvanishing 2x2x3
    hyperdeterminant means empty; otherwise any type-V pair gives 1; a
    type-II pair gives 2 when the two other pairs are type II/III and 1
    otherwise; all-III gives 3; III/IV mixtures with no type I give 2; with
    two type-I pairs the third decides (IV with proportional columns gives
    1, proportional rows or III gives 2); with three type-I pairs the
    mode-3 flattening rank decides (rank < 3 gives 2, rank 3 gives 1).
    """
    ks = tuple(sorted(I))
    if len(ks) == 2:
        return classify_type(W, *ks).chi
    if len(ks) != 3:
        raise ValueError("closed forms cover |I| in {2, 3} only")
    if not hyp223_vanishes(W, *ks):
        return 0
    pairs = list(itertools.combinations(ks, 2))
    types = {p: classify_type(W, *p) for p in pairs}
    tlist = list(types.values())
    if PairType.V in tlist:
        return 1
    if PairType.II in tlist:
        for p in pairs:
            if types[p] == PairType.II:
                others = [types[q] for q in pairs if q != p]
                if all(t in (PairType.II, PairType.III) for t in others):
                    return 2
                return 1
    if all(t == PairType.III for t in tlist):
        return 3
    if PairType.I not in tlist:
        # Some type IV, the rest III or IV: rank one at every y.
        return 2
    n_one = sum(1 for t in tlist if t == PairType.I)
    if n_one == 1:
        return 2
    if n_one == 2:
        third = next(t for t in tlist if t != PairType.I)
        return 1 if third == PairType.IV_COLS else 2
    return 2 if W.flattening(3, ks).rank() < 3 else 1


def chi_VI_XJ(W: ScalingTensor, I, J) -> int:
    """chi of V_I intersected with the coordinate subspace X_J.

    J = (J1, J2) with each component a proper subset of {0, 1}: J1 lists
    vanishing x-coordinates, J2 vanishing y-coordinates.  Both nonempty
    gives the empty set; one nonempty reduces to hyperplanes in one P1,
    with chi = 2 - rank of the |I| x 2 face rows, which is 1 when the rows
    are proportional (one face class) and 0 otherwise; both empty is
    chi(V_I).
    """
    J1, J2 = (tuple(J[0]), tuple(J[1]))
    ks = tuple(sorted(I))
    if len(J1) > 1 or len(J2) > 1:
        raise ValueError("J components must be proper subsets of {0, 1}")
    if J1 and J2:
        return 0
    if not J1 and not J2:
        return chi_VI(W, ks)
    # x_{J1} = 0 leaves the rows of face x_i, i = 1 - J1; y_{J2} = 0 those of y_j, j = 1 - J2.
    classes = face_classes(W)[1 - J1[0] if J1 else 3 - J2[0]]
    first = classes[ks[0]]
    return int(all(classes[k] == first for k in ks))


_ALL_J = [
    ((), ()),
    ((0,), ()),
    ((1,), ()),
    ((), (0,)),
    ((), (1,)),
    ((0,), (0,)),
    ((0,), (1,)),
    ((1,), (0,)),
    ((1,), (1,)),
]


@dataclass(frozen=True)
class MLDegreeReport:
    """ML degree with the full inclusion-exclusion term table."""

    mldeg: int
    chi_Y: int
    terms: dict[tuple[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]], int]
    factor_pattern: VanishingPattern

    def term_map_json(self) -> dict[str, int]:
        out = {}
        for (I, (J1, J2)), value in self.terms.items():
            key = f"I={list(I)};J={[list(J1), list(J2)]}"
            out[key] = value
        return out


def _inner_sum(W: ScalingTensor, ks: tuple[int, ...], terms=None) -> int:
    total = 0
    for J in _ALL_J:
        value = chi_VI_XJ(W, ks, J)
        if terms is not None:
            terms[(ks, J)] = value
        total += (-1) ** (len(J[0]) + len(J[1])) * value
    return total


def _subset_sum(W: ScalingTensor, terms: dict) -> int:
    """The inclusion-exclusion sum over nonempty slice subsets; fills `terms`."""
    total = 0
    for size in range(1, W.n + 2):
        for ks in itertools.combinations(range(W.n + 1), size):
            total += (-1) ** size * _inner_sum(W, ks, terms)
    return total


def mldeg(W: ScalingTensor) -> MLDegreeReport:
    """ML degree of the scaled Segre model attached to W, with its term table.

    Enumerates all 2^(n+1) - 1 nonempty slice subsets, so exponential in
    n; intended for desk scale (n <= 12).  `mldeg_value` gives the same
    integer in polynomial time.
    """
    terms: dict = {}
    total = _subset_sum(W, terms)
    return MLDegreeReport(total, (-1) ** (W.n + 1) * total, terms, vanishing_pattern(W))


# A component is ("curve", k) for the smooth (1,1)-curve of slice k, or
# ("x", c) / ("y", d) for the line x0/x1 = c / y0/y1 = d.
Component = tuple[str, object]


def _slice_rows(W: ScalingTensor, k: int) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Slice k as ((w00k, w01k), (w10k, w11k))."""
    (w00, w01), (w10, w11) = W.w
    return (w00[k], w01[k]), (w10[k], w11[k])


def _components(W: ScalingTensor) -> list[Component]:
    """Distinct irreducible components of the union of the quadrics, in slice order."""
    found: dict[tuple, Component] = {}  # insertion-ordered, so counts never depend on hashing
    for k in range(W.n + 1):
        (w00, w01), (w10, w11) = _slice_rows(W, k)
        if w00 * w11 != w01 * w10:
            found.setdefault(("curve", w01 / w00, w10 / w00, w11 / w00), ("curve", k))
        else:
            found.setdefault(("x", -w10 / w00), ("x", -w10 / w00))
            found.setdefault(("y", -w01 / w00), ("y", -w01 / w00))
    return list(found.values())


def _ratio(num: Fraction, den: Fraction) -> Fraction | None:
    """num/den when it is a torus coordinate (neither 0 nor infinity), else None."""
    return num / den if num != 0 and den != 0 else None


def _x_on_curve(W: ScalingTensor, k: int, t: Fraction) -> Fraction | None:
    """s = x0/x1 of the point of curve k over y0/y1 = t, if it lies in the torus."""
    (w00, w01), (w10, w11) = _slice_rows(W, k)
    return _ratio(-(w10 * t + w11), w00 * t + w01)


def _is_square(q: Fraction) -> bool:
    return q >= 0 and math.isqrt(q.numerator) ** 2 == q.numerator and math.isqrt(q.denominator) ** 2 == q.denominator


def _curve_points(W: ScalingTensor, j: int, k: int) -> list[tuple[tuple, int]]:
    """Torus points of curve j ^ curve k as (key, orbit size).

    The curves meet over the roots t = y0/y1 of c0 t^2 + c1 t + c2 =
    pair_det_form(W, j, k), which is nonzero for distinct smooth curves;
    roots at t = 0 or infinity leave the torus.  The form is built here,
    not read from the memo: the arrangement needs one per pair of distinct
    curves, and the memo's table holds one per pair of slices.
    """
    c0, c1, c2 = pair_det_form(W, j, k).coeffs
    if c0 == 0 or c2 == 0:
        # One root lies on an axis; the other is the root of the linear rest.
        a, b = (c1, c2) if c0 == 0 else (c0, c1)
        roots = [-b / a] if a != 0 and b != 0 else []
    else:
        disc = c1 * c1 - 4 * c0 * c2
        if not _is_square(disc):
            # A conjugate pair over Q(sqrt disc), both in the torus: reduce
            # s = -(c t + d)/(a t + b) modulo t^2 + p t + q to alpha + beta t.
            p, q = c1 / c0, c2 / c0
            (a, b), (c, d) = _slice_rows(W, j)
            norm = a * a * q - a * b * p + b * b  # (a t + b)(a t' + b), nonzero
            alpha = -(a * c * q + b * d - a * d * p) / norm
            beta = (a * d - b * c) / norm
            return [((p, q, alpha, beta), 2)]
        r = Fraction(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
        roots = {(-c1 + r) / (2 * c0), (-c1 - r) / (2 * c0)}
    points = []
    for t in roots:
        s = _x_on_curve(W, j, t)
        if s is not None:
            points.append(((t, s), 1))
    return points


def _torus_points(W: ScalingTensor, a: Component, b: Component) -> list[tuple[tuple, int]]:
    """Points of a ^ b inside the torus as (key, orbit size); a and b are distinct."""
    (ka, va), (kb, vb) = sorted((a, b), key=lambda comp: ("curve", "x", "y").index(comp[0]))
    if ka == kb:
        return _curve_points(W, va, vb) if ka == "curve" else []  # parallel lines never meet
    if ka == "x":  # an x-line meets a y-line at (t, s) = (d, c)
        return [((vb, va), 1)]
    (w00, w01), (w10, w11) = _slice_rows(W, va)
    if kb == "x":
        t = _ratio(-(vb * w01 + w11), vb * w00 + w10)
        return [] if t is None else [((t, vb), 1)]
    s = _x_on_curve(W, va, vb)
    return [] if s is None else [((vb, s), 1)]


def _arrangement(W: ScalingTensor) -> tuple[list[Component], dict[tuple, list]]:
    """The components and, per torus intersection point, [orbit size, set of component indices]."""
    comps = _components(W)
    points: dict[tuple, list] = {}
    for (i, a), (j, b) in itertools.combinations(enumerate(comps), 2):
        for key, orbit in _torus_points(W, a, b):
            points.setdefault(key, [orbit, set()])[1].update((i, j))
    return comps, points


def mldeg_value(W: ScalingTensor) -> int:
    """ML degree from the curve arrangement, in polynomial time.

    mldeg = -chi_T(union of the quadrics) = 2 * #smooth components +
    sum over torus points p of |orbit(p)| * (m_p - 1), with m_p the number
    of distinct components through p (see the module docstring).  Agrees
    with `mldeg(W).mldeg`, the inclusion-exclusion sum.
    """
    comps, points = _arrangement(W)
    smooth = sum(kind == "curve" for kind, _ in comps)
    return 2 * smooth + sum(orbit * (len(through) - 1) for orbit, through in points.values())


def mldeg_matrix(M: RatMatrix) -> int:
    """ML degree of a scaled product of two simplices from a scaling matrix.

    The signed sum of exact ranks of all submatrices with nonempty row and
    column index sets.  Every entry must be nonzero.
    """
    if any(x == 0 for row in M.entries for x in row):
        raise ValueError("scaling matrix entries must be nonzero")
    m, n = M.nrows, M.ncols
    total = 0
    for rsize in range(1, m + 1):
        for rows in itertools.combinations(range(m), rsize):
            for csize in range(1, n + 1):
                for cols in itertools.combinations(range(n), csize):
                    sub = RatMatrix.from_rows([[M.entries[r][c] for c in cols] for r in rows])
                    total += (-1) ** (rsize + csize) * sub.rank()
    return total


def mldeg_point_formula(W: ScalingTensor) -> int | None:
    """Quadric-arrangement shortcut: None when some 2x2x3 factor vanishes.

    The special case of `mldeg_value` where every m_p <= 2: when no triple
    of quadrics meets, inclusion-exclusion truncates at pairs,
    mldeg = -(sum_k chi(Q_k) - sum_{j<k} |Q_j ^ Q_k| in the torus), with
    chi(Q_k) = -2 for a nonsingular slice and -1 for a singular one (two
    lines, chi_T = 0 each, meeting in one torus point), and the pairwise
    torus counts assembled from chi(V_{jk}) and the axis-intersection ranks.
    """
    for ks in itertools.combinations(range(W.n + 1), 3):
        if hyp223_vanishes(W, *ks):
            return None
    values = factor_values(W)
    singles = 0
    for k in range(W.n + 1):
        singles += -2 if values[slice_minor(k)] != 0 else -1
    pair_counts = 0
    for jk in itertools.combinations(range(W.n + 1), 2):
        pair_counts += _inner_sum(W, jk)
    return -(singles - pair_counts)


def pair_types(W: ScalingTensor) -> dict[tuple[int, int], PairType]:
    return {p: classify_type(W, *p) for p in itertools.combinations(range(W.n + 1), 2)}


def degree_bound(n: int) -> int:
    """Top ML degree (n+1)(n+2), attained exactly when no factor vanishes."""
    if n < 1:
        raise DimensionMismatchError("n must be at least 1")
    return (n + 1) * (n + 2)
