"""Euler characteristics of quadric intersections and the ML degree engine.

For I a set of slice indices, V_I is the common zero set in P1 x P1 of the
bilinear quadrics q_k, k in I.  Fixing y, the system is T_I(y) x = 0 for
the |I| x 2 pencil matrix whose k-th row is

    (w00k y0 + w01k y1,  w10k y0 + w11k y1),

so V_I lives over the locus where T_I(y) drops rank.  The 2x2 minor of
rows k1 < k2 is factors.pair_det_form(W, k1, k2), the same quadric in y
whose common roots decide the 2x2x3 factor, and chi(V_I) is computed by
one exact procedure for every |I| >= 2:

    g  = gcd of pair_det_form(W, k1, k2) over the pairs in I (a binary
         form of degree <= 2)
    r0 = 1 if every row (w_i0k, w_i1k), i in {0, 1}, k in I, is
         proportional to the first (a unique rank-0 point exists), else 0
    chi = 0 if g is a nonzero constant,
          2 + r0 if g is identically zero,
          (#distinct roots of g) + r0 otherwise,

and chi(V_{k}) = 4 - rank(slice k).  The closed forms for |I| in {2, 3}
(pair types I..V and the triple case analysis) are kept as independent
cross-checks.

The ML degree itself is the inclusion-exclusion sum over subsets I and
coordinate-hyperplane sets X_J; with two P1 factors the outer sign is +1:

    mldeg = sum_{I != 0} (-1)^|I| sum_{J1, J2 proper} (-1)^(|J1|+|J2|)
            chi(V_I  ^  X_(J1,J2)),

and chi(Y) = (-1)^(n+1) * mldeg.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from .errors import DimensionMismatchError
from .exact import RatMatrix, binary_gcd, distinct_root_count
from .factors import (
    VanishingPattern,
    eval_hyp222,
    eval_minor,
    face_minor_x,
    face_minor_y,
    hyp223_vanishes,
    pair_det_form,
    slice_minor,
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
    if eval_hyp222(W, i, j) != 0:
        return PairType.I
    si = eval_minor(W, slice_minor(i)) == 0
    sj = eval_minor(W, slice_minor(j)) == 0
    fx0 = eval_minor(W, face_minor_x(0, i, j)) == 0
    fx1 = eval_minor(W, face_minor_x(1, i, j)) == 0
    fy0 = eval_minor(W, face_minor_y(0, i, j)) == 0
    fy1 = eval_minor(W, face_minor_y(1, i, j)) == 0
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
    if len(ks) == 1:
        return 4 - W.slice(ks[0]).rank()
    g = binary_gcd([pair_det_form(W, a, b) for a, b in itertools.combinations(ks, 2)])
    # Row (w_i0k, w_i1k) holds the y0, y1 coefficients of pencil entry (k, i).
    p, q = W.w[0][0][ks[0]], W.w[0][1][ks[0]]
    r0 = int(all(p * c1[k] == q * c0[k] for c0, c1 in W.w for k in ks))
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
    with chi = 2 - rank of the |I| x 2 face rows; both empty is chi(V_I).
    """
    J1, J2 = (tuple(J[0]), tuple(J[1]))
    ks = tuple(sorted(I))
    if len(J1) > 1 or len(J2) > 1:
        raise ValueError("J components must be proper subsets of {0, 1}")
    if J1 and J2:
        return 0
    if not J1 and not J2:
        return chi_VI(W, ks)
    if J1:
        i = 1 - J1[0]  # x_{J1} = 0 leaves the x_i coordinate
        rows = [[W.w[i][0][k], W.w[i][1][k]] for k in ks]
    else:
        j = 1 - J2[0]
        rows = [[W.w[0][j][k], W.w[1][j][k]] for k in ks]
    return 2 - RatMatrix.from_rows(rows).rank()


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


def _subset_sum(W: ScalingTensor, terms=None) -> int:
    """The inclusion-exclusion sum over nonempty slice subsets; fills `terms` if given."""
    total = 0
    for size in range(1, W.n + 2):
        for ks in itertools.combinations(range(W.n + 1), size):
            total += (-1) ** size * _inner_sum(W, ks, terms)
    return total


def mldeg(W: ScalingTensor) -> MLDegreeReport:
    """ML degree of the scaled Segre model attached to W.

    Enumerates all 2^(n+1) - 1 nonempty slice subsets, so exponential in
    n; intended for desk scale (n <= 12).
    """
    terms: dict = {}
    total = _subset_sum(W, terms)
    return MLDegreeReport(total, (-1) ** (W.n + 1) * total, terms, vanishing_pattern(W))


def mldeg_value(W: ScalingTensor) -> int:
    """The integer only (no term table, no pattern evaluation)."""
    return _subset_sum(W)


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

    When no triple of quadrics meets, inclusion-exclusion truncates at
    pairs:  mldeg = -(sum_k chi(Q_k) - sum_{j<k} |Q_j ^ Q_k| in the torus),
    with chi(Q_k) = -2 for a nonsingular slice and -1 for a singular one,
    and the pairwise torus counts assembled from chi(V_{jk}) and the
    axis-intersection ranks.
    """
    for ks in itertools.combinations(range(W.n + 1), 3):
        if hyp223_vanishes(W, *ks):
            return None
    singles = 0
    for k in range(W.n + 1):
        singles += -2 if eval_minor(W, slice_minor(k)) != 0 else -1
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
