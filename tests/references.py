"""Paper references that only the tests read.

Each restates a result of the paper by a route the commands do not take,
so the tests can hold the engine to it:

* `chi_VI_closed_form`: chi(V_I) for |I| in {2, 3} by the pair-type table
  and the triple case analysis (criterion 6), against `euler.chi_VI`, with
  `flattening`, the mode-3 unfolding that decides three type-I pairs;
* `mldeg_point_formula`: the ML degree truncated at pairs when no 2x2x3
  factor vanishes (criterion 2), against `euler.mldeg_value`;
* `pair_det_form`, `discriminant` and `map_factor`: the pencil determinant
  on the raw entries as a coefficient tuple, its discriminant, and factor
  ids relabeled under the model symmetries (criterion 8);
* `classify_pattern_n1`: the n = 1 Euler characteristic of a vanishing
  pattern, looked up in `strata.enumerate_strata_n1`;
* `find_negative_h_patterns`: integer witnesses of the four sign patterns
  with H < 0 (criterion 10);
* `matrix_score_system` and `count_critical_points_matrix`: the oracle for
  an (m+1) x (n+1) scaling matrix (criterion 9), against `euler.mldeg_matrix`.
"""

from __future__ import annotations

import itertools
import random
from functools import cache

from segreml.errors import DimensionMismatchError
from segreml.euler import PairType, chi_VI_XJ, classify_type
from segreml.exact import RatMatrix, rank
from segreml.factors import (
    FactorId,
    VanishingPattern,
    all_factors,
    hyp223_vanishes,
    integer_values,
    pair_det_coeffs,
    slice_minor,
)
from segreml.oracle import ScoreSystem, _by_cell, _count_two_primes, _data_entry, _simplex_product_model
from segreml.strata import _sample_entries, _sign_string, _sign_vector, enumerate_strata_n1
from segreml.tensor import ScalingTensor

# -- chi(V_I) and the ML degree -------------------------------------------------

PAIR_TYPE_CHI = {
    PairType.I: 2,
    PairType.II: 2,
    PairType.III: 3,
    PairType.IV_ROWS: 2,
    PairType.IV_COLS: 2,
    PairType.V: 1,
}


def flattening(W: ScalingTensor, indices) -> RatMatrix:
    """The mode-3 unfolding of the slices `indices`: one row per k, columns (00, 01, 10, 11)."""
    ks = tuple(sorted(indices))
    if not ks or any(not 0 <= k <= W.n for k in ks):
        raise IndexError("slice indices out of range")
    return RatMatrix.from_rows([[W.w[0][0][k], W.w[0][1][k], W.w[1][0][k], W.w[1][1][k]] for k in ks])


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
        return PAIR_TYPE_CHI[classify_type(W, *ks)]
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
    return 2 if rank(flattening(W, ks)) < 3 else 1


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
    values = integer_values(W)
    singles = 0
    for k in range(W.n + 1):
        singles += -2 if values[slice_minor(k)] != 0 else -1
    pair_counts = 0
    for jk in itertools.combinations(range(W.n + 1), 2):
        for J in itertools.product(((), (0,), (1,)), repeat=2):
            pair_counts += (-1) ** (len(J[0]) + len(J[1])) * chi_VI_XJ(W, jk, J)
    return -(singles - pair_counts)


# -- factors --------------------------------------------------------------------


def pair_det_form(W: ScalingTensor, k1: int, k2: int) -> tuple:
    """det of the 2x2 pencil matrix of slices (k1, k2) as a quadric (c0, c1, c2) in y, on the raw entries."""
    return pair_det_coeffs(W.w, k1, k2)


def discriminant(form: tuple):
    """c1^2 - 4*c0*c2 of a quadric (c0, c1, c2)."""
    c0, c1, c2 = form
    return c1 * c1 - 4 * c0 * c2


def map_factor(fid: FactorId, perm=None, swap: bool = False) -> FactorId:
    """Relabel a factor id under a slice permutation and/or the x-y swap.

    Applying this to the pattern of helpers.permute_slices(W, perm) (or
    helpers.swap_xy(W)) recovers the pattern of W.
    """
    kind = fid.kind
    if swap:
        kind = {"face_x": "face_y", "face_y": "face_x"}.get(kind, kind)
    if perm is None:
        idx = fid.index
    elif kind == "slice":
        idx = (perm[fid.index[0]],)
    elif kind in ("face_x", "face_y"):
        side, k1, k2 = fid.index
        idx = (side, *sorted((perm[k1], perm[k2])))
    else:
        idx = tuple(sorted(perm[k] for k in fid.index))
    return FactorId(kind, idx)


# -- the n = 1 classification and its sign patterns -----------------------------


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


# The only realizable sign patterns with H < 0, in the order
# (F[0*(0,1)], F[1*(0,1)], F[*0(0,1)], F[*1(0,1)], F[**0], F[**1], H[0,1]).
# Confirmed by exhaustive exact enumeration over all entries in +-{1,2,3}:
# that grid realizes 68 patterns in total, these four on the H < 0 side.
NEGATIVE_H_PATTERNS = frozenset({"-------", "++++---", "++--++-", "--++++-"})
NEGATIVE_H_BUDGET = 200_000
NEGATIVE_H_BOUND = 10


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


# -- the two-simplex oracle -----------------------------------------------------

MATRIX_ORACLE_MAX_DIM = 4  # m + n for an (m+1) x (n+1) scaling matrix


def matrix_score_system(M: RatMatrix, u_rows) -> ScoreSystem:
    """Two-factor analogue for an (m+1) x (n+1) scaling matrix, with the larger factor eliminated.

    Every score vanishes where two components do, so the system is
    zero-dimensional only in at most two variables.  The model and its
    ML degree are symmetric in the two factors, so a matrix with more
    rows than columns is counted as its transpose: min(m, n) <= 2
    variables remain whenever m + n <= MATRIX_ORACLE_MAX_DIM.
    """
    if any(x == 0 for row in M.entries for x in row):
        raise ValueError("scaling matrix entries must be nonzero")
    u = [[_data_entry(x) for x in row] for row in u_rows]
    if len(u) != M.nrows or any(len(row) != M.ncols for row in u):
        raise DimensionMismatchError("data matrix shape mismatch")
    w = M.entries
    if M.nrows > M.ncols:
        w, u = list(zip(*w)), list(zip(*u))
    dims = (len(w) - 1, len(w[0]) - 1)
    return _simplex_product_model(dims, _by_cell(w, dims))(u)


def count_critical_points_matrix(M: RatMatrix, u_rows) -> int:
    if (M.nrows - 1) + (M.ncols - 1) > MATRIX_ORACLE_MAX_DIM:
        raise DimensionMismatchError(f"matrix oracle limited to m + n <= {MATRIX_ORACLE_MAX_DIM}")
    return _count_two_primes(matrix_score_system(M, u_rows))
