"""Euler characteristics of quadric intersections and the ML degree engine.

The ML degree is the signed Euler characteristic of the complement of the
bilinear quadrics q_k inside the 2-torus T = (C*)^2 of P1 x P1.  Since
chi(T) = 0, Huh's theorem (The maximum likelihood degree of a very affine
variety, Compositio Math. 2013) gives mldeg = -chi_T(union of the Q_k),
and `mldeg_value` reads that off the curve arrangement in O(n^2) work:

    mldeg = 2 * #smooth components + sum_p |orbit(p)| * (m_p - 1),

where p runs over the torus points where two components meet and m_p is
the number of components through p, read from the number k_p = C(m_p, 2)
of component pairs that meet at p; any other k_p raises UnstableCountError.

* Integer slices.  Scaling a slice scales its quadric and moves no curve,
  line or point, and rescaling x0, x1, y0, y1 moves them all by one
  automorphism of T, which keeps every count.  So the arrangement is
  computed on factors.integer_slices, the integer view of W's torus orbit,
  slice k a primitive integer vector (a, b, c, d) with a > 0.  A torus
  coordinate is a factors.ratio, a reduced pair (num, den) with den > 0.
* One rule.  Every component is a primitive integer (1,1)-form, the
  distinct ones kept in slice order.  A nonsingular slice gives its integer
  slice, a smooth curve (P1 minus four axis points, chi_T = -2).  A
  singular slice factors as (a x0 + c x1)(a y0 + b y1) / a, and each of its
  lines x0/x1 = -c/a and y0/y1 = -b/a (C*, chi_T = 0) becomes the form it
  makes with the axis it misses, (0, a, 0, c) = (a x0 + c x1) y1 and
  (0, 0, a, b) = x1 (a y0 + b y1), made primitive; inside T each form cuts
  out its line alone.  Any two forms meet in T over the roots t = y0/y1,
  t != 0, infinity, of their pencil determinant factors.pair_det_coeffs, at
  x = (-B(t) : A(t)) for a nonzero pencil row (A, B) = (a t + b, c t + d).
* Point keys.  A rational point is keyed by (t, s) = (y0/y1, x0/x1).  A
  pair of conjugate points over Q(sqrt d) is one key with orbit size 2,
  the only 6-tuple: the primitive minimal polynomial (c0, c1, c2), c0 > 0,
  of t, and s = (A + B t) / N reduced modulo it, as the primitive
  (A, B, N) with N > 0.  Conjugate points always lie in T.

The paper's route is kept as the reference: for I a set of slice indices,
V_I is the common zero set in P1 x P1 of the q_k, k in I.  Fixing y, the
system is T_I(y) x = 0 for the |I| x 2 pencil matrix whose k-th row is

    (w00k y0 + w01k y1,  w10k y0 + w11k y1),

so V_I lives over the locus where T_I(y) drops rank.  The 2x2 minor of
rows k1 < k2 is the quadric in y whose common roots decide the 2x2x3
factor.  It is read as factors.pair_forms(W)[(k1, k2)], the minor on the
primitive integer slices (factors.integer_slices); the same minor on the
raw entries is proportional to it and is the reference the tests compare
against.  chi(V_I) is computed by one exact procedure for every |I| >= 1:

    g  = primitive gcd of the pair forms over the pairs in I, a coefficient
         tuple of degree <= 2 (the zero form (0,) when |I| = 1), read from
         factors.subset_gcd like the 2x2x3 decision
    r0 = 1 if every row (w_i0k, w_i1k), i in {0, 1}, k in I, is
         proportional to the first (a unique rank-0 point exists), else 0
    chi = 0 if g is a nonzero constant,
          2 + r0 if g is identically zero,
          (#distinct roots of g) + r0 otherwise.

For a single slice r0 = 1 exactly when the slice is singular, so the rule
gives chi(V_{k}) = 4 - rank(slice k).  The closed forms for |I| in {2, 3}
(pair types I..V and the triple case analysis) and the pairs-only ML
degree of an arrangement with no triple point are independent
cross-checks that only the tests run (tests/references.py); `analyze`
prints the pair types.

`mldeg` evaluates the inclusion-exclusion sum over subsets I and
coordinate-hyperplane sets X_J; with two P1 factors the outer sign is +1:

    mldeg = sum_{I != 0} (-1)^|I| sum_{J1, J2 proper} (-1)^(|J1|+|J2|)
            chi(V_I  ^  X_(J1,J2)),

and chi(Y) = (-1)^(n+1) * mldeg.  It enumerates 2^(n+1) - 1 subsets, so
it backs the `analyze` term table at desk scale and checks `mldeg_value`.
`mldeg` reads the subset gcds and the face classes (factors.subset_gcd,
factors.face_classes), built once per tensor.  Of the 9 terms of each of
its 2^(n+1) - 1 subsets, the 4 with J1 and J2 both nonempty are 0 (X_J is
empty) and cost a dict store; the 4 one-sided terms cost a class lookup
each, 1 when the face rows of I share one class and 0 otherwise; chi(V_I)
costs a memo read of g(I minus max I) and, only when that is zero or not
constant, a gcd of it with the new pair forms, while r0 asks whether every
x-face class id in I is the same.
"""

from __future__ import annotations

import enum
import itertools
import math

from .errors import DimensionMismatchError, UnstableCountError
# binary_gcd is unused here: perfbench's harness test checks euler.binary_gcd as its sample binding.
from .exact import RatMatrix, Record, binary_gcd, distinct_root_count, integer_row, primitive, rank
from .factors import (
    check_slices,
    face_classes,
    face_minor_x,
    face_minor_y,
    hyp222,
    integer_slices,
    integer_values,
    pair_det_coeffs,
    ratio,
    slice_minor,
    subset_gcd,
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


def classify_type(W: ScalingTensor, i: int, j: int) -> PairType:
    """Type of the slice-pair pencil, read off the six minors and H[i,j]."""
    check_slices(W, i, j)
    values = integer_values(W)
    if values[hyp222(i, j)] != 0:
        return PairType.I
    slices = values[slice_minor(i)] == values[slice_minor(j)] == 0
    faces_x = values[face_minor_x(0, i, j)] == values[face_minor_x(1, i, j)] == 0
    faces_y = values[face_minor_y(0, i, j)] == values[face_minor_y(1, i, j)] == 0
    if slices and faces_x and faces_y:
        return PairType.III
    if slices and faces_x:
        return PairType.II
    if slices and faces_y:
        return PairType.IV_COLS
    if faces_x and faces_y:
        return PairType.IV_ROWS
    return PairType.V


def _slices(W: ScalingTensor, I) -> tuple[int, ...]:
    """I as increasing slice indices of W: ValueError if it is empty, IndexError if one is out of range."""
    ks = tuple(sorted(I))
    if not (ks and 0 <= ks[0] and ks[-1] <= W.n):
        if not ks:
            raise ValueError("I must be nonempty")
        raise IndexError("slice indices out of range")
    return ks


def chi_VI(W: ScalingTensor, I) -> int:
    """chi of V_I in P1 x P1, by the rank/gcd procedure (any |I| >= 1; a repeated slice index counts once)."""
    ks = _slices(W, I)
    g = subset_gcd(W, ks)
    # Row (w_i0k, w_i1k) of face x_i holds the y0, y1 coefficients of pencil
    # entry (k, i); a rank-0 point exists iff all these rows share one class.
    x0, x1 = face_classes(W)[:2]
    first = x0[ks[0]]
    r0 = int(all(x0[k] == first and x1[k] == first for k in ks))
    if not any(g):
        return 2 + r0
    roots = distinct_root_count(g)  # an int, since g is nonzero
    return roots + r0 if roots else 0


def chi_VI_XJ(W: ScalingTensor, I, J) -> int:
    """chi of V_I intersected with the coordinate subspace X_J.

    J = (J1, J2) is one of the nine tuples with components (), (0,) or (1,)
    (ValueError otherwise): J1 lists vanishing x-coordinates, J2 vanishing
    y-coordinates.  Both nonempty gives the empty set; one nonempty reduces
    to hyperplanes in one P1, with chi = 2 - rank of the |I| x 2 face rows,
    which is 1 when the rows are proportional (one face class) and 0
    otherwise; both empty is chi(V_I).  Every path checks I as `chi_VI`
    does, and a repeated slice index counts once.
    """
    if J not in _J_KEYS:
        raise ValueError("J components must be proper subsets of {0, 1}")
    J1, J2 = J
    if not J1 and not J2:
        return chi_VI(W, I)
    ks = _slices(W, I)
    if J1 and J2:
        return 0
    # x_{J1} = 0 leaves the rows of face x_i, i = 1 - J1; y_{J2} = 0 those of y_j, j = 1 - J2.
    classes = face_classes(W)[1 - J1[0] if J1 else 3 - J2[0]]
    first = classes[ks[0]]
    return int(all(classes[k] == first for k in ks))


_ALL_J = list(itertools.product(((), (0,), (1,)), repeat=2))
# Each J with the sign (-1)^(|J1| + |J2|) of its terms and whether X_J is
# empty (J1 and J2 both nonempty), where every term is 0.
_J_TABLE = [(J, (-1) ** (len(J[0]) + len(J[1])), bool(J[0] and J[1])) for J in _ALL_J]
# The "[J1, J2]" that ends each J's key in `term_map_json`.
_J_KEYS = {J: f"{[list(J[0]), list(J[1])]}" for J in _ALL_J}


class MLDegreeReport(Record):
    """ML degree with the full inclusion-exclusion term table."""

    __slots__ = ("mldeg", "chi_Y", "terms")
    mldeg: int
    chi_Y: int
    terms: dict[tuple[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]], int]

    def term_map_json(self) -> dict[str, int]:
        """The terms keyed "I=[k, ...];J=[J1, J2]"; each I's prefix is built once, for its run of nine terms."""
        out = {}
        last = prefix = None
        for (I, J), value in self.terms.items():
            if I != last:
                last, prefix = I, f"I={list(I)};J="
            out[prefix + _J_KEYS[J]] = value
        return out


def mldeg(W: ScalingTensor) -> MLDegreeReport:
    """ML degree of the scaled Segre model attached to W by the paper's inclusion-exclusion, with its term table.

    Enumerates all 2^(n+1) - 1 nonempty slice subsets, so exponential in
    n; intended for desk scale (n <= 12).  `mldeg_value` gives the same
    integer in polynomial time.  The subset gcds it reads stay in the
    tensor's memo, where factors.vanishing_pattern finds them.
    """
    terms: dict = {}
    total = 0
    for size in range(1, W.n + 2):
        sign = (-1) ** size
        for ks in itertools.combinations(range(W.n + 1), size):
            for J, j_sign, empty in _J_TABLE:
                if empty:
                    terms[ks, J] = 0
                else:
                    value = terms[ks, J] = chi_VI_XJ(W, ks, J)
                    total += sign * j_sign * value
    return MLDegreeReport(total, (-1) ** (W.n + 1) * total, terms)


Form = tuple[int, int, int, int]  # a component: a primitive integer (1,1)-form (w00, w01, w10, w11)


def _components(w) -> list[Form]:
    """Distinct components of the union of the quadrics, in slice order."""
    forms = []
    for a, b, c, d in zip(*w[0], *w[1]):
        # A singular slice is (a x0 + c x1)(a y0 + b y1) / a: the x-line times y1, the y-line times x1.
        forms += [(a, b, c, d)] if a * d != b * c else [primitive((0, a, 0, c)), primitive((0, 0, a, b))]
    return list(dict.fromkeys(forms))  # insertion-ordered, so counts never depend on hashing


def _curve_points(w, j: int, k: int) -> list[tuple]:
    """Keys of the torus points of form j ^ form k; a conjugate pair's key is the only 6-tuple.

    The forms meet over the roots t = y0/y1 of c0 t^2 + c1 t + c2, their
    pencil determinant; roots at t = 0 or infinity leave the torus.  A line
    makes the determinant degenerate: a curve and an x-line give c0 = 0, so
    one root; a curve (a, b, c, d) and a y-line (0, 0, a', b') give the
    discriminant (ab' - ba')^2, so two rational roots, one of them where the
    curve meets x1 = 0, outside the torus; an x-line and a y-line give one
    root; two x-lines give a nonzero constant and two y-lines the zero form,
    so parallel lines never meet, and conjugate points come only from two
    curves.
    """
    (w00, w01), (w10, w11) = w
    c0, c1, c2 = pair_det_coeffs(w, j, k)
    if c0 == 0 or c2 == 0:
        # One root lies on an axis; the other is the root of the linear rest.
        a, b = (c1, c2) if c0 == 0 else (c0, c1)
        roots = [ratio(-b, a)]
    else:
        disc = c1 * c1 - 4 * c0 * c2
        r = math.isqrt(disc) if disc > 0 else 0
        if r * r != disc:
            # A conjugate pair over Q(sqrt disc), both in the torus: reduce
            # s = -(c t + d)/(a t + b) modulo c0 t^2 + c1 t + c2 to (A + B t)/N.
            # Both keys are divided by their content here, not by exact.primitive:
            # in this inner loop the call made mldeg_value 30-45 % slower (n = 8-10).
            content = math.gcd(c0, c1, c2) if c0 > 0 else -math.gcd(c0, c1, c2)
            c0, c1, c2 = c0 // content, c1 // content, c2 // content
            a, b, c, d = w00[j], w01[j], w10[j], w11[j]
            N = a * a * c2 - a * b * c1 + b * b * c0  # c0 (a t + b)(a t' + b), nonzero
            A = a * d * c1 - a * c * c2 - b * d * c0
            B = (a * d - b * c) * c0
            g = math.gcd(A, B, N) if N > 0 else -math.gcd(A, B, N)
            return [(c0, c1, c2, A // g, B // g, N // g)]
        roots = {ratio(-c1 + r, 2 * c0), ratio(-c1 - r, 2 * c0)}
    points = []
    for tn, td in filter(None, roots):
        # x = (-B : A) off a nonzero pencil row (A, B); the two rows are
        # proportional at t, and only a y-line's row vanishes, at its own root.
        for i in (j, k):
            A, B = w00[i] * tn + w01[i] * td, w10[i] * tn + w11[i] * td
            if A or B:
                break
        s = ratio(-B, A)
        if s is not None:
            points.append(((tn, td), s))
    return points


def _arrangement(W: ScalingTensor) -> tuple[list[Form], dict[tuple, int]]:
    """The components and, per torus intersection point, the number k_p of component pairs that meet there."""
    forms = _components(integer_slices(W))
    w00, w01, w10, w11 = zip(*forms)
    w = (w00, w01), (w10, w11)
    pairs: dict[tuple, int] = {}
    for j, k in itertools.combinations(range(len(forms)), 2):
        for key in _curve_points(w, j, k):
            pairs[key] = pairs.get(key, 0) + 1
    return forms, pairs


def mldeg_value(W: ScalingTensor) -> int:
    """ML degree from the curve arrangement, in polynomial time.

    mldeg = -chi_T(union of the quadrics) = 2 * #smooth components +
    sum over torus points p of |orbit(p)| * (m_p - 1), with m_p the number
    of distinct components through p, read from the k_p = C(m_p, 2) pairs
    of them that meet at p; a k_p of no such form, which only a key that
    merges two points or splits one gives, raises UnstableCountError.
    Agrees with `mldeg(W).mldeg`, the inclusion-exclusion sum.
    """
    forms, pairs = _arrangement(W)
    total = 2 * sum(a * d != b * c for a, b, c, d in forms)
    for key, k in pairs.items():
        m = (1 + math.isqrt(8 * k + 1)) // 2
        if m * (m - 1) != 2 * k:
            raise UnstableCountError(f"{k} component pairs meet at {key}")
        total += (2 if len(key) == 6 else 1) * (m - 1)
    return total


def mldeg_matrix(M: RatMatrix) -> int:
    """ML degree of a scaled product of two simplices from a scaling matrix.

    The signed sum of exact ranks of all submatrices with nonempty row and
    column index sets.  Every entry must be nonzero.
    """
    if any(x == 0 for row in M.entries for x in row):
        raise ValueError("scaling matrix entries must be nonzero")
    # A submatrix has its transpose's rank, so M is taken with no more columns
    # than rows, and row and column scaling keep every rank: each row becomes
    # its primitive integer vector once, over as few denominators as the shape
    # allows, then each column is divided by its content, and each submatrix
    # is cut from those ints.
    entries = M.entries if M.nrows >= M.ncols else tuple(zip(*M.entries))
    m, n = len(entries), len(entries[0])
    scaled = [primitive(integer_row(row)) for row in entries]
    contents = [math.gcd(*column) for column in zip(*scaled)]
    ints = [[x // g for x, g in zip(row, contents)] for row in scaled]
    total = 0
    for rsize in range(1, m + 1):
        for rows in itertools.combinations(range(m), rsize):
            for csize in range(1, n + 1):
                for cols in itertools.combinations(range(n), csize):
                    sub = RatMatrix(tuple(tuple(ints[r][c] for c in cols) for r in rows))
                    total += (-1) ** (rsize + csize) * rank(sub)
    return total


def pair_types(W: ScalingTensor) -> dict[tuple[int, int], PairType]:
    return {p: classify_type(W, *p) for p in itertools.combinations(range(W.n + 1), 2)}


def degree_bound(n: int) -> int:
    """Top ML degree (n+1)(n+2), attained exactly when no factor vanishes."""
    if n < 1:
        raise DimensionMismatchError("n must be at least 1")
    return (n + 1) * (n + 2)
