"""Factors of the principal A-determinant and their vanishing patterns.

For the scaled Segre product P1 x P1 x Pn the principal A-determinant is
the product of

  * the n+1 slice minors            F[**k]   = det W[..k],
  * the 4*C(n+1,2) face minors      F[i*(k1,k2)] = det W[i.(k1,k2)]  and
                                    F[*j(k1,k2)] = det W[.j(k1,k2)],
  * the C(n+1,2) 2x2x2 hyperdeterminants H[k1,k2] (quartics, evaluated
    as the discriminant of the pencil determinant of slices k1, k2), and
  * the C(n+1,3) 2x2x3 hyperdeterminants H[k1,k2,k3], the resultants of
    the three bilinear quadrics q_k.

The 2x2x3 factor is decided rather than evaluated: it vanishes exactly
when the three quadrics share a projective root, which is read off from
the gcd of the three pairwise pencil determinants: g(I) of `subset_gcd`,
the table `euler.chi_VI` also reads.  Only the zero/nonzero flag is used.

A minor is the determinant of its 2x2 array of cells (`FactorId.cells`);
evaluation, forcing in `realize` and the sign experiment in `strata` all
read that one layout.

Every factor is a torus semi-invariant and chi(V_I) a torus invariant
(Gelfand, Kapranov and Zelevinsky 1994): rescaling the coordinates x_i,
y_j and z_k turns w_ijk into x_i y_j z_k w_ijk and multiplies each factor
by a nonzero product of the scalars.  So the pair forms, minors, H[k1,k2],
face classes and subset gcds are built from one integer view of W's torus
orbit (`integer_slices`), each once per tensor in its memo, which no other
module fills; every evaluation here and in `euler` reads them.  Every zero
test reads the integer table `integer_values`; only `factor_values`, which
`analyze` prints, scales a value back to W's entries, by its cells' scales.

Canonical factor names are the strings "F[**0]", "F[0*(0,1)]",
"F[*1(1,2)]", "H[0,1]", "H[0,1,2]"; patterns are printed as JSON arrays of
those names, sorted slice < face-x < face-y < H22 < H223 and then by
index.  Names are only written: no command reads one back.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .exact import BinaryForm, Record, binary_gcd, integer_row, primitive
from .tensor import ScalingTensor

# kind -> (sort rank, index count, name format, index check); the check knows no n,
# so `eval_minor` checks the slice indices against the tensor's
_KINDS = {
    "slice": (0, 1, "F[**{}]", lambda k: 0 <= k),
    "face_x": (1, 3, "F[{}*({},{})]", lambda i, k1, k2: 0 <= i <= 1 and 0 <= k1 < k2),
    "face_y": (2, 3, "F[*{}({},{})]", lambda j, k1, k2: 0 <= j <= 1 and 0 <= k1 < k2),
    "hyp222": (3, 2, "H[{},{}]", lambda k1, k2: 0 <= k1 < k2),
    "hyp223": (4, 3, "H[{},{},{}]", lambda k1, k2, k3: 0 <= k1 < k2 < k3),
}


class FactorId(Record):
    """One factor of the principal A-determinant, named by kind and indices."""

    __slots__ = ("kind", "index")
    kind: str
    index: tuple[int, ...]

    def __init__(self, kind: str, index: tuple[int, ...]) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown factor kind {kind!r}")
        _, count, _, valid = _KINDS[kind]
        if len(index) != count:
            raise ValueError(f"{kind} takes {count} indices")
        if not valid(*index):
            raise ValueError("slice indices must be nonnegative and strictly increasing, and a face index 0 or 1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)

    # Record's == and hash, written out for these two fields: factor ids are dict keys on
    # every hot path, and Record's generic field tuple costs about six times as much per lookup.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.kind == other.kind and self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.index))

    @property
    def is_minor(self) -> bool:
        return self.kind in ("slice", "face_x", "face_y")

    def sort_key(self) -> tuple:
        return (_KINDS[self.kind][0], self.index)

    @property
    def name(self) -> str:
        return _KINDS[self.kind][2].format(*self.index)

    def cells(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """The minor's 2x2 array of positions (i, j, k), laid out as W[..k], W[i.(k1,k2)], W[.j(k1,k2)] in `tensor`."""
        if self.kind == "slice":
            (k,) = self.index
            return ((0, 0, k), (0, 1, k)), ((1, 0, k), (1, 1, k))
        if self.kind == "face_x":
            i, k1, k2 = self.index
            return ((i, 0, k1), (i, 1, k1)), ((i, 0, k2), (i, 1, k2))
        if self.kind == "face_y":
            j, k1, k2 = self.index
            return ((0, j, k1), (1, j, k1)), ((0, j, k2), (1, j, k2))
        raise ValueError(f"{self.name} is not a minor")

    def variables(self) -> frozenset[tuple[int, int, int]]:
        """The four tensor entries a minor involves (minors only)."""
        return frozenset(itertools.chain(*self.cells()))

    def __repr__(self) -> str:
        return f"FactorId({self.name!r})"


def slice_minor(k: int) -> FactorId:
    return FactorId("slice", (k,))


def face_minor_x(i: int, k1: int, k2: int) -> FactorId:
    return FactorId("face_x", (i, k1, k2))


def face_minor_y(j: int, k1: int, k2: int) -> FactorId:
    return FactorId("face_y", (j, k1, k2))


def hyp222(k1: int, k2: int) -> FactorId:
    return FactorId("hyp222", (k1, k2))


def hyp223(k1: int, k2: int, k3: int) -> FactorId:
    return FactorId("hyp223", (k1, k2, k3))


@functools.cache
def all_factors(n: int) -> tuple[FactorId, ...]:
    """Every factor for a 2 x 2 x (n+1) tensor, in canonical order; built once per n."""
    out = [slice_minor(k) for k in range(n + 1)]
    pairs = list(itertools.combinations(range(n + 1), 2))
    out += [face_minor_x(i, k1, k2) for i in range(2) for (k1, k2) in pairs]
    out += [face_minor_y(j, k1, k2) for j in range(2) for (k1, k2) in pairs]
    out += [hyp222(k1, k2) for (k1, k2) in pairs]
    out += [hyp223(k1, k2, k3) for (k1, k2, k3) in itertools.combinations(range(n + 1), 3)]
    return tuple(sorted(out, key=FactorId.sort_key))


# -- evaluation --------------------------------------------------------------


def check_slices(W: ScalingTensor, *ks: int) -> None:
    """ValueError unless the slice indices ks strictly increase, then IndexError unless all are in 0..W.n."""
    if not all(map(operator.lt, ks, ks[1:])):
        raise ValueError("slice indices must strictly increase")
    if ks[0] < 0 or ks[-1] > W.n:
        raise IndexError("slice indices out of range")


def eval_minor(W: ScalingTensor, fid: FactorId) -> Fraction:
    """Exact value of a 2-minor factor on the raw entries: the determinant of its cells."""
    check_slices(W, fid.index[-1])  # the largest slice index: face indices come first
    return _minor(W.w, fid)


def _minor(w, fid: FactorId):
    ((a0, a1, a2), (b0, b1, b2)), ((c0, c1, c2), (d0, d1, d2)) = fid.cells()
    return w[a0][a1][a2] * w[d0][d1][d2] - w[b0][b1][b2] * w[c0][c1][c2]


def pair_det_coeffs(w, k1: int, k2: int) -> tuple:
    """(c0, c1, c2) of the pencil determinant of slices (k1, k2), from raw [2][2][n+1] entries w.

    Row k of the pencil matrix is (w00k y0 + w01k y1, w10k y0 + w11k y1).
    c0 and c2 are the face minors F[*0(k1,k2)] and F[*1(k1,k2)], c1 the
    4-term bilinear bracket, and c1^2 - 4 c0 c2 is H[k1,k2].
    """
    (w00, w01), (w10, w11) = w
    a00, a01, a10, a11 = w00[k1], w01[k1], w10[k1], w11[k1]
    b00, b01, b10, b11 = w00[k2], w01[k2], w10[k2], w11[k2]
    return (
        a00 * b10 - a10 * b00,
        a00 * b11 + a01 * b10 - a10 * b01 - a11 * b00,
        a01 * b11 - a11 * b01,
    )


def eval_hyp222(W: ScalingTensor, k1: int, k2: int) -> Fraction:
    """The 2x2x2 hyperdeterminant of slices (k1, k2): the discriminant of their pair form."""
    check_slices(W, k1, k2)
    return factor_values(W)[hyp222(k1, k2)]


def hyp223_vanishes(W: ScalingTensor, k1: int, k2: int, k3: int) -> bool:
    """Whether the 2x2x3 hyperdeterminant (resultant of q_k1, q_k2, q_k3) is 0.

    The resultant vanishes iff the three quadrics share a point of
    P1 x P1, iff the three pairwise pencil determinants share a projective
    root in y, read off from their gcd (nonconstant or identically zero).
    """
    check_slices(W, k1, k2, k3)
    g = subset_gcd(W, (k1, k2, k3))
    return g.is_zero or g.degree >= 1


class VanishingPattern(Record):
    """The set of principal A-determinant factors vanishing at a tensor."""

    __slots__ = ("n", "vanishing")
    n: int
    vanishing: tuple[FactorId, ...]

    def __init__(self, n: int, vanishing: tuple[FactorId, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vanishing", tuple(sorted(set(vanishing), key=FactorId.sort_key)))

    @property
    def factors(self) -> frozenset[FactorId]:
        return frozenset(self.vanishing)

    def names(self) -> list[str]:
        return [f.name for f in self.vanishing]

    def __contains__(self, fid: FactorId) -> bool:
        return fid in self.factors

    def __len__(self) -> int:
        return len(self.vanishing)


def vanishing_pattern(W: ScalingTensor) -> VanishingPattern:
    """The zeros of `integer_values` plus the vanishing 2x2x3 factors."""
    zeros = [f for f, value in integer_values(W).items() if value == 0]
    triples = itertools.combinations(range(W.n + 1), 3)
    return VanishingPattern(W.n, (*zeros, *(hyp223(*ks) for ks in triples if hyp223_vanishes(W, *ks))))


# -- values memoized per tensor ------------------------------------------------


def _per_tensor(build):
    """Make `build` a table of W: computed on first use and kept in W's memo under its name."""
    return functools.wraps(build)(lambda W: W.memo(build.__name__, build))


@_per_tensor
def integer_slices(W: ScalingTensor) -> tuple:
    """w[i][j][k] ints R: a primitive representative of W's torus orbit, with a > 0 in every slice (a, b, c, d).

    Each slice is made `primitive` first, so rescaling a slice of W changes
    nothing here.  Then each x-plane (cells (i, ., .)) and each y-column
    (cells (., j, .)) is divided by its content, and each slice is made
    primitive again.  Dividing an entry never raises a content, so every
    plane, column and slice ends with content 1.  W's cell (i, j, k) is
    c_ijk R_ijk for a cell scale c_ijk = x_i y_j z_k, so c_00k c_11k = c_01k c_10k.
    """
    entries = list(zip(*(primitive(integer_row(row)) for row in zip(*W.w[0], *W.w[1]))))  # a, b, c, d, each across k
    ga, gb, gc, gd = (math.gcd(*column) for column in entries)
    # the contents of the x-planes (a, b) and (c, d), then of the y-columns (a, c) and (b, d) once those are divided
    x0, x1 = math.gcd(ga, gb), math.gcd(gc, gd)
    y0, y1 = math.gcd(ga // x0, gc // x1), math.gcd(gb // x0, gd // x1)
    if x0 * x1 * y0 * y1 > 1:  # every divisor is positive, so a stays > 0
        da, db, dc, dd = x0 * y0, x0 * y1, x1 * y0, x1 * y1
        slices = []
        for a, b, c, d in zip(*entries):
            a, b, c, d = a // da, b // db, c // dc, d // dd
            g = math.gcd(a, b, c, d)
            slices.append((a // g, b // g, c // g, d // g))
        entries = list(zip(*slices))
    a, b, c, d = entries
    return (a, b), (c, d)


def ratio(num: int, den: int) -> tuple[int, int] | None:
    """num/den reduced with den > 0, when it is a torus coordinate (neither 0 nor infinity), else None."""
    if num == 0 or den == 0:
        return None
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


@_per_tensor
def pair_forms(W: ScalingTensor) -> dict[tuple[int, int], BinaryForm]:
    """The pencil determinant of every slice pair k1 < k2 on `integer_slices`."""
    w = integer_slices(W)
    return {p: BinaryForm(pair_det_coeffs(w, *p)) for p in itertools.combinations(range(W.n + 1), 2)}


@_per_tensor
def integer_values(W: ScalingTensor) -> dict[FactorId, int]:
    """The int value of every minor on `integer_slices`, and of every H[k1,k2] as the discriminant of its pair form.

    Each is the factor's value on W divided by a nonzero product of cell
    scales (see `factor_values`), so every zero test reads this table.
    """
    w = integer_slices(W)
    values = {fid: _minor(w, fid) for fid in all_factors(W.n) if fid.is_minor}
    return values | {hyp222(*ks): form.discriminant() for ks, form in pair_forms(W).items()}


@_per_tensor
def factor_values(W: ScalingTensor) -> dict[FactorId, Fraction]:
    """The value of every minor and every H[k1,k2] on W's entries, for printing.

    W's cell (i, j, k) is c_ijk times the cell R_ijk of `integer_slices`, and
    c_ijk = x_i y_j z_k, so a minor is c_a c_d times its `integer_values`
    entry, for its diagonal cells a and d, and H[k1,k2] is t_k1 t_k2 times
    it, with t_k = c_00k c_11k; 2x2x3 factors are decided, not valued.  Each
    scale is kept as its reduced numerator and denominator, and each value is
    one Fraction of their int products, normalized once.
    """
    scales = [[[w / r for w, r in zip(*row)] for row in zip(*plane)] for plane in zip(W.w, integer_slices(W))]
    c = [[[(s.numerator, s.denominator) for s in row] for row in plane] for plane in scales]
    t = [(p * r, q * s) for (p, q), (r, s) in zip(c[0][0], c[1][1])]
    values = {}
    for fid, value in integer_values(W).items():
        if fid.is_minor:
            ((a0, a1, a2), _), (_, (d0, d1, d2)) = fid.cells()
            (p, q), (r, s) = c[a0][a1][a2], c[d0][d1][d2]
        else:
            (p, q), (r, s) = t[fid.index[0]], t[fid.index[1]]
        values[fid] = Fraction(p * r * value, q * s)
    return values


@_per_tensor
def face_classes(W: ScalingTensor) -> tuple[tuple[int, ...], ...]:
    """Proportionality class ids of the face rows.

    One tuple per face, in the order x0, x1, y0, y1, indexed by slice.  The
    row of slice k on face x_i is (w_i0k, w_i1k), on face y_j it is
    (w_0jk, w_1jk); its class id stands for the ratio w_i1k/w_i0k resp.
    w_1jk/w_0jk, a `ratio` of integer slices.  Two rows are proportional iff
    their ids are equal; ids are shared by all faces, so x0 and x1 rows compare.
    An x-face id is never compared with a y-face id: a torus rescale moves
    the two kinds of ratio by different scalars.
    """
    (w00, w01), (w10, w11) = integer_slices(W)
    ids: dict[tuple[int, int], int] = {}
    return tuple(
        tuple(ids.setdefault(ratio(b, a), len(ids)) for a, b in zip(first, second))
        for first, second in ((w00, w01), (w10, w11), (w00, w10), (w01, w11))
    )


def subset_gcd(W: ScalingTensor, ks: tuple[int, ...]) -> BinaryForm:
    """Primitive int gcd of the pair forms over the pairs in ks (nondecreasing), kept for every prefix of ks.

    g((k,)) is the zero form, since a single slice has no pairs, and
    g(ks) = gcd(g(ks[:-1]), the forms pairing ks[-1] with ks[:-1]).  The
    subset sum meets ks[:-1] before ks, so each subset costs one memo read
    of g(ks[:-1]) and, only when that is zero or not constant, one
    `binary_gcd` of it and the new forms; a nonzero constant g(ks[:-1]),
    or any g(ks[:-1]) when ks[-1] repeats ks[-2] (no new pair), is stored
    as g(ks) as it is.
    """
    gcds = W.memo("subset_gcds", lambda W: {(k,): BinaryForm.zero() for k in range(W.n + 1)})
    g = gcds.get(ks)
    if g is None:
        head, last = ks[:-1], ks[-1]
        g = subset_gcd(W, head)
        if last != head[-1] and (g.degree or g.is_zero):
            forms = pair_forms(W)
            g = binary_gcd([g] + [forms[k, last] for k in head])
        gcds[ks] = g
    return g
