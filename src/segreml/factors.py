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

Every factor and chi(V_I) is projective in each slice, so the pair forms,
minors, H[k1,k2], face classes and subset gcds are built from the primitive
integer slices (`integer_slices`), each once per tensor in its memo, which
no other module fills; every evaluation here and in `euler` reads them.
Every zero test reads the integer table `integer_values`; only
`factor_values`, which `analyze` prints, scales a value back to W's
entries, by its slices' scales.

Canonical factor names are the strings "F[**0]", "F[0*(0,1)]",
"F[*1(1,2)]", "H[0,1]", "H[0,1,2]"; patterns are printed as JSON arrays of
those names, sorted slice < face-x < face-y < H22 < H223 and then by
index.  Names are only written: no command reads one back.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .exact import BinaryForm, Record, binary_gcd, integer_row, primitive
from .tensor import ScalingTensor

# kind -> (sort rank, index count, name format)
_KINDS = {
    "slice": (0, 1, "F[**{}]"),
    "face_x": (1, 3, "F[{}*({},{})]"),
    "face_y": (2, 3, "F[*{}({},{})]"),
    "hyp222": (3, 2, "H[{},{}]"),
    "hyp223": (4, 3, "H[{},{},{}]"),
}


class FactorId(Record):
    """One factor of the principal A-determinant, named by kind and indices."""

    __slots__ = ("kind", "index")
    kind: str
    index: tuple[int, ...]

    def __init__(self, kind: str, index: tuple[int, ...]) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown factor kind {kind!r}")
        if len(index) != _KINDS[kind][1]:
            raise ValueError(f"{kind} takes {_KINDS[kind][1]} indices")
        ks = index[1:] if kind in ("face_x", "face_y") else index
        if kind != "slice" and list(ks) != sorted(set(ks)):
            raise ValueError("slice indices must be strictly increasing")
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


def eval_minor(W: ScalingTensor, fid: FactorId) -> Fraction:
    """Exact value of a 2-minor factor on the raw entries: the determinant of its cells."""
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
    if not k1 < k2:
        raise ValueError("require k1 < k2")
    return factor_values(W)[hyp222(k1, k2)]


def hyp223_vanishes(W: ScalingTensor, k1: int, k2: int, k3: int) -> bool:
    """Whether the 2x2x3 hyperdeterminant (resultant of q_k1, q_k2, q_k3) is 0.

    The resultant vanishes iff the three quadrics share a point of
    P1 x P1, iff the three pairwise pencil determinants share a projective
    root in y, read off from their gcd (nonconstant or identically zero).
    """
    if not k1 < k2 < k3:
        raise ValueError("require k1 < k2 < k3")
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
    """w[i][j][k] ints: slice k is the `primitive` (a, b, c, d), a > 0, proportional to W's slice k."""
    a, b, c, d = zip(*(primitive(integer_row(row)) for row in zip(*W.w[0], *W.w[1])))
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

    Each is the factor's value on W divided by a nonzero product of slice
    scales (see `factor_values`), so every zero test reads this table.
    """
    w = integer_slices(W)
    values = {fid: _minor(w, fid) for fid in all_factors(W.n) if fid.is_minor}
    return values | {hyp222(*ks): form.discriminant() for ks, form in pair_forms(W).items()}


@_per_tensor
def factor_values(W: ScalingTensor) -> dict[FactorId, Fraction]:
    """The value of every minor and every H[k1,k2] on W's entries, for printing.

    With W's slice k = s_k times slice k of `integer_slices`, a minor on slices
    k1, k2 is s_k1 s_k2 times its `integer_values` entry, H[k1,k2] (s_k1 s_k2)^2
    times it; 2x2x3 factors are decided, not valued.
    """
    s = [w00 / a for w00, a in zip(W.w[0][0], integer_slices(W)[0][0])]
    scale = {ks: s[ks[0]] * s[ks[1]] for ks in itertools.combinations_with_replacement(range(W.n + 1), 2)}
    values = {}
    for fid, value in integer_values(W).items():
        if fid.is_minor:  # row 0 of its cells lies on one slice, row 1 on the other
            ((_, _, k1), _), ((_, _, k2), _) = fid.cells()
            values[fid] = scale[k1, k2] * value
        else:
            values[fid] = scale[fid.index] ** 2 * value
    return values


@_per_tensor
def face_classes(W: ScalingTensor) -> tuple[tuple[int, ...], ...]:
    """Proportionality class ids of the face rows.

    One tuple per face, in the order x0, x1, y0, y1, indexed by slice.  The
    row of slice k on face x_i is (w_i0k, w_i1k), on face y_j it is
    (w_0jk, w_1jk); its class id stands for the ratio w_i1k/w_i0k resp.
    w_1jk/w_0jk, a `ratio` of integer slices.  Two rows are proportional iff
    their ids are equal; ids are shared by all faces, so x0 and x1 rows compare.
    """
    (w00, w01), (w10, w11) = integer_slices(W)
    ids: dict[tuple[int, int], int] = {}
    return tuple(
        tuple(ids.setdefault(ratio(b, a), len(ids)) for a, b in zip(first, second))
        for first, second in ((w00, w01), (w10, w11), (w00, w10), (w01, w11))
    )


def subset_gcd(W: ScalingTensor, ks: tuple[int, ...]) -> BinaryForm:
    """Primitive int gcd of the pair forms over the pairs in ks (increasing), kept for every prefix of ks.

    g((k,)) is the zero form, since a single slice has no pairs, and
    g(ks) = gcd(g(ks[:-1]), the forms pairing ks[-1] with ks[:-1]).  The
    subset sum meets ks[:-1] before ks, so each subset gcds only its new
    forms, and a constant g(ks[:-1]) ends the gcd at once.
    """
    gcds = W.memo("subset_gcds", lambda W: {(k,): BinaryForm.zero() for k in range(W.n + 1)})
    if ks not in gcds:
        head, last = ks[:-1], ks[-1]
        forms = pair_forms(W)
        gcds[ks] = binary_gcd([subset_gcd(W, head)] + [forms[k, last] for k in head])
    return gcds[ks]
