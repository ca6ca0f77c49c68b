"""Factors of the principal A-determinant and their vanishing combinatorics.

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
evaluation, forcing in `realize`, the structure tests and the atlas's
corners all read that one layout.

The pencil determinants, the values of the minors and of H[k1,k2], the
face classes and the subset gcds are built once per tensor in its memo
(`pair_forms`, `factor_values`, `face_classes`, `subset_gcd`), which no
other module fills; every evaluation here and in `euler` reads them.

Canonical factor names are the strings "F[**0]", "F[0*(0,1)]",
"F[*1(1,2)]", "H[0,1]", "H[0,1,2]"; patterns serialize as JSON arrays of
those names, sorted slice < face-x < face-y < H22 < H223 and then by
index.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from .exact import BinaryForm, binary_gcd
from .tensor import ScalingTensor

_KIND_ORDER = {"slice": 0, "face_x": 1, "face_y": 2, "hyp222": 3, "hyp223": 4}

_NAME_RE = re.compile(
    r"^(?:F\[\*\*(?P<slice>\d+)\]"
    r"|F\[(?P<xi>[01])\*\((?P<xk1>\d+),(?P<xk2>\d+)\)\]"
    r"|F\[\*(?P<yj>[01])\((?P<yk1>\d+),(?P<yk2>\d+)\)\]"
    r"|H\[(?P<h1>\d+),(?P<h2>\d+)(?:,(?P<h3>\d+))?\])$"
)


@dataclass(frozen=True)
class FactorId:
    """One factor of the principal A-determinant, named by kind and indices."""

    kind: str
    index: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = {"slice": 1, "face_x": 3, "face_y": 3, "hyp222": 2, "hyp223": 3}
        if self.kind not in expected:
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if len(self.index) != expected[self.kind]:
            raise ValueError(f"{self.kind} takes {expected[self.kind]} indices")
        ks = self.index[1:] if self.kind in ("face_x", "face_y") else self.index
        if self.kind != "slice" and list(ks) != sorted(set(ks)):
            raise ValueError("slice indices must be strictly increasing")

    @property
    def is_minor(self) -> bool:
        return self.kind in ("slice", "face_x", "face_y")

    def sort_key(self) -> tuple:
        return (_KIND_ORDER[self.kind], self.index)

    @property
    def name(self) -> str:
        if self.kind == "slice":
            return f"F[**{self.index[0]}]"
        if self.kind == "face_x":
            i, k1, k2 = self.index
            return f"F[{i}*({k1},{k2})]"
        if self.kind == "face_y":
            j, k1, k2 = self.index
            return f"F[*{j}({k1},{k2})]"
        return "H[" + ",".join(str(k) for k in self.index) + "]"

    @classmethod
    def parse(cls, name: str) -> FactorId:
        m = _NAME_RE.match(name.strip())
        if not m:
            raise ValueError(f"unrecognized factor name {name!r}")
        g = m.groupdict()
        if g["slice"] is not None:
            return slice_minor(int(g["slice"]))
        if g["xi"] is not None:
            return face_minor_x(int(g["xi"]), int(g["xk1"]), int(g["xk2"]))
        if g["yj"] is not None:
            return face_minor_y(int(g["yj"]), int(g["yk1"]), int(g["yk2"]))
        if g["h3"] is not None:
            return hyp223(int(g["h1"]), int(g["h2"]), int(g["h3"]))
        return hyp222(int(g["h1"]), int(g["h2"]))

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


def all_factors(n: int) -> list[FactorId]:
    """Every factor for a 2 x 2 x (n+1) tensor, in canonical order."""
    out = [slice_minor(k) for k in range(n + 1)]
    pairs = list(itertools.combinations(range(n + 1), 2))
    out += [face_minor_x(i, k1, k2) for i in range(2) for (k1, k2) in pairs]
    out += [face_minor_y(j, k1, k2) for j in range(2) for (k1, k2) in pairs]
    out += [hyp222(k1, k2) for (k1, k2) in pairs]
    out += [hyp223(k1, k2, k3) for (k1, k2, k3) in itertools.combinations(range(n + 1), 3)]
    return sorted(out, key=FactorId.sort_key)


# -- evaluation --------------------------------------------------------------


def eval_minor(W: ScalingTensor, fid: FactorId) -> Fraction:
    """Exact value of a 2-minor factor: the determinant of its cells."""
    w = W.w
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


def pair_det_form(W: ScalingTensor, k1: int, k2: int) -> BinaryForm:
    """det of the 2x2 pencil matrix of slices (k1, k2) as a quadric in y; `subset_gcd` takes their gcds."""
    return BinaryForm(pair_det_coeffs(W.w, k1, k2))


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


@dataclass(frozen=True)
class VanishingPattern:
    """The set of principal A-determinant factors vanishing at a tensor."""

    n: int
    vanishing: tuple[FactorId, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.vanishing), key=FactorId.sort_key))
        object.__setattr__(self, "vanishing", ordered)

    @property
    def factors(self) -> frozenset[FactorId]:
        return frozenset(self.vanishing)

    def is_empty(self) -> bool:
        return not self.vanishing

    def names(self) -> list[str]:
        return [f.name for f in self.vanishing]

    @classmethod
    def from_names(cls, n: int, names) -> VanishingPattern:
        return cls(n, tuple(FactorId.parse(s) for s in names))

    def __contains__(self, fid: FactorId) -> bool:
        return fid in self.factors

    def __len__(self) -> int:
        return len(self.vanishing)


def vanishing_pattern(W: ScalingTensor) -> VanishingPattern:
    """The zeros of `factor_values` plus the vanishing 2x2x3 factors."""
    zeros = [f for f, value in factor_values(W).items() if value == 0]
    triples = itertools.combinations(range(W.n + 1), 3)
    return VanishingPattern(W.n, (*zeros, *(hyp223(*ks) for ks in triples if hyp223_vanishes(W, *ks))))


# -- values memoized per tensor ------------------------------------------------


def pair_forms(W: ScalingTensor) -> dict[tuple[int, int], BinaryForm]:
    """pair_det_form(W, k1, k2) for every pair k1 < k2, built once per tensor."""
    return W.memo("pair_forms", _build_pair_forms)


def _build_pair_forms(W: ScalingTensor) -> dict[tuple[int, int], BinaryForm]:
    return {p: pair_det_form(W, *p) for p in itertools.combinations(range(W.n + 1), 2)}


def factor_values(W: ScalingTensor) -> dict[FactorId, Fraction]:
    """The value of every minor and every H[k1,k2], built once per tensor.

    H[k1,k2] is the discriminant of the pair form of slices k1, k2.  The
    2x2x3 factors are decided, not evaluated, so they have no entry.
    """
    return W.memo("factor_values", _build_factor_values)


def _build_factor_values(W: ScalingTensor) -> dict[FactorId, Fraction]:
    forms = pair_forms(W)
    return {
        fid: eval_minor(W, fid) if fid.is_minor else forms[fid.index].discriminant()
        for fid in all_factors(W.n)
        if fid.kind != "hyp223"
    }


def face_classes(W: ScalingTensor) -> tuple[tuple[int, ...], ...]:
    """Proportionality class ids of the face rows, built once per tensor.

    One tuple per face, in the order x0, x1, y0, y1, indexed by slice.  The
    row of slice k on face x_i is (w_i0k, w_i1k), on face y_j it is
    (w_0jk, w_1jk); its class id stands for the ratio w_i1k/w_i0k resp.
    w_1jk/w_0jk.  Two rows are proportional iff their ids are equal, and
    the ids are shared by all four faces, so rows of x0 and x1 compare too.
    """
    return W.memo("face_classes", _build_face_classes)


def _build_face_classes(W: ScalingTensor) -> tuple[tuple[int, ...], ...]:
    (w00, w01), (w10, w11) = W.w
    ids: dict[Fraction, int] = {}
    return tuple(
        tuple(ids.setdefault(b / a, len(ids)) for a, b in zip(first, second))
        for first, second in ((w00, w01), (w10, w11), (w00, w10), (w01, w11))
    )


def subset_gcd(W: ScalingTensor, ks: tuple[int, ...]) -> BinaryForm:
    """gcd of the pair forms over the pairs in ks (increasing), kept for every prefix of ks.

    g((k,)) is the zero form, since a single slice has no pairs, and
    g(ks) = gcd(g(ks[:-1]), the forms pairing ks[-1] with ks[:-1]).  The
    subset sum meets ks[:-1] before ks, so each subset gcds only its new
    forms, and a constant g(ks[:-1]) ends the gcd at once.
    """
    gcds = W.memo("subset_gcds", lambda W: {(k,): BinaryForm.zero() for k in range(W.n + 1)})
    if ks not in gcds:
        forms = pair_forms(W)
        start = len(ks)
        while ks[: start - 1] not in gcds:
            start -= 1
        for size in range(start, len(ks) + 1):
            head, last = ks[: size - 1], ks[size - 1]
            gcds[ks[:size]] = binary_gcd([gcds[head]] + [forms[(k, last)] for k in head])
    return gcds[ks]


def map_factor(fid: FactorId, perm=None, swap: bool = False) -> FactorId:
    """Relabel a factor id under a slice permutation and/or the x-y swap.

    Applying this to the pattern of W.permute_slices(perm) (or W.swap_xy())
    recovers the pattern of W.
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


# -- combinatorial structures -------------------------------------------------


def _slices(f: FactorId) -> set[int]:
    """The slice indices of a minor's cells: {k} or {k1, k2}."""
    return {k for _, _, k in f.variables()}


def _same_face(f: FactorId, g: FactorId) -> bool:
    return f.kind == g.kind and f.kind in ("face_x", "face_y") and f.index[0] == g.index[0]


def _disjoint(f: FactorId, g: FactorId) -> bool:
    return not (f.variables() & g.variables())


@dataclass(frozen=True)
class StructureReport:
    """Hooks, mirrors, square cups and cubic frames among a set of minors."""

    hooks: tuple[frozenset[FactorId], ...]
    mirrors: tuple[frozenset[FactorId], ...]
    square_cups: tuple[frozenset[FactorId], ...]
    cubic_frames: tuple[frozenset[FactorId], ...]


def detect_structures(minors, n: int) -> StructureReport:
    """Find all structure instances among the given vanishing minors.

    Accepts a VanishingPattern or any iterable of factor ids; factors
    other than minors are ignored.  A hook is a pair of minors not on the
    same face sharing exactly two variables.  A mirror is a
    variable-disjoint pair inside a common 2x2x2 subtensor.  A square cup
    is a mirror plus any third minor of the same subtensor, and a cubic
    frame is two disjoint pairs of minors of one subtensor.
    """
    if isinstance(minors, VanishingPattern):
        minors = minors.vanishing
    ms = sorted({f for f in minors if f.is_minor}, key=FactorId.sort_key)
    hooks = []
    mirrors = []
    for f, g in itertools.combinations(ms, 2):
        if not _same_face(f, g) and len(f.variables() & g.variables()) == 2:
            hooks.append(frozenset({f, g}))
        if _disjoint(f, g) and len(_slices(f) | _slices(g)) <= 2:
            mirrors.append(frozenset({f, g}))
    cups = set()
    frames = set()
    for k1, k2 in itertools.combinations(range(n + 1), 2):
        local = [f for f in ms if _slices(f) <= {k1, k2}]
        for triple in itertools.combinations(local, 3):
            if any(_disjoint(f, g) for f, g in itertools.combinations(triple, 2)):
                cups.add(frozenset(triple))
        for quad in itertools.combinations(local, 4):
            for f1, f2 in itertools.combinations(quad, 2):
                f3, f4 = (x for x in quad if x not in (f1, f2))
                if _disjoint(f1, f2) and _disjoint(f3, f4):
                    frames.add(frozenset(quad))
                    break
    ordered = lambda sets: tuple(sorted(sets, key=lambda s: sorted(f.sort_key() for f in s)))
    return StructureReport(ordered(hooks), ordered(mirrors), ordered(cups), ordered(frames))


def forces_hyperdeterminant(minors) -> bool:
    """Whether vanishing of this minor set forces a hyperdeterminant factor.

    True exactly when the set contains a square cup, or two minors on the
    same face whose slice pairs overlap (two of the three minors of a face
    of some 2x2x3 subtensor).  Face pairs with disjoint slice indices force
    nothing; in particular alternating-hook families never trigger this.
    """
    if isinstance(minors, VanishingPattern):
        minors = minors.vanishing
    ms = {f for f in minors if f.is_minor}
    if any(_same_face(f, g) and _slices(f) & _slices(g) for f, g in itertools.combinations(ms, 2)):
        return True
    n = max((k for f in ms for k in _slices(f)), default=0)
    return bool(detect_structures(ms, n).square_cups)


# -- the n = 1 classification --------------------------------------------------


def n1_corners() -> list[frozenset[FactorId]]:
    """The 8 corner triples: the three minors through one cell, one per axis."""
    return [
        frozenset({face_minor_x(i, 0, 1), face_minor_y(j, 0, 1), slice_minor(k)})
        for i in range(2)
        for j in range(2)
        for k in range(2)
    ]


def n1_frames() -> list[frozenset[FactorId]]:
    """The 3 cubic frames plus H[0,1]: two of the three minor pairs x, y, slice."""
    h = hyp222(0, 1)
    fx = [face_minor_x(i, 0, 1) for i in range(2)]
    fy = [face_minor_y(j, 0, 1) for j in range(2)]
    sl = [slice_minor(k) for k in range(2)]
    return [
        frozenset({*fx, *fy, h}),
        frozenset({*fx, *sl, h}),
        frozenset({*fy, *sl, h}),
    ]


def classify_pattern_n1(pattern: VanishingPattern) -> int | None:
    """Euler characteristic of the n=1 stratum with this pattern, or None.

    Feasible patterns: the empty set (chi 6), the 7 singletons (5), all 21
    pairs (4), the 8 corner triples (3), the 3 cubic-frame-plus-H
    quintuples (2), and the full set (1); every other subset of the seven
    factors is infeasible.
    """
    if pattern.n != 1:
        raise ValueError("classification is specific to n = 1")
    universe = set(all_factors(1))
    fs = pattern.factors
    if not fs <= universe:
        raise ValueError("pattern contains factors outside the n=1 universe")
    size = len(fs)
    if size == 0:
        return 6
    if size == 1:
        return 5
    if size == 2:
        return 4
    if size == 3 and fs in n1_corners():
        return 3
    if size == 5 and fs in n1_frames():
        return 2
    if size == 7:
        return 1
    return None
