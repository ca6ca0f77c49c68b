"""Shared fixtures-in-spirit: reference tensors and random generators."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd
from operator import getitem
from pathlib import Path
from typing import Sequence

import pytest

import segreml
from segreml.errors import DimensionMismatchError
from segreml.tensor import ScalingTensor

# The rank-deficient / full-rank counterexample pair: identical vanishing
# patterns ({three F[*0] minors, H[0,1,2]}) but ML degrees 8 and 9.
COUNTEREXAMPLE_W = ScalingTensor.from_slices(
    [[[1, 3], [2, 4]], [[2, 1], [4, 6]], [[3, 4], [6, 10]]]
)
COUNTEREXAMPLE_W_PRIME = ScalingTensor.from_slices(
    [[[1, 3], [2, 4]], [[2, 1], [4, 6]], [[3, 3], [6, 1]]]
)

# Three quadrics 2+x+5y+2xy, 2+2x+5y+2xy, 1+x+y+xy: five vanishing hook
# constraints, ML degree 7 = 12 - 5.
HOOK_EXAMPLE = ScalingTensor.from_slices(
    [[[2, 5], [1, 2]], [[2, 5], [2, 2]], [[1, 1], [1, 1]]]
)

# Two conjugate point pairs over one t-polynomial: slices 0 and 1 meet over
# t^2 = 2 at s = 1 + t, slices 2 and 3 at s = 1 + 2t.  ML degree 18; a
# conjugate-point key that drops its B term merges the two pairs and reads 20.
TWIN_CONJUGATES_W = ScalingTensor.from_slices(
    [[[1, 1], [-2, -3]], [[1, 2], [-3, -4]], [[1, 1], [-3, -5]], [[1, 3], [-7, -7]]]
)


def all_ones(n: int) -> ScalingTensor:
    return ScalingTensor.from_entries(n, [[[1] * (n + 1)] * 2] * 2)


def torus_rescale(W: ScalingTensor, a: Sequence, b: Sequence, c: Sequence) -> ScalingTensor:
    """w'_{ijk} = a_i * b_j * c_k * w_{ijk}; every scalar must be nonzero."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    c = [Fraction(x) for x in c]
    if len(a) != 2 or len(b) != 2 or len(c) != W.n + 1:
        raise DimensionMismatchError("scalar vectors must have lengths 2, 2, n+1")
    if any(x == 0 for x in a + b + c):
        raise ValueError("torus scalars must be nonzero")
    return ScalingTensor.from_entries(
        W.n,
        [[[a[i] * b[j] * c[k] * W.w[i][j][k] for k in range(W.n + 1)] for j in range(2)] for i in range(2)],
    )


def permute_slices(W: ScalingTensor, perm: Sequence[int]) -> ScalingTensor:
    """Reorder slices: the k-th slice of the result is slice perm[k]."""
    if sorted(perm) != list(range(W.n + 1)):
        raise ValueError("perm must be a permutation of 0..n")
    return ScalingTensor.from_entries(
        W.n,
        [[[W.w[i][j][perm[k]] for k in range(W.n + 1)] for j in range(2)] for i in range(2)],
    )


def swap_xy(W: ScalingTensor) -> ScalingTensor:
    """Transpose the first two modes: w'_{ijk} = w_{jik}."""
    return ScalingTensor.from_entries(
        W.n,
        [[[W.w[j][i][k] for k in range(W.n + 1)] for j in range(2)] for i in range(2)],
    )


def duplicate_last_slice(W: ScalingTensor) -> ScalingTensor:
    """Append a copy of slice n, producing a tensor with n+2 slices."""
    return ScalingTensor.from_entries(
        W.n + 1,
        [[list(W.w[i][j]) + [W.w[i][j][W.n]] for j in range(2)] for i in range(2)],
    )


def random_tensor(rng: random.Random, n: int, bound: int = 20) -> ScalingTensor:
    """Integer entries uniform in [-bound, bound] without zero."""
    pool = [v for v in range(-bound, bound + 1) if v != 0]
    return ScalingTensor.from_entries(
        n, [[[rng.choice(pool) for _ in range(n + 1)] for _ in range(2)] for _ in range(2)]
    )


def random_positive_tensor(rng: random.Random, n: int, bound: int = 20) -> ScalingTensor:
    return ScalingTensor.from_entries(
        n, [[[rng.randint(1, bound) for _ in range(n + 1)] for _ in range(2)] for _ in range(2)]
    )


def random_rational_tensor(rng: random.Random, n: int, bound: int = 12) -> ScalingTensor:
    def entry():
        num = rng.choice([v for v in range(-bound, bound + 1) if v != 0])
        return Fraction(num, rng.randint(1, 5))

    return ScalingTensor.from_entries(
        n, [[[entry() for _ in range(n + 1)] for _ in range(2)] for _ in range(2)]
    )


def _tall_rational(rng: random.Random, digits: int) -> Fraction:
    lo, hi = 10 ** (digits - 1), 10**digits - 1
    return Fraction(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(lo, hi))


def degenerate_tensor(rng: random.Random, n: int) -> ScalingTensor:
    """Entries in +-{1, 2, 3, 1/2, 2/3}, biased toward coincidences.

    Each step fires at random: a duplicated or proportional slice, a
    rank-one slice, a shared ratio on the x-face rows (w_i1k = c w_i0k) or
    on the y-face rows (w_1jk = c w_0jk) of some slices.  Half the tensors
    are then torus-rescaled by 100-digit rationals, which keeps every
    coincidence.
    """
    pick = lambda: rng.choice((-1, 1)) * rng.choice((Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(2, 3)))
    w = [[[pick() for _ in range(n + 1)] for _ in range(2)] for _ in range(2)]
    cells = [(i, j) for i in range(2) for j in range(2)]
    if rng.random() < 0.4:
        src, dst = rng.sample(range(n + 1), 2)
        lam = rng.choice((1, 1, -2, Fraction(1, 2)))  # 1 duplicates the slice
        for i, j in cells:
            w[i][j][dst] = lam * w[i][j][src]
    if rng.random() < 0.3:
        k, u, v = rng.randrange(n + 1), (pick(), pick()), (pick(), pick())
        for i, j in cells:
            w[i][j][k] = u[i] * v[j]
    for axis in ("x", "y"):
        if rng.random() < 0.4:
            c, sides = pick(), rng.choice(((0,), (1,), (0, 1)))
            for k in rng.sample(range(n + 1), rng.randint(1, n + 1)):
                for side in sides:
                    if axis == "x":
                        w[side][1][k] = c * w[side][0][k]
                    else:
                        w[1][side][k] = c * w[0][side][k]
    W = ScalingTensor.from_entries(n, w)
    if rng.random() < 0.5:
        tall = lambda count: [_tall_rational(rng, 100) for _ in range(count)]
        W = torus_rescale(W, tall(2), tall(2), tall(n + 1))
    return W


def line_heavy_tensor(rng: random.Random, n: int) -> ScalingTensor:
    """Slices built on two or three shared x-lines and y-lines.

    A line u0 x0 + u1 x1 = 0 (or v0 y0 + v1 y1 = 0) is drawn from entries in
    +-{1, 2, 3, 1/2, 2/3}.  Each slice is a rank-one slice u (x) v (one x-line
    and one y-line), a rescaled copy of an earlier slice (a factor of 1
    duplicates it), or a curve through the crossing of one x-line and one
    y-line; so lines recur, parallel lines abound and crossings carry three
    or more components.
    """
    pick = lambda: rng.choice((-1, 1)) * rng.choice((Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(2, 3)))
    xs = [(pick(), pick()) for _ in range(rng.randint(2, 3))]
    ys = [(pick(), pick()) for _ in range(rng.randint(2, 3))]
    slices = []
    while len(slices) < n + 1:
        u, v = rng.choice(xs), rng.choice(ys)
        choice = rng.random()
        if choice < 0.4:
            s = [[u[i] * v[j] for j in range(2)] for i in range(2)]
        elif choice < 0.6 and slices:
            lam = rng.choice((1, pick()))
            s = [[lam * e for e in row] for row in rng.choice(slices)]
        else:  # q vanishes at x = (-u1, u0), y = (-v1, v0): solve for w11
            x, y = (-u[1], u[0]), (-v[1], v[0])
            s = [[pick(), pick()], [pick(), 0]]
            s[1][1] = -sum(s[i][j] * x[i] * y[j] for i, j in ((0, 0), (0, 1), (1, 0))) / (x[1] * y[1])
            if s[1][1] == 0:
                continue
        slices.append(s)
    return ScalingTensor.from_slices(slices)


def _integer_poly(terms: dict) -> list:
    """Clear denominators of a {monomial: Fraction} dict into int terms."""
    denom = 1
    for c in terms.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    return [(m, int(c * denom)) for m, c in terms.items() if c != 0]


def full_score_system(W: ScalingTensor, u) -> tuple[int, tuple]:
    """The reference system for the oracle: (nvars, polys) of the n + 3-variable system in x, y, z_1..z_n, s.

    In the chart x0 = y0 = z0 = 1, f = f_W(x, y, z) and the scores are the
    Euler-operator combinations weight_v * f - total * v * f_v, where the
    weight of a variable is the data total of its cells; one Rabinowitsch
    variable s with s * x * y * z_1...z_n * f = 1 removes solutions with a
    zero coordinate or with f = 0.  Its standard-monomial count
    (`groebner.count_solutions` without `nonzero`) is the number of torus
    critical points, which `oracle` counts on the system with z eliminated.
    """
    dims = (1, 1, W.n)
    cells = list(product(*(range(d + 1) for d in dims)))
    coeffs = {cell: reduce(getitem, cell, W.w) for cell in cells}
    data = {cell: reduce(getitem, cell, u.u) for cell in cells}
    offsets = [sum(dims[:t]) for t in range(len(dims))]
    nvars = sum(dims) + 1

    def mono(cell):
        live = {off + i - 1 for off, i in zip(offsets, cell) if i}
        return tuple(int(v in live) for v in range(nvars))

    f_terms = {mono(cell): c for cell, c in coeffs.items()}
    total = sum(data.values())
    polys = []
    for var in range(nvars - 1):
        # weight * f - total * (Euler operator in `var` applied to f):
        # term-by-term multiplier weight - total * exponent.
        weight = sum(count for cell, count in data.items() if mono(cell)[var])
        polys.append(_integer_poly({mo: c * (weight - total * mo[var]) for mo, c in f_terms.items()}))
    # saturation: s * (every variable) * f - 1
    sat = {tuple(e + 1 for e in mo): c for mo, c in f_terms.items()}
    sat[(0,) * nvars] = Fraction(-1)
    polys.append(_integer_poly(sat))
    return nvars, tuple(tuple(p) for p in polys)


def schema_validator(name: str):
    """A validator for the `$defs` entry `name` of the formats schema; skips without jsonschema."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(segreml.__file__).parent / "schemas" / "formats.schema.json").read_text())
    return jsonschema.Draft7Validator({**schema, "$ref": f"#/$defs/{name}"})
