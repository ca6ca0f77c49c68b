"""Shared fixtures-in-spirit: reference tensors and random generators."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import segreml
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


def all_ones(n: int) -> ScalingTensor:
    return ScalingTensor.from_entries(n, [[[1] * (n + 1)] * 2] * 2)


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
        W = W.torus_rescale(tall(2), tall(2), tall(n + 1))
    return W


def schema_validator(name: str):
    """A validator for the `$defs` entry `name` of the formats schema; skips without jsonschema."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(segreml.__file__).parent / "schemas" / "formats.schema.json").read_text())
    return jsonschema.Draft7Validator({**schema, "$ref": f"#/$defs/{name}"})
