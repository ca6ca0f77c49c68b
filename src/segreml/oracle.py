"""Independent ML-degree verification by critical-point counting over F_p.

In the chart x0 = y0 = z0 = 1 the model polynomial is f = f_W(x, y, z) and
the log-likelihood for data u is

    u_x log x + u_y log y + sum_k u_zk log z_k - u_total log f  (+ const),

so the critical equations are Euler-operator combinations of f itself:

    u_x f - u_total * x f_x,   u_y f - u_total * y f_y,
    u_zk f - u_total * z_k f_k            (f is linear in each z_k),

where the marginal u_x sums u over the x=1 cells, etc.  Solutions with a
zero coordinate or with f = 0 are not critical points of the likelihood;
one Rabinowitsch variable s with  s * x * y * z_1...z_n * f = 1  removes
them.  The count of torus critical points (the ML degree for generic u)
is then the standard-monomial count of the saturated ideal, computed
over F_p for a random 61-bit prime p (groebner).  Multiplicity from
non-generic data and an unlucky p both show up as disagreement: each data
trial has its own prime, a stable answer needs two primes and two data
draws to agree, and a disagreement is counted again under second primes
before it is reported.  Fixed data is counted under two primes.

Both are scaled products of simplices, Delta_1 x Delta_1 x Delta_n and,
for matrices, Delta_m x Delta_n, and one builder writes the system for
either.  Matrix runs are limited to m + n <= 4 and tensor runs to n <= 3;
beyond that the curve-arrangement count `euler.mldeg_value` is the
practical route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd
from operator import getitem

from .errors import DimensionMismatchError, UnstableCountError
from .exact import RatMatrix
from .groebner import count_solutions, random_prime
from .tensor import ScalingTensor

ORACLE_MAX_N = 3
MATRIX_ORACLE_MAX_DIM = 4  # m + n for an (m+1) x (n+1) scaling matrix


def _data_entry(x) -> int:
    """A data count: an int (not a bool) that is at least 1."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"data entries must be integers, not {x!r}")
    if x < 1:
        raise ValueError("data entries must be >= 1")
    return x


@dataclass(frozen=True)
class DataVector:
    """Strictly positive integer counts indexed like the tensor."""

    u: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        if len(self.u) != 2 or any(len(plane) != 2 for plane in self.u):
            raise DimensionMismatchError("data must be 2 x 2 x (n+1)")
        width = len(self.u[0][0])
        for plane in self.u:
            for row in plane:
                if len(row) != width:
                    raise DimensionMismatchError("ragged data vector")
                for value in row:
                    _data_entry(value)

    @classmethod
    def from_entries(cls, entries) -> DataVector:
        """Build from a nested [2][2][n+1] layout; every entry must be an int (not a bool)."""
        return cls(tuple(tuple(tuple(row) for row in plane) for plane in entries))

    @classmethod
    def random(cls, n: int, rng: random.Random) -> DataVector:
        return cls.from_entries(
            [[[rng.randint(1, 1000) for _ in range(n + 1)] for _ in range(2)] for _ in range(2)]
        )

    @property
    def n(self) -> int:
        return len(self.u[0][0]) - 1

    @property
    def total(self) -> int:
        return sum(x for plane in self.u for row in plane for x in row)

    def to_json_dict(self) -> dict:
        return {"u": [[list(row) for row in plane] for plane in self.u]}

    @classmethod
    def from_json_dict(cls, data: dict) -> DataVector:
        try:
            return cls.from_entries(data["u"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise DimensionMismatchError(
                'data JSON must be {"u": [2][2][n+1] positive integers}'
            ) from exc


@dataclass(frozen=True)
class ScoreSystem:
    """Saturated score equations as integer term lists, ready for completion."""

    nvars: int
    polys: tuple[tuple, ...]


def _integer_poly(terms: dict) -> list:
    """Clear denominators of a {monomial: Fraction} dict into int terms."""
    denom = 1
    for c in terms.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    return [(m, int(c * denom)) for m, c in terms.items() if c != 0]


def _by_cell(nested, dims) -> dict:
    """{(i_1, ..., i_r): nested[i_1]...[i_r]} over the cells of the product."""
    return {cell: reduce(getitem, cell, nested) for cell in product(*(range(d + 1) for d in dims))}


def _simplex_product_system(dims, coeffs: dict, data: dict) -> ScoreSystem:
    """Score equations plus saturation for a scaled product of simplices.

    Factor t is the simplex of dimension dims[t]; `coeffs` and `data` are
    keyed by cells (i_1, ..., i_r).  In the chart where coordinate 0 of
    every factor is 1, cell (i_1, ..., i_r) is the product of the i_t-th
    variable of each factor with i_t >= 1.  Variables run factor by factor,
    then s; the weight of a variable is the data total of its cells.
    """
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
    return ScoreSystem(nvars, tuple(tuple(p) for p in polys))


def _count(system: ScoreSystem, primes: random.Random) -> int:
    """The standard-monomial count of `system` over F_p for the next prime p drawn from `primes`."""
    return count_solutions(system.polys, system.nvars, random_prime(primes))


def _count_two_primes(system: ScoreSystem) -> int:
    """The count under two primes from a fixed stream; they must agree."""
    primes = random.Random("primes")
    first, second = _count(system, primes), _count(system, primes)
    if first != second:
        raise UnstableCountError(f"two primes gave {first} and {second} critical points")
    return first


def score_system(W: ScalingTensor, u: DataVector) -> ScoreSystem:
    """The n+2 score polynomials (x, y, z_1..z_n) plus saturation for (W, u)."""
    if u.n != W.n:
        raise DimensionMismatchError("data vector and tensor disagree on n")
    dims = (1, 1, W.n)
    return _simplex_product_system(dims, _by_cell(W.w, dims), _by_cell(u.u, dims))


def count_critical_points(W: ScalingTensor, u: DataVector) -> int:
    """Number of torus critical points of the likelihood for data u, under two primes that must agree."""
    if W.n > ORACLE_MAX_N:
        raise DimensionMismatchError(f"the critical-point oracle is limited to n <= {ORACLE_MAX_N}")
    return _count_two_primes(score_system(W, u))


def matrix_score_system(M: RatMatrix, u_rows) -> ScoreSystem:
    """Two-factor analogue for an (m+1) x (n+1) scaling matrix: scores of x_1..x_m, y_1..y_n."""
    dims = (M.nrows - 1, M.ncols - 1)
    u = [[_data_entry(x) for x in row] for row in u_rows]
    if len(u) != dims[0] + 1 or any(len(row) != dims[1] + 1 for row in u):
        raise DimensionMismatchError("data matrix shape mismatch")
    return _simplex_product_system(dims, _by_cell(M.entries, dims), _by_cell(u, dims))


def count_critical_points_matrix(M: RatMatrix, u_rows) -> int:
    if (M.nrows - 1) + (M.ncols - 1) > MATRIX_ORACLE_MAX_DIM:
        raise DimensionMismatchError(f"matrix oracle limited to m + n <= {MATRIX_ORACLE_MAX_DIM}")
    return _count_two_primes(matrix_score_system(M, u_rows))


@dataclass(frozen=True)
class CountResult:
    """Per-trial oracle counts plus the consensus."""

    count: int
    stable: bool
    trials: tuple[tuple[int | None, int], ...]  # (trial seed, count); seed None for a given data vector

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "stable": self.stable,
            "trials": [[seed, count] for seed, count in self.trials],
        }


def oracle_mldeg(W: ScalingTensor, trials: int = 2, seed: int = 0) -> CountResult:
    """Count critical points for `trials` random data vectors and compare.

    Each trial counts over F_p for its own prime, drawn from its trial seed
    apart from its data.  Counts agree for generic data and lucky primes.
    On a disagreement every trial is counted again under its next prime,
    which clears an unlucky prime; a disagreement that remains flags a
    non-generic draw (solution multiplicity), reported via stable=False
    with the modal count as consensus.
    """
    if trials < 2:
        raise ValueError("at least two data trials are required")
    if W.n > ORACLE_MAX_N:
        raise DimensionMismatchError(f"the critical-point oracle is limited to n <= {ORACLE_MAX_N}")
    rng = random.Random(seed)
    seeds = [rng.randrange(2**32) for _ in range(trials)]
    systems = [score_system(W, DataVector.random(W.n, random.Random(s))) for s in seeds]
    primes = [random.Random(f"primes {s}") for s in seeds]
    counts = [_count(*run) for run in zip(systems, primes)]
    if len(set(counts)) > 1:  # an unlucky prime or a non-generic draw: count every trial again
        counts = [_count(*run) for run in zip(systems, primes)]
    consensus = max(set(counts), key=counts.count)
    return CountResult(consensus, len(set(counts)) == 1, tuple(zip(seeds, counts)))
