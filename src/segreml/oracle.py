"""Independent ML-degree verification by exact critical-point counting.

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
is then the standard-monomial count of the saturated ideal; multiplicity
from non-generic data shows up as disagreement between data trials.

The analogous two-factor system covers scaled products of two simplices
(matrices) with m + n <= 4.  Tensor runs are limited to n <= 2; beyond
that the inclusion-exclusion engine is the only practical route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DimensionMismatchError
from .exact import RatMatrix
from .groebner import DEFAULT_MAX_BASIS, DEFAULT_MAX_COEFF_BITS, count_solutions
from .tensor import ScalingTensor

ORACLE_MAX_N = 2
MATRIX_ORACLE_MAX_DIM = 4  # m + n for an (m+1) x (n+1) scaling matrix


def _integer_entry(x) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"data entries must be integers, not {x!r}")
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
                    if int(value) < 1:
                        raise ValueError("data entries must be >= 1")

    @classmethod
    def from_entries(cls, entries) -> DataVector:
        """Build from a nested [2][2][n+1] layout; every entry must be an int (not a bool)."""
        return cls(tuple(tuple(tuple(_integer_entry(x) for x in row) for row in plane) for plane in entries))

    @classmethod
    def random(cls, n: int, rng: random.Random, low: int = 1, high: int = 1000) -> DataVector:
        return cls.from_entries(
            [[[rng.randint(low, high) for _ in range(n + 1)] for _ in range(2)] for _ in range(2)]
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
    var_names: tuple[str, ...]
    polys: tuple[tuple, ...]


def _integer_poly(terms: dict) -> list:
    """Clear denominators of a {monomial: Fraction} dict into int terms."""
    denom = 1
    for c in terms.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    return [(m, int(c * denom)) for m, c in terms.items() if c != 0]


def score_system(W: ScalingTensor, u: DataVector) -> ScoreSystem:
    """The n+2 score polynomials plus the saturation equation for (W, u)."""
    n = W.n
    if u.n != n:
        raise DimensionMismatchError("data vector and tensor disagree on n")
    nvars = n + 3  # x, y, z_1..z_n, s
    names = ("x", "y") + tuple(f"z{k}" for k in range(1, n + 1)) + ("s",)

    f_terms: dict[tuple, Fraction] = {}
    for i in range(2):
        for j in range(2):
            for k in range(n + 1):
                mono = [0] * nvars
                mono[0] = i
                mono[1] = j
                if k >= 1:
                    mono[1 + k] = 1
                f_terms[tuple(mono)] = W.w[i][j][k]

    total = u.total
    u_x = sum(u.u[1][j][k] for j in range(2) for k in range(n + 1))
    u_y = sum(u.u[i][1][k] for i in range(2) for k in range(n + 1))
    u_z = [sum(u.u[i][j][k] for i in range(2) for j in range(2)) for k in range(n + 1)]

    polys = []
    for var, weight in [(0, u_x), (1, u_y)] + [(1 + k, u_z[k]) for k in range(1, n + 1)]:
        # weight * f - total * (Euler operator in `var` applied to f):
        # term-by-term multiplier weight - total * exponent.
        score = {m: c * (weight - total * m[var]) for m, c in f_terms.items()}
        polys.append(_integer_poly(score))

    shift = tuple([1] * (n + 2) + [1])  # x * y * z_1..z_n * s
    sat = {tuple(a + b for a, b in zip(m, shift)): c for m, c in f_terms.items()}
    sat[tuple([0] * nvars)] = Fraction(-1)
    polys.append(_integer_poly(sat))
    return ScoreSystem(nvars, names, tuple(tuple(p) for p in polys))


def count_critical_points(
    W: ScalingTensor,
    u: DataVector,
    *,
    max_basis: int = DEFAULT_MAX_BASIS,
    max_coeff_bits: int = DEFAULT_MAX_COEFF_BITS,
) -> int:
    """Exact number of torus critical points of the likelihood for data u."""
    if W.n > ORACLE_MAX_N:
        raise DimensionMismatchError(
            f"the critical-point oracle is limited to n <= {ORACLE_MAX_N}"
        )
    system = score_system(W, u)
    return count_solutions(
        [list(p) for p in system.polys],
        system.nvars,
        max_basis=max_basis,
        max_coeff_bits=max_coeff_bits,
    )


def matrix_score_system(M: RatMatrix, u_rows) -> ScoreSystem:
    """Two-factor analogue for an (m+1) x (n+1) scaling matrix."""
    m, n = M.nrows - 1, M.ncols - 1
    u = [[int(x) for x in row] for row in u_rows]
    if len(u) != m + 1 or any(len(row) != n + 1 for row in u):
        raise DimensionMismatchError("data matrix shape mismatch")
    if any(x < 1 for row in u for x in row):
        raise ValueError("data entries must be >= 1")
    nvars = m + n + 1
    names = tuple(f"x{i}" for i in range(1, m + 1)) + tuple(f"y{j}" for j in range(1, n + 1)) + ("s",)

    g_terms: dict[tuple, Fraction] = {}
    for a in range(m + 1):
        for b in range(n + 1):
            mono = [0] * nvars
            if a >= 1:
                mono[a - 1] = 1
            if b >= 1:
                mono[m + b - 1] = 1
            g_terms[tuple(mono)] = M.entries[a][b]

    total = sum(x for row in u for x in row)
    weights = [sum(u[a]) for a in range(m + 1)]
    col_weights = [sum(u[a][b] for a in range(m + 1)) for b in range(n + 1)]

    polys = []
    for var in range(m + n):
        weight = weights[var + 1] if var < m else col_weights[var - m + 1]
        score = {mo: c * (weight - total * mo[var]) for mo, c in g_terms.items()}
        polys.append(_integer_poly(score))
    shift = tuple([1] * nvars)
    sat = {tuple(a + b for a, b in zip(mo, shift)): c for mo, c in g_terms.items()}
    sat[tuple([0] * nvars)] = Fraction(-1)
    polys.append(_integer_poly(sat))
    return ScoreSystem(nvars, names, tuple(tuple(p) for p in polys))


def count_critical_points_matrix(
    M: RatMatrix,
    u_rows,
    *,
    max_basis: int = DEFAULT_MAX_BASIS,
    max_coeff_bits: int = DEFAULT_MAX_COEFF_BITS,
) -> int:
    if (M.nrows - 1) + (M.ncols - 1) > MATRIX_ORACLE_MAX_DIM:
        raise DimensionMismatchError(
            f"matrix oracle limited to m + n <= {MATRIX_ORACLE_MAX_DIM}"
        )
    system = matrix_score_system(M, u_rows)
    return count_solutions(
        [list(p) for p in system.polys],
        system.nvars,
        max_basis=max_basis,
        max_coeff_bits=max_coeff_bits,
    )


@dataclass(frozen=True)
class CountResult:
    """Per-trial oracle counts plus the consensus."""

    count: int
    stable: bool
    trials: tuple[tuple[int, int], ...]  # (trial seed, count)

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "stable": self.stable,
            "trials": [[seed, count] for seed, count in self.trials],
        }


def oracle_mldeg(
    W: ScalingTensor,
    trials: int = 2,
    seed: int = 0,
    *,
    max_basis: int = DEFAULT_MAX_BASIS,
    max_coeff_bits: int = DEFAULT_MAX_COEFF_BITS,
) -> CountResult:
    """Count critical points for `trials` random data vectors and compare.

    Counts agree for generic data; a disagreement flags a non-generic draw
    (solution multiplicity), reported via stable=False with the modal
    count as consensus.
    """
    if trials < 2:
        raise ValueError("at least two data trials are required")
    rng = random.Random(seed)
    results = []
    for _ in range(trials):
        trial_seed = rng.randrange(2**32)
        u = DataVector.random(W.n, random.Random(trial_seed))
        count = count_critical_points(
            W, u, max_basis=max_basis, max_coeff_bits=max_coeff_bits
        )
        results.append((trial_seed, count))
    counts = [c for _, c in results]
    consensus = max(set(counts), key=counts.count)
    return CountResult(consensus, len(set(counts)) == 1, tuple(results))
