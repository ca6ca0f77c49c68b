"""Independent ML-degree verification by critical-point counting over F_p.

In the chart x0 = y0 = z0 = 1 the model polynomial is f = sum_k z_k q_k
(z_0 = 1), where slice k is q_k = w00k + w01k y + w10k x + w11k x y, and
the log-likelihood for data u is

    U_x log x + U_y log y + sum_k U_k log z_k - N log f  (+ const),

where U_x sums u over the x = 1 cells, U_y over the y = 1 cells, U_k over
slice k and N over every cell.

Eliminating the slice coordinates.  f is linear in each z_k, so the
score of z_k, U_k / z_k = N q_k / f, gives z_k = U_k q_0 / (U_0 q_k).
Substituted, what is left is the critical points on the 2-torus of

    x^U_x  y^U_y  prod_c l_c^(-E_c),

off the zero sets of the components l_c: the distinct irreducible
factors of the slices.  A slice is one curve unless w00k w11k = w01k
w10k, when it splits as (w00k + w10k x)(w00k + w01k y) / w00k into an
x-line and a y-line, both inside the torus since every entry is nonzero.
Each component is scaled to a primitive integer vector, so proportional
slices give one curve and a line that recurs across slices is one
component; its exponent E_c sums U_k over the slices it divides.  This
is the reduction of Huh (Compositio 2013).  z is a regular function of
(x, y) at every critical point, so the elimination keeps multiplicities
and the count equals that of the n + 3-variable system in x, y, z_1..z_n
and a saturating variable.  The two scores, cleared of denominators, are

    F_v = U_v prod_c l_c - v sum_c E_c (d l_c / d v) prod_(c' != c) l_c'

for v = x, y, with c and c' running over the components that hold v.

Saturation by a multiplication map.  Solutions of F_x = F_y = 0 with a
zero coordinate or on a component are not critical points of the
likelihood.  The count keeps the solutions where h = x y prod_c l_c does
not vanish, with multiplicity: the stable rank of multiplication by h on
the quotient by (F_x, F_y), computed over F_p for a random 61-bit prime
p (`groebner.count_solutions`).  That is the ML degree for generic u.

Why it stays independent.  The components are found here from the
slices by the rank-one test above, not read from `euler`'s arrangement,
and the count is of the solutions of polynomial equations, not an Euler
characteristic.  Nothing here comes from `euler`, `factors`, `realize`
or `strata`, so agreement with `euler.mldeg_value` is evidence for the
paper's formula, not a restatement of it.

Multiplicity from non-generic data and an unlucky p both show up as
disagreement: each data trial has its own prime, a stable answer needs
two primes and two data draws to agree, and a disagreement is counted
again under second primes before it is reported.  Fixed data is counted
under two primes.

The model is a scaled product of simplices, Delta_1 x Delta_1 x Delta_n,
and the builder `_simplex_product_system` eliminates the last factor of
any such product.  The tests also run it on Delta_m x Delta_n, the
scaling-matrix model, whose components are its distinct column
hyperplanes in m variables (tests/references.py).  Tensor runs are
limited to n <= 4, refused in `score_system`; beyond that the
curve-arrangement count `euler.mldeg_value` is the practical route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import gcd
from operator import add, getitem

from .errors import DimensionMismatchError, UnstableCountError
from .exact import integer_row
from .groebner import count_solutions, random_prime
from .tensor import ScalingTensor

ORACLE_MAX_N = 4


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
    """Score equations in the remaining variables, as integer term lists, with the components they saturate by.

    `components` pairs each distinct component l_c (a primitive integer
    term list) with its exponent E_c; a count keeps the solutions where
    no variable and no component vanishes.
    """

    nvars: int
    polys: tuple[tuple, ...]
    components: tuple[tuple[tuple, int], ...]

    @property
    def nonzero(self) -> tuple[tuple, ...]:
        """The factors of h = (product of the variables) * (product of the components)."""
        return (((1,) * self.nvars, 1),), *(c for c, _ in self.components)


def _by_cell(nested, dims) -> dict:
    """{(i_1, ..., i_r): nested[i_1]...[i_r]} over the cells of the product."""
    return {cell: reduce(getitem, cell, nested) for cell in product(*(range(d + 1) for d in dims))}


def _slice_factors(cells: dict) -> list[dict]:
    """The irreducible factors of one slice, each as {base cell: coefficient}.

    Over one remaining factor the slice is a linear form.  Over two it is
    a bilinear form with matrix S[i][j]; when S has rank one (and S[0][0]
    is nonzero, as every entry is) it splits as (sum_i S[i][0] x_i) *
    (sum_j S[0][j] y_j) / S[0][0], one line in each factor.  A bilinear
    form of rank two or more is irreducible.
    """
    if len(next(iter(cells))) == 2 and all(c * cells[0, 0] == cells[i, 0] * cells[0, j] for (i, j), c in cells.items()):
        return [{cell: c for cell, c in cells.items() if cell[1] == 0}, {cell: c for cell, c in cells.items() if cell[0] == 0}]
    return [cells]


def _primitive(terms: dict) -> tuple:
    """Integer terms divided by their content, the first coefficient made positive: one key per zero set."""
    monos = sorted(terms)
    content = gcd(*terms.values()) if terms[monos[0]] > 0 else -gcd(*terms.values())
    return tuple((m, terms[m] // content) for m in monos)


def _times(f: dict, g) -> dict:
    """The product of two polynomials {exponent tuple: int}."""
    out: dict = {}
    for mf, cf in f.items():
        for mg, cg in g.items():
            m = tuple(map(add, mf, mg))
            out[m] = out.get(m, 0) + cf * cg
    return out


def _plus(f: dict, g: dict) -> dict:
    """The sum of two polynomials {exponent tuple: int}."""
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return out


def _simplex_product_system(dims, coeffs: dict, data: dict) -> ScoreSystem:
    """The score system of a scaled product of simplices, with the last factor eliminated.

    Factor t is the simplex of dimension dims[t]; `coeffs` and `data` are
    keyed by cells (i_1, ..., i_r).  In the chart where coordinate 0 of
    every factor is 1, slice k sums coeffs[c + (k,)] times the product of
    the i_t-th variables of the first r - 1 factors over their cells c,
    with the variables numbered factor by factor.  The scores are the
    module docstring's F_v, where U_v is the data total of the cells whose
    product holds v.
    """
    *base, last = dims
    offsets = [sum(base[:t]) for t in range(len(base))]
    nvars = sum(base)
    monos = {}  # base cell -> its monomial in the remaining variables
    for cell in product(*(range(d + 1) for d in base)):
        live = {off + i - 1 for off, i in zip(offsets, cell) if i}
        monos[cell] = tuple(int(v in live) for v in range(nvars))
    exponents: dict[tuple, int] = {}
    for k in range(last + 1):
        # scaling a slice to integers moves none of its factors
        row = integer_row([coeffs[cell + (k,)] for cell in monos])
        weight = sum(data[cell + (k,)] for cell in monos)
        for factor in _slice_factors(dict(zip(monos, row))):
            key = _primitive({monos[cell]: c for cell, c in factor.items()})
            exponents[key] = exponents.get(key, 0) + weight
    polys = []
    for v in range(nvars):
        # v prod_c l_c times the score U_v / v - sum_c E_c (d l_c / d v) / l_c,
        # over the components that hold v (the others do not move with v):
        # P = prod_c l_c and G = sum_c E_c v (d l_c / d v) prod_(c' != c) l_c'
        # over those taken so far.  l_c has degree at most 1 in v, so
        # v (d l_c / d v) is the part of l_c that holds v.
        P, G = {(0,) * nvars: 1}, {}
        for key, E in exponents.items():
            part = {m: E * c for m, c in key if m[v]}
            if part:
                G = _plus(_times(G, dict(key)), _times(P, part))
                P = _times(P, dict(key))
        weight = sum(count for cell, count in data.items() if monos[cell[:-1]][v])
        score = _plus({m: weight * c for m, c in P.items()}, {m: -c for m, c in G.items()})
        polys.append(tuple((m, c) for m, c in score.items() if c))
    return ScoreSystem(nvars, tuple(polys), tuple(exponents.items()))


def _count(system: ScoreSystem, primes: random.Random) -> int:
    """The solutions of `system` off the zero set of h, over F_p for the next prime p drawn from `primes`."""
    return count_solutions(system.polys, system.nvars, random_prime(primes), system.nonzero)


def _count_two_primes(system: ScoreSystem) -> int:
    """The count under two primes from a fixed stream; they must agree."""
    primes = random.Random("primes")
    first, second = _count(system, primes), _count(system, primes)
    if first != second:
        raise UnstableCountError(f"two primes gave {first} and {second} critical points")
    return first


def score_system(W: ScalingTensor, u: DataVector) -> ScoreSystem:
    """The scores of x and y for (W, u), with z_1..z_n eliminated."""
    if W.n > ORACLE_MAX_N:
        raise DimensionMismatchError(f"the critical-point oracle is limited to n <= {ORACLE_MAX_N}")
    if u.n != W.n:
        raise DimensionMismatchError("data vector and tensor disagree on n")
    dims = (1, 1, W.n)
    return _simplex_product_system(dims, _by_cell(W.w, dims), _by_cell(u.u, dims))


def count_critical_points(W: ScalingTensor, u: DataVector) -> int:
    """Number of torus critical points of the likelihood for data u, under two primes that must agree."""
    return _count_two_primes(score_system(W, u))


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
    rng = random.Random(seed)
    seeds = [rng.randrange(2**32) for _ in range(trials)]
    systems = [score_system(W, DataVector.random(W.n, random.Random(s))) for s in seeds]
    primes = [random.Random(f"primes {s}") for s in seeds]
    counts = [_count(*run) for run in zip(systems, primes)]
    if len(set(counts)) > 1:  # an unlucky prime or a non-generic draw: count every trial again
        counts = [_count(*run) for run in zip(systems, primes)]
    consensus = max(set(counts), key=counts.count)
    return CountResult(consensus, len(set(counts)) == 1, tuple(zip(seeds, counts)))
