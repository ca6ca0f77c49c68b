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
likelihood.  The count keeps the solutions where h = prod_c l_c does not
vanish, with multiplicity: the stable rank of multiplication by h on the
quotient by (F_x, F_y), computed over F_p for a random 30-bit prime p
(`groebner.count_solutions`).  That is the ML degree for generic u.  h
needs no factor x y.  At v = 0 the score is F_v = U_v P_v, so when p does
not divide U_v a solution with v = 0 lies on a component that holds v,
where h vanishes already.  A prime that divides U_v reduces F_v to v
times a form of lower degree, which generally makes it unlucky for a
count with x y as well; the two-prime check below covers either count.

Why it stays independent.  The components are found here from the
slices by the rank-one test above, not read from `euler`'s arrangement,
and the count is of the solutions of polynomial equations, not an Euler
characteristic.  Nothing here comes from `euler`, `factors`, `realize`
or `strata`, so agreement with `euler.mldeg_value` is evidence for the
paper's formula, not a restatement of it.

Multiplicity from non-generic data and an unlucky p both show up as
disagreement: each data trial has its own prime, a stable answer needs
two primes and two data draws to agree (`oracle_mldeg`), and a
disagreement is counted again under second primes before it is
reported.  Fixed data is counted under two primes (`_count_two_primes`).
Trials are counted in pairs, each with its own system, prime and basis:
`_count` hands a pair's two systems and primes to
`groebner.count_solutions`, which runs the quotient linear algebra of
both once, mod the product of the two primes.  Thirty bits keep every
coefficient of Buchberger's algorithm one CPython digit (`groebner`), and
they are plenty for that check: seeded probes found no unlucky 30-bit
prime in 62,000 counts (3,100 `realize`, `degenerate_tensor` and
`line_heavy_tensor` systems at n = 1..3, 20 primes each, against the
count at 2^61 - 1), nor in 11,500 counts of n = 1..4 tensors rescaled by
30-digit rationals; `tests/test_oracle.py` repeats a smaller probe.

The components, their slices and the products P_v and Q_(v,c) of the
two scores depend on the tensor alone, so `score_model` finds them once
and every data trial only forms E_c, U_v and F_v = U_v P_v - sum_c E_c
Q_(v,c).

The model is a scaled product of simplices, Delta_1 x Delta_1 x Delta_n,
and the builder `_simplex_product_model` eliminates the last factor of
any such product.  The tests also run it on Delta_m x Delta_n, the
scaling-matrix model, whose components are its distinct column
hyperplanes in m variables (tests/references.py).  Tensor runs are
limited to n <= 4, refused in `score_model`; beyond that the
curve-arrangement count `euler.mldeg_value` is the practical route.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import product
from operator import add, getitem

from .errors import DimensionMismatchError, UnstableCountError
from .exact import Record, integer_row, primitive
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


class DataVector(Record):
    """Strictly positive integer counts indexed like the tensor."""

    __slots__ = ("u",)
    u: tuple[tuple[tuple[int, ...], ...], ...]

    def __init__(self, u: tuple[tuple[tuple[int, ...], ...], ...]) -> None:
        if len(u) != 2 or any(len(plane) != 2 for plane in u):
            raise DimensionMismatchError("data must be 2 x 2 x (n+1)")
        width = len(u[0][0])
        for plane in u:
            for row in plane:
                if len(row) != width:
                    raise DimensionMismatchError("ragged data vector")
                for value in row:
                    _data_entry(value)
        object.__setattr__(self, "u", u)

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

    @classmethod
    def from_json_dict(cls, data: dict) -> DataVector:
        try:
            return cls.from_entries(data["u"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise DimensionMismatchError(
                'data JSON must be {"u": [2][2][n+1] positive integers}'
            ) from exc


class ScoreSystem(Record):
    """Score equations in the remaining variables, as integer term lists, with the components they saturate by.

    `components` pairs each distinct component l_c (a primitive integer
    term list) with its exponent E_c; a count keeps the solutions where
    no component vanishes, which are also off the coordinate hyperplanes
    (the module docstring's lemma).
    """

    __slots__ = ("nvars", "polys", "components")
    nvars: int
    polys: tuple[tuple, ...]
    components: tuple[tuple[tuple, int], ...]

    @property
    def nonzero(self) -> tuple[tuple, ...]:
        """The factors of h = product of the components."""
        return tuple(c for c, _ in self.components)


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
    return tuple(zip(monos, primitive([terms[m] for m in monos])))


def _times(f: dict, g) -> dict:
    """The product of two polynomials {exponent tuple: int}."""
    out: dict = {}
    for mf, cf in f.items():
        for mg, cg in g.items():
            m = tuple(map(add, mf, mg))
            out[m] = out.get(m, 0) + cf * cg
    return out


def _simplex_product_model(dims, coeffs: dict):
    """The score system of a scaled product of simplices, with the last factor eliminated, as a function of the data.

    Factor t is the simplex of dimension dims[t]; `coeffs` is keyed by
    cells (i_1, ..., i_r).  In the chart where coordinate 0 of every
    factor is 1, slice k sums coeffs[c + (k,)] times the product of the
    i_t-th variables of the first r - 1 factors over their cells c, with
    the variables numbered factor by factor.  The scores are the module
    docstring's F_v, where U_v is the data total of the cells whose
    product holds v.  Everything the data does not touch is found here
    once: the components, the slices that split into each, and over the
    monomials of F_v the coefficients of P_v = prod_c l_c and of each
    Q_(v,c) = v (d l_c / d v) prod_(c' != c) l_c', for c and c' among
    the components that hold v.  The returned function, given data
    nested like the coefficients, forms only E_c, U_v and F_v = U_v P_v
    - sum_c E_c Q_(v,c).
    """
    *base, last = dims
    offsets = [sum(base[:t]) for t in range(len(base))]
    nvars = sum(base)
    monos = {}  # base cell -> its monomial in the remaining variables
    for cell in product(*(range(d + 1) for d in base)):
        live = {off + i - 1 for off, i in zip(offsets, cell) if i}
        monos[cell] = tuple(int(v in live) for v in range(nvars))
    index: dict[tuple, int] = {}  # component -> its position, in order of first appearance
    slices = []  # (the cells of slice k, the positions of its factors)
    for k in range(last + 1):
        # scaling a slice to integers moves none of its factors
        row = integer_row([coeffs[cell + (k,)] for cell in monos])
        held = [
            index.setdefault(_primitive({monos[cell]: c for cell, c in factor.items()}), len(index))
            for factor in _slice_factors(dict(zip(monos, row)))
        ]
        slices.append(([cell + (k,) for cell in monos], held))
    components = tuple(index)
    scores = []  # per variable: (cells whose product holds it, monomials of F_v, P_v, [(c, Q_(v,c))])
    for v in range(nvars):
        # Over the components that hold v (the others do not move with v),
        # taken in order: P is the product so far and Q[c] its cofactor of
        # l_c with l_c replaced by v (d l_c / d v), the part of l_c that
        # holds v since l_c has degree at most 1 in v.
        P, Q = {(0,) * nvars: 1}, {}
        for c, terms in enumerate(components):
            part = {m: a for m, a in terms if m[v]}
            if part:
                form = dict(terms)
                Q = {d: _times(q, form) for d, q in Q.items()}
                Q[c] = _times(P, part)
                P = _times(P, form)
        monomials = list(dict.fromkeys([*P, *(m for q in Q.values() for m in q)]))
        holders = [cell + (k,) for cell, m in monos.items() if m[v] for k in range(last + 1)]
        columns = [(c, [q.get(m, 0) for m in monomials]) for c, q in Q.items()]
        scores.append((holders, monomials, [P.get(m, 0) for m in monomials], columns))

    def system(data) -> ScoreSystem:
        data = _by_cell(data, dims)
        exponents = [0] * len(components)
        for cells, held in slices:
            weight = sum(data[cell] for cell in cells)
            for c in held:
                exponents[c] += weight
        polys = []
        for cells, monomials, P, columns in scores:
            weight = sum(data[cell] for cell in cells)
            score = [weight * a for a in P]
            for c, q in columns:
                score = [a - exponents[c] * b for a, b in zip(score, q)]
            polys.append(tuple((m, a) for m, a in zip(monomials, score) if a))
        return ScoreSystem(nvars, tuple(polys), tuple(zip(components, exponents)))

    return system


def _count(model, data, streams) -> list:
    """The count off h = 0 of each data vector's system, over F_p for the next prime p of its own stream.

    The data vectors are counted two at a time, by one `count_solutions`
    call on the pair's systems and primes.  The components, and so the
    factors of h, depend on the tensor alone, so the pair shares them.
    """
    counts = []
    for i in range(0, len(data), 2):
        systems = [model(u) for u in data[i : i + 2]]
        primes = [random_prime(s) for s in streams[i : i + 2]]
        first = systems[0]
        counts += count_solutions([s.polys for s in systems], first.nvars, primes, first.nonzero)
    return counts


def _count_two_primes(system: ScoreSystem) -> int:
    """The count under two primes from a fixed stream; they must agree."""
    primes = random.Random("primes")
    pair = (random_prime(primes), random_prime(primes))
    first, second = count_solutions([system.polys] * 2, system.nvars, pair, system.nonzero)
    if first != second:
        raise UnstableCountError(f"two primes gave {first} and {second} critical points")
    return first


def score_model(W: ScalingTensor):
    """The scores of x and y for W, with z_1..z_n eliminated, as a function of the nested data."""
    if W.n > ORACLE_MAX_N:
        raise DimensionMismatchError(f"the critical-point oracle is limited to n <= {ORACLE_MAX_N}")
    dims = (1, 1, W.n)
    return _simplex_product_model(dims, _by_cell(W.w, dims))


def score_system(W: ScalingTensor, u: DataVector) -> ScoreSystem:
    """The scores of x and y for (W, u), with z_1..z_n eliminated."""
    system = score_model(W)
    if u.n != W.n:
        raise DimensionMismatchError("data vector and tensor disagree on n")
    return system(u.u)


def count_critical_points(W: ScalingTensor, u: DataVector) -> int:
    """Number of torus critical points of the likelihood for data u, under two primes that must agree."""
    return _count_two_primes(score_system(W, u))


class CountResult(Record):
    """Per-trial oracle counts plus the consensus."""

    __slots__ = ("count", "stable", "trials")
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
    apart from its data, and the trials are counted two at a time (`_count`).
    Counts agree for generic data and lucky primes.  On a disagreement every trial is counted again under its next prime,
    which clears an unlucky prime; a disagreement that remains flags a
    non-generic draw (solution multiplicity), reported via stable=False
    with the modal count as consensus.
    """
    if trials < 2:
        raise ValueError("at least two data trials are required")
    rng = random.Random(seed)
    seeds = [rng.randrange(2**32) for _ in range(trials)]
    model = score_model(W)
    data = [DataVector.random(W.n, random.Random(s)).u for s in seeds]
    primes = [random.Random(f"primes {s}") for s in seeds]
    counts = _count(model, data, primes)
    if len(set(counts)) > 1:  # an unlucky prime or a non-generic draw: count every trial again
        counts = _count(model, data, primes)
    consensus = max(set(counts), key=counts.count)
    return CountResult(consensus, len(set(counts)) == 1, tuple(zip(seeds, counts)))
