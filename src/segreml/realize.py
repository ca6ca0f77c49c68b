"""Construct scaling tensors with any prescribed ML degree.

The workhorse family is the set altH(n) of 2n alternating hook minors:
for each consecutive slice pair (c, c+1) take {F[*0(c,c+1)], F[1*(c,c+1)]}
when c is even and {F[*1(c,c+1)], F[0*(c,c+1)]} when c is odd.  Adjacent
pairs then use different faces and no configuration that would force a
hyperdeterminant ever appears, so a generic solution of any subset
S of altH(n) + {F[**n]} vanishes on exactly S and has ML degree
(n+1)(n+2) - |S|.

That covers every target r with n(n+1) < r <= (n+1)(n+2).  A smaller
target is built at the m < n with m(m+1) < r <= (m+1)(m+2) and padded
with n - m copies of the last slice, which leaves the union of quadrics
and hence the ML degree unchanged.  The n = 1 base closes the range with
the cubic-frame (r = 2) and proportional-singular (r = 1) witnesses.

The module also holds the witness toolkit that `strata` builds the n = 1
atlas with.  `force_minors` zeroes each minor through its cells by one
exact division for the last entry no earlier minor touches; on altH(n) +
{F[**n]} in forcing order that entry is owned by no other constraint.
`forced_draw` and `rank_one_slice` are the one forced and the one singular
slice draw, and `scaled_pair` draws the two-slice tensors whose slice 1 is
slice 0 rescaled.  `first_witness` is the one generate-and-gate loop:
genericity is untrusted and every output passes an exact pattern check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from .errors import GenerationFailedError
from .euler import degree_bound
from .factors import FactorId, all_factors, face_minor_x, face_minor_y, slice_minor, vanishing_pattern
from .tensor import ScalingTensor

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_DENOMS = (1, 2, 3, 4, 5, 6, 7)
_RETRY_BUDGET = 400


def random_entry(rng: random.Random) -> Fraction:
    """A nonzero rational from the primes-over-small-denominators pool."""
    return Fraction(rng.choice(_PRIMES), rng.choice(_DENOMS))


def alt_hooks(n: int) -> list[FactorId]:
    """The 2n alternating hook minors, ordered by slice pair."""
    if n < 1:
        raise ValueError("n must be at least 1")
    out: list[FactorId] = []
    for c in range(n):
        if c % 2 == 0:
            out += [face_minor_y(0, c, c + 1), face_minor_x(1, c, c + 1)]
        else:
            out += [face_minor_x(0, c, c + 1), face_minor_y(1, c, c + 1)]
    return out


def hook_constraint_universe(n: int) -> list[FactorId]:
    """altH(n) plus the last slice minor, in forcing order."""
    return alt_hooks(n) + [slice_minor(n)]


def _solve_minor(entries: list[list[list[Fraction]]], fid: FactorId, pos: tuple[int, int, int]) -> None:
    """Zero the minor by one division: entries[pos] = product of its off-diagonal cells / its diagonal partner."""
    cells = fid.cells()
    r, c = next((r, c) for r in range(2) for c in range(2) if cells[r][c] == pos)
    at = lambda p: entries[p[0]][p[1]][p[2]]
    i, j, k = pos
    entries[i][j][k] = at(cells[r][1 - c]) * at(cells[1 - r][c]) / at(cells[1 - r][1 - c])


def force_minors(entries: list[list[list[Fraction]]], minors) -> bool:
    """Zero each minor in turn through the last entry no earlier minor touches.

    Works on [2][2][n+1] entries for any n; a solved entry is a ratio of
    nonzero entries, so every entry stays nonzero.  Returns False, with
    the entries partly rewritten, when a minor has no untouched entry left.
    """
    used: set[tuple[int, int, int]] = set()
    for fid in minors:
        free = sorted(fid.variables() - used)
        if not free:
            return False
        _solve_minor(entries, fid, free[-1])
        used |= fid.variables()
    return True


def rank_one_slice(rng: random.Random) -> list[list[Fraction]]:
    """A singular slice [[a, b], [c, b*c/a]] from three seeded entries."""
    a, b, c = random_entry(rng), random_entry(rng), random_entry(rng)
    return [[a, b], [c, b * c / a]]


def forced_draw(rng: random.Random, n: int, minors) -> ScalingTensor | None:
    """Seeded 2 x 2 x (n+1) entries with `minors` forced in order, or None when forcing fails."""
    entries = [[[random_entry(rng) for _ in range(n + 1)] for _ in range(2)] for _ in range(2)]
    return ScalingTensor.from_entries(n, entries) if force_minors(entries, minors) else None


def scaled_pair(rng: random.Random, singular: bool, axis: str | None = None) -> ScalingTensor | None:
    """An n = 1 tensor whose slice 1 is slice 0 rescaled, or None for a rejected draw.

    Slice 0 is drawn singular by construction when `singular` is set and
    drawn whole otherwise, rejecting a singular draw.  With no axis slice 1
    is lam * slice 0 (lam = 1 is rejected for a nonsingular slice 0);
    axis "x" scales the two x-rows by lam and mu, axis "y" the two
    y-columns, rejecting lam = mu.
    """
    if singular:
        s0 = rank_one_slice(rng)
    else:
        s0 = [[random_entry(rng) for _ in range(2)] for _ in range(2)]
    lam = random_entry(rng)
    if axis is None:
        if not singular and (s0[0][0] * s0[1][1] == s0[0][1] * s0[1][0] or lam == 1):
            return None
        scale = [[lam, lam], [lam, lam]]
    else:
        mu = random_entry(rng)
        if lam == mu:
            return None
        scale = [[lam, lam], [mu, mu]] if axis == "x" else [[lam, mu], [lam, mu]]
    return ScalingTensor.from_slices([s0, [[scale[i][j] * s0[i][j] for j in range(2)] for i in range(2)]])


def first_witness(draw, target: frozenset[FactorId], rng: random.Random) -> ScalingTensor:
    """The first tensor `draw(rng)` yields whose exact vanishing pattern is `target`.

    `draw` returns a candidate, or None for a draw it rejects itself; each
    candidate's pattern is computed once.  Raises GenerationFailedError
    after _RETRY_BUDGET draws without a match.
    """
    for _ in range(_RETRY_BUDGET):
        W = draw(rng)
        if W is not None and vanishing_pattern(W).factors == target:
            return W
    names = [f.name for f in sorted(target, key=FactorId.sort_key)]
    raise GenerationFailedError(f"no tensor vanishing exactly on {names} after {_RETRY_BUDGET} draws")


def generic_solution(S, n: int, seed: int = 0) -> ScalingTensor:
    """A tensor whose vanishing pattern is exactly the constraint set S.

    S must be a subset of altH(n) + {F[**n]}.  Entries are drawn from a
    seeded pool, each constraint is forced in forcing order, and the result
    is rejected unless the exact pattern equals S.
    """
    allowed = hook_constraint_universe(n)
    S = set(S)
    if not S <= set(allowed):
        bad = sorted(f.name for f in S - set(allowed))
        raise ValueError(f"constraints outside altH({n}) + {{F[**{n}]}}: {bad}")
    minors = sorted(S, key=allowed.index)
    return first_witness(partial(forced_draw, n=n, minors=minors), frozenset(S), random.Random(seed))


def realize(n: int, r: int, seed: int = 0) -> ScalingTensor:
    """A tensor with ML degree exactly r, for any 1 <= r <= (n+1)(n+2)."""
    top = degree_bound(n)
    if not 1 <= r <= top:
        raise ValueError(f"r must be in [1, {top}] for n = {n}")
    m = 1
    while degree_bound(m) < r:
        m += 1
    if r > m * (m + 1):
        W = generic_solution(hook_constraint_universe(m)[: degree_bound(m) - r], m, seed)
    else:  # m = 1, r <= 2: proportional slices, nonsingular for the frame plus H, singular for all seven factors
        every = frozenset(all_factors(1))
        target = every - {slice_minor(0), slice_minor(1)} if r == 2 else every
        W = first_witness(partial(scaled_pair, singular=r == 1), target, random.Random(seed))
    return ScalingTensor.from_entries(n, [[list(row) + [row[-1]] * (n - m) for row in plane] for plane in W.w])
