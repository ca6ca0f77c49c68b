"""Exact scalars, exact matrix rank, and binary forms of degree at most two.

Everything in this package computes over the rationals; no floats appear
anywhere.  Scalars are read and printed as canonical `fractions.Fraction`,
serialized as decimal strings "p/q", or "p" when the denominator is 1; in
between, a slice, a matrix row or a gcd is kept as its `primitive` integer
vector, the one normal form of a vector known up to a scalar.

A homogeneous binary form of degree d in (y0, y1) is stored by its
coefficient tuple (c0, ..., cd), meaning

    c0*y0^d + c1*y0^(d-1)*y1 + ... + cd*y1^d.

A vanishing leading coefficient encodes the projective root (1:0), so a
nonzero degree-d form always has exactly d roots counted with
multiplicity.  Degree is capped at two: all determinants of the pencil
matrices downstream are quadratics, and the cap is enforced structurally.

The cap is what lets `binary_gcd` use closed forms instead of Euclid.  A
linear form (c0, c1) has the one root (c1 : -c0), so its gcd with f is
itself when f vanishes there and 1 otherwise.  For two quadratics f and g
take the cross product of their coefficient vectors,

    v = (f1*g2 - f2*g1, f2*g0 - f0*g2, f0*g1 - f1*g0).

A common root (s : t) makes (s^2, st, t^2) orthogonal to both vectors, so
it is parallel to v.  Hence: v = 0 means f and g are proportional (gcd f);
otherwise v1^2 - v0*v2, their Sylvester resultant, is zero exactly when
they share a root (gcd 1 when it is not), and the shared root is
(s : t) = (v0 : v1) if v0 != 0, else (v1 : v2) = (0 : 1), giving the gcd
t*y0 - s*y1.  Two distinct roots cannot be shared without proportionality,
so the gcd of non-proportional quadratics is never of degree two.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

_MAX_FORM_DEGREE = 2

_RATIONAL_RE = re.compile(r"-?([0-9]+)(?:/([0-9]+))?")
# The most digits a numerator or denominator may have: the interpreter's
# default int-string limit, enforced here so that what is admitted does not
# depend on the interpreter (before Python 3.10.7 there is no such limit).
MAX_RATIONAL_DIGITS = 4300


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (decimal integers, q > 0) into a Fraction.

    Anything else, including decimals, exponents, a zero denominator, more
    than MAX_RATIONAL_DIGITS digits in p or q and a value that is not a str
    (such as a JSON number), raises ValueError.
    """
    if not isinstance(text, str):
        raise ValueError(f"{text!r} is not a rational string")
    text = text.strip()
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"{text!r} is not a rational of the form p or p/q")
    if max(len(match[1]), len(match[2] or "")) > MAX_RATIONAL_DIGITS:
        raise ValueError(f"{text[:20]!r}... has more than {MAX_RATIONAL_DIGITS} digits in its numerator or denominator")
    numerator, denominator = int(match[1]), int(match[2] or 1)
    if denominator == 0:
        raise ValueError(f"{text!r} has a zero denominator")
    return Fraction(-numerator if text[0] == "-" else numerator, denominator)


def format_rational(value: Fraction) -> str:
    """Format a Fraction as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class RatMatrix:
    """An immutable matrix with exact rational entries."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries or not self.entries[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> RatMatrix:
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])


def integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the lcm of its denominators: integers with the same span."""
    scale = 1
    for x in row:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    return [x.numerator * (scale // x.denominator) for x in row]


def primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """The integer vector divided by its content, first nonzero entry positive; the zero vector as it is."""
    content = gcd(*ints)
    if content and next(x for x in ints if x) < 0:
        content = -content
    return tuple(x // content for x in ints) if content else tuple(ints)


def rank(matrix: RatMatrix) -> int:
    """Exact rank over Q by fraction-free (Bareiss) elimination.

    Rows are first scaled to integers (row scaling preserves rank); the
    elimination then stays in Z, which keeps intermediate entries to
    minor-sized integers instead of ever-growing fractions.
    """
    mat = [integer_row(row) for row in matrix.entries]
    nrows, ncols = len(mat), len(mat[0])
    rnk = 0
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(rnk, nrows) if mat[i][col]), None)
        if pivot is None:
            continue
        if pivot != rnk:
            mat[rnk], mat[pivot] = mat[pivot], mat[rnk]
        for i in range(rnk + 1, nrows):
            for j in range(col + 1, ncols):
                mat[i][j] = (mat[rnk][col] * mat[i][j] - mat[i][col] * mat[rnk][j]) // prev
            mat[i][col] = 0
        prev = mat[rnk][col]
        rnk += 1
        if rnk == nrows:
            break
    return rnk


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form in (y0, y1) of structural degree len(coeffs)-1 <= 2, with int or Fraction coefficients."""

    coeffs: tuple

    def __post_init__(self) -> None:
        if not 1 <= len(self.coeffs) <= _MAX_FORM_DEGREE + 1:
            raise ValueError("binary forms are capped at degree 2")

    @classmethod
    def zero(cls) -> BinaryForm:
        return cls((0,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def discriminant(self):
        """c1^2 - 4*c0*c2 of a degree-2 form."""
        if self.degree != 2:
            raise ValueError("discriminant requires a degree-2 form")
        c0, c1, c2 = self.coeffs
        return c1 * c1 - 4 * c0 * c2


_ONE = BinaryForm((1,))


def _pair_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """gcd of two nonzero forms up to a scalar, by the closed forms in the module docstring."""
    if f.degree < g.degree:
        f, g = g, f
    if g.degree == 0:
        return _ONE
    if g.degree == 1:
        c0, c1 = g.coeffs
        d = f.degree
        value = sum(c * c1 ** (d - i) * (-c0) ** i for i, c in enumerate(f.coeffs))
        return g if value == 0 else _ONE
    (f0, f1, f2), (g0, g1, g2) = f.coeffs, g.coeffs
    v0, v1, v2 = f1 * g2 - f2 * g1, f2 * g0 - f0 * g2, f0 * g1 - f1 * g0
    if v0 == v1 == v2 == 0:
        return f
    if v1 * v1 != v0 * v2:
        return _ONE
    s, t = (v0, v1) if v0 != 0 else (v1, v2)
    return BinaryForm((t, -s))


def binary_gcd(forms: Sequence[BinaryForm]) -> BinaryForm:
    """The gcd of binary forms as a `primitive` form of ints; identically-zero inputs are ignored.

    Folds `_pair_gcd` over the nonzero inputs, stopping at a constant.
    Returns the zero form when every input is zero.
    """
    if not forms:
        raise ValueError("binary_gcd requires at least one form")
    nonzero = [f for f in forms if not f.is_zero]
    if not nonzero:
        return BinaryForm.zero()
    # Scaling a form moves no root, so the fold runs on integer multiples;
    # a form of ints (every pair form and memoized gcd) is one already.
    ints = (f if all(type(c) is int for c in f.coeffs) else BinaryForm(tuple(integer_row(f.coeffs))) for f in nonzero)
    g = next(ints)
    for f in ints:
        if g.degree == 0:
            break
        g = _pair_gcd(g, f)
    return BinaryForm(primitive(g.coeffs))


def distinct_root_count(f: BinaryForm) -> int | None:
    """Number of distinct projective roots; None for the identically-zero form.

    Degree-2 forms have 2 distinct roots iff the discriminant is nonzero,
    else 1; degree-1 forms have 1; nonzero constants have 0.
    """
    if f.is_zero:
        return None
    if f.degree == 2:
        return 2 if f.discriminant() != 0 else 1
    if f.degree == 1:
        return 1
    return 0
