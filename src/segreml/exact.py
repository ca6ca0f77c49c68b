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
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

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


class Record:
    """An immutable value whose fields are the names annotated in its class body, each one a slot.

    It keeps a frozen dataclass's rules: == holds between instances of one
    class with equal field tuples, hash is the hash of the field tuple,
    repr is "Class(field=value, ...)", copy and pickle rebuild an instance
    from its fields, and assigning or deleting an attribute raises
    AttributeError.  A subclass lists its fields in __slots__; one that
    checks its input sets each field once in its own __init__ through
    object.__setattr__.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        names = self.__annotations__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__qualname__} takes {len(names)} fields, got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__annotations__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__annotations__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class RatMatrix(Record):
    """An immutable matrix with exact rational entries."""

    __slots__ = ("entries",)
    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, entries: tuple[tuple[Fraction, ...], ...]) -> None:
        if not entries or not entries[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", entries)

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
    scale = lcm(*[x.denominator for x in row])
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


class BinaryForm(Record):
    """Homogeneous form in (y0, y1) of structural degree len(coeffs)-1 <= 2, with int or Fraction coefficients."""

    __slots__ = ("coeffs",)
    coeffs: tuple

    def __init__(self, coeffs: tuple) -> None:
        if not 1 <= len(coeffs) <= _MAX_FORM_DEGREE + 1:
            raise ValueError("binary forms are capped at degree 2")
        object.__setattr__(self, "coeffs", coeffs)

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
    """The gcd of binary forms of ints as a `primitive` form of ints; identically-zero inputs are ignored.

    Folds `_pair_gcd` over the nonzero inputs, stopping at a constant.
    Returns the zero form when every input is zero; a gcd that keeps a
    Fraction coefficient raises TypeError in `primitive`.
    """
    if not forms:
        raise ValueError("binary_gcd requires at least one form")
    nonzero = [f for f in forms if not f.is_zero]
    if not nonzero:
        return BinaryForm.zero()
    g, *rest = nonzero
    for f in rest:
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
