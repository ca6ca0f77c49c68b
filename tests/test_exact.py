from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import segreml.exact
from segreml.exact import (
    MAX_RATIONAL_DIGITS,
    BinaryForm,
    RatMatrix,
    binary_gcd,
    distinct_root_count,
    format_rational,
    integer_row,
    parse_rational,
    primitive,
    rank,
)

from helpers import schema_validator


CANONICAL = ["3", "-7", "3/4", "-22/7", "0"]
ACCEPTED = [*CANONICAL, "6/4", " -3/6 ", "9" * MAX_RATIONAL_DIGITS, "1/" + "7" * MAX_RATIONAL_DIGITS]
REJECTED = [
    "1/0", "-4/00", "0.5", "1e5", "1e999999999", "+1", "1/-2", "", "1_000", "inf", 3, None,
    "9" * (MAX_RATIONAL_DIGITS + 1), "1/" + "7" * (MAX_RATIONAL_DIGITS + 1),
]


def test_rational_strings_round_trip():
    for text in CANONICAL:
        assert format_rational(parse_rational(text)) == text
    assert parse_rational("6/4") == Fraction(3, 2)
    assert format_rational(Fraction(10, 5)) == "2"
    assert parse_rational(" -3/6 ") == Fraction(-1, 2)
    assert parse_rational("9" * MAX_RATIONAL_DIGITS) == 10**MAX_RATIONAL_DIGITS - 1
    for text in REJECTED:
        with pytest.raises(ValueError):
            parse_rational(text)


@st.composite
def _digit_strings(draw, nonzero=False):
    """1 to MAX_RATIONAL_DIGITS decimal digits, often with leading zeros."""
    length = draw(st.one_of(st.integers(1, 12), st.integers(1, MAX_RATIONAL_DIGITS), st.just(MAX_RATIONAL_DIGITS)))
    significant = draw(st.integers(1, length))
    return str(draw(st.integers(int(nonzero), 10**significant - 1))).zfill(length)


@st.composite
def _rational_texts(draw):
    """Rational strings parse_rational accepts: -? p (/q)?, q nonzero, with surrounding whitespace."""
    space = st.text(" \t\n\r\f\v", max_size=3)
    text = draw(st.sampled_from(("", "-"))) + draw(_digit_strings())
    if draw(st.booleans()):
        text += "/" + draw(_digit_strings(nonzero=True))
    return draw(space) + text + draw(space)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_rational_texts())
def test_parse_rational_reads_what_fraction_reads(text):
    value = parse_rational(text)
    assert type(value) is Fraction and value == Fraction(text.strip())


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_digit_strings(), st.integers(1, 3), st.integers(1, 5))
def test_parse_rational_refusals(digits, zeros, extra):
    """Zero denominators, '+', decimals, exponents, over-long digit strings and non-str values are refused."""
    refused = [
        f"{digits}/{'0' * zeros}",
        "+" + digits,
        f"{digits}.5",
        f"{digits}e3",
        digits.zfill(MAX_RATIONAL_DIGITS + extra),
        "1/" + digits.zfill(MAX_RATIONAL_DIGITS + extra),
        int(digits),
        Fraction(int(digits)),
        digits.encode(),
    ]
    for value in refused:
        with pytest.raises(ValueError):
            parse_rational(value)


def test_schema_rational_agrees_with_the_reader():
    validator = schema_validator("rational")
    for text in ACCEPTED:
        assert validator.is_valid(text), text[:20]
    for text in REJECTED:
        assert not validator.is_valid(text), str(text)[:20]


def rank_by_minors(rows):
    """Independent oracle: largest k with a nonzero k x k minor."""
    m, n = len(rows), len(rows[0])

    def det(sub):
        if len(sub) == 1:
            return sub[0][0]
        total = Fraction(0)
        for j in range(len(sub)):
            minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    for k in range(min(m, n), 0, -1):
        for rs in itertools.combinations(range(m), k):
            for cs in itertools.combinations(range(n), k):
                if det([[rows[r][c] for c in cs] for r in rs]) != 0:
                    return k
    return 0


def test_rank_examples():
    assert rank(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(RatMatrix.from_rows([[1, 0], [0, 1]])) == 2
    assert rank(RatMatrix.from_rows([[1, 3], [2, 1], [3, 4]])) == 2


def test_rank_matches_minor_expansion_exhaustive_2x2():
    values = [Fraction(v) for v in range(-2, 3)]
    for a, b, c, d in itertools.product(values, repeat=4):
        rows = [[a, b], [c, d]]
        assert rank(RatMatrix.from_rows(rows)) == rank_by_minors(rows)


@pytest.mark.parametrize("shape", [(3, 3), (3, 4), (4, 4), (4, 2)])
def test_rank_matches_minor_expansion_sampled(shape):
    rng = random.Random(42)
    m, n = shape
    for _ in range(300):
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        assert rank(RatMatrix.from_rows(rows)) == rank_by_minors(rows)


def test_rank_handles_fractions():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    assert rank(RatMatrix.from_rows(rows)) == rank_by_minors(rows)


def test_binary_gcd_examples():
    f = BinaryForm((0, 8, 14))
    g = BinaryForm((0, -8, -14))
    got = binary_gcd([f, g])
    # y1*(4 y0 + 7 y1) up to a unit, as its primitive integer form
    assert got.coeffs == (0, 4, 7)
    assert binary_gcd([BinaryForm((1, 0, 0)), BinaryForm((0, 0, 1))]).degree == 0
    assert binary_gcd([BinaryForm.zero(), BinaryForm.zero()]).is_zero
    # zero inputs are ignored alongside nonzero ones
    assert binary_gcd([BinaryForm.zero(), f]).coeffs == (0, 4, 7)


def test_binary_gcd_of_int_forms_is_exact():
    # forms of ints give the gcd of their Fraction twins (f/q, cleared by
    # integer_row), as ints, never floats
    rng = random.Random(5)
    pairs = [((2, 3), (4, 6)), ((1, 0, -4), (1, -2)), ((0, 8, 14), (0, -8, -14)), ((3,), (0, 7))]
    for _ in range(200):
        a, b, c = (rng.randint(-9, 9), rng.choice([1, 2, 3, -5])), (rng.randint(-9, 9), 7), (rng.randint(-9, 9), 3)
        pairs.append((tuple(linear_product(a, b).coeffs), tuple(linear_product(a, c).coeffs)))
    for f, g in pairs:
        ints = [BinaryForm(tuple(int(x) for x in f)), BinaryForm(tuple(int(x) for x in g))]
        got = binary_gcd(ints)
        q = rng.randint(1, 30)
        assert got == binary_gcd([BinaryForm(tuple(integer_row([Fraction(x, q) for x in h]))) for h in (f, g)])
        assert all(type(x) is int for x in got.coeffs), got
    assert binary_gcd([BinaryForm((2, 3)), BinaryForm((4, 6))]).coeffs == (2, 3)


def test_binary_gcd_takes_int_forms_as_they_are(monkeypatch):
    """Forms of ints enter the fold without integer_row; a Fraction form is the caller's to clear of its denominators."""
    real = segreml.exact.integer_row
    seen = []
    monkeypatch.setattr(segreml.exact, "integer_row", lambda row: seen.append(row) or real(row))
    assert binary_gcd([BinaryForm((2, -2, -4)), BinaryForm((1, 1))]).coeffs == (1, 1)
    half = BinaryForm((Fraction(1, 2), Fraction(1, 2)))
    for forms in ([half], [half, BinaryForm((2, -2, -4))], [BinaryForm((Fraction(4),))]):
        with pytest.raises(TypeError):
            binary_gcd(forms)
    assert binary_gcd([BinaryForm(tuple(integer_row(half.coeffs))), BinaryForm((2, -2, -4))]).coeffs == (1, 1)
    assert seen == []


def linear_product(f, g):
    """(a0 y0 + a1 y1)(b0 y0 + b1 y1) from the two coefficient pairs."""
    (a0, a1), (b0, b1) = f, g
    return BinaryForm((a0 * b0, a0 * b1 + a1 * b0, a1 * b1))


def test_binary_gcd_divides_both():
    rng = random.Random(7)

    def random_linear():
        return (rng.randint(-9, 9), rng.choice([v for v in range(-9, 10) if v]))

    def divides(d, f):
        # gcd of {d, f} must be d itself (primitive) when d | f
        return binary_gcd([d, f]).coeffs == primitive(d.coeffs)

    for _ in range(1000):
        shared = random_linear()
        f = linear_product(shared, random_linear())
        g = linear_product(shared, random_linear())
        d = binary_gcd([f, g])
        assert not d.is_zero and d.degree >= 1
        assert divides(d, f) and divides(d, g)


SMALL = [Fraction(v) for v in ("0", "1", "2", "3", "1/2", "2/3", "-1", "-2", "-3", "-1/2", "-2/3")]


def sympy_gcd(forms):
    """Independent reference: the primitive integer gcd coefficients by sympy, () when every form is zero."""
    import sympy

    y0, y1 = sympy.symbols("y0 y1")
    polys = [
        sympy.Poly.from_dict(
            {(f.degree - i, i): sympy.Rational(c.numerator, c.denominator) for i, c in enumerate(f.coeffs)},
            y0, y1, domain="QQ",
        )
        for f in forms
    ]
    g = functools.reduce(lambda a, b: a.gcd(b), polys)
    if g.is_zero:
        return ()
    d = g.total_degree()
    coeffs = [g.coeff_monomial((d - i, i)) for i in range(d + 1)]
    lead = next(c for c in coeffs if c != 0)
    monic = [c / lead for c in coeffs]
    scale = sympy.Rational(math.lcm(*(int(q.q) for q in monic)), math.gcd(*(int(q.p) for q in monic)))
    return tuple(int(q * scale) for q in monic)


def random_forms(rng):
    """1-4 forms built from a pool of three linear factors, so that shared roots are common."""
    pool = [(rng.choice(SMALL), rng.choice(SMALL)) for _ in range(3)]
    pool = [p for p in pool if p != (0, 0)] or [(Fraction(1), Fraction(0))]
    forms = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        scale = rng.choice(SMALL[1:])
        if kind < 0.1:
            forms.append(BinaryForm((Fraction(0),) * rng.randint(1, 3)))
        elif kind < 0.2:
            forms.append(BinaryForm((scale,)))
        elif kind < 0.35:
            forms.append(BinaryForm(tuple(scale * c for c in rng.choice(pool))))
        elif kind < 0.5 and forms:
            forms.append(BinaryForm(tuple(scale * c for c in forms[-1].coeffs)))
        else:
            f = linear_product(rng.choice(pool), rng.choice(pool))
            forms.append(BinaryForm(tuple(scale * c for c in f.coeffs)))
    return forms


def test_binary_gcd_matches_sympy():
    rng = random.Random(13)
    seen = set()
    for _ in range(1500):
        forms = random_forms(rng)
        want = sympy_gcd(forms)
        got = binary_gcd([BinaryForm(tuple(integer_row(f.coeffs))) for f in forms])
        assert (() if got.is_zero else got.coeffs) == want, forms
        quadratics = [primitive(integer_row(f.coeffs)) for f in forms if f.degree == 2 and not f.is_zero]
        if len(set(quadratics)) < len(quadratics):
            seen.add("proportional")
        if len(want) > 1:
            seen.add("root (1:0)" if want[0] == 0 else "other root")
            seen.add("root (0:1)" if want[-1] == 0 else "other root")
        if len(want) == 3:
            seen.add("double root" if want[1] ** 2 == 4 * want[0] * want[2] else "two roots")
        seen.add({(): "zero", (1,): "constant"}.get(want, "nonconstant"))
    assert seen == {
        "root (1:0)", "root (0:1)", "other root", "double root", "two roots",
        "proportional", "zero", "constant", "nonconstant",
    }


def test_distinct_root_counts():
    assert distinct_root_count(BinaryForm((0, 8, 14))) == 2
    assert distinct_root_count(BinaryForm((0, 0, 1))) == 1  # y1^2
    assert distinct_root_count(BinaryForm((3,))) == 0
    assert distinct_root_count(BinaryForm((0, 5))) == 1
    assert distinct_root_count(BinaryForm.zero()) is None


def test_distinct_roots_of_linear_products():
    rng = random.Random(3)
    pool = [v for v in range(-9, 10) if v]
    for _ in range(1000):
        f = (rng.choice(pool), rng.choice(pool))
        g = (rng.choice(pool), rng.choice(pool))
        prod = linear_product(f, g)
        coprime = f[0] * g[1] - f[1] * g[0] != 0
        assert distinct_root_count(prod) == (2 if coprime else 1)
        assert distinct_root_count(linear_product(f, f)) == 1


def test_degree_cap_is_enforced():
    with pytest.raises(ValueError):
        BinaryForm((1, 2, 3, 4))


def test_discriminant():
    assert BinaryForm((0, 8, 14)).discriminant() == 64
    with pytest.raises(ValueError):
        BinaryForm((1, 2)).discriminant()


_NONZERO = st.fractions(max_denominator=10**30).filter(bool)
_INTS = st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=5)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_INTS, _NONZERO)
def test_primitive_is_the_integer_normal_form(v, lam):
    """primitive(integer_row(lam*v)) is primitive(v); it is idempotent, of content 1 and first nonzero entry > 0."""
    p = primitive(v)
    assert primitive(integer_row([lam * x for x in v])) == p
    assert primitive(p) == p and all(type(x) is int for x in p)
    if any(v):
        assert math.gcd(*p) == 1 and next(x for x in p if x) > 0
    else:
        assert p == tuple(v)


_LINEAR = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)
_INT_FORMS = st.one_of(
    st.integers(-5, 5).map(lambda c: (c,)),
    _LINEAR,
    st.tuples(_LINEAR, _LINEAR).map(lambda fg: linear_product(*fg).coeffs),
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_INT_FORMS, _INT_FORMS, _NONZERO, _NONZERO)
def test_binary_gcd_is_a_primitive_int_form_under_scaling(f, g, lam, mu):
    """binary_gcd([lam f, mu g]) is binary_gcd([f, g]), a primitive form of ints."""
    got = binary_gcd([BinaryForm(tuple(integer_row([s * c for c in h]))) for s, h in ((lam, f), (mu, g))])
    assert got == binary_gcd([BinaryForm(f), BinaryForm(g)])
    assert all(type(c) is int for c in got.coeffs) and got.coeffs == primitive(got.coeffs)
