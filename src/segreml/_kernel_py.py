"""Pure-Python reduction kernel for exact integer polynomial arithmetic.

A term list is a list of (monomial, coefficient) pairs with monomials as
tuples of small nonnegative ints and coefficients as arbitrary-precision
integers, sorted descending in graded reverse lexicographic order.
Polynomials are kept primitive: the gcd of the coefficients is 1 and the
leading coefficient is positive.  Reduction is fraction-free (scale, then
subtract); content is stripped once per finished normal form.
"""

from __future__ import annotations

from math import gcd

Term = tuple  # (monomial tuple, integer coefficient)


def grevlex_key(mono):
    """Sort key realizing grevlex: compare by total degree, then by the
    reversed exponent tuple with flipped signs."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a, b):
    """Whether x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def sort_terms(terms):
    """Drop zero coefficients and sort descending in grevlex."""
    terms = [(m, c) for m, c in terms if c]
    terms.sort(key=lambda t: grevlex_key(t[0]), reverse=True)
    return terms


def make_primitive(terms):
    """Divide out the coefficient content and make the lead positive."""
    if not terms:
        return []
    g = 0
    for _, c in terms:
        g = gcd(g, c)
        if g == 1:
            break
    if terms[0][1] < 0:
        g = -g
    if g != 1:
        terms = [(m, c // g) for m, c in terms]
    return terms


def combine(f, cf, sf, g, cg, sg):
    """cf * x^sf * f + cg * x^sg * g, merged into descending order.

    A shift of None means no shift (saves rebuilding every monomial in the
    common reduce-in-place case).
    """
    out = []
    i = j = 0
    nf, ng = len(f), len(g)
    scale_f = cf != 1
    while i < nf and j < ng:
        mf = f[i][0] if sf is None else mono_mul(f[i][0], sf)
        mg = g[j][0] if sg is None else mono_mul(g[j][0], sg)
        kf, kg = grevlex_key(mf), grevlex_key(mg)
        if kf > kg:
            out.append((mf, cf * f[i][1] if scale_f else f[i][1]))
            i += 1
        elif kg > kf:
            out.append((mg, cg * g[j][1]))
            j += 1
        else:
            c = (cf * f[i][1] if scale_f else f[i][1]) + cg * g[j][1]
            if c:
                out.append((mf, c))
            i += 1
            j += 1
    while i < nf:
        mf = f[i][0] if sf is None else mono_mul(f[i][0], sf)
        out.append((mf, cf * f[i][1] if scale_f else f[i][1]))
        i += 1
    while j < ng:
        mg = g[j][0] if sg is None else mono_mul(g[j][0], sg)
        out.append((mg, cg * g[j][1]))
        j += 1
    return out


def spair(f, g):
    """Primitive S-polynomial of two primitive term lists."""
    (lmf, lcf), (lmg, lcg) = f[0], g[0]
    lcm = mono_lcm(lmf, lmg)
    d = gcd(lcf, lcg)
    return make_primitive(combine(f, lcg // d, mono_div(lcm, lmf), g, -(lcf // d), mono_div(lcm, lmg)))


def normal_form(p, basis):
    """Full fraction-free remainder of p modulo the term lists in `basis`.

    Every monomial of the result is outside the leading-term ideal of the
    basis.  The result is primitive.
    """
    out = []
    work = list(p)
    pos = 0
    while pos < len(work):
        lm, lc = work[pos]
        reducer = None
        for g in basis:
            if mono_divides(g[0][0], lm):
                reducer = g
                break
        if reducer is None:
            out.append(work[pos])
            pos += 1
            continue
        glm, glc = reducer[0]
        d = gcd(lc, glc)
        a = glc // d
        b = lc // d
        if a < 0:
            a, b = -a, -b
        work = combine(work[pos:], a, None, reducer, -b, mono_div(lm, glm))
        pos = 0
        if a != 1 and out:
            out = [(m, c * a) for m, c in out]
    return make_primitive(out)
