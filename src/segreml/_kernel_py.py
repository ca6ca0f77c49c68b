"""Pure-Python reduction kernel over F_p with packed grevlex monomials.

A monomial x^e in N variables is one int,

    K(e) = deg(e) * B^N - sum_i e_i * B^i,      B = 2^16,

so grevlex order is int order and a monomial product is an int add.  The
low N fields of -K hold the exponents E; bit 15 of each field is a guard
bit, so x^a divides x^b exactly when ((E_b | G) - E_a) & G == G for the
mask G of guard bits, and lcm is a per-field maximum.  Both need every
exponent below 2^15: generators and S-pairs from total degree 2^15 on
raise ResourceBudgetExceededError, and reduction never raises a degree.

A term list is a list of (packed monomial, coefficient in [1, p)) pairs,
sorted descending and monic.  The prime and the packing width travel as
one `Ring` value, built per basis computation.

`spair` merges two shifted term lists with `combine`.  `normal_form` keeps
its live terms in a dict from monomial to coefficient plus a max-heap of
their monomials (Monagan-Pearce heap division, CASC 2007), so each
reduction step touches only the reducer's tail instead of re-merging the
whole work list.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .errors import ResourceBudgetExceededError

FIELD_BITS = 16
DEGREE_LIMIT = 1 << (FIELD_BITS - 1)  # the guard bit: every total degree stays below it


class Ring:
    """F_p[x_1..x_N] with monomials packed into N fields of FIELD_BITS bits; not changed once built."""

    __slots__ = ("p", "nvars", "shift", "mask", "guard", "top")

    def __init__(self, p: int, nvars: int):
        self.p, self.nvars, self.shift = p, nvars, FIELD_BITS * nvars
        self.mask = (1 << self.shift) - 1  # B^N - 1, the exponent fields of -K
        self.guard = sum(DEGREE_LIMIT << (FIELD_BITS * i) for i in range(nvars))  # bit 15 of every field
        self.top = (DEGREE_LIMIT - 1) << self.shift  # K(m) > top exactly when deg(m) >= DEGREE_LIMIT


def _degree_error(deg) -> ResourceBudgetExceededError:
    return ResourceBudgetExceededError(f"monomial degree {deg} reaches the packed-exponent limit {DEGREE_LIMIT}")


def pack(exps) -> int:
    """K(e) for an exponent tuple e of nonnegative ints."""
    deg = sum(exps)
    if deg >= DEGREE_LIMIT:
        raise _degree_error(deg)
    return (deg << (FIELD_BITS * len(exps))) - sum(e << (FIELD_BITS * i) for i, e in enumerate(exps))


def unpack(mono: int, nvars: int) -> tuple:
    """The exponent tuple of a packed monomial in nvars variables."""
    e = -mono & ((1 << (FIELD_BITS * nvars)) - 1)
    return tuple((e >> (FIELD_BITS * i)) & 0xFFFF for i in range(nvars))


def mono_divides(R: Ring, a: int, b: int) -> bool:
    """Whether x^a divides x^b."""
    g = R.guard
    return (((-b & R.mask) | g) - (-a & R.mask)) & g == g


def mono_lcm(R: Ring, a: int, b: int) -> int:
    """Per-field maximum of the exponents of two monomials of degree below 2^15, repacked."""
    ea, eb = -a & R.mask, -b & R.mask
    ge = ((((ea | R.guard) - eb) & R.guard) >> (FIELD_BITS - 1)) * 0xFFFF  # fields where a >= b
    e = (ea & ge) | (eb & ~ge)
    # the degree, at most 2 * (2^15 - 1) < B - 1, is the sum of the fields,
    # which is their remainder mod B - 1 because B = 1 mod B - 1
    return ((e % 0xFFFF) << R.shift) - e


def from_int_terms(R: Ring, terms) -> list:
    """An integer term list with distinct exponent tuples, packed, reduced mod p and made monic."""
    return make_monic(R, sorted(((pack(m), c % R.p) for m, c in terms if c % R.p), reverse=True))


def make_monic(R: Ring, terms):
    """Scale a term list so that its leading coefficient is 1."""
    if not terms or terms[0][1] == 1:
        return terms
    p = R.p
    inv = pow(terms[0][1], -1, p)
    return [(m, c * inv % p) for m, c in terms]


def combine(f, cf, sf, g, cg, sg, p):
    """cf * x^sf * f + cg * x^sg * g over F_p, merged into descending order.

    sf and sg are packed shifts, 0 for none.
    """
    f = [(m + sf, cf * c % p) for m, c in f]
    out = []
    i = j = 0
    nf, ng = len(f), len(g)
    while i < nf and j < ng:
        mf = f[i][0]
        mg = g[j][0] + sg
        if mf > mg:
            out.append(f[i])
            i += 1
        elif mg > mf:
            out.append((mg, cg * g[j][1] % p))
            j += 1
        else:
            c = (f[i][1] + cg * g[j][1]) % p
            if c:
                out.append((mf, c))
            i += 1
            j += 1
    out += f[i:]
    out += [(m + sg, cg * c % p) for m, c in g[j:]]
    return out


def spair(f, g, R: Ring):
    """S-polynomial x^(L - lm f) f - x^(L - lm g) g of two monic term lists, L their lead lcm."""
    lmf, lmg = f[0][0], g[0][0]
    lcm = mono_lcm(R, lmf, lmg)
    if lcm > R.top:
        raise _degree_error(sum(unpack(lcm, R.nvars)))
    return combine(f, 1, lcm - lmf, g, R.p - 1, lcm - lmg, R.p)


def normal_form(f, basis, R: Ring):
    """Full remainder of f modulo the monic term lists in `basis`, made monic.

    Every monomial of the result is outside the leading-term ideal of the
    basis.  Each step pops the largest live term and either moves it to
    the remainder or cancels it with the first basis element, in basis
    order, whose lead divides it.  A monomial enters the heap (negated, for
    heapq) once, when it enters the dict; a coefficient that cancels to 0
    stays until its monomial is popped.  Reduction never raises a degree:
    the shifted tail lies below the term it cancels.
    """
    p, mask, guard = R.p, R.mask, R.guard
    reducers = [(-g[0][0] & mask, g[0][0], g[1:]) for g in basis]
    coeff = dict(f)
    heap = [-m for m, _ in f]  # f is sorted descending, so this is already a heap
    out = []
    while heap:
        m = -heappop(heap)
        c = coeff.pop(m)
        if not c:
            continue
        e = (-m & mask) | guard
        for eg, lm, tail in reducers:
            if (e - eg) & guard == guard:
                shift, scale = m - lm, p - c
                for mt, ct in tail:
                    mt += shift
                    if mt in coeff:
                        coeff[mt] = (coeff[mt] + scale * ct) % p
                    else:
                        coeff[mt] = scale * ct % p
                        heappush(heap, -mt)
                break
        else:
            out.append((m, c))
    return make_monic(R, out)
