"""Buchberger completion over F_p and standard-monomial counting.

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

`groebner_basis` runs Buchberger's algorithm under grevlex with three of
the Gebauer-Moeller criteria (JSC 1988), in Becker-Weispfenning's UPDATE
form.  A new pair is dropped when its leads are coprime (the product
criterion) or when another new pair's lcm properly divides its lcm (the
chain criterion).  An old pair is dropped when the new lead divides its
lcm and the new lead's lcm with each of its two elements differs from it
(the old-pair criterion).  Integer generators are reduced mod a prime p,
packed and made monic as they are read, so no coefficient outgrows p;
each pair stores the lcm of its leads.  A budget on the basis size and
the packed-exponent degree limit convert runaway inputs into a clean
ResourceBudgetExceededError.

The inner loops are the reduction kernel.  `spair` merges two shifted
term lists with `combine`.  `normal_form` keeps its live terms in a dict
from monomial to coefficient plus a max-heap of their monomials
(Monagan-Pearce heap division, CASC 2007), so each reduction step touches
only the reducer's tail instead of re-merging the whole work list.

Solution counting for a zero-dimensional ideal is the number of standard
monomials: monomials outside the leading-term ideal of the reduced basis.
Counting only the solutions off a hypersurface h = 0 is linear algebra on
the quotient: the stable rank of the matrix of multiplication by h, built
from the border normal forms of the reduced basis (`count_solutions`).
Over F_p this is the count over Q unless p is unlucky for the ideal
(Arnold, JSC 2003); the oracle compares primes to catch that.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import product
from math import gcd, isqrt, prod
from operator import mul

from .errors import NotZeroDimensionalError, ResourceBudgetExceededError

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


DEFAULT_MAX_BASIS = 600
PRIME_BITS = 61
# Miller-Rabin with Sinclair's seven bases is exact below 2^64 (Sinclair 2011),
# provided a base that is 0 mod n is skipped.
_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_WITNESS_LIMIT = 2**64
_SIEVE_LIMIT = 1000


def _primes_below(limit: int) -> frozenset:
    """The primes below `limit`, by a sieve."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for q in range(2, isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, limit, q)))
    return frozenset(q for q in range(limit) if sieve[q])


_SIEVED_PRIMES = _primes_below(_SIEVE_LIMIT)
# An n of at least _SIEVE_LIMIT sharing a factor with this product is
# composite, so one gcd rejects most composites before any modular power.
_SIEVED_PRODUCT = prod(_SIEVED_PRIMES)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below _WITNESS_LIMIT: a sieve, a gcd, then Miller-Rabin."""
    if n >= _WITNESS_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    if n < _SIEVE_LIMIT:
        return n in _SIEVED_PRIMES
    if gcd(n, _SIEVED_PRODUCT) != 1:
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng) -> int:
    """A prime of exactly PRIME_BITS bits drawn from the random.Random `rng`."""
    while True:
        n = rng.getrandbits(PRIME_BITS) | (1 << (PRIME_BITS - 1)) | 1
        if is_prime(n):
            return n


def groebner_basis(gens, prime: int):
    """Reduced Groebner basis over F_prime under grevlex.

    `gens` are integer term lists [(exponent tuple, int), ...]; the result
    is a list of monic term lists [(packed monomial, coefficient), ...],
    ascending by leading monomial.
    """
    gens = [list(g) for g in gens]
    nvars = next((len(m) for g in gens for m, _ in g), 0)
    R = Ring(prime, nvars)
    divides, lcm = mono_divides, mono_lcm
    polys: list[list] = []
    lead: list[int] = []
    basis: list[int] = []  # ids, ascending
    pairs: dict[tuple[int, int], int] = {}  # (h, g) -> lcm of their leading monomials

    def update(h):
        # The pair criteria of the module docstring, then drop basis
        # elements whose leads the new leading monomial divides.
        nonlocal basis, pairs
        lmh = lead[h]
        with_h = {g: lcm(R, lmh, lead[g]) for g in basis}
        new = {
            (h, g): lg
            for g, lg in with_h.items()
            if lg != lmh + lead[g] and not any(lf != lg and divides(R, lf, lg) for lf in with_h.values())
        }
        pairs = {
            (g1, g2): l12
            for (g1, g2), l12 in pairs.items()
            if not divides(R, lmh, l12) or lcm(R, lead[g1], lmh) == l12 or lcm(R, lead[g2], lmh) == l12
        }
        pairs.update(new)
        basis = [g for g in basis if not divides(R, lmh, lead[g])]
        basis.append(h)

    def add(poly):
        polys.append(poly)
        lead.append(poly[0][0])
        update(len(polys) - 1)

    for gen in gens:
        p = from_int_terms(R, gen)
        if p:
            add(p)

    while pairs:
        pair = min(pairs, key=pairs.__getitem__)
        del pairs[pair]
        i, j = pair
        s = spair(polys[i], polys[j], R)
        if not s:
            continue
        h = normal_form(s, [polys[g] for g in basis], R)
        if not h:
            continue
        add(h)
        if len(basis) > DEFAULT_MAX_BASIS:
            raise ResourceBudgetExceededError(
                f"basis size {len(basis)} exceeds the budget of {DEFAULT_MAX_BASIS}"
            )

    # Minimalize (ascending leads, keep only non-divisible ones), then
    # tail-interreduce for a canonical reduced basis.
    minimal: list[int] = []
    for g in sorted(basis, key=lead.__getitem__):
        if not any(divides(R, lead[h], lead[g]) for h in minimal):
            minimal.append(g)
    reduced = []
    for g in minimal:
        h = normal_form(polys[g], [polys[f] for f in minimal if f != g], R)
        if h:
            reduced.append(h)
    reduced.sort(key=lambda p: p[0][0])
    return reduced


def leading_monomials(basis, nvars: int):
    """The leading monomials of a basis from groebner_basis, as exponent tuples."""
    return [unpack(p[0][0], nvars) for p in basis]


def standard_monomials(lead_monomials, nvars: int) -> list[tuple]:
    """The exponent tuples outside the monomial ideal of the given leads.

    Raises NotZeroDimensionalError unless each variable appears as a pure
    power among the leads (the staircase is finite exactly then).
    """
    lms = list(lead_monomials)
    if any(sum(m) == 0 for m in lms):
        return []  # the ideal is the unit ideal
    caps = []
    for v in range(nvars):
        pure = [m[v] for m in lms if all(m[u] == 0 for u in range(nvars) if u != v)]
        if not pure:
            raise NotZeroDimensionalError(
                f"no pure power of variable {v} among the leading terms"
            )
        caps.append(min(pure))

    out = []

    def walk(v, prefix, live):
        if not live:
            out.extend(prefix + rest for rest in product(*(range(c) for c in caps[v:])))
        elif v < nvars:  # at v == nvars some lead divides the prefix
            for e in range(caps[v]):
                walk(v + 1, prefix + (e,), [m for m in live if m[v] <= e])

    walk(0, (), lms)
    return out


def standard_monomial_count(lead_monomials, nvars: int) -> int:
    """Dimension of the quotient by the monomial ideal of the given leads."""
    return len(standard_monomials(lead_monomials, nvars))


def _echelon(rows, p: int) -> list:
    """A basis of the span of `rows` over F_p, as (pivot, row) with 0 at every earlier row's pivot."""
    out = []
    for v in rows:
        for pivot, r in out:
            c = v[pivot]
            if c:
                d = r[pivot]
                v = [(a * d - c * b) % p for a, b in zip(v, r)]
        pivot = next((i for i, a in enumerate(v) if a), None)
        if pivot is not None:
            out.append((pivot, v))
    return out


def _kronecker(p: int, size: int, terms: int):
    """(pack_rows, times) for size x size matrices over F_p, each a list of rows.

    `pack_rows` turns each row into one int, entry j in bits [j w, (j + 1) w),
    so `times(rows, packed)`, which is rows @ B for B packed, takes one sum
    of int multiples of B's packed rows per row (Kronecker substitution)
    and reads its entries back from the bits, reduced mod p.  The width w
    holds a sum of `size` products of an entry below p and a packed entry
    below terms * p^2, so a packed B may also be a combination of up to
    `terms` packed matrices with coefficients below p.
    """
    width = 3 * p.bit_length() + (size * terms).bit_length()
    mask, offsets = (1 << width) - 1, range(0, width * size, width)

    def pack_rows(rows):
        return [sum(x << k for x, k in zip(row, offsets)) for row in rows]

    def times(rows, packed):
        return [[(acc >> k & mask) % p for k in offsets] for acc in (sum(map(mul, row, packed)) for row in rows)]

    return pack_rows, times


def _stable_rank(M, p: int) -> int:
    """The rank of M^k over F_p for every large k.

    The row space of M^(k+1) is the row space of M^k times M; once that
    step keeps the dimension, it keeps it for good.
    """
    pack_rows, times = _kronecker(p, len(M), 1)
    packed = pack_rows(M)
    span = _echelon(M, p)
    while True:
        image = _echelon(times([r for _, r in span], packed), p)
        if len(image) == len(span):
            return len(span)
        span = image


def count_solutions(gens, nvars: int, prime: int, nonzero=()) -> int:
    """Solutions over F_prime of the ideal of `gens` where no polynomial of `nonzero` vanishes.

    Solutions count with multiplicity.  The quotient A = F_p[x]/I splits
    into one local algebra per solution, and multiplication by h, the
    product of `nonzero`, is invertible on those where h does not vanish
    and nilpotent on the rest.  So the count is the stable rank of the
    matrix M_h of multiplication by h on A (Cox-Little-O'Shea, *Using
    Algebraic Geometry*, ch. 2, section 4): saturation by h as linear algebra.
    Without `nonzero` the count is the standard-monomial count.
    """
    basis = groebner_basis(gens, prime)
    monos = standard_monomials(leading_monomials(basis, nvars), nvars)
    if not nonzero or not monos:
        return len(monos)
    return _stable_rank(_multiplication_matrix(basis, monos, nonzero, prime), prime)


def _shift(m: tuple, v: int, by: int = 1) -> tuple:
    return m[:v] + (m[v] + by,) + m[v + 1 :]


def _border_forms(basis, monos, p: int) -> dict:
    """{x_v * b outside the staircase: the coordinates of its normal form}, for b in `monos`.

    The walk is FGLM's (Faugere-Gianni-Lazard-Mora, JSC 1993), in
    ascending grevlex order: a border monomial that leads a basis element
    of the reduced basis has minus that element's tail as normal form.
    Any other one is x_u times a smaller border monomial m', so its normal
    form is x_u times the normal form of m', a combination of x_u * b'
    over standard b' below m', each standard or an earlier border monomial.
    """
    nvars, size = len(monos[0]), len(monos)
    index = {m: i for i, m in enumerate(monos)}
    packed = {pack(m): i for i, m in enumerate(monos)}
    tails = {unpack(g[0][0], nvars): g[1:] for g in basis}
    border = {_shift(b, v) for b in monos for v in range(nvars)} - index.keys()
    forms: dict[tuple, list] = {}
    for m in sorted(border, key=pack):
        form = [0] * size
        if m in tails:
            for t, c in tails[m]:
                form[packed[t]] = p - c
        else:
            u = next(u for u in range(nvars) if m[u] and _shift(m, u, -1) in forms)
            for b, c in zip(monos, forms[_shift(m, u, -1)]):
                if c:
                    target = _shift(b, u)
                    if target in index:
                        form[index[target]] += c
                    else:
                        form = [a + c * f for a, f in zip(form, forms[target])]
            form = [a % p for a in form]
        forms[m] = form
    return forms


def _multiplication_matrix(basis, monos, factors, p: int):
    """The matrix of multiplication by the product of `factors` on the quotient.

    Column j holds the coordinates of the normal form of h * monos[j].
    The column of M_v at b is the unit vector of x_v * b when that is
    standard and its border normal form when not, so M_v is read off the
    border forms and the matrix of x^e takes one product per degree above
    one.  M_h starts as the first factor's matrix, a combination of those,
    and takes one product for each further factor.
    """
    nvars, size = len(monos[0]), len(monos)
    index = {m: i for i, m in enumerate(monos)}
    forms = _border_forms(basis, monos, p)
    identity = [[int(i == j) for j in range(size)] for i in range(size)]
    variables = []
    for v in range(nvars):
        cols = (identity[index[m]] if m in index else forms[m] for m in (_shift(b, v) for b in monos))
        variables.append([list(row) for row in zip(*cols)])
    one = (0,) * nvars
    matrices = {one: identity, **{_shift(one, v): M_v for v, M_v in enumerate(variables)}}  # x^e -> its matrix
    pack_rows, times = _kronecker(p, size, max(map(len, factors)))
    packed = {}

    def matrix(e):
        if e not in matrices:
            v = next(v for v, k in enumerate(e) if k)
            matrices[e] = times(variables[v], packed_matrix(_shift(e, v, -1)))
        return matrices[e]

    def packed_matrix(e):
        if e not in packed:
            packed[e] = pack_rows(matrix(e))
        return packed[e]

    first, *rest = factors
    coeffs = [c % p for _, c in first]
    M = [
        [sum(map(mul, coeffs, entries)) % p for entries in zip(*rows)]
        for rows in zip(*(matrix(e) for e, _ in first))
    ]
    for poly in rest:
        coeffs = [c % p for _, c in poly]
        M = times(M, [sum(map(mul, coeffs, rows)) for rows in zip(*(packed_matrix(e) for e, _ in poly))])
    return M
