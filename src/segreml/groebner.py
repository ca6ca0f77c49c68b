"""Buchberger completion over F_p and standard-monomial counting.

The driver runs Buchberger's algorithm under grevlex with the complete
Gebauer-Moeller installation (JSC 1988), in Becker-Weispfenning's UPDATE
form.  A new pair is dropped when another new pair's lcm properly divides
its lcm (the chain criterion), when its leads are coprime (the product
criterion), or when an earlier new pair has the same lcm (one pair per
lcm, and none when any pair with that lcm has coprime leads).  An old
pair is dropped when the new lead divides its lcm and the new lead's lcm
with each of its two elements differs from it.  The reduction kernel in
_kernel_py runs the inner loops.  Integer generators are reduced mod a
prime p, packed and made monic as they are read, so no coefficient
outgrows p; each pair stores the lcm of its leads.  A budget on the basis
size and the packed-exponent degree limit convert runaway inputs into a
clean ResourceBudgetExceededError.

Solution counting for a zero-dimensional ideal is the number of standard
monomials: monomials outside the leading-term ideal of the reduced basis.
Counting only the solutions off a hypersurface h = 0 is linear algebra on
the quotient: the stable rank of the matrix of multiplication by h, built
from the border normal forms of the reduced basis (`count_solutions`).
Over F_p this is the count over Q unless p is unlucky for the ideal
(Arnold, JSC 2003); the oracle compares primes to catch that.
"""

from __future__ import annotations

from itertools import product
from math import gcd, isqrt, prod
from operator import mul

from .errors import NotZeroDimensionalError, ResourceBudgetExceededError
from . import _kernel_py as K

DEFAULT_MAX_BASIS = 600
PRIME_BITS = 61
# Trial division by these primes settles every n below 43^2 and rejects most
# composites before any modular power.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with Sinclair's seven bases is exact below 2^64 (Sinclair 2011),
# provided a base that is 0 mod n is skipped.
_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_WITNESS_LIMIT = 2**64


def _odd_primes_product(limit: int) -> int:
    """The product of the odd primes below `limit`, by a sieve."""
    sieve = bytearray([1]) * limit
    for q in range(3, isqrt(limit) + 1, 2):
        if sieve[q]:
            sieve[q * q :: 2 * q] = bytes(len(range(q * q, limit, 2 * q)))
    return prod(q for q in range(3, limit, 2) if sieve[q])


# A candidate sharing a factor with this product is composite (it is odd and
# above 1000), so one gcd rejects most candidates before any modular power.
_ODD_PRIMES_BELOW_1000 = _odd_primes_product(1000)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below _WITNESS_LIMIT."""
    if n >= _WITNESS_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    if n < 2 or any(n % q == 0 for q in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
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
        if gcd(n, _ODD_PRIMES_BELOW_1000) == 1 and is_prime(n):
            return n


def groebner_basis(gens, prime: int):
    """Reduced Groebner basis over F_prime under grevlex.

    `gens` are integer term lists [(exponent tuple, int), ...]; the result
    is a list of monic term lists [(packed monomial, coefficient), ...],
    ascending by leading monomial.
    """
    gens = [list(g) for g in gens]
    nvars = next((len(m) for g in gens for m, _ in g), 0)
    R = K.Ring(prime, nvars)
    divides, lcm = K.mono_divides, K.mono_lcm
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
        by_lcm = {}  # lcm -> the first surviving g, or None once a coprime pair has it
        for g, lg in with_h.items():
            if lg == lmh + lead[g]:
                # coprime leads; if a proper divisor of lg is another lcm,
                # chain drops every pair with lcm lg anyway
                by_lcm[lg] = None
            elif not any(lf != lg and divides(R, lf, lg) for lf in with_h.values()):
                by_lcm.setdefault(lg, g)
        new = {(h, g): lg for lg, g in by_lcm.items() if g is not None}
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
        p = K.from_int_terms(R, gen)
        if p:
            add(p)

    while pairs:
        pair = min(pairs, key=pairs.__getitem__)
        del pairs[pair]
        i, j = pair
        s = K.spair(polys[i], polys[j], R)
        if not s:
            continue
        h = K.normal_form(s, [polys[g] for g in basis], R)
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
        h = K.normal_form(polys[g], [polys[f] for f in minimal if f != g], R)
        if h:
            reduced.append(h)
    reduced.sort(key=lambda p: p[0][0])
    return reduced


def leading_monomials(basis, nvars: int):
    """The leading monomials of a basis from groebner_basis, as exponent tuples."""
    return [K.unpack(p[0][0], nvars) for p in basis]


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
    """(pack, times) for size x size matrices over F_p, each a list of rows.

    `pack` turns each row into one int, entry j in bits [j w, (j + 1) w),
    so `times(rows, packed)`, which is rows @ B for B packed, takes one sum
    of int multiples of B's packed rows per row (Kronecker substitution)
    and reads its entries back from the bits, reduced mod p.  The width w
    holds a sum of `size` products of an entry below p and a packed entry
    below terms * p^2, so a packed B may also be a combination of up to
    `terms` packed matrices with coefficients below p.
    """
    width = 3 * p.bit_length() + (size * terms).bit_length()
    mask, offsets = (1 << width) - 1, range(0, width * size, width)

    def pack(rows):
        return [sum(x << k for x, k in zip(row, offsets)) for row in rows]

    def times(rows, packed):
        return [[(acc >> k & mask) % p for k in offsets] for acc in (sum(map(mul, row, packed)) for row in rows)]

    return pack, times


def _stable_rank(M, p: int) -> int:
    """The rank of M^k over F_p for every large k.

    The row space of M^(k+1) is the row space of M^k times M; once that
    step keeps the dimension, it keeps it for good.
    """
    pack, times = _kronecker(p, len(M), 1)
    packed = pack(M)
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
    packed = {K.pack(m): i for i, m in enumerate(monos)}
    tails = {K.unpack(g[0][0], nvars): g[1:] for g in basis}
    border = {_shift(b, v) for b in monos for v in range(nvars)} - index.keys()
    forms: dict[tuple, list] = {}
    for m in sorted(border, key=K.pack):
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
    pack, times = _kronecker(p, size, max(map(len, factors)))
    packed = {}

    def matrix(e):
        if e not in matrices:
            v = next(v for v, k in enumerate(e) if k)
            matrices[e] = times(variables[v], packed_matrix(_shift(e, v, -1)))
        return matrices[e]

    def packed_matrix(e):
        if e not in packed:
            packed[e] = pack(matrix(e))
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
