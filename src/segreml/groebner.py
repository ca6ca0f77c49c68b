"""Buchberger completion over F_p and standard-monomial counting.

A monomial x^e in N variables is one int,

    K(e) = deg(e) * B^N - sum_i e_i * B^i,      B = 2^16,

so grevlex order is int order and a monomial product is an int add;
multiplying by x_v adds K(x_v) = B^N - B^v (`Ring.steps`).  The low N
fields of -K hold the exponents E; bit 15 of each field is a guard bit,
so x^a divides x^b exactly when ((E_b | G) - E_a) & G == G for the mask
G of guard bits, and lcm is a per-field maximum.  Both need every
exponent below 2^15: generators and S-pairs from total degree 2^15 on
raise ResourceBudgetExceededError, and reduction never raises a degree.
A term list is a list of (packed monomial, coefficient in [1, p)) pairs,
sorted descending and monic (a basis joined over several primes has
coefficients mod their product, its lead still first).  The prime and the packing width travel as
one `Ring` value, built per basis computation.

This is the module's one monomial format.  The entry points
(`groebner_basis`, `count_solutions` and `standard_monomial_count`) read
exponent tuples, raise ValueError on one without N entries and pack each
once; nothing past them handles a tuple.

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
One ascending walk (`staircase`) lists them with the border monomials,
the products of a variable and a standard monomial that a lead divides,
degree by degree, testing each against the packed leads.
Counting only the solutions off a hypersurface h = 0 is linear algebra on
the quotient: the stable rank of multiplication by h, taken on its
transpose M_h^T (`count_solutions`).  Row j of the transposed map of a
variable is the coordinate vector of that variable times the j-th
standard monomial: a unit vector, or a border normal form from FGLM's
walk, so a product with that map copies every row but the border ones.
Over F_p this is the count over Q unless p is unlucky for the ideal
(Arnold, JSC 2003); the oracle compares primes to catch that.

`count_solutions` counts a tuple of systems, each under its own prime
and with its own Groebner basis.  When the primes are distinct and the
reduced bases have the same leads, as they do for all but unlucky
primes, the staircase and the linear algebra run once, modulo the
product N of the primes, on the bases joined by the Chinese remainder
theorem (`_crt_combine`, the one place that joins residues): Z/N is the
product of the fields F_p.  Elimination there accepts only pivots that
are units mod N, and falls back to one count per prime on any other.

The primes have PRIME_BITS = 30 bits, so every coefficient of
Buchberger's algorithm, reduced mod p, and every Miller-Rabin modulus is
one CPython digit (`sys.int_info.bits_per_digit` is 30): a product of
two reduced coefficients is at most two digits before its reduction.
The linear algebra of a pair of primes runs mod p1 * p2, two digits.  A
wider prime only lowers the chance of an unlucky one, which the oracle's
second prime already catches.

That linear algebra runs on packed vectors (`Vectors`): D entries mod N
in one int (Kronecker substitution), so a combination of rows is a sum of
int multiples, and a field is reduced mod N only where it is read.
Elimination (`_echelon`) reads one field per pivot and each row once,
after its eliminations.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd, isqrt, prod
from operator import lshift, mul

from .errors import NotZeroDimensionalError, ResourceBudgetExceededError

FIELD_BITS = 16
DEGREE_LIMIT = 1 << (FIELD_BITS - 1)  # the guard bit: every total degree stays below it


class Ring:
    """F_p[x_1..x_N] with monomials packed into N fields of FIELD_BITS bits; not changed once built."""

    __slots__ = ("p", "nvars", "shift", "mask", "guard", "top", "steps")

    def __init__(self, p: int, nvars: int):
        self.p, self.nvars, self.shift = p, nvars, FIELD_BITS * nvars
        self.mask = (1 << self.shift) - 1  # B^N - 1, the exponent fields of -K
        self.guard = sum(DEGREE_LIMIT << (FIELD_BITS * i) for i in range(nvars))  # bit 15 of every field
        self.top = (DEGREE_LIMIT - 1) << self.shift  # K(m) > top exactly when deg(m) >= DEGREE_LIMIT
        self.steps = tuple((1 << self.shift) - (1 << (FIELD_BITS * v)) for v in range(nvars))  # K(x_v)


def _degree_error(deg) -> ResourceBudgetExceededError:
    return ResourceBudgetExceededError(f"monomial degree {deg} reaches the packed-exponent limit {DEGREE_LIMIT}")


def pack(exps) -> int:
    """K(e) for an exponent tuple e of nonnegative ints."""
    deg = sum(exps)
    if deg >= DEGREE_LIMIT:
        raise _degree_error(deg)
    return (deg << (FIELD_BITS * len(exps))) - sum(e << (FIELD_BITS * i) for i, e in enumerate(exps))


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


def _check_lengths(monos, nvars: int):
    """Raise ValueError unless every exponent tuple of `monos` has nvars entries."""
    for m in monos:
        if len(m) != nvars:
            raise ValueError(f"exponent tuple {m} does not have {nvars} entries")


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
        raise _degree_error((lcm + R.mask) >> R.shift)
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
PRIME_BITS = 30  # 2^29 < p < 2^30: one CPython digit
# Miller-Rabin with the bases 2, 7 and 61 is exact below 48,781 * 97,561, the first strong
# pseudoprime to all three (Jaeschke, Math. Comp. 61, 1993).  Each base is a unit mod any n that
# reaches it, since the gcd screen rules out factors below _SIEVE_LIMIT.
_WITNESSES = (2, 7, 61)
_WITNESS_LIMIT = 4_759_123_141
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
    _check_lengths((m for g in gens for m, _ in g), nvars)
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


def staircase(R: Ring, leads) -> tuple[list, list]:
    """The standard and the border monomials of the monomial ideal of the packed `leads`, each ascending.

    The walk goes degree by degree from 1: each product of a variable and
    a standard monomial of the last degree is a border monomial when a
    lead divides it and standard when none does, and the walk stops at the
    first degree with no standard monomial.  The unit ideal has neither.
    Raises NotZeroDimensionalError unless each variable appears as a pure
    power among the leads (the staircase is finite exactly then).
    """
    if 0 in leads:
        return [], []  # the ideal is the unit ideal
    for v, step in enumerate(R.steps):
        if not any(m == ((m + R.mask) >> R.shift) * step for m in leads):  # x_v^d is d * K(x_v)
            raise NotZeroDimensionalError(f"no pure power of variable {v} among the leading terms")
    standard, border, layer = [0], [], [0]
    while layer:
        above, layer = sorted({m + step for m in layer for step in R.steps}), []
        for m in above:
            (border if any(mono_divides(R, lm, m) for lm in leads) else layer).append(m)
        standard += layer
    return standard, border


def standard_monomial_count(lead_monomials, nvars: int) -> int:
    """Dimension of the quotient by the monomial ideal of the given leads, as exponent tuples."""
    lead_monomials = list(lead_monomials)
    _check_lengths(lead_monomials, nvars)
    return len(staircase(Ring(0, nvars), [pack(m) for m in lead_monomials])[0])


class Vectors:
    """(Z/p)^size with each vector packed into one int, entry j in bits [j w, (j + 1) w); not changed once built.

    The modulus p is a prime or a product of distinct primes (`count_solutions`).
    A field may hold any nonnegative int whose residue mod p is its entry,
    so a sum of vectors is one int sum (Kronecker substitution) and a
    field is reduced only where it is read.  The width w holds
    size * terms * p^3, above every field formed here: a product row sums
    `size` products of an entry below p with a field of a combination of
    up to `terms` reduced rows (below terms * p^2), and elimination then
    adds below p^2 per step for at most size - 1 steps, since
    size * terms * (p - 1)^3 + (size - 1) * (p - 1)^2 < size * terms * p^3.
    """

    __slots__ = ("p", "width", "mask", "shifts")

    def __init__(self, p: int, size: int, terms: int):
        self.p = p
        self.width = 3 * p.bit_length() + (size * terms).bit_length()
        self.mask = (1 << self.width) - 1
        self.shifts = range(0, self.width * size, self.width)  # the bit offset of each entry


def _entries(V: Vectors, x: int) -> list:
    """The entries of a packed vector, reduced mod p."""
    p, mask = V.p, V.mask
    return [(x >> k & mask) % p for k in V.shifts]


def _packed(V: Vectors, entries) -> int:
    """The packed vector of `entries`, each below 2^w."""
    return sum(map(lshift, entries, V.shifts))


def _times(rows, packed) -> list:
    """rows @ B for rows as entry lists and B as packed rows: one sum of int multiples per row, left packed."""
    return [sum(map(mul, row, packed)) for row in rows]


class _NonUnitPivot(Exception):
    """A pivot that is zero mod some prime factor of the modulus but not mod all of them."""


def _echelon(rows, V: Vectors) -> list:
    """A basis of the span of the packed `rows` mod p, as entry lists reduced mod p.

    Each row reads its entry c at the pivot of every earlier basis row r
    and adds (p - c) / d * r, d being r's pivot entry, so its fields grow
    by less than p^2 per step; it is read back once, after its
    eliminations.  The inverse of d is taken when a later row first needs it.
    A pivot must be a unit mod p, which every nonzero entry is when p is
    prime; any other raises _NonUnitPivot.
    """
    p, mask, shifts = V.p, V.mask, V.shifts
    pivots = []  # (bit offset of the pivot, packed row with entries below p, its pivot entry)
    inverses = {}  # bit offset of a pivot -> the inverse of its entry
    out = []
    for v in rows:
        for shift, r, d in pivots:
            c = (v >> shift & mask) % p
            if c:
                if shift not in inverses:
                    inverses[shift] = pow(d, -1, p)
                v += (p - c) * inverses[shift] % p * r
        row = _entries(V, v)
        for j, a in enumerate(row):
            if a:
                if gcd(a, p) != 1:
                    raise _NonUnitPivot
                pivots.append((shifts[j], _packed(V, row), a))
                out.append(row)
                break
    return out


def _stable_rank(M, V: Vectors) -> int:
    """The rank of M^k mod p for every large k, for M as packed rows with fields below terms * p^2.

    The row space of M^(k+1) is the row space of M^k times M; once that
    step keeps the dimension, it keeps it for good.
    """
    span = _echelon(M, V)
    while True:
        image = _echelon(_times(span, M), V)
        if len(image) == len(span):
            return len(span)
        span = image


def _crt_combine(systems, primes) -> list:
    """The term lists mod N = prod(primes) whose reductions mod primes[i] are those of systems[i].

    The primes are distinct and the systems have one length; a monomial
    missing from a term list has coefficient 0 there.  Each coefficient is
    sum_i c_i e_i mod N (Chinese remainder theorem), where the idempotent
    e_i is 1 mod primes[i] and 0 mod the others.  Monomials keep their
    order of first appearance, so a basis element's lead stays first, and
    a coefficient 0 mod N is dropped.
    """
    N = prod(primes)
    idempotents = [N // p * pow(N // p, -1, p) for p in primes]
    combined = []
    for term_lists in zip(*systems):
        coeffs: dict = {}
        for terms, e in zip(term_lists, idempotents):
            for m, c in terms:
                coeffs[m] = coeffs.get(m, 0) + c * e
        combined.append([(m, c % N) for m, c in coeffs.items() if c % N])
    return combined


def count_solutions(systems, nvars: int, primes, nonzero=()) -> tuple:
    """For each p = primes[i], the solutions over F_p of the ideal of systems[i] where no polynomial of `nonzero` vanishes.

    `systems` holds one generator list per prime (ValueError otherwise);
    `nonzero` is any iterable, read once.  Solutions count with
    multiplicity.  The quotient A = F_p[x]/I splits into one local algebra
    per solution, and multiplication by h, the product of `nonzero`, is
    invertible on those where h does not vanish and nilpotent on the rest.
    So the count is the stable rank of the matrix M_h of multiplication by
    h on A (Cox-Little-O'Shea, *Using Algebraic Geometry*, ch. 2, section
    4): saturation by h as linear algebra.
    Without `nonzero` the count is the standard-monomial count.

    Each prime gets the reduced basis of its own system.  When the primes
    are distinct and the bases have the same leads, the linear algebra
    runs once, mod the product N of the primes, on the bases combined by
    `_crt_combine`: Z/N is the product of the fields F_p, and its ring
    operations are theirs at once.  A pivot that is a unit mod N is
    nonzero mod every p, so each field takes the same pivots and reaches
    the same rank.  A pivot that is not splits the count (dynamic
    evaluation, Della Dora-Dicrescenzo-Duval, EUROCAL 1985): each prime is
    then counted alone, as it is when the leads differ or a prime repeats.
    A single prime is the case N = p, where every nonzero pivot is a unit.
    """
    if len(systems) != len(primes):
        raise ValueError(f"{len(systems)} systems for {len(primes)} primes")
    nonzero = tuple(nonzero)
    for gens in (*systems, nonzero):
        _check_lengths((m for g in gens for m, _ in g), nvars)
    factors = [[(pack(m), c) for m, c in f] for f in nonzero]
    R = Ring(0, nvars)  # the walk, the border forms and the maps read only its monomial packing
    bases, stairs = [], {}  # stairs: leads -> (standard, border)
    for gens, p in zip(systems, primes):
        basis = groebner_basis(gens, p)
        leads = tuple(g[0][0] for g in basis)
        if leads not in stairs:
            stairs[leads] = staircase(R, leads)
        bases.append((basis, stairs[leads]))
    if len(stairs) == 1 and len(set(primes)) == len(primes):
        joint = _crt_combine([basis for basis, _ in bases], primes)
        try:
            return (_quotient_count(R, prod(primes), joint, *bases[0][1], factors),) * len(primes)
        except _NonUnitPivot:
            pass
    return tuple(_quotient_count(R, p, basis, *stair, factors) for p, (basis, stair) in zip(primes, bases))


def _quotient_count(R: Ring, modulus: int, basis, standard, border, factors) -> int:
    """The stable rank of M_h mod `modulus` on the quotient by the reduced `basis`; its dimension without factors."""
    if not factors or not standard:
        return len(standard)
    factors = [[(m, c % modulus) for m, c in f] for f in factors]
    V = Vectors(modulus, len(standard), max(map(len, factors)))
    return _stable_rank(_multiplication_matrix(R, basis, standard, border, factors, V), V)


def _border_forms(R: Ring, basis, border, index, V: Vectors) -> dict:
    """{m: its normal form, packed} for each border monomial m; `index` numbers the standard monomials in order.

    The walk is FGLM's (Faugere-Gianni-Lazard-Mora, JSC 1993), in
    ascending grevlex order: a border monomial that leads a basis element
    of the reduced basis has minus that element's tail as normal form.
    Any other one is x_u times a smaller border monomial m', so its normal
    form is x_u times the normal form of m', a combination of x_u * b'
    over standard b' below m', each standard or an earlier border monomial.
    That combination takes one int operation per nonzero coordinate of m'
    and is reduced mod p once.
    """
    p, shifts = V.p, V.shifts
    tails = {g[0][0]: g[1:] for g in basis}
    forms: dict[int, int] = {}
    for m in border:
        if m in tails:
            forms[m] = sum((p - c) << shifts[index[t]] for t, c in tails[m])
        else:
            step = next(step for step in R.steps if mono_divides(R, step, m) and m - step in forms)
            acc = 0
            for b, c in zip(index, _entries(V, forms[m - step])):
                if c:
                    target = b + step
                    acc += c << shifts[index[target]] if target in index else c * forms[target]
            forms[m] = _packed(V, _entries(V, acc))
    return forms


def _multiplication_matrix(R: Ring, basis, standard, border, factors, V: Vectors) -> list:
    """M_h^T, the transpose of multiplication by the product h of `factors` on the quotient, as packed rows.

    Every field is below terms * p^2.  Row j of the map of x^e holds the
    coordinates of x^e * b_j.  For a variable x_v that row is a unit
    vector where x_v * b_j is standard and its packed border form where it
    is not.  Any other map is that of x_v times that of x^(e - v), for the
    first v with x_v dividing x^e: its row j copies row i of the latter
    where x_v * b_j = b_i is standard and combines that map's rows by the
    border form of x_v * b_j, reduced mod p, where it is not.  A factor's
    map combines its monomials' maps, packed as it stands.  M_h^T is the
    first factor's map times one product per further factor, whose rows
    stay packed until the next product reads them; the last one is
    reduced mod p once, for the stable rank's products.
    """
    index = {m: i for i, m in enumerate(standard)}
    packed = _border_forms(R, basis, border, index, V)
    unit = [1 << k for k in V.shifts]
    matrices = {0: unit}  # packed monomial x^e -> the packed rows of its map
    for step in R.steps:
        matrices[step] = [unit[index[t]] if t in index else packed[t] for t in (b + step for b in standard)]

    def matrix(e):
        if e not in matrices:
            step = next(step for step in R.steps if mono_divides(R, step, e))
            X = matrix(e - step)
            matrices[e] = [
                X[index[t]] if t in index else _packed(V, _entries(V, sum(map(mul, _entries(V, packed[t]), X))))
                for t in (b + step for b in standard)
            ]
        return matrices[e]

    def combination(poly):
        coeffs = [c for _, c in poly]
        return [sum(map(mul, coeffs, rows)) for rows in zip(*(matrix(e) for e, _ in poly))]

    first, *rest = factors
    M = combination(first)
    for poly in rest:
        M = _times([_entries(V, r) for r in M], combination(poly))
    return [_packed(V, _entries(V, r)) for r in M] if rest else M
