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
Over F_p this is the count over Q unless p is unlucky for the ideal
(Arnold, JSC 2003); the oracle compares primes to catch that.
"""

from __future__ import annotations

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


def standard_monomial_count(lead_monomials, nvars: int) -> int:
    """Dimension of the quotient by the monomial ideal of the given leads.

    Raises NotZeroDimensionalError unless each variable appears as a pure
    power among the leads (the staircase is finite exactly then).
    """
    lms = list(lead_monomials)
    if any(sum(m) == 0 for m in lms):
        return 0  # the ideal is the unit ideal
    caps = []
    for v in range(nvars):
        pure = [m[v] for m in lms if all(m[u] == 0 for u in range(nvars) if u != v)]
        if not pure:
            raise NotZeroDimensionalError(
                f"no pure power of variable {v} among the leading terms"
            )
        caps.append(min(pure))

    count = 0

    def walk(v, live):
        nonlocal count
        if not live:
            below = 1
            for u in range(v, nvars):
                below *= caps[u]
            count += below
            return
        if v == nvars:
            return  # some lead divides this exponent vector
        for e in range(caps[v]):
            walk(v + 1, [m for m in live if m[v] <= e])

    walk(0, lms)
    return count


def count_solutions(gens, nvars: int, prime: int) -> int:
    """Standard-monomial count over F_prime of the ideal generated by `gens`, under the default budget."""
    return standard_monomial_count(leading_monomials(groebner_basis(gens, prime), nvars), nvars)
