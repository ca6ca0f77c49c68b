"""Buchberger completion over the integers and standard-monomial counting.

The driver runs Buchberger's algorithm with the Gebauer-Moeller
installation of the product and chain criteria under grevlex, using the
reduction kernel in _kernel_py for the inner loops.  Budgets
on the basis size and on coefficient bit length convert runaway inputs
into a clean ResourceBudgetExceededError.

Solution counting for a zero-dimensional ideal is the number of standard
monomials: monomials outside the leading-term ideal of the reduced basis.
"""

from __future__ import annotations

from .errors import NotZeroDimensionalError, ResourceBudgetExceededError
from .kernels import kernel as K

DEFAULT_MAX_BASIS = 600
DEFAULT_MAX_COEFF_BITS = 200_000


def _check_budget(terms, max_bits):
    worst = max((abs(c).bit_length() for _, c in terms), default=0)
    if worst > max_bits:
        raise ResourceBudgetExceededError(
            f"coefficient length {worst} bits exceeds the {max_bits}-bit budget"
        )


def groebner_basis(
    gens,
    *,
    max_basis: int = DEFAULT_MAX_BASIS,
    max_coeff_bits: int = DEFAULT_MAX_COEFF_BITS,
):
    """Reduced Groebner basis (primitive integer term lists) under grevlex."""
    polys: dict[int, list] = {}
    next_id = 0

    def lm(idx):
        return polys[idx][0][0]

    basis: set[int] = set()
    pairs: set[frozenset[int]] = set()

    def update(h_id):
        # Gebauer-Moeller installation: filter new pairs by the chain
        # criterion, drop coprime-lead pairs, prune old pairs and basis
        # elements superseded by the new leading monomial.
        nonlocal basis, pairs
        lmh = lm(h_id)
        candidates = list(basis)
        kept: list[int] = []
        for g in candidates:
            lcm_hg = K.mono_lcm(lmh, lm(g))
            if K.mono_coprime(lmh, lm(g)):
                kept.append(g)  # marked, dropped below; keeps chain test honest
                continue
            drop = False
            for f in candidates:
                if f is g:
                    continue
                lcm_hf = K.mono_lcm(lmh, lm(f))
                if lcm_hf != lcm_hg and K.mono_divides(lcm_hf, lcm_hg):
                    drop = True
                    break
            if not drop:
                kept.append(g)
        new_pairs = {
            frozenset((h_id, g)) for g in kept if not K.mono_coprime(lmh, lm(g))
        }
        surviving = set()
        for pair in pairs:
            g1, g2 = tuple(pair)
            lcm12 = K.mono_lcm(lm(g1), lm(g2))
            if (
                not K.mono_divides(lmh, lcm12)
                or K.mono_lcm(lm(g1), lmh) == lcm12
                or K.mono_lcm(lm(g2), lmh) == lcm12
            ):
                surviving.add(pair)
        pairs = surviving | new_pairs
        basis = {g for g in basis if not K.mono_divides(lmh, lm(g))}
        basis.add(h_id)

    for gen in gens:
        p = K.make_primitive(K.sort_terms([(m, int(c)) for m, c in gen]))
        if p:
            polys[next_id] = p
            update(next_id)
            next_id += 1

    while pairs:
        pair = min(pairs, key=lambda pr: K.grevlex_key(K.mono_lcm(*(lm(i) for i in tuple(pr)))))
        pairs.discard(pair)
        i, j = tuple(pair)
        s = K.spair(polys[i], polys[j])
        if not s:
            continue
        h = K.normal_form(s, [polys[g] for g in sorted(basis)])
        if not h:
            continue
        _check_budget(h, max_coeff_bits)
        polys[next_id] = h
        update(next_id)
        next_id += 1
        if len(basis) > max_basis:
            raise ResourceBudgetExceededError(
                f"basis size {len(basis)} exceeds the budget of {max_basis}"
            )

    # Minimalize (ascending leads, keep only non-divisible ones), then
    # tail-interreduce for a canonical reduced basis.
    chosen = sorted(basis, key=lambda g: K.grevlex_key(lm(g)))
    minimal: list[int] = []
    for g in chosen:
        if not any(K.mono_divides(lm(h), lm(g)) for h in minimal):
            minimal.append(g)
    reduced = []
    for g in minimal:
        others = [polys[h] for h in minimal if h != g]
        h = K.normal_form(polys[g], others)
        if h:
            reduced.append(h)
    reduced.sort(key=lambda p: K.grevlex_key(p[0][0]))
    return reduced


def leading_monomials(basis):
    return [p[0][0] for p in basis]


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


def count_solutions(gens, nvars: int) -> int:
    """Standard-monomial count of the ideal generated by `gens`, under the default budgets."""
    return standard_monomial_count(leading_monomials(groebner_basis(gens)), nvars)
