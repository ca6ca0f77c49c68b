from __future__ import annotations

import itertools
import random

import pytest

from segreml.errors import NotZeroDimensionalError, ResourceBudgetExceededError
from segreml.groebner import (
    count_solutions,
    groebner_basis,
    leading_monomials,
    standard_monomial_count,
)
from segreml import _kernel_py as K


def test_known_counts():
    # (t - 1)(t - 2): two rational points
    assert count_solutions([[((2,), 1), ((1,), -3), ((0,), 2)]], 1) == 2
    # x^2 = 1, y = x: two points
    gens = [[((2, 0), 1), ((0, 0), -1)], [((0, 1), 1), ((1, 0), -1)]]
    assert count_solutions(gens, 2) == 2
    # fat point (x^2, y^2): multiplicity 4
    assert count_solutions([[((2, 0), 1)], [((0, 2), 1)]], 2) == 4
    # unit ideal
    assert count_solutions([[((0, 0), 5)]], 2) == 0
    # intersection of two conics: Bezout number 4
    gens = [
        [((2, 0), 1), ((0, 2), 1), ((0, 0), -5)],
        [((2, 0), 1), ((1, 1), -1), ((0, 2), 1), ((0, 0), -3)],
    ]
    assert count_solutions(gens, 2) == 4


def test_positive_dimensional_rejected():
    with pytest.raises(NotZeroDimensionalError):
        count_solutions([[((1, 1), 1)]], 2)  # xy = 0 is a curve pair


def test_buchberger_criterion_on_random_systems():
    # A basis G of the ideal is a Groebner basis iff every generator and
    # every S-polynomial of two elements of G reduces to zero modulo G.
    rng = random.Random(6)
    checked = 0
    for _ in range(25):
        nvars = rng.choice((2, 3))
        gens = []
        for _ in range(nvars):
            terms = {}
            for _ in range(rng.randint(2, 5)):
                mono = tuple(rng.randint(0, 2) for _ in range(nvars))
                terms[mono] = terms.get(mono, 0) + rng.randint(-4, 4)
            gens.append([(m, c) for m, c in terms.items() if c])
        if not all(gens):
            continue
        gb = groebner_basis([list(g) for g in gens])
        assert gb
        for g in gens:
            assert not K.normal_form(K.make_primitive(K.sort_terms(list(g))), gb)
        for f, g in itertools.combinations(gb, 2):
            assert not K.normal_form(K.spair(f, g), gb)
        checked += 1
    assert checked == 24


def test_budget_errors():
    # x^3 - 2xy and x^2 y - 2y^2 + x generate three extra basis elements.
    growing = [
        [((3, 0), 1), ((1, 1), -2)],
        [((2, 1), 1), ((0, 2), -2), ((1, 0), 1)],
    ]
    with pytest.raises(ResourceBudgetExceededError):
        groebner_basis(growing, max_basis=2)
    assert count_solutions(growing, 2) == 3

    # dense conics make fraction-free remainders outgrow a 4-bit budget
    conics = [
        [((2, 0), 3), ((1, 1), 5), ((0, 2), 7), ((0, 0), -11)],
        [((2, 0), 13), ((1, 1), -17), ((0, 2), 19), ((0, 0), -23)],
    ]
    with pytest.raises(ResourceBudgetExceededError):
        groebner_basis(conics, max_coeff_bits=4)
    assert count_solutions(conics, 2) == 4


def test_standard_monomial_count_vs_enumeration():
    rng = random.Random(8)
    for _ in range(50):
        nvars = rng.choice((2, 3))
        caps = [rng.randint(1, 4) for _ in range(nvars)]
        lms = [tuple(c if i == v else 0 for i in range(nvars)) for v, c in enumerate(caps)]
        for _ in range(rng.randint(0, 4)):
            lms.append(tuple(rng.randint(0, 3) for _ in range(nvars)))
        got = standard_monomial_count(lms, nvars)
        brute = 0
        for mono in itertools.product(*(range(c) for c in caps)):
            if not any(all(l[i] <= mono[i] for i in range(nvars)) for l in lms):
                brute += 1
        assert got == brute


def test_grevlex_key_matches_first_principles():
    # a > b in grevlex iff deg a > deg b, or degrees tie and the last
    # nonzero entry of a - b is negative
    rng = random.Random(12)
    for _ in range(2000):
        n = rng.choice((2, 3, 4))
        a = tuple(rng.randint(0, 4) for _ in range(n))
        b = tuple(rng.randint(0, 4) for _ in range(n))
        if a == b:
            continue
        if sum(a) != sum(b):
            expected = sum(a) > sum(b)
        else:
            diff = [x - y for x, y in zip(a, b)]
            last = next(d for d in reversed(diff) if d != 0)
            expected = last < 0
        assert (K.grevlex_key(a) > K.grevlex_key(b)) == expected


def _naive_buchberger(gens):
    """Criteria-free completion: every pair, no pruning (test oracle)."""
    basis = [K.make_primitive(K.sort_terms(list(g))) for g in gens]
    basis = [g for g in basis if g]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        h = K.normal_form(K.spair(basis[i], basis[j]), basis)
        if h:
            basis.append(h)
            pairs.extend((len(basis) - 1, t) for t in range(len(basis) - 1))
    # minimalize (ascending leads) and tail-reduce to the reduced basis
    basis.sort(key=lambda p: K.grevlex_key(p[0][0]))
    minimal = []
    for g in basis:
        if not any(K.mono_divides(h[0][0], g[0][0]) for h in minimal):
            minimal.append(g)
    reduced = []
    for g in minimal:
        h = K.normal_form(g, [x for x in minimal if x is not g])
        if h:
            reduced.append(h)
    reduced.sort(key=lambda p: K.grevlex_key(p[0][0]))
    return [[(m, int(c)) for m, c in p] for p in reduced]


def test_reduced_basis_matches_naive_buchberger():
    rng = random.Random(77)
    compared = 0
    while compared < 20:
        nvars = 2
        gens = []
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(2, 4)):
                mono = (rng.randint(0, 2), rng.randint(0, 2))
                terms[mono] = terms.get(mono, 0) + rng.randint(-3, 3)
            gens.append([(m, c) for m, c in terms.items() if c])
        if not all(gens):
            continue
        fancy = groebner_basis([list(g) for g in gens])
        fancy = [[(m, int(c)) for m, c in p] for p in fancy]
        naive = _naive_buchberger(gens)
        assert fancy == naive
        compared += 1


def test_basis_is_interreduced():
    gens = [[((2, 0), 1), ((0, 1), 1)], [((1, 1), 1), ((1, 0), 1)], [((0, 2), 1), ((1, 0), -1)]]
    gb = groebner_basis(gens)
    lms = leading_monomials(gb)
    for i, lm in enumerate(lms):
        for j, other in enumerate(lms):
            if i != j:
                assert not all(a <= b for a, b in zip(other, lm))
    # no tail monomial is divisible by any leading monomial
    for p in gb:
        for mono, _ in p[1:]:
            assert not any(all(a <= b for a, b in zip(lm, mono)) for lm in lms)
