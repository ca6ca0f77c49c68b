from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from segreml import cli
from segreml.errors import GenerationFailedError
from segreml.euler import mldeg_value
from segreml.factors import factor_values, vanishing_pattern
from segreml.realize import force_minors, random_entry
from segreml.strata import (
    NEGATIVE_H_PATTERNS,
    SIGN_FACTOR_ORDER,
    Stratum,
    atlas,
    classify_pattern_n1,
    enumerate_strata_n1,
    find_negative_h_patterns,
    sample_sign_patterns,
    witness_for_stratum,
)
from segreml.factors import VanishingPattern, all_factors
from segreml.tensor import ScalingTensor

from helpers import degenerate_tensor


def test_enumeration_counts_and_classes():
    strata = enumerate_strata_n1()
    assert len(strata) == 41
    assert Counter(s.chi for s in strata) == {6: 1, 5: 7, 4: 21, 3: 8, 2: 3, 1: 1}
    assert Counter(s.symmetry_class for s in strata) == {
        "empty": 1,
        "single": 7,
        "pair": 21,
        "corner": 8,
        "frame": 3,
        "full": 1,
    }
    # chi is consistent with the pattern classifier and patterns are unique
    assert len({s.pattern.factors for s in strata}) == 41
    for s in strata:
        assert classify_pattern_n1(s.pattern) == s.chi
    # deterministic order
    assert [s.name for s in strata] == [s.name for s in enumerate_strata_n1()]


def test_chi2_strata_are_the_frames():
    frames = [s for s in enumerate_strata_n1() if s.chi == 2]
    assert len(frames) == 3
    for s in frames:
        minors = [f for f in s.pattern.vanishing if f.is_minor]
        assert len(minors) == 4 and any(f.kind == "hyp222" for f in s.pattern.vanishing)


def test_witnesses_all_strata():
    for stratum, witness in atlas(seed=0):
        assert vanishing_pattern(witness).factors == stratum.pattern.factors
        assert mldeg_value(witness) == stratum.chi


def test_atlas_output_is_pinned(capsys):
    # sha256 of `segreml atlas --seed 0` stdout: all 41 strata with their witnesses
    assert cli.main(["atlas", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "5c67a8f2fac31dfb759137c261de1ab2b79d27c4348e65a6532eafee6aea04aa"


def test_witness_determinism():
    s = enumerate_strata_n1()[10]
    assert witness_for_stratum(s, seed=5) == witness_for_stratum(s, seed=5)


def test_witness_rejects_foreign_pattern():
    bogus = Stratum(
        VanishingPattern(1, tuple(all_factors(1)[:4])), 0, "infeasible", "pair"
    )
    with pytest.raises(GenerationFailedError):
        witness_for_stratum(bogus, seed=0)


def test_constrained_sampling_stays_in_the_atlas():
    """Forcing random minor subsets never leaves the 41 feasible patterns."""
    rng = random.Random(23)
    minors = [f for f in all_factors(1) if f.is_minor]
    produced = set()
    trials = 0
    while trials < 10_000:
        entries = [[[random_entry(rng) for _ in range(2)] for _ in range(2)] for _ in range(2)]
        chosen = rng.sample(minors, rng.randint(0, 3))
        if not force_minors(entries, chosen):
            continue
        trials += 1
        pattern = vanishing_pattern(ScalingTensor.from_entries(1, entries))
        chi = classify_pattern_n1(pattern)
        assert chi is not None, pattern.names()
        produced.add(pattern.factors)
    assert len(produced) >= 20  # the sampler reaches a good share of the atlas


def test_table_matches_the_engine_on_grid_and_degenerate_tensors():
    """The table's chi is the ML degree on tensors not built from the table.

    A seeded sample of the +-{1,2} grid (the opt-in sweep in test_euler.py
    covers all 65,536) plus degeneracy-biased draws.
    """
    rng = random.Random(41)
    draw = lambda: [[[rng.choice((-2, -1, 1, 2)) for _ in range(2)] for _ in range(2)] for _ in range(2)]
    grid = [ScalingTensor.from_entries(1, draw()) for _ in range(2000)]
    degenerate = [degenerate_tensor(rng, 1) for _ in range(300)]
    reached = set()
    for W in grid + degenerate:
        pattern = vanishing_pattern(W)
        chi = classify_pattern_n1(pattern)
        assert chi is not None and chi == mldeg_value(W), pattern.names()
        reached.add(pattern.factors)
    assert len(reached) >= 40  # of the 41 strata


def test_sign_sampler_basics():
    counts = sample_sign_patterns(5000, 20, seed=3)
    assert sum(counts.values()) <= 5000
    assert all(len(p) == 7 and set(p) <= {"+", "-"} for p in counts)
    # all-positive entries with positive H land on the all-plus pattern
    assert len(SIGN_FACTOR_ORDER) == 7
    with pytest.raises(ValueError):
        sample_sign_patterns(0, 20)
    with pytest.raises(ValueError):
        sample_sign_patterns(10, 1)


def test_sign_vector_matches_the_factor_values():
    # small bounds make zero factors common, so the None branch is exercised too
    from segreml.strata import _sample_entries, _sign_vector

    nones = 0
    for bound in (2, 5):
        rng = random.Random(bound)
        for _ in range(2000):
            e = _sample_entries(rng, bound)
            values = factor_values(ScalingTensor.from_entries(1, e))
            expected = tuple(values[f] for f in SIGN_FACTOR_ORDER)
            got = _sign_vector(e)
            if 0 in expected:
                nones += 1
                assert got is None, e
            else:
                assert got == expected, e
    assert nones > 100


def test_negative_h_targeted_search():
    found = find_negative_h_patterns(seed=2)
    assert set(found) == set(NEGATIVE_H_PATTERNS)
    # each reported witness realizes its sign pattern exactly
    from segreml.strata import _sign_string, _sign_vector

    for pattern, entries in found.items():
        values = _sign_vector(entries)
        assert values is not None and _sign_string(values) == pattern
