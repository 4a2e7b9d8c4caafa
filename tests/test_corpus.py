"""The corpus's seeded generators draw what their randint forms would, and
its planted matrices have the Smith form they plant.

`corpus.uniform_int` takes randint's value by rejection on getrandbits, as
CPython's randint does; these tests pin that it returns the same values and
leaves the generator in the same state, so every check sees the instances
it saw when it drew through randint.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahom import abelian, corpus
from ahom.abelian import FgAbGroup, snf
from ahom.corpus import planted_matrix, random_group, random_matrix, random_table, uniform_int
from ahom.federer import ABSOLUTE, RELATIVE
from helpers import (reference_certificate_ok, reference_random_group, reference_random_matrix,
                     reference_random_table, reference_snf)

SEEDS = range(50)
# a width 2^k takes every k-bit draw; 2^k + 1 rejects almost half of the
# (k+1)-bit ones; past 32 bits getrandbits takes more than one word
WIDTHS = [1, 2, 3, 5, 21] + [2**k + e for k in (3, 5, 31, 32, 40, 64) for e in (0, 1)]


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("lo", [-10, 0, 2])
def test_uniform_int_is_randint(width, lo):
    hi = lo + width - 1
    for seed in SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        for i in range(20):
            assert uniform_int(rng, lo, hi) == ref.randint(lo, hi)
            if i % 3 == 0:  # the corpus interleaves random() with its integer draws
                assert rng.random() == ref.random()
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("lo, hi", [(3, 2), (0, -1), (5, -5)])
def test_uniform_int_refuses_an_empty_range_as_randint_does(lo, hi):
    with pytest.raises(ValueError):
        random.Random(0).randint(lo, hi)
    with pytest.raises(ValueError, match="empty range"):
        uniform_int(random.Random(0), lo, hi)


@pytest.mark.parametrize("max_dim, bound", [(0, 10), (1, 1), (8, 10), (6, 2**40)])
def test_random_matrix_draws_as_randint(max_dim, bound):
    for seed in SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert random_matrix(rng, max_dim, bound) == reference_random_matrix(ref, max_dim, bound)
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("max_rank, max_factors, max_order",
                         [(0, 0, 2), (2, 3, 50), (1, 2, 24), (3, 5, 2**33)])
def test_random_group_draws_as_randint(max_rank, max_factors, max_order):
    for seed in SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert (random_group(rng, max_rank, max_factors, max_order)
                    == reference_random_group(ref, max_rank, max_factors, max_order))
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("variant", [ABSOLUTE, RELATIVE])
@pytest.mark.parametrize("q_max, max_order", [(2, 24), (6, 12), (8, 24)])
def test_random_table_draws_as_randint(variant, q_max, max_order):
    for seed in SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        got = random_table(rng, variant, q_max, max_order)
        want = reference_random_table(ref, variant, q_max, max_order)
        assert got == want
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", [0, 2004])
def test_planted_matrix_is_deterministic_for_a_seed(seed):
    rng, twin = random.Random(seed), random.Random(seed)
    for _ in range(50):
        assert planted_matrix(rng) == planted_matrix(twin)
        assert rng.getstate() == twin.getstate()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_planted_group_is_the_group_of_the_reference_smith_form(seed):
    m, planted = planted_matrix(random.Random(seed))
    dec = reference_snf(m)
    assert reference_certificate_ok(m, dec)
    assert planted == FgAbGroup.of(m.rows - dec.rank, dec.diagonal[:dec.rank])


def test_the_planted_check_hands_snf_residuals_with_free_rank(monkeypatch):
    """At least 20 of the check's 500 matrices leave snf a residual of rank
    3 or more with more rows than rank, where a lost free summand shows."""
    residuals = []

    def recording(m):
        dec = snf(m)
        residuals.append((m.rows, dec.rank))
        return dec

    monkeypatch.setattr(abelian, "snf", recording)  # what residual_cokernel calls
    assert corpus.check_snf_certificates().passed
    assert sum(rank >= 3 and rows > rank for rows, rank in residuals) >= 20
