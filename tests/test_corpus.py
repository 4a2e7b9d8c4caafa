"""The corpus's seeded generators draw what their randint forms would, and
its packed certificate check decides what the dense products decide.

`corpus.uniform_int` takes randint's value by rejection on getrandbits, as
CPython's randint does; these tests pin that it returns the same values and
leaves the generator in the same state, so every check sees the instances
it saw when it drew through randint.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahom import corpus
from ahom.abelian import IntMatrix, SmithDecomposition, snf
from ahom.corpus import random_group, random_matrix, random_table, uniform_int
from ahom.federer import ABSOLUTE, RELATIVE
from helpers import (identity, reference_certificate_ok, reference_random_group,
                     reference_random_matrix, reference_random_table)

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


# shapes 0-6 x 0-6 with entries up to 2^70, so that the digit width passes 64
# bits; a 2^66 step on U does so from small matrices too
wide_matrices = st.tuples(st.integers(0, 6), st.integers(0, 6),
                          st.sampled_from([2, 10, 2**70])).flatmap(
    lambda s: st.lists(st.lists(st.integers(-s[2], s[2]), min_size=s[1], max_size=s[1]),
                       min_size=s[0], max_size=s[0]).map(
        lambda rows: IntMatrix.from_rows(rows, cols=s[1])))
MUTATIONS = [None, ("U", 1), ("U", -1), ("U", 2**66), ("V", 1), ("V", -1),
             ("diagonal", "negate"), ("diagonal", "raise"), ("diagonal", "zero")]


def mutated(dec, mutation, data):
    """dec with one U or V entry moved by a step, or one diagonal entry negated,
    raised by 1 or zeroed; dec itself when there is no such entry."""
    part, how = mutation
    if part == "diagonal":
        if not dec.diagonal:
            return dec
        diag = list(dec.diagonal)
        i = data.draw(st.integers(0, len(diag) - 1))
        diag[i] = {"negate": -diag[i], "raise": diag[i] + 1, "zero": 0}[how]
        return dec._replace(diagonal=tuple(diag))
    t = getattr(dec, part)
    if not t.rows:
        return dec
    rows = [list(row) for row in t.entries]
    rows[data.draw(st.integers(0, t.rows - 1))][data.draw(st.integers(0, t.cols - 1))] += how
    return dec._replace(**{part: IntMatrix.from_rows(rows, cols=t.cols)})


@settings(max_examples=400, deadline=None)
@given(wide_matrices, st.sampled_from(MUTATIONS), st.data())
@example(IntMatrix(0, 0, ()), None, None)
@example(IntMatrix(0, 4, ()), None, None)
@example(IntMatrix(4, 0, ((),) * 4), None, None)
def test_the_packed_product_check_is_the_dense_one(m, mutation, data):
    """The packed check of U @ m @ V == S gives the dense check's verdict on
    Smith certificates and on certificates one step off, and the corpus's
    certificate check rejects every one whose product is wrong."""
    dec = snf(m)
    assert corpus._smith_product_ok(m, dec) and reference_certificate_ok(m, dec)
    if mutation is None:
        return
    bad = mutated(dec, mutation, data)
    verdict = reference_certificate_ok(m, bad)
    assert corpus._smith_product_ok(m, bad) == verdict
    if not verdict:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus, "snf", lambda _: bad)
            assert not corpus._snf_certificate_ok(m)


# Each product row below is 0 in the digits of the width a bound without one
# of its terms would give, (8, -1) at 3 bits for instance, and would then
# read as the diagonal: a digit of U @ m @ V sums rows * cols terms, each as
# large as max|U| * max|m| * max|V|, and the diagonal's digit adds up to |d|.
@pytest.mark.parametrize("m_rows, u_rows, diagonal, v_rows", [
    ([[1] * 6], [[1]], (0,), [[2, -1, 0, 0, 0, 0]] + [[2, 0, 0, 0, 0, 0]] * 3 + [[0] * 6] * 2),
    ([[1, 0], [0, -1]], [[16, 1], [0, 1]], (0, -1), [[1, 0], [0, 1]]),
    ([[8, -1]], [[1]], (0,), [[1, 0], [0, 1]]),
    ([[1, 1]], [[1]], (0,), [[8, 0], [0, -1]]),
    ([[1, 0, 0], [0, 0, -1]], [[1, 0], [0, 1]], (1, -16), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
], ids=["rows-times-cols", "max-U", "max-m", "max-V", "negative-diagonal"])
def test_the_packed_product_check_has_room_for_every_digit(m_rows, u_rows, diagonal, v_rows):
    m = IntMatrix.from_rows(m_rows)
    dec = SmithDecomposition(IntMatrix.from_rows(u_rows), diagonal, IntMatrix.from_rows(v_rows))
    assert not reference_certificate_ok(m, dec)
    assert not corpus._smith_product_ok(m, dec)


def test_the_packed_product_check_rejects_a_carry_at_every_width():
    """(2^k, -1) is 0 in k-bit digits, so a digit width fixed at any k up to 80
    would read this product as the zero diagonal."""
    dec = SmithDecomposition(identity(1), (0,), identity(2))
    for k in range(81):
        m = IntMatrix.from_rows([[2**k, -1]])
        assert not reference_certificate_ok(m, dec)
        assert not corpus._smith_product_ok(m, dec)
