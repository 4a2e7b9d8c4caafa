import math
import random
import re
from array import array
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahom import abelian, chains, corpus
from ahom.abelian import (
    MAX_SUMMANDS,
    PRIME_LIMIT,
    FgAbGroup,
    GroupParseError,
    IntMatrix,
    PrimeSet,
    cokernel,
    column_echelon,
    composite_is_zero,
    direct_sum,
    exponent,
    ext,
    hom,
    in_class,
    kernel_basis,
    parse_group,
    _is_prime,
    snf,
    solve,
    split_pivots,
)
from ahom.chains import cohomology_direct
from ahom.corpus import random_complex, random_matrix
from helpers import (
    boundary,
    brute_ext_order,
    brute_hom_order,
    det,
    divides,
    echelon,
    identity,
    invert_unimodular,
    is_zero,
    leibniz_det,
    pairwise_group,
    prime_factors,
    prime_power_group,
    reference_column_echelon,
    reference_snf,
    torsion_primes,
    transpose,
    zeros,
)

Z = FgAbGroup.free(1)
TRIVIAL = FgAbGroup.trivial()
Z2 = FgAbGroup.cyclic(2)


def assert_valid_snf(m, dec):
    """dec is a Smith certificate of m, as reference_snf builds one."""
    S = dec.S  # built from the diagonal on each read
    assert dec.U @ m @ dec.V == S
    assert abs(det(dec.U)) == 1
    assert abs(det(dec.V)) == 1
    for i in range(S.rows):
        for j in range(S.cols):
            if i != j:
                assert S.entries[i][j] == 0
    diag = dec.diagonal
    assert all(d >= 0 for d in diag)
    seen_zero = False
    prev = None
    for d in diag:
        if d == 0:
            seen_zero = True
        else:
            assert not seen_zero, "zero diagonal entry before a nonzero one"
            if prev is not None:
                assert d % prev == 0
            prev = d


def assert_certified_group(m):
    """The certified reference Smith form of m is valid, and the transform-free
    snf(m) has its rank and its group, a nonnegative diagonal with zeros
    trailing, and empty U and V."""
    dec, ref = snf(m), reference_snf(m)
    assert_valid_snf(m, ref)
    assert dec.rank == ref.rank
    assert all(dec.diagonal[:dec.rank]) and not any(dec.diagonal[dec.rank:])
    assert min(dec.diagonal, default=0) >= 0
    assert (FgAbGroup.of(m.rows - dec.rank, dec.diagonal[:dec.rank])
            == FgAbGroup.of(m.rows - ref.rank, ref.diagonal[:ref.rank]))
    assert (dec.U.rows, dec.U.cols, dec.V.rows, dec.V.cols) == (m.rows, 0, 0, m.cols)


matrices = st.integers(0, 6).flatmap(
    lambda r: st.integers(0, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-10, 10), min_size=c, max_size=c),
            min_size=r, max_size=r,
        ).map(lambda rows: IntMatrix.from_rows(rows, cols=c))
    )
)


class TestIntMatrix:
    @pytest.mark.parametrize("entry", [2.9, 0.0, True, False, "3", None, [1]])
    def test_from_rows_refuses_an_entry_that_is_not_an_int(self, entry):
        with pytest.raises(TypeError, match=f"matrix entry {re.escape(repr(entry))} "):
            IntMatrix.from_rows([[1, entry]])

    def test_from_rows_keeps_int_entries(self):
        m = IntMatrix.from_rows([[2**100, -1], [0, 7]])
        assert m.entries == ((2**100, -1), (0, 7)) and (m.rows, m.cols) == (2, 2)
        assert IntMatrix.from_rows([], cols=3) == IntMatrix(0, 3, ())

    @pytest.mark.parametrize("n", range(6))
    def test_identity_is_the_per_entry_form(self, n):
        # IntMatrix.diagonal builds its rows from slices of one zero row
        assert IntMatrix.diagonal((1,) * n) == IntMatrix(
            n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @pytest.mark.parametrize("shape", [(r, k, c) for r in (0, 1, 3) for k in (0, 1, 3)
                                       for c in (0, 1, 3)])
    def test_product_is_the_per_entry_product(self, shape):
        r, k, c = shape
        rng = random.Random(sum(shape))
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(k)] for _ in range(r)], cols=k)
        b = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(c)] for _ in range(k)], cols=c)
        p = a @ b
        assert p == IntMatrix(*p)  # the shape it skips checking holds
        assert p == IntMatrix(r, c, tuple(tuple(sum(a.entries[i][t] * b.entries[t][j]
                                                    for t in range(k)) for j in range(c))
                                          for i in range(r)))
        with pytest.raises(ValueError, match="shape mismatch"):
            a @ zeros(k + 1, c)

    # entries in -2..2 give zero multipliers and repeated unit pivots, where
    # the Bareiss step leaves a row as it is
    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
    @example([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    @example([[0, 1, 2], [1, 0, 1], [0, 2, 0]])
    @example([[2, 1, 0], [0, 2, 1], [0, 0, 2]])
    def test_det_is_the_leibniz_sum(self, rows):
        assert det(IntMatrix.from_rows(rows, cols=len(rows))) == leibniz_det(rows)

    def test_det_of_the_certificates_from_random_matrices(self):
        rng = random.Random(2004)
        for _ in range(60):
            dec = reference_snf(random_matrix(rng))
            for t in (dec.U, dec.V):
                assert det(t) == leibniz_det(t.entries) in (1, -1)

    def test_det_refuses_a_non_square_matrix(self):
        with pytest.raises(ValueError, match="non-square"):
            det(IntMatrix.from_rows([[1, 2]]))


def assert_shaped(m: IntMatrix) -> None:
    """m holds the shape it states, in tuples of ints: IntMatrix.__new__'s
    check, which the matrices the library shapes itself skip."""
    assert type(m) is IntMatrix and type(m.entries) is tuple and len(m.entries) == m.rows
    for row in m.entries:
        assert type(row) is tuple and len(row) == m.cols
        assert all(type(x) is int for x in row)


def shape_checked(fn):
    """fn, asserting first that each matrix it is given holds its shape."""
    def checked(*args):
        for m in args:
            if isinstance(m, IntMatrix):
                assert_shaped(m)
        return fn(*args)
    return checked


def shaped_complex(name, ranks, boundaries):
    """ChainComplex, asserting first that each boundary, zero ones too,
    holds its shape: the constructor checks only the shape it states."""
    for m in boundaries.values():
        assert_shaped(m)
    return chains.ChainComplex(name, ranks, boundaries)


class TestLibraryShapedMatrices:
    """diagonal, @, kernel_basis and snf's empty U and V are built without
    IntMatrix.__new__'s check, as are the residual that residual_cokernel
    hands to snf, the matrices cohomology_direct hands to cokernel and the
    corpus's random, mixing and planted matrices; each must hold the shape
    it states."""

    @settings(max_examples=300, deadline=None)
    @given(matrices, st.lists(st.integers(-10, 10), max_size=6), st.integers(0, 6),
           st.integers(0, 6))
    @example(IntMatrix(0, 4, ()), [], 0, 3)
    @example(IntMatrix(4, 0, ((),) * 4), [5], 3, 0)
    @example(IntMatrix(0, 0, ()), [2, 3], 0, 0)
    def test_every_one_holds_its_shape(self, m, diag, rows, cols):
        t = transpose(m)
        built = [m @ t, t @ m, kernel_basis(m), kernel_basis(t), IntMatrix.diagonal(diag),
                 IntMatrix.diagonal(diag, rows, cols)]
        for a in (m, t):
            dec = snf(a)
            built += [dec.U, dec.V, dec.S]
            assert (dec.U.rows, dec.U.cols, dec.V.rows, dec.V.cols) == (a.rows, 0, 0, a.cols)
        for x in built:
            assert_shaped(x)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32),
           st.sampled_from([FgAbGroup.of(1, [2, 6]), FgAbGroup.of(0, [4])]))
    def test_the_residuals_and_the_cones_hold_their_shapes(self, seed, g):
        rng = random.Random(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(abelian, "snf", shape_checked(snf))
            mp.setattr(chains, "cokernel", shape_checked(cokernel))
            # random_complex multiplies its mixing matrices into a kernel, but
            # takes one as the boundary itself where the kernel is all cells
            mp.setattr(IntMatrix, "__matmul__", shape_checked(IntMatrix.__matmul__))
            mp.setattr(corpus, "ChainComplex", shaped_complex)
            c = random_complex(rng)
            for n in range(c.top_degree + 2):
                cohomology_direct(c, n, g)
            for _ in range(3):
                cokernel(random_matrix(rng))

    @pytest.mark.parametrize("max_dim", [0, 1, 3, 8])
    def test_the_corpus_random_matrices_hold_their_shapes(self, max_dim):
        rng = random.Random(max_dim)
        draws = [random_matrix(rng, max_dim) for _ in range(300)]
        for m in draws:
            assert_shaped(m)
        assert any(m.rows == 0 < m.cols for m in draws) == (max_dim > 0)
        assert any(m.cols == 0 < m.rows for m in draws) == (max_dim > 0)

    @pytest.mark.parametrize("max_rank", [1, 3, 5])
    def test_the_random_complex_boundaries_hold_their_shapes(self, max_rank):
        # d_1, and a boundary after a degree without cells, is a mixing matrix
        # that passes through no product; the draws hold both kinds
        rng, first, after_none = random.Random(max_rank), 0, 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus, "ChainComplex", shaped_complex)
            for _ in range(200):
                ranks = random_complex(rng, max_rank=max_rank).ranks
                first += bool(ranks.get(0) and ranks.get(1))
                after_none += any(ranks.get(n) and not ranks.get(n - 1) for n in range(2, 6))
        assert first and after_none

    def test_the_planted_matrices_hold_their_shapes(self):
        rng = random.Random(2004)  # the seed of the corpus's planted check
        draws = [corpus.planted_matrix(rng)[0] for _ in range(500)]
        for m in draws:
            assert_shaped(m)
        assert any(m.rows == 0 < m.cols for m in draws)
        assert any(m.cols == 0 < m.rows for m in draws)


class TestSnf:
    """snf is transform-free and its diagonal need not be a divisor chain;
    the Smith certificate properties are checked on reference_snf, and snf
    must have the certified form's rank and group."""

    def test_identity(self):
        m = identity(2)
        assert snf(m).S == identity(2)
        assert_certified_group(m)

    def test_diag_2_3(self):
        m = IntMatrix.diagonal([2, 3])
        assert snf(m).S == m  # already diagonal: no pass changes it
        assert reference_snf(m).S == IntMatrix.diagonal([1, 6])
        assert_certified_group(m)

    def test_zero_matrix(self):
        m = zeros(3, 2)
        assert snf(m).S == zeros(3, 2)
        assert_certified_group(m)

    def test_empty_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0)]:
            assert_certified_group(zeros(r, c))

    def test_deterministic(self):
        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert snf(m) == snf(m)

    @settings(max_examples=150, deadline=None)
    @given(matrices)
    def test_certificate_invariants(self, m):
        assert_certified_group(m)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 36), min_size=2, max_size=12), st.integers(0, 2))
    def test_certificate_on_broken_divisor_chains(self, diag, extra):
        m = IntMatrix.diagonal(diag, len(diag) + extra, len(diag))
        dec = reference_snf(m)
        nonzero = [d for d in diag if d]
        factors = prime_power_group(0, nonzero).invariant_factors
        assert dec.diagonal[:dec.rank] == (1,) * (len(nonzero) - len(factors)) + factors
        assert_certified_group(m)

    def test_long_broken_divisor_chain(self):
        # a repair of one pair per Hermite round needs rounds quadratic in the
        # length; 120 entries lie past where a 1000-round cap would stop it
        m = IntMatrix.diagonal([4, 2] * 60)
        assert reference_snf(m).diagonal == (2,) * 60 + (4,) * 60
        assert snf(m).diagonal == (4, 2) * 60  # one round, and the chain is FgAbGroup.of's
        assert_certified_group(m)


class TestColumnEchelon:
    @settings(max_examples=150, deadline=None)
    @given(matrices)
    def test_echelon_invariants(self, m):
        h, w = echelon(m)
        assert m @ w == h
        assert abs(det(w)) == 1
        leads = []
        seen_zero = False
        for j in range(h.cols):
            lead = next((i for i in range(h.rows) if h.entries[i][j]), None)
            if lead is None:
                seen_zero = True
                continue
            assert not seen_zero, "zero column before a nonzero one"
            leads.append(lead)
            assert h.entries[lead][j] > 0
            # entries left of the pivot are reduced modulo it
            for j2 in range(j):
                assert 0 <= h.entries[lead][j2] < h.entries[lead][j]
        assert leads == sorted(leads) and len(set(leads)) == len(leads)


EMPTY_SHAPES = [(0, 0), (0, 3), (3, 0)]


def random_transform(rng: random.Random, cols: int) -> IntMatrix | None:
    """No transform, one with no rows, or a random one with `cols` columns."""
    rows = rng.choice([None, 0, rng.randint(1, 5)])
    if rows is None:
        return None
    return IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
                               cols=cols)


class TestAgainstReferencePass:
    """The in-place Hermite pass on column lists, and the transform-free Smith
    form that keeps its lists through every round, do the reference passes'
    operations in the same order, so every output is identical, not merely
    equivalent."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 9))
    def test_same_hermite_form_and_transform(self, seed, max_dim):
        rng = random.Random(seed)
        m = random_matrix(rng, max_dim=max_dim, bound=rng.choice([1, 10, 2**40]))
        t = random_transform(rng, m.cols)
        assert echelon(m, t) == reference_column_echelon(m, t)

    @pytest.mark.parametrize("shape", EMPTY_SHAPES)
    def test_same_on_empty_shapes(self, shape):
        m = zeros(*shape)
        for t in (None, zeros(0, m.cols), zeros(2, m.cols),
                  identity(m.cols)):
            assert echelon(m, t) == reference_column_echelon(m, t)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 9))
    def test_same_smith_certificate(self, seed, max_dim):
        rng = random.Random(seed)
        m = random_matrix(rng, max_dim=max_dim, bound=rng.choice([1, 10, 2**40]))
        assert snf(m) == reference_snf(m, certificate=False)

    @pytest.mark.parametrize("shape", EMPTY_SHAPES)
    def test_same_smith_certificate_on_empty_shapes(self, shape):
        m = zeros(*shape)
        assert snf(m) == reference_snf(m, certificate=False)


def assert_same_echelon(m: IntMatrix, t: IntMatrix | None, kind=tuple) -> None:
    """column_echelon on the columns of m (and of t), each a `kind`, gives
    the reference's H, W and leading rows, and leaves every column passed in
    as it was: a column is replaced, never changed in place."""
    cols = [kind(c) for c in columns(m)]
    w = None if t is None else [kind(c) for c in columns(t)]
    given_cols, given_w = list(cols), None if w is None else list(w)
    snapshot = [tuple(c) for c in cols + (w or [])]
    leads = column_echelon(cols, w)
    assert [tuple(c) for c in given_cols + (given_w or [])] == snapshot
    h, wm = reference_column_echelon(m, t)
    assert [tuple(c) for c in cols] == columns(h)
    if w is not None:
        assert [tuple(c) for c in w] == columns(wm)
    assert leads == [next(i for i, x in enumerate(c) if x) for c in columns(h) if any(c)]


def columns(m: IntMatrix) -> list[tuple[int, ...]]:
    return [tuple(row[j] for row in m.entries) for j in range(m.cols)]


class TestBeyondReferenceShapes:
    """column_echelon against its reference past the 9 x 9 of the tests
    above: tall and wide matrices up to 24 on a side, transforms whose height
    is not the column count, and the pivot-free residuals split_pivots
    leaves, which are where the pass does its Euclid steps."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_tall_and_wide(self, seed, tall):
        rng = random.Random(seed)
        long, short = rng.randint(10, 24), rng.randint(0, 9)
        rows, cols = (long, short) if tall else (short, long)
        bound, density = rng.choice([1, 10, 2**20]), rng.choice([0.2, 0.5, 1.0])
        m = IntMatrix.from_rows([[rng.randint(-bound, bound) if rng.random() < density else 0
                                  for _ in range(cols)] for _ in range(rows)], cols=cols)
        height = rng.choice([None, 0, 1, cols + 3])
        t = None if height is None else IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(height)], cols=cols)
        assert_same_echelon(m, t, rng.choice([tuple, list]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32))
    def test_pivot_free_residuals(self, seed):
        rng = random.Random(seed)
        residuals = []
        while not residuals:  # about one draw in four leaves a nonzero residual
            c = random_complex(rng, max_rank=10)
            d = {n: [list(row) for row in m.entries] for n, m in c.boundaries.items()}
            split = split_pivots(d)
            residuals = [IntMatrix.from_rows(rows, cols=c.ranks[n] - len(split[n])
                                             - len(split.get(n + 1, ())))
                         for n, rows in d.items() if any(map(any, rows))]
        for m in residuals:
            for a in (m, transpose(m)):
                for t in (None, zeros(0, a.cols), identity(a.cols),
                          IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(a.cols)]
                                               for _ in range(a.cols + 3)], cols=a.cols)):
                    assert_same_echelon(a, t, rng.choice([tuple, list]))


def signed(bits: int):
    return st.integers(-(2**bits), 2**bits)


def signed_row_cases():
    """(a rows, b rows) pairs whose two's-complement digits borrow: b rows all
    negative, alternating, or negative in the last column, which borrows out
    of the top digit, at magnitudes on the one-, two- and three-limb widths.
    Each row gives zero and nonzero products, some with one nonzero entry;
    at 2^30 and 2^61 zero products also stay below the one-item bound 2^63."""
    for magnitude in (2**30, 2**61, 2**62, 2**63 - 1, 2**63, 2**64, 2**127, 2**128):
        for signs in ((-1, -1, -1), (1, -1, 1), (1, 1, -1)):
            row = [s * magnitude for s in signs]
            for k in (1, magnitude):
                yield [[k, -k]], [row, row]
                yield [[k, k]], [row, [-x for x in row]]
                yield [[k, k]], [row, row]
                yield [[k]], [row]
                for j in range(3):
                    yield [[k, -k]], [row, [x - (c == j) for c, x in enumerate(row)]]


def with_examples(cases):
    """Hypothesis's @example once per case."""
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


def one_item_bound(a_rows, b_rows) -> bool:
    """Whether the d*d bound of the pair fits one 8-byte digit."""
    return len(b_rows) * max(map(abs, chain(*a_rows))) * max(map(abs, chain(*b_rows))) < 2**63


def test_signed_row_cases_reach_the_one_item_digits_with_zero_products():
    # every benchmark input packs its digits as one array("q") item each
    one_item = [(a, b) for a, b in signed_row_cases() if one_item_bound(a, b)]
    zero = [(a, b) for a, b in one_item
            if is_zero(IntMatrix.from_rows(a) @ IntMatrix.from_rows(b))]
    assert zero and len(zero) < len(one_item)


class TestCompositeIsZero:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 100), st.booleans())
    def test_agrees_with_the_product(self, seed, bits, perturb):
        # b is drawn inside the kernel of a, so zero composites are common;
        # one perturbed entry usually makes the composite nonzero
        rng = random.Random(seed)
        k = rng.randint(0, 5)
        a = IntMatrix.from_rows([[rng.randint(-2**bits, 2**bits) for _ in range(k)]
                                 for _ in range(rng.randint(0, 5))], cols=k)
        kernel, c = kernel_basis(a), rng.randint(0, 4)
        mixing = IntMatrix.from_rows([[rng.randint(-2**bits, 2**bits) for _ in range(c)]
                                      for _ in range(kernel.cols)], cols=c)
        b = kernel @ mixing
        if perturb and b.rows and b.cols:
            rows = [list(r) for r in b.entries]
            rows[rng.randrange(b.rows)][rng.randrange(b.cols)] += rng.randint(1, 2**bits)
            b = IntMatrix.from_rows(rows)
        assert composite_is_zero(a, b) == is_zero(a @ b)

    @with_examples(signed_row_cases())
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda k: st.tuples(
        st.lists(st.lists(signed(100), min_size=k, max_size=k), max_size=4),
        st.lists(st.lists(signed(100), min_size=3, max_size=3), min_size=k, max_size=k))))
    def test_agrees_on_arbitrary_signed_entries(self, rows):
        a_rows, b_rows = rows
        a = IntMatrix.from_rows(a_rows, cols=len(b_rows))
        b = IntMatrix.from_rows(b_rows, cols=3)
        assert composite_is_zero(a, b) == is_zero(a @ b)

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((0, 0), (0, 0)), ((0, 3), (3, 2)), ((2, 0), (0, 3)), ((2, 3), (3, 0)), ((3, 2), (2, 0)),
    ])
    def test_empty_shapes(self, a_shape, b_shape):
        a = IntMatrix.from_rows([[7] * a_shape[1]] * a_shape[0], cols=a_shape[1])
        b = IntMatrix.from_rows([[5] * b_shape[1]] * b_shape[0], cols=b_shape[1])
        assert composite_is_zero(a, b) == is_zero(a @ b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            composite_is_zero(zeros(2, 3), zeros(2, 3))

    @with_examples([(a, b) for a, b in signed_row_cases() if one_item_bound(a, b)]
                   + [([[1, -1]], [[-2**61] * 3] * 2),  # zero, every digit borrowing
                      ([[1, 1]], [[2**61, 2**61, -2**61], [-2**61, -2**61, 2**61]]),
                      ([[1, -1]], [[2**61, -2**61, 2**61], [2**61, -2**61, 2**61 - 1]])])
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda k: st.tuples(
        st.lists(st.lists(signed(30), min_size=k, max_size=k), max_size=4),
        st.lists(st.lists(signed(30), min_size=3, max_size=3), min_size=k, max_size=k))))
    def test_big_endian_digit_order_is_exact(self, rows):
        # a big-endian host reads each row's 8-byte items, in column order,
        # as one big-endian integer: the digits come reversed, and the same
        # ones and borrow still make a zero row exactly a zero product row
        a_rows, b_rows = rows
        a = IntMatrix.from_rows(a_rows, cols=len(b_rows))
        b = IntMatrix.from_rows(b_rows, cols=3)
        bound = a.cols * a.max_abs() * b.max_abs()
        assert bound < 2**63  # the one-item digits that native order reads
        ones = int.from_bytes((b"\1" + bytes(7)) * b.cols, "little")
        packed = []
        for row in b.entries:
            digits = array("q", row)
            digits.byteswap()
            u = int.from_bytes(digits, "big")
            packed.append(u - ((u >> 63 & ones) << 64))
        big_endian_zero = not any(sum(x * p for x, p in zip(row, packed)) for row in a.entries)
        assert big_endian_zero == is_zero(a @ b) == composite_is_zero(a, b)

    @pytest.mark.parametrize("bits", [1, 6, 7, 8, 15, 16, 63, 64, 100])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_entry_at_the_packing_bound(self, bits, sign):
        # a row of k equal entries M times a column of k equal entries N is
        # k*M*N, the packing bound itself; every other entry of the product
        # is 0, and the bound is tight in every position
        k, big = 3, 2**bits - 1
        for j in range(4):
            a = IntMatrix.from_rows([[sign * big] * k, [0] * k])
            b = IntMatrix.from_rows([[big if c == j else 0 for c in range(4)]] * k)
            assert (a @ b).entries[0][j] == sign * k * big * big
            assert not composite_is_zero(a, b)
            # the same bound reached by two terms that cancel
            b_zero = IntMatrix.from_rows([[big if c == j else 0 for c in range(4)]] * (k - 1)
                                         + [[-2 * big if c == j else 0 for c in range(4)]])
            a_zero = IntMatrix.from_rows([[big] * k, [0] * k])
            assert composite_is_zero(a_zero, b_zero) == is_zero(a_zero @ b_zero)

    @pytest.mark.parametrize("bits", [7, 8, 15, 63, 100])
    def test_one_entry_filling_its_digit(self, bits):
        # a bound of 2^bits - 1 with bits = 7 (mod 8) leaves no spare bit in
        # the digit: the entry is one below half the digit range
        for j in range(3):
            for sign in (1, -1):
                a = IntMatrix.from_rows([[sign * (2**bits - 1)]])
                b = IntMatrix.from_rows([[1 if c == j else 0 for c in range(3)]])
                assert not composite_is_zero(a, b)

    @pytest.mark.parametrize("bits", [7, 8, 15, 16, 31, 32, 63, 64, 127, 128])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_packed_entry_at_a_power_of_two(self, bits, sign):
        # with a = [[1]] the bound is |b| itself: 2^bits must still fit its
        # digit as a w-bit two's-complement value, in one 64-bit limb and
        # across two and three
        b = IntMatrix.from_rows([[sign * 2**bits, 0, sign]])
        assert not composite_is_zero(IntMatrix.from_rows([[1]]), b)


class TestLatticeUtilities:
    @settings(max_examples=100, deadline=None)
    @given(matrices)
    def test_kernel_basis_spans_kernel(self, m):
        k = kernel_basis(m)
        assert is_zero(m @ k)
        # column count matches the rank defect
        assert k.cols == m.cols - snf(m).rank

    @settings(max_examples=100, deadline=None)
    @given(matrices)
    def test_kernel_basis_matches_smith_kernel(self, m):
        # the Smith construction: Hermite form of the V columns beyond the rank
        dec = reference_snf(m)
        beyond = IntMatrix(m.cols, m.cols - dec.rank,
                           tuple(row[dec.rank:] for row in dec.V.entries))
        smith_kernel, _ = echelon(beyond)
        assert kernel_basis(m) == smith_kernel

    def test_solve_exact_and_unsolvable(self):
        m = IntMatrix.diagonal([2, 3])
        b = IntMatrix.from_rows([[4], [9]])
        x = solve(m, b)
        assert x is not None and m @ x == b
        assert solve(m, IntMatrix.from_rows([[1], [0]])) is None

    def test_solve_random_solvable(self):
        rng = random.Random(7)
        for _ in range(50):
            r, c, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 3)
            m = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)], cols=c)
            x0 = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(k)] for _ in range(c)], cols=k)
            b = m @ x0
            x = solve(m, b)
            assert x is not None and m @ x == b

    def test_invert_unimodular(self):
        m = IntMatrix.from_rows([[2, 1], [1, 1]])
        assert m @ invert_unimodular(m) == identity(2)
        with pytest.raises(ValueError):
            invert_unimodular(IntMatrix.diagonal([2, 2]))


def reference_cokernel(m: IntMatrix) -> FgAbGroup:
    """The group read off the reference Smith form, with no pivot split off."""
    dec = reference_snf(m, certificate=False)
    return FgAbGroup.of(m.rows - dec.rank, dec.diagonal[:dec.rank])


def planted_matrix(rng: random.Random, max_dim: int) -> IntMatrix:
    """A random block beside planted +-1 and divisor entries, hidden by a
    few unimodular row and column operations and a shuffle."""
    rows, cols = rng.randint(0, max_dim), rng.randint(0, max_dim)
    a = [[0] * cols for _ in range(rows)]
    k = rng.randint(0, min(rows, cols))
    for i in range(k):
        a[i][i] = rng.choice([1, -1, 2, -3, 4, 6, 12])
    for i in range(k, rows):
        for j in range(k, cols):
            a[i][j] = rng.randint(-6, 6) if rng.random() < 0.5 else 0
    for _ in range(rng.randint(0, 3)):
        if rows > 1:  # row i += c * row j
            i, j = rng.sample(range(rows), 2)
            c = rng.choice([-2, -1, 1, 2])
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        if cols > 1:  # column i += c * column j
            i, j = rng.sample(range(cols), 2)
            c = rng.choice([-2, -1, 1, 2])
            for row in a:
                row[i] += c * row[j]
    return shuffled(rng, IntMatrix.from_rows(a, cols=cols))


def shuffled(rng: random.Random, m: IntMatrix) -> IntMatrix:
    """m with its rows and its columns in random order."""
    rows, cols = rng.sample(range(m.rows), m.rows), rng.sample(range(m.cols), m.cols)
    return IntMatrix.from_rows([[m.entries[i][j] for j in cols] for i in rows], cols=m.cols)


def cone_matrix(c, n: int, d: int) -> IntMatrix:
    """[[beta, 0], [d*I, alpha]] with alpha = d_n^T and beta = d_(n+1)^T:
    the matrix of the mapping cone cohomology_direct reduces for Z/d."""
    r = c.rank(n)
    alpha, beta = transpose(boundary(c, n)), transpose(boundary(c, n + 1))
    return IntMatrix.from_rows(
        [row + (0,) * alpha.cols for row in beta.entries]
        + [e + a for e, a in zip(IntMatrix.diagonal([d] * r).entries, alpha.entries)],
        cols=r + alpha.cols)


class TestCokernel:
    def test_single_relation(self):
        assert cokernel(IntMatrix.from_rows([[2]])) == FgAbGroup.cyclic(2)

    def test_diag_2_3(self):
        assert cokernel(IntMatrix.diagonal([2, 3])) == FgAbGroup.cyclic(6)

    def test_no_relations(self):
        assert cokernel(zeros(2, 0)) == FgAbGroup.free(2)

    def test_order_equals_det(self):
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 5)
            m = IntMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            d = det(m)
            if d == 0:
                continue
            assert cokernel(m).order() == abs(d)
            checked += 1


    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 8))
    def test_equals_certified_diagonal(self, seed, max_dim):
        # small max_dim makes 0-row and 0-column shapes common
        m = random_matrix(random.Random(seed), max_dim=max_dim)
        dec = reference_snf(m)
        assert_valid_snf(m, dec)
        assert cokernel(m) == FgAbGroup.of(m.rows - dec.rank, dec.diagonal[:dec.rank])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 8))
    def test_uncertified_snf_has_the_certified_form(self, seed, max_dim):
        m = random_matrix(random.Random(seed), max_dim=max_dim)
        bare = snf(m)
        assert_certified_group(m)
        # S is built from the diagonal on each read, and kept by no one
        assert bare.S is not bare.S and not hasattr(bare, "__dict__")
        assert bare.S == IntMatrix.diagonal(bare.diagonal, m.rows, m.cols)
        assert (bare.U.rows, bare.U.cols, bare.V.rows, bare.V.cols) == (m.rows, 0, 0, m.cols)

    def test_empty_shapes(self):
        for r, c in [(0, 0), (0, 4), (4, 0), (4, 3)]:
            m = zeros(r, c)
            assert cokernel(m) == FgAbGroup.free(r) == reference_cokernel(m)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 9), st.sampled_from([1, 10, 2**40]))
    def test_matches_reference_on_random_matrices(self, seed, max_dim, bound):
        m = random_matrix(random.Random(seed), max_dim=max_dim, bound=bound)
        assert cokernel(m) == reference_cokernel(m)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 9))
    def test_matches_reference_on_planted_pivots(self, seed, max_dim):
        m = planted_matrix(random.Random(seed), max_dim)
        assert cokernel(m) == reference_cokernel(m)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from([2, 3, 4, 6, 12]))
    def test_matches_reference_on_cone_matrices(self, seed, d):
        rng = random.Random(seed)
        c = random_complex(rng)
        for n in range(c.top_degree + 1):
            m = cone_matrix(c, n, d)
            assert cokernel(m) == reference_cokernel(m)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 9), st.booleans())
    def test_unchanged_by_permuting_rows_and_columns(self, seed, max_dim, planted):
        # the pivots split off, and their order, depend on the positions
        rng = random.Random(seed)
        m = planted_matrix(rng, max_dim) if planted else random_matrix(rng, max_dim=max_dim)
        assert cokernel(shuffled(rng, m)) == cokernel(m)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 9), st.sampled_from([1, 10, 2**40]))
    def test_hermite_pivots_count_the_rank(self, seed, max_dim, bound):
        # cohomology_direct reads a coboundary's rank off one Hermite pass
        m = random_matrix(random.Random(seed), max_dim=max_dim, bound=bound)
        assert len(column_echelon(list(transpose(m).entries))) == m.rows - cokernel(m).free_rank

    @pytest.mark.parametrize("shape", EMPTY_SHAPES)
    def test_hermite_pivots_count_the_rank_on_empty_shapes(self, shape):
        m = zeros(*shape)
        assert len(column_echelon(list(transpose(m).entries))) == m.rows - cokernel(m).free_rank


class TestFgAbGroup:
    def test_canonical_validation(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 2))  # broken divisor chain
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FgAbGroup(-1, ())

    # a value that is not an int is refused, not read as the int it rounds to
    @pytest.mark.parametrize("make, shown", [
        (lambda: FgAbGroup.of(0, [2.9, 6.5]), "cyclic order 2.9 is a float"),
        (lambda: FgAbGroup.of(True, [True, 4]), "cyclic order True is a bool"),
        (lambda: FgAbGroup(1.5, ()), "free rank 1.5 is a float"),
    ], ids=["float-orders", "bools", "float-rank"])
    def test_a_value_that_is_not_an_int_is_refused(self, make, shown):
        with pytest.raises(TypeError, match=f"^{re.escape(shown)}, not an int$"):
            make()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.lists(st.integers(1, 200), max_size=12))
    def test_of_returns_what_the_validating_constructor_accepts(self, rank, orders):
        g = FgAbGroup.of(rank, orders)
        assert type(g) is FgAbGroup and FgAbGroup(*g) == g

    @pytest.mark.parametrize("rank, error, shown", [
        (-1, ValueError, "free rank must be nonnegative"),
        (True, TypeError, "free rank True is a bool, not an int"),
        (1.0, TypeError, "free rank 1.0 is a float, not an int"),
    ], ids=["negative", "bool", "float"])
    def test_of_refuses_a_bad_free_rank(self, rank, error, shown):
        for orders in ([], [2, 3], [4, 2]):
            with pytest.raises(error, match=f"^{re.escape(shown)}$"):
                FgAbGroup.of(rank, orders)

    def test_trivial_is_one_shared_instance(self):
        assert FgAbGroup.trivial() is FgAbGroup.trivial() is TRIVIAL
        assert TRIVIAL == FgAbGroup() == FgAbGroup.of(0, [1]) == FgAbGroup.cyclic(1)
        assert hash(TRIVIAL) == hash(FgAbGroup()) == hash((0, ()))
        assert TRIVIAL.is_trivial() and str(TRIVIAL) == "0"

    def test_hash_is_the_hash_of_the_fields(self):
        # kept from construction; equality and repr still read the fields alone
        for g in (TRIVIAL, Z, FgAbGroup.of(2, [2, 6]), FgAbGroup.cyclic(2**70)):
            twin = FgAbGroup(g.free_rank, tuple(g.invariant_factors))
            assert hash(g) == hash(twin) == hash((g.free_rank, g.invariant_factors))
            assert g == twin and repr(g) == repr(twin)
        assert repr(FgAbGroup.of(1, [2])) == "FgAbGroup(free_rank=1, invariant_factors=(2,))"
        assert len({FgAbGroup.of(0, [2, 3]), FgAbGroup.cyclic(6), FgAbGroup(0, (6,))}) == 1

    def test_of_canonicalizes(self):
        assert FgAbGroup.of(0, [2, 3]) == FgAbGroup.cyclic(6)
        assert FgAbGroup.of(0, [4, 2, 3]) == FgAbGroup(0, (2, 12))
        assert FgAbGroup.of(1, [1, 1]) == Z

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.lists(st.integers(1, 200), max_size=12))
    def test_of_matches_prime_power_oracle(self, rank, orders):
        assert FgAbGroup.of(rank, orders) == prime_power_group(rank, orders)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3), st.lists(st.sampled_from([1, 2, 4, 8, 16]), max_size=12))
    def test_of_on_orders_that_sort_into_a_chain(self, rank, orders):
        # sorted, these already form a divisor chain, so no gcd pass runs
        assert FgAbGroup.of(rank, orders) == prime_power_group(rank, orders)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 3), st.lists(st.builds(math.prod, st.lists(
        st.sampled_from([1, 2, 2, 3, 3, 5, 7, 2**40]), max_size=4)), max_size=40))
    def test_of_matches_pairwise_pass(self, rank, orders):
        # few distinct prime factors, so equal orders and long runs are common
        assert FgAbGroup.of(rank, orders) == pairwise_group(rank, orders)

    def test_of_on_many_orders_off_a_chain(self):
        assert FgAbGroup.of(1, [2, 3] * 2000) == FgAbGroup(1, (6,) * 2000)
        orders = [2, 4, 3, 9, 5] * 300
        assert FgAbGroup.of(0, orders) == FgAbGroup(0, (6,) * 300 + (180,) * 300)

    def test_cyclic_zero_is_free_and_a_negative_order_is_refused(self):
        assert FgAbGroup.cyclic(0) == FgAbGroup.free(1)
        with pytest.raises(ValueError, match="cyclic order must be nonnegative"):
            FgAbGroup.cyclic(-1)

    def test_a_free_group_has_infinite_order(self):
        assert FgAbGroup.free(1).order() == FgAbGroup.of(2, [2, 6]).order() == math.inf
        assert FgAbGroup.of(0, [2, 6]).order() == 12 and TRIVIAL.order() == 1

    def test_of_rejects_nonpositive_orders(self):
        for bad in (0, -4):
            with pytest.raises(ValueError):
                FgAbGroup.of(0, [2, bad])

    def test_rendering(self):
        assert str(TRIVIAL) == "0"
        assert str(Z) == "Z"
        assert str(FgAbGroup.of(2, [2, 6])) == "Z^2 + Z/2 + Z/6"
        assert str(FgAbGroup.cyclic(4)) == "Z/4"

    def test_parse_round_trip(self):
        rng = random.Random(3)
        for _ in range(60):
            g = FgAbGroup.of(rng.randint(0, 3),
                             [rng.randint(2, 30) for _ in range(rng.randint(0, 4))])
            assert parse_group(str(g)) == g

    def test_parse_whitespace_and_order(self):
        assert parse_group("Z/2+ Z") == FgAbGroup.of(1, [2])
        assert parse_group(" Z^2+Z/2 + Z/6 ") == FgAbGroup.of(2, [2, 6])
        assert parse_group("Z/6 + Z/2 + Z") == FgAbGroup.of(1, [2, 6])

    @pytest.mark.parametrize("bad", ["", "Q", "Z/1", "Z/0", "Z^0", "Z^-2", "Z/2 Z", "Z//2", "+"])
    def test_parse_rejects(self, bad):
        with pytest.raises(GroupParseError):
            parse_group(bad)


class TestHomExt:
    def test_hom_represented(self):
        for h in [TRIVIAL, Z, FgAbGroup.of(1, [2, 4]), FgAbGroup.cyclic(9)]:
            assert hom(Z, h) == h

    def test_hom_z4_z6(self):
        # oracle: the 1 |-> x with 4x = 0 in Z/6 are x in {0, 3}
        assert brute_hom_order(FgAbGroup.cyclic(4), FgAbGroup.cyclic(6)) == 2
        assert hom(FgAbGroup.cyclic(4), FgAbGroup.cyclic(6)) == FgAbGroup.cyclic(2)

    def test_hom_torsion_into_free(self):
        assert hom(FgAbGroup.cyclic(2), Z) == TRIVIAL

    def test_ext_free_vanishes(self):
        for h in [TRIVIAL, Z, FgAbGroup.of(2, [3, 6])]:
            assert ext(Z, h) == TRIVIAL

    def test_ext_z4_z6(self):
        # oracle: 4*(Z/6) = {0, 2, 4} has index 2
        assert brute_ext_order(FgAbGroup.cyclic(4), FgAbGroup.cyclic(6)) == 2
        assert ext(FgAbGroup.cyclic(4), FgAbGroup.cyclic(6)) == FgAbGroup.cyclic(2)

    def test_ext_z2_z(self):
        assert ext(FgAbGroup.cyclic(2), Z) == FgAbGroup.cyclic(2)

    def test_orders_match_brute_force(self):
        rng = random.Random(19)
        for _ in range(40):
            g = FgAbGroup.of(0, [rng.randint(2, 8) for _ in range(rng.randint(1, 3))])
            h = FgAbGroup.of(0, [rng.randint(2, 8) for _ in range(rng.randint(1, 3))])
            assert hom(g, h).order() == brute_hom_order(g, h)
            assert ext(g, h).order() == brute_ext_order(g, h)

    @pytest.mark.parametrize("f, g, h, count", [
        (hom, FgAbGroup.free(10**20), Z2, 10**20),
        (hom, FgAbGroup.free(MAX_SUMMANDS), FgAbGroup.of(0, [2, 2]), 2 * MAX_SUMMANDS),
        (hom, FgAbGroup.of(0, [3] * 400), FgAbGroup.of(0, [2] * 400), 160_000),
        (ext, FgAbGroup.of(0, [2, 2]), FgAbGroup.free(MAX_SUMMANDS), 2 * MAX_SUMMANDS),
        (ext, Z2, FgAbGroup.free(10**20), 10**20),
    ], ids=["hom-huge-rank", "hom-rank", "hom-torsion", "ext-rank", "ext-huge-rank"])
    def test_summands_past_the_limit_are_refused_before_listing(self, f, g, h, count):
        with pytest.raises(ValueError, match=f"^{count} summands are past the limit of "
                                             f"{MAX_SUMMANDS}$"):
            f(g, h)

    def test_summands_at_the_limit_answer(self):
        g, two = FgAbGroup.free(MAX_SUMMANDS // 2), FgAbGroup.of(0, [2, 2])
        assert hom(g, two) == ext(two, g) == FgAbGroup.of(0, [2] * MAX_SUMMANDS)

    def test_hom_ext_additive(self):
        rng = random.Random(23)
        for _ in range(30):
            gs = [FgAbGroup.of(rng.randint(0, 1),
                               [rng.randint(2, 9) for _ in range(rng.randint(0, 2))])
                  for _ in range(3)]
            g1, g2, h = gs
            for f in (hom, ext):
                assert f(direct_sum([g1, g2]), h) == direct_sum([f(g1, h), f(g2, h)])
                assert f(h, direct_sum([g1, g2])) == direct_sum([f(h, g1), f(h, g2)])

    def test_finite_hom_ext_same_order(self):
        rng = random.Random(29)
        for _ in range(30):
            g = FgAbGroup.of(0, [rng.randint(2, 10) for _ in range(rng.randint(0, 3))])
            h = FgAbGroup.of(0, [rng.randint(2, 10) for _ in range(rng.randint(0, 3))])
            assert hom(g, h).order() == ext(g, h).order()

    def test_exponent_divides_first_argument(self):
        rng = random.Random(31)
        for _ in range(30):
            g = FgAbGroup.of(0, [rng.randint(2, 12) for _ in range(rng.randint(1, 3))])
            h = FgAbGroup.of(rng.randint(0, 2),
                             [rng.randint(2, 12) for _ in range(rng.randint(0, 3))])
            assert divides(exponent(hom(g, h)), exponent(g))
            assert divides(exponent(ext(g, h)), exponent(g))


class TestDirectSum:
    def test_examples(self):
        assert direct_sum([FgAbGroup.cyclic(2), FgAbGroup.cyclic(3)]) == FgAbGroup.cyclic(6)
        assert direct_sum([]) == TRIVIAL
        assert direct_sum([Z, FgAbGroup.cyclic(2), FgAbGroup.cyclic(2)]) == FgAbGroup(1, (2, 2))

    def test_associative_commutative(self):
        a = FgAbGroup.of(1, [4])
        b = FgAbGroup.of(0, [6, 6])
        c = FgAbGroup.cyclic(5)
        assert direct_sum([a, direct_sum([b, c])]) == direct_sum([direct_sum([a, b]), c])
        assert direct_sum([a, b]) == direct_sum([b, a])


class TestExponentAndTorsion:
    def test_exponent(self):
        assert exponent(FgAbGroup.of(0, [2, 4])) == 4
        assert exponent(Z) == math.inf
        assert exponent(TRIVIAL) == 1

    def test_torsion_primes(self):
        assert torsion_primes(FgAbGroup.cyclic(12)) == PrimeSet.of(2, 3)
        assert torsion_primes(Z) == PrimeSet.of()
        assert torsion_primes(FgAbGroup.of(0, [2, 2])) == PrimeSet.of(2)

    def test_prime_set_validates(self):
        with pytest.raises(ValueError):
            PrimeSet.of(4)
        with pytest.raises(ValueError):
            PrimeSet.of(1)

    def test_is_prime_matches_trial_division(self):
        for n in range(-3, 5000):
            assert _is_prime(n) == (n >= 2 and prime_factors(n) == {n}), n

    def test_is_prime_on_strong_pseudoprimes(self):
        # strong pseudoprimes to the bases 2..7 and 2..23 respectively
        assert not _is_prime(3215031751)
        assert not _is_prime(3825123056546413051)
        assert _is_prime(1000000000000000003)
        assert _is_prime(PRIME_LIMIT - 59)  # the largest prime below 2^64
        assert not _is_prime(PRIME_LIMIT - 1)

    def test_prime_set_limit(self):
        assert PrimeSet.of(PRIME_LIMIT - 59).primes == {PRIME_LIMIT - 59}
        for p in (PRIME_LIMIT, 2**89 - 1):
            with pytest.raises(ValueError, match=r"2\^64"):
                PrimeSet.of(p)

    def test_in_class(self):
        assert in_class(FgAbGroup.cyclic(4), PrimeSet.of(2))
        assert not in_class(Z, PrimeSet.of(2, 3))
        assert in_class(TRIVIAL, PrimeSet.of())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2), st.lists(st.integers(2, 400), max_size=4),
           st.sets(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=3))
    def test_in_class_matches_factoring_oracle(self, rank, orders, primes):
        g, p = FgAbGroup.of(rank, orders), PrimeSet(frozenset(primes))
        assert in_class(g, p) == (rank == 0 and p.primes >= torsion_primes(g).primes)

    def test_in_class_on_a_huge_factor(self):
        g = FgAbGroup.cyclic(2 * 1000000000000000003)
        assert not in_class(g, PrimeSet.of(2))
        assert in_class(g, PrimeSet.of(2, 1000000000000000003))
        assert in_class(FgAbGroup.cyclic(2**4000), PrimeSet.of(2))

    def test_in_class_closure(self):
        rng = random.Random(37)
        p = PrimeSet.of(2, 3)
        for _ in range(30):
            g = FgAbGroup.of(0, [rng.choice([2, 3, 4, 6, 8, 9, 12])
                                 for _ in range(rng.randint(1, 3))])
            h = FgAbGroup.of(rng.randint(0, 2),
                             [rng.randint(2, 20) for _ in range(rng.randint(0, 3))])
            assert in_class(g, p)
            assert in_class(hom(g, h), p)
            assert in_class(ext(g, h), p)
            assert in_class(direct_sum([g, g]), p)
