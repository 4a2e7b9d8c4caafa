import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahom.abelian import (
    PRIME_LIMIT,
    FgAbGroup,
    GroupParseError,
    IntMatrix,
    PrimeSet,
    cokernel,
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
)
from ahom.corpus import random_matrix
from helpers import (
    brute_ext_order,
    brute_hom_order,
    divides,
    echelon,
    invert_unimodular,
    pairwise_group,
    prime_factors,
    prime_power_group,
    reference_column_echelon,
    reference_snf,
    torsion_primes,
)

Z = FgAbGroup.free(1)
TRIVIAL = FgAbGroup.trivial()


def assert_valid_snf(dec):
    assert dec.U @ dec.source @ dec.V == dec.S
    assert abs(dec.U.det()) == 1
    assert abs(dec.V.det()) == 1
    for i in range(dec.S.rows):
        for j in range(dec.S.cols):
            if i != j:
                assert dec.S.entries[i][j] == 0
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
        assert IntMatrix.identity(n) == IntMatrix(
            n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


class TestSnf:
    def test_identity(self):
        dec = snf(IntMatrix.identity(2))
        assert dec.S == IntMatrix.identity(2)
        assert_valid_snf(dec)

    def test_diag_2_3(self):
        dec = snf(IntMatrix.diagonal([2, 3]))
        assert dec.S == IntMatrix.diagonal([1, 6])
        assert_valid_snf(dec)

    def test_zero_matrix(self):
        dec = snf(IntMatrix.zeros(3, 2))
        assert dec.S == IntMatrix.zeros(3, 2)
        assert_valid_snf(dec)

    def test_empty_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0)]:
            assert_valid_snf(snf(IntMatrix.zeros(r, c)))

    def test_deterministic(self):
        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert snf(m) == snf(m)

    @settings(max_examples=150, deadline=None)
    @given(matrices)
    def test_certificate_invariants(self, m):
        assert_valid_snf(snf(m))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 36), min_size=2, max_size=12), st.integers(0, 2))
    def test_certificate_on_broken_divisor_chains(self, diag, extra):
        dec = snf(IntMatrix.diagonal(diag, len(diag) + extra, len(diag)))
        assert_valid_snf(dec)
        nonzero = [d for d in diag if d]
        factors = prime_power_group(0, nonzero).invariant_factors
        assert dec.diagonal[:dec.rank] == (1,) * (len(nonzero) - len(factors)) + factors

    def test_long_broken_divisor_chain(self):
        # a repair of one pair per Hermite round needs rounds quadratic in the
        # length; 120 entries lie past where a 1000-round cap would stop it
        dec = snf(IntMatrix.diagonal([4, 2] * 60))
        assert_valid_snf(dec)
        assert dec.diagonal == (2,) * 60 + (4,) * 60


class TestColumnEchelon:
    @settings(max_examples=150, deadline=None)
    @given(matrices)
    def test_echelon_invariants(self, m):
        h, w = echelon(m)
        assert m @ w == h
        assert abs(w.det()) == 1
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
    """The in-place Hermite pass on column lists, and the Smith form that
    keeps its lists through every round, do the reference passes' operations
    in the same order, so every output is identical, not merely equivalent."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 9))
    def test_same_hermite_form_and_transform(self, seed, max_dim):
        rng = random.Random(seed)
        m = random_matrix(rng, max_dim=max_dim, bound=rng.choice([1, 10, 2**40]))
        t = random_transform(rng, m.cols)
        assert echelon(m, t) == reference_column_echelon(m, t)

    @pytest.mark.parametrize("shape", EMPTY_SHAPES)
    def test_same_on_empty_shapes(self, shape):
        m = IntMatrix.zeros(*shape)
        for t in (None, IntMatrix.zeros(0, m.cols), IntMatrix.zeros(2, m.cols),
                  IntMatrix.identity(m.cols)):
            assert echelon(m, t) == reference_column_echelon(m, t)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 9))
    def test_same_smith_certificate(self, seed, max_dim):
        rng = random.Random(seed)
        m = random_matrix(rng, max_dim=max_dim, bound=rng.choice([1, 10, 2**40]))
        assert snf(m) == reference_snf(m)
        assert snf(m, certificate=False) == reference_snf(m, certificate=False)

    @pytest.mark.parametrize("shape", EMPTY_SHAPES)
    def test_same_smith_certificate_on_empty_shapes(self, shape):
        m = IntMatrix.zeros(*shape)
        for certificate in (True, False):
            assert snf(m, certificate) == reference_snf(m, certificate)


def signed(bits: int):
    return st.integers(-(2**bits), 2**bits)


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
        assert composite_is_zero(a, b) == (a @ b).is_zero()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda k: st.tuples(
        st.lists(st.lists(signed(100), min_size=k, max_size=k), max_size=4),
        st.lists(st.lists(signed(100), min_size=3, max_size=3), min_size=k, max_size=k))))
    def test_agrees_on_arbitrary_signed_entries(self, rows):
        a_rows, b_rows = rows
        a = IntMatrix.from_rows(a_rows, cols=len(b_rows))
        b = IntMatrix.from_rows(b_rows, cols=3)
        assert composite_is_zero(a, b) == (a @ b).is_zero()

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((0, 0), (0, 0)), ((0, 3), (3, 2)), ((2, 0), (0, 3)), ((2, 3), (3, 0)), ((3, 2), (2, 0)),
    ])
    def test_empty_shapes(self, a_shape, b_shape):
        a = IntMatrix.from_rows([[7] * a_shape[1]] * a_shape[0], cols=a_shape[1])
        b = IntMatrix.from_rows([[5] * b_shape[1]] * b_shape[0], cols=b_shape[1])
        assert composite_is_zero(a, b) == (a @ b).is_zero()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            composite_is_zero(IntMatrix.zeros(2, 3), IntMatrix.zeros(2, 3))

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
            assert composite_is_zero(a_zero, b_zero) == (a_zero @ b_zero).is_zero()

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
        # digit once shifted by half the digit range, at every array item
        # size and across limbs
        b = IntMatrix.from_rows([[sign * 2**bits, 0, sign]])
        assert not composite_is_zero(IntMatrix.from_rows([[1]]), b)


class TestLatticeUtilities:
    @settings(max_examples=100, deadline=None)
    @given(matrices)
    def test_kernel_basis_spans_kernel(self, m):
        k = kernel_basis(m)
        assert (m @ k).is_zero()
        # column count matches the rank defect
        assert k.cols == m.cols - snf(m).rank

    @settings(max_examples=100, deadline=None)
    @given(matrices)
    def test_kernel_basis_matches_smith_kernel(self, m):
        # the Smith construction: Hermite form of the V columns beyond the rank
        dec = snf(m)
        smith_kernel, _ = echelon(dec.V.columns(range(dec.rank, m.cols)))
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
        assert m @ invert_unimodular(m) == IntMatrix.identity(2)
        with pytest.raises(ValueError):
            invert_unimodular(IntMatrix.diagonal([2, 2]))


class TestCokernel:
    def test_single_relation(self):
        assert cokernel(IntMatrix.from_rows([[2]])) == FgAbGroup.cyclic(2)

    def test_diag_2_3(self):
        assert cokernel(IntMatrix.diagonal([2, 3])) == FgAbGroup.cyclic(6)

    def test_no_relations(self):
        assert cokernel(IntMatrix.zeros(2, 0)) == FgAbGroup.free(2)

    def test_order_equals_det(self):
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 5)
            m = IntMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            d = m.det()
            if d == 0:
                continue
            assert cokernel(m).order() == abs(d)
            checked += 1


    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 8))
    def test_equals_certified_diagonal(self, seed, max_dim):
        # small max_dim makes 0-row and 0-column shapes common
        m = random_matrix(random.Random(seed), max_dim=max_dim)
        dec = snf(m)
        assert_valid_snf(dec)
        assert cokernel(m) == FgAbGroup.of(m.rows - dec.rank, dec.diagonal[:dec.rank])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 8))
    def test_uncertified_snf_has_the_certified_form(self, seed, max_dim):
        m = random_matrix(random.Random(seed), max_dim=max_dim)
        bare = snf(m, certificate=False)
        assert bare.S == snf(m).S and bare.source is m
        assert (bare.U.rows, bare.U.cols, bare.V.rows, bare.V.cols) == (m.rows, 0, 0, m.cols)

    def test_empty_shapes(self):
        for r, c in [(0, 0), (0, 4), (4, 0)]:
            assert cokernel(IntMatrix.zeros(r, c)) == FgAbGroup.free(r)


class TestFgAbGroup:
    def test_canonical_validation(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 2))  # broken divisor chain
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FgAbGroup(-1, ())

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
