import json
import math
import random
import re
import sys
import threading
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahom import abelian, chains
from ahom.abelian import (FgAbGroup, IntMatrix, cokernel, composite_is_zero, direct_sum, ext,
                          hom, kernel_basis, snf, solve)
from ahom.chains import (
    ChainComplex,
    DSquaredError,
    InvalidComplexError,
    ShapeMismatchError,
    cohomology_direct,
    cohomology_uct,
    complex_from_json,
    homology,
    load_complex,
    suspension,
    wedge,
)
from ahom.corpus import connected_complex, random_complex, random_group
from ahom.spaces import moore, projective, sphere
from helpers import (boundary, brute_cohomology_orders, complex_to_json, hadamard_square, is_zero,
                     kunneth, local_smith_exponents, order_counts, rank_mod_p,
                     reference_cohomology_direct, reference_random_complex, scrambled_complex,
                     smash, unmemoized_uct, unreduced_graded_homology, valuation)

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.cyclic(2)
TRIVIAL = FgAbGroup.trivial()


class TestValidation:
    def test_d_squared_violation(self):
        with pytest.raises(DSquaredError, match="degree 2"):
            ChainComplex("bad", {0: 1, 1: 1, 2: 1},
                         {1: IntMatrix.from_rows([[1]]),
                          2: IntMatrix.from_rows([[2]])})

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32))
    def test_d_squared_message_names_the_first_nonzero_entry(self, seed):
        rng = random.Random(seed)
        r0, r1, r2 = (rng.randint(1, 4) for _ in range(3))
        big1, big2 = (rng.choice([3, 3, 2**70]) for _ in range(2))  # some digits span two limbs
        d1 = IntMatrix.from_rows([[rng.randint(-big1, big1) for _ in range(r1)] for _ in range(r0)])
        d2 = IntMatrix.from_rows([[rng.choice([0, 0, rng.randint(-big2, big2)]) for _ in range(r2)]
                                  for _ in range(r1)])
        comp = d1 @ d2
        bad = [(i, j, x) for i, row in enumerate(comp.entries) for j, x in enumerate(row) if x]
        if is_zero(d1) or is_zero(d2) or not bad:
            ChainComplex("ok", {0: r0, 1: r1, 2: r2}, {1: d1, 2: d2})
            return
        i, j, x = bad[0]
        with pytest.raises(DSquaredError) as err:
            ChainComplex("bad", {0: r0, 1: r1, 2: r2}, {1: d1, 2: d2})
        assert str(err.value) == (f"boundary composite at degree 2 is nonzero: "
                                  f"entry ({i},{j}) = {x}")

    def test_shape_mismatch_names_degree(self):
        with pytest.raises(ShapeMismatchError, match="degree 2"):
            ChainComplex("bad", {1: 1, 2: 1},
                         {2: IntMatrix.from_rows([[1], [1]])})

    def test_negative_degree_rejected(self):
        with pytest.raises(InvalidComplexError):
            ChainComplex("bad", {-1: 1}, {})

    @pytest.mark.parametrize("ranks, shown", [
        ({2.9: 1, 3: 1}, "degree 2.9 is a float"),
        ({2: 1, 3: 1.7}, "cell count 1.7 is a float"),
        ({True: 1}, "degree True is a bool"),
    ], ids=["float-degree", "float-count", "bool-degree"])
    def test_a_value_that_is_not_an_int_is_refused(self, ranks, shown):
        with pytest.raises(TypeError, match=f"^{re.escape(shown)}, not an int$"):
            ChainComplex("x", ranks, {})

    def test_a_boundary_degree_that_is_not_an_int_is_refused(self):
        with pytest.raises(TypeError, match=r"^boundary degree 2\.0 is a float, not an int$"):
            ChainComplex("x", {1: 1, 2: 1}, {2.0: IntMatrix.from_rows([[2]])})

    def test_zero_ranks_normalized_away(self):
        c = ChainComplex("c", {0: 0, 3: 1, 5: 0}, {})
        assert c.ranks == {3: 1}
        assert c.top_degree == 3


class TestHomology:
    def test_sphere(self):
        s4 = sphere(4)
        for n in range(-1, 7):
            expected = Z if n == 4 else TRIVIAL
            assert homology(s4, n) == expected

    def test_projective_plane(self):
        p2 = projective(2)
        assert homology(p2, 1) == Z2
        assert homology(p2, 2) == TRIVIAL

    def test_projective_three(self):
        p3 = projective(3)
        assert homology(p3, 1) == Z2
        assert homology(p3, 2) == TRIVIAL
        assert homology(p3, 3) == Z

    def test_moore_space(self):
        g = FgAbGroup.cyclic(6)
        m = moore(g, 3)
        assert homology(m, 3) == g

    def test_moore_defining_property(self):
        rng = random.Random(5)
        for _ in range(15):
            g = random_group(rng, max_rank=2, max_factors=3, max_order=20)
            m = rng.randint(1, 4)
            c = moore(g, m)
            for n in range(0, c.top_degree + 2):
                assert homology(c, n) == (g if n == m else TRIVIAL)

    def test_outside_range_trivial(self):
        c = projective(3)
        assert homology(c, -2) == TRIVIAL
        assert homology(c, 9) == TRIVIAL

    def test_klein_bottle_from_raw_data(self):
        # one basepoint 0-cell, two 1-cells, one 2-cell attached along abab^-1
        klein = ChainComplex("klein", {1: 2, 2: 1},
                             {2: IntMatrix.from_rows([[2], [0]])})
        assert homology(klein, 1) == FgAbGroup.of(1, [2])
        assert homology(klein, 2) == TRIVIAL
        assert cohomology_uct(klein, 2, Z) == Z2
        assert cohomology_direct(klein, 1, Z2) == FgAbGroup.of(0, [2, 2])

    def test_euler_characteristic(self):
        rng = random.Random(13)
        for _ in range(25):
            c = random_complex(rng)
            cells = sum((-1) ** n * r for n, r in c.ranks.items())
            betti = sum((-1) ** n * homology(c, n).free_rank
                        for n in range(c.top_degree + 1))
            assert cells == betti


def fresh_homology(c: ChainComplex, n: int) -> FgAbGroup:
    """ker(d_n) / im(d_(n+1)) reduced from scratch for this one degree.

    The quotient is read off the Smith diagonal of the relations solved in a
    kernel basis, so this oracle is independent of the rank arithmetic that
    homology uses; it shares the Smith loop with that route, which
    test_abelian checks against the certified reference on its own.
    """
    if n < 0 or c.rank(n) == 0:
        return TRIVIAL
    kernel = kernel_basis(boundary(c, n))
    dec = snf(solve(kernel, boundary(c, n + 1)))
    return FgAbGroup.of(kernel.cols - dec.rank, dec.diagonal[:dec.rank])


class TestGradedHomologyCache:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_equals_fresh_per_degree_reduction(self, seed):
        c = random_complex(random.Random(seed))
        fresh = {n: fresh_homology(c, n) for n in range(c.top_degree + 1)}
        assert c.graded_homology == {n: g for n, g in fresh.items() if g != TRIVIAL}
        for n in range(-1, c.top_degree + 3):
            assert homology(c, n) == fresh_homology(c, n)

    def test_read_complex_equals_fresh_copy(self):
        rng = random.Random(31)
        for i in range(10):
            c = random_complex(rng, name=f"cc{i}")
            for n in range(c.top_degree + 1):
                homology(c, n)
            copy = complex_from_json(complex_to_json(c))
            assert "graded_homology" not in vars(copy)
            assert copy == c and c == copy
            assert copy.graded_homology == c.graded_homology

    def test_second_call_does_no_reduction(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append(m)
            return snf(m)

        monkeypatch.setattr(abelian, "snf", counting)
        monkeypatch.setattr(abelian, "cokernel", None)  # homology never calls it
        monkeypatch.setattr(chains, "cokernel", None)
        c, planted = residual_complex()
        assert homology(c, 1) == planted[1]
        first = len(calls)
        assert first > 0
        # the first read reduces each nonzero boundary left by the divisor
        # pivots exactly once, by value
        residual = split_complex(c)[1]
        assert (sorted((m.rows, m.cols, m.entries) for m in calls)
                == sorted((len(rows), len(rows[0]), tuple(map(tuple, rows)))
                          for rows in residual.values() if any(map(any, rows))))
        assert homology(c, 1) == planted[1]
        assert homology(c, 2) == planted[2]
        assert cohomology_uct(c, 2, Z) == FgAbGroup(1, planted[1].invariant_factors)
        assert len(calls) == first

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32),
           st.lists(st.tuples(st.integers(-1, 6), st.integers(0, 2)), min_size=1, max_size=30))
    def test_kept_cohomology_is_invisible(self, seed, asks):
        # repeated, interleaved asks over a pool of three coefficient groups
        rng = random.Random(seed)
        c = random_complex(rng)
        pool = [random_group(rng) for _ in range(3)]
        form = complex_to_json(c)
        for n, i in asks:
            g = pool[i]
            assert cohomology_uct(c, n, g) == unmemoized_uct(c, n, g) == cohomology_direct(c, n, g)
        assert len(vars(c)["_cohomology"]) == len({(n, pool[i]) for n, i in asks})
        fresh = complex_from_json(form)
        assert c == fresh and fresh == c and repr(c) == repr(fresh)
        assert complex_to_json(c) == form

    def test_kept_cohomology_shared_across_threads(self):
        # more threads than cores ask one cold complex, switching often:
        # every answer is the unmemoized one and no pair is kept twice
        rng = random.Random(7)
        c = random_complex(rng)
        pool = [random_group(rng) for _ in range(3)]
        asks = [(n, g) for n in range(-1, c.top_degree + 2) for g in pool] * 3
        fresh = complex_from_json(complex_to_json(c))
        want = {(n, g): unmemoized_uct(fresh, n, g) for n, g in asks}
        results = {}

        def ask(i):
            results[i] = [(key, cohomology_uct(c, *key))
                          for key in random.Random(i).sample(asks, len(asks))]

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == list(range(8))
        assert all(h == want[key] for answers in results.values() for key, h in answers)
        assert len(vars(c)["_cohomology"]) <= len(want)
        assert c == fresh

    def test_free_cells_in_one_degree(self, tmp_path):
        path = tmp_path / "free.json"
        path.write_text(json.dumps({"reduced": True, "ranks": {"2": 3000}, "boundaries": {}}))
        assert load_complex(str(path)).graded_homology == {2: FgAbGroup.free(3000)}


def planted_pieces(rng, top, count, kinds=("unit", "unit", "torsion", "free"), most=6):
    """`count` random (degree, kind, value) pieces for scrambled_complex,
    torsion orders up to `most`."""
    values = {"unit": lambda: rng.choice((1, -1)), "torsion": lambda: rng.randint(2, most),
              "free": lambda: 1}
    return [(rng.randint(0, top), kind, values[kind]())
            for kind in (rng.choice(kinds) for _ in range(count))]


MIXED_KINDS = ["random", "scrambled", "random wedge", "scrambled wedge"]


def mixed_cells_complex(rng, kind: str) -> tuple[ChainComplex, dict[int, FgAbGroup]]:
    """A complex from random_complex or scrambled_complex, wedged for the
    wedge kinds with spheres and free Moore spaces in its degrees, so that
    cells no coboundary touches share degrees with touched ones; and its
    homology, planted or, for a random piece, that piece's own."""
    if kind.startswith("random"):
        piece = random_complex(rng, max_top=5, max_rank=8)
        pieces = [(piece, piece.graded_homology)]
    else:
        pieces = [scrambled_complex(rng, planted_pieces(rng, rng.randint(0, 4),
                                                        rng.randint(1, 15)))]
    if kind.endswith("wedge"):
        for _ in range(rng.randint(1, 4)):
            m, rank = rng.randint(1, 4), rng.randint(1, 3)
            extra = sphere(m) if rank == 1 else moore(FgAbGroup.free(rank), m)
            pieces.append((extra, {m: FgAbGroup.free(rank)}))
    planted = {n: direct_sum([h.get(n, TRIVIAL) for _, h in pieces])
               for n in {n for _, h in pieces for n in h}}
    return wedge([c for c, _ in pieces]), planted


def split_complex(c: ChainComplex):
    """The cell counts, boundary rows and split orders abelian.split_pivots
    leaves of c, the counts derived as graded_homology derives them."""
    d = {n: [list(row) for row in m.entries] for n, m in c.boundaries.items()}
    split = abelian.split_pivots(d)
    ranks = {n: r - len(split.get(n, ())) - len(split.get(n + 1, ()))
             for n, r in c.ranks.items()}
    return ranks, d, split


def residual_complex():
    """A scrambled complex that the divisor pivots do not reduce away, and
    its planted homology: Z/2 + Z/2 + Z/3 + Z/3 + Z/9 in H_1, Z/4 + Z in H_2."""
    pieces = ([(1, "torsion", d) for d in (2, 3, 4, 6, 9)]
              + [(2, "torsion", 4), (2, "free", 1), (1, "unit", 1), (2, "unit", -1)])
    return scrambled_complex(random.Random(0), pieces)


MERSENNE_61 = 2**61 - 1
ORACLE_PRIMES = (2, 3, 5, 7, MERSENNE_61)


class TestModPOracle:
    """dim H_n(C; F_p) is c_n - rank_p d_n - rank_p d_(n+1) by linear algebra
    over F_p, and r_n + t_n(p) + t_(n-1)(p) by universal coefficients, where
    r_n is the free rank of H_n and t_k(p) counts the invariant factors of
    H_k that p divides; the first side does no Smith or Hermite work."""

    @settings(max_examples=800, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_graded_homology_against_ranks_mod_p(self, seed, planted):
        rng = random.Random(seed)
        if planted:  # torsion orders that each oracle prime divides
            orders = (2, 3, 4, 5, 6, 7, 9, 10, 14, 25, 35, MERSENNE_61, 6 * MERSENNE_61)
            pieces = [(rng.randint(0, 4), kind, rng.choice(orders) if kind == "torsion"
                       else rng.choice((1, -1))) for kind in rng.choices(
                           ("unit", "torsion", "free"), k=rng.randint(1, 24))]
            c = scrambled_complex(rng, pieces)[0]
        else:
            c = random_complex(rng, max_rank=7)
        h = c.graded_homology
        for p in ORACLE_PRIMES:
            rank = {n: rank_mod_p(m.entries, p) for n, m in c.boundaries.items()}

            def t(k):
                return sum(1 for d in h.get(k, TRIVIAL).invariant_factors if d % p == 0)

            for n in range(c.top_degree + 1):
                assert (c.rank(n) - rank.get(n, 0) - rank.get(n + 1, 0)
                        == h.get(n, TRIVIAL).free_rank + t(n) + t(n - 1)), (p, n)


LOCAL_PRIMES = (2, 3, 5, 7)
LOCAL_EXPONENT = 5


class TestLocalSmithOracle:
    """The torsion of H_n is that of the cokernel of d_(n+1), so the
    exponents 1 <= v < e of the local Smith form of d_(n+1) over Z/p^e are
    the p-parts below p^e of the invariant factors of H_n.  Unlike ranks mod
    p, they see which power of p a factor holds, and they take no Smith or
    Hermite work over Z."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_graded_homology_against_local_smith_forms(self, seed, planted):
        rng = random.Random(seed)
        if planted:  # powers of each prime up to and past p^e, and some products
            orders = (2, 4, 8, 16, 32, 3, 9, 27, 81, 5, 25, 7, 49, 12, 72, 100)
            pieces = [(rng.randint(0, 4), kind, rng.choice(orders) if kind == "torsion"
                       else rng.choice((1, -1))) for kind in rng.choices(
                           ("unit", "torsion", "free"), k=rng.randint(1, 24))]
            c = scrambled_complex(rng, pieces)[0]
        else:
            c = random_complex(rng, max_rank=7)
        h = c.graded_homology
        for p in LOCAL_PRIMES:
            for n in range(c.top_degree + 1):
                want = sorted(v for d in h.get(n, TRIVIAL).invariant_factors
                              if 1 <= (v := valuation(d, p)) < LOCAL_EXPONENT)
                local = local_smith_exponents(boundary(c, n + 1).entries, p, LOCAL_EXPONENT)
                assert local == want, (p, n)


class TestUnitReduction:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32))
    def test_equals_unreduced_on_random_complexes(self, seed):
        c = random_complex(random.Random(seed))
        assert c.graded_homology == unreduced_graded_homology(c)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 14))
    def test_equals_planted_on_scrambled_complexes(self, seed, top, count):
        rng = random.Random(seed)
        c, planted = scrambled_complex(rng, planted_pieces(rng, top, count))
        assert c.graded_homology == planted == unreduced_graded_homology(c)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 14))
    def test_equals_planted_with_mixed_torsion(self, seed, top, count):
        # mostly Z/d pieces with d up to 12: pivots that divide their row
        # and column but are not units, and residuals where none does
        rng = random.Random(seed)
        pieces = planted_pieces(rng, top, count, ("torsion", "torsion", "unit", "free"), 12)
        c, planted = scrambled_complex(rng, pieces)
        assert c.graded_homology == planted == unreduced_graded_homology(c)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 14))
    def test_residual_entries_within_hadamard_bound(self, seed, top, count):
        rng = random.Random(seed)
        pieces = planted_pieces(rng, top, count, ("unit", "torsion", "torsion", "free"), 12)
        c, _ = scrambled_complex(rng, pieces, mixes=4)
        ranks, residual, split = split_complex(c)
        assert all(p >= 1 for orders in split.values() for p in orders)
        for n, rows in residual.items():
            if not any(map(any, rows)):
                continue
            assert (len(rows), len(rows[0])) == (ranks[n - 1], ranks[n])
            bound = hadamard_square(c.boundaries[n])
            assert all(x * x <= bound for row in rows for x in row)
            # the search stops only when no row holds a divisor pivot
            assert all(abelian._pivot(row, rows) is None for row in rows)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32), st.booleans(), st.integers(1, 4), st.integers(1, 14))
    def test_coupled_split_leaves_a_complex(self, seed, scrambled, top, count):
        # on mixed torsion or on a corpus complex, what the split leaves of
        # every boundary is again a complex of the derived shapes, with
        # entries within the input's Hadamard bound and no divisor pivot
        rng = random.Random(seed)
        if scrambled:
            pieces = planted_pieces(rng, top, count, ("torsion", "torsion", "unit", "free"), 12)
            c = scrambled_complex(rng, pieces)[0]
        else:
            c = random_complex(rng)
        ranks, residual, split = split_complex(c)
        assert sorted(split) == sorted(residual) == sorted(c.boundaries)
        assert min(ranks.values(), default=0) >= 0
        for n, rows in residual.items():
            assert len(rows) == ranks[n - 1] and all(len(row) == ranks[n] for row in rows)
            bound = hadamard_square(c.boundaries[n])
            assert all(x * x <= bound for row in rows for x in row)
            assert all(abelian._pivot(row, rows) is None for row in rows)
        matrices = {n: IntMatrix(ranks[n - 1], ranks[n], tuple(map(tuple, rows)))
                    for n, rows in residual.items()}
        for n, m in matrices.items():
            if n + 1 in matrices:
                assert composite_is_zero(m, matrices[n + 1])
        assert c.graded_homology == unreduced_graded_homology(c)

    def test_divisor_pivot(self):
        # 2 divides its row and column and leaves Z/2; in what is left no
        # entry divides its row, so Smith finds the Z/5
        c = ChainComplex("d", {1: 3, 2: 3},
                         {2: IntMatrix.from_rows([[2, 0, 0], [4, 2, 3], [0, 3, 2]])})
        assert split_complex(c) == ({1: 2, 2: 2}, {2: [[2, 3], [3, 2]]}, {2: [2]})
        assert c.graded_homology == {1: FgAbGroup.cyclic(10)} == unreduced_graded_homology(c)

    def test_contractible_complex(self, monkeypatch):
        pieces = [(n % 4, "unit", (-1) ** n) for n in range(20)]
        # scrambled, some pairs keep no unit entry, yet the homology vanishes
        c, planted = scrambled_complex(random.Random(5), pieces)
        assert planted == {} == c.graded_homology == unreduced_graded_homology(c)
        # unscrambled, every pair splits off and no Smith work is left
        c, _ = scrambled_complex(random.Random(5), pieces, mixes=0)
        ranks, residual, split = split_complex(c)
        assert not any(ranks.values()) and not any(residual.values())
        assert {p for orders in split.values() for p in orders} == {1}
        monkeypatch.setattr(abelian, "snf", None)
        assert c.graded_homology == {}

    def test_boundary_that_empties(self):
        # d_2 has rank 1 over two cells each side: one pair splits off and
        # leaves a 1x1 zero boundary, which is dropped; d_3 is then [[-3]],
        # a divisor pivot that leaves Z/3
        c = ChainComplex("e", {1: 2, 2: 2, 3: 1},
                         {2: IntMatrix.from_rows([[1, 1], [1, 1]]),
                          3: IntMatrix.from_rows([[3], [-3]])})
        assert split_complex(c) == ({1: 1, 2: 0, 3: 0}, {2: [[]], 3: []}, {2: [1], 3: [3]})
        assert c.graded_homology == {1: Z, 2: FgAbGroup.cyclic(3)} == unreduced_graded_homology(c)
        # a pair that takes every cell of degree 1 leaves d_2 with no rows
        c = ChainComplex("f", {1: 1, 2: 2, 3: 1},
                         {2: IntMatrix.from_rows([[1, -2]]),
                          3: IntMatrix.from_rows([[4], [2]])})
        assert split_complex(c) == ({1: 0, 2: 0, 3: 0}, {2: [], 3: []}, {2: [1], 3: [2]})
        assert c.graded_homology == {2: Z2} == unreduced_graded_homology(c)

    def test_homology_reaches_smith_through_column_echelon(self, monkeypatch):
        calls = Counter()

        def counting(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        for name in ("snf", "column_echelon"):
            monkeypatch.setattr(abelian, name, counting(name, getattr(abelian, name)))
        c, planted = residual_complex()
        assert homology(c, 1) == planted[1]
        assert calls["snf"] >= 1 and calls["column_echelon"] >= 2 * calls["snf"]

    def test_projective_smash_needs_no_smith(self, monkeypatch):
        # every boundary entry of rp:6^3 is 0 or +-2, and the divisor
        # pivots split all of it off
        rp6 = projective(6)
        pair = smash(rp6, rp6)
        triple = smash(pair, rp6)
        want = {n: kunneth(pair, rp6, n) for n in range(triple.top_degree + 2)}
        monkeypatch.setattr(abelian, "snf", None)
        assert {n: homology(triple, n) for n in want} == want


class TestCohomology:
    def test_uct_sphere(self):
        for m in (1, 2, 5):
            assert cohomology_uct(sphere(m), m, Z) == Z

    def test_uct_projective_plane(self):
        assert cohomology_uct(projective(2), 2, Z) == Z2
        assert cohomology_uct(projective(2), 1, Z2) == Z2

    def test_direct_sphere(self):
        assert cohomology_direct(sphere(3), 3, FgAbGroup.cyclic(5)) == FgAbGroup.cyclic(5)

    def test_direct_projective_plane(self):
        assert cohomology_direct(projective(2), 2, Z) == Z2

    def test_direct_wedge_mixed(self):
        x = wedge([moore(Z2, 1), sphere(1)])
        got = cohomology_direct(x, 1, FgAbGroup.cyclic(4))
        assert got == cohomology_uct(x, 1, FgAbGroup.cyclic(4))
        assert got == FgAbGroup.of(0, [2, 4])

    def test_uct_matches_direct_on_fixtures(self):
        fixtures = [sphere(1), sphere(3), projective(2), projective(4),
                    moore(FgAbGroup.of(1, [2, 4]), 2),
                    wedge([projective(2), sphere(2)]),
                    suspension(projective(3))]
        coeffs = [Z, Z2, FgAbGroup.cyclic(12), FgAbGroup.of(2, []),
                  FgAbGroup.of(1, [6])]
        for c in fixtures:
            for g in coeffs:
                for n in range(0, c.top_degree + 2):
                    assert cohomology_uct(c, n, g) == cohomology_direct(c, n, g), \
                        (c.name, n, str(g))

    def test_uct_matches_direct_randomized(self):
        rng = random.Random(17)
        for _ in range(30):
            c = random_complex(rng)
            g = random_group(rng)
            for n in range(0, c.top_degree + 2):
                assert cohomology_uct(c, n, g) == cohomology_direct(c, n, g)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32),
           orders=st.lists(st.integers(2, 16), min_size=1, max_size=2)
           .filter(lambda ds: math.prod(ds) <= 16))
    def test_direct_matches_cochain_enumeration(self, seed, orders):
        c = random_complex(random.Random(seed), max_top=3, max_rank=3)
        g = FgAbGroup.of(0, orders)
        for n in range(c.top_degree + 2):
            assert order_counts(cohomology_direct(c, n, g)) == brute_cohomology_orders(c, n, g), \
                (n, str(g), c.ranks, c.boundaries)

    def test_direct_needs_no_integral_homology(self, monkeypatch):
        g = FgAbGroup.of(1, [2, 6])
        expected = [cohomology_uct(moore(FgAbGroup.of(1, [2, 4]), 2), n, g) for n in range(5)]

        def refuse(*args):
            raise AssertionError("the cochain route reached the Hom/Ext route")

        for name in ("hom_orders", "ext_orders", "homology"):
            monkeypatch.setattr(chains, name, refuse)
        monkeypatch.setattr(ChainComplex, "graded_homology", property(refuse))
        c = moore(FgAbGroup.of(1, [2, 4]), 2)
        assert [cohomology_direct(c, n, g) for n in range(5)] == expected


    def test_direct_does_no_lattice_solving(self, monkeypatch):
        g = FgAbGroup.of(2, [2, 6])
        complexes = [projective(4), wedge([moore(Z2, 1), sphere(2)]),
                     random_complex(random.Random(29))]
        expected = [[cohomology_uct(c, n, g) for n in range(c.top_degree + 2)]
                    for c in complexes]

        def refuse(*args):
            raise AssertionError("the cochain route solved a lattice problem")

        calls = []

        def counting(m):
            calls.append(m)
            return cokernel(m)

        monkeypatch.setattr(chains, "kernel_basis", refuse)
        monkeypatch.setattr(chains, "cokernel", counting)
        for c, groups in zip(complexes, expected):
            for n, want in enumerate(groups):
                calls.clear()
                assert cohomology_direct(c, n, g) == want, (c.name, n)
                # one for all Z summands, one per invariant factor; the
                # coboundary out of C^n takes a Hermite pass, not a cokernel
                assert len(calls) <= 1 + len(g.invariant_factors)

    def test_direct_builds_no_block_for_an_absent_boundary(self, monkeypatch):
        c = ChainComplex("free", {1: 200, 2: 200, 3: 200}, {})
        shapes = []

        def counting(m):
            shapes.append((m.rows, m.cols))
            return cokernel(m)

        monkeypatch.setattr(chains, "cokernel", counting)
        assert cohomology_direct(c, 2, FgAbGroup.of(1, [2])) == FgAbGroup.of(200, [2] * 200)
        # no coboundary touches a cell of C^2: each adds Z + Z/2 and no matrix
        assert shapes == []

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(["default", "large", "scrambled", "absent"]),
           st.integers(0, 2), st.lists(st.integers(2, 36), max_size=3))
    def test_direct_matches_the_per_summand_reference(self, seed, kind, rank, orders):
        rng = random.Random(seed)
        if kind == "scrambled":
            c = scrambled_complex(rng, planted_pieces(rng, rng.randint(0, 5),
                                                      rng.randint(1, 20)))[0]
        else:
            c = random_complex(rng, **({"max_top": 6, "max_rank": 7} if kind == "large" else {}))
        if kind == "absent":  # dropping boundaries keeps d*d = 0
            c = ChainComplex("absent", c.ranks,
                             {n: m for n, m in c.boundaries.items() if rng.random() < 0.5})
        g = FgAbGroup.of(rank, orders)
        for n in range(-1, c.top_degree + 2):
            assert cohomology_direct(c, n, g) == reference_cohomology_direct(c, n, g), (n, str(g))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 5), st.integers(10, 40))
    def test_direct_matches_the_planted_hom_and_ext(self, seed, top, count):
        # the pieces reach top + 1; Hom and Ext of the planted groups touch no matrix
        rng = random.Random(seed)
        c, planted = scrambled_complex(rng, planted_pieces(rng, top, count))
        g = random_group(rng)
        for n in range(-1, c.top_degree + 2):
            want = direct_sum([hom(planted.get(n, TRIVIAL), g),
                               ext(planted.get(n - 1, TRIVIAL), g)])
            assert cohomology_direct(c, n, g) == want, (n, str(g))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(MIXED_KINDS),
           st.sampled_from([FgAbGroup.of(2, []), FgAbGroup.of(0, [2, 6]), FgAbGroup.of(1, [3])]))
    def test_direct_hands_cokernel_no_zero_column_and_no_zero_cone_row(self, seed, kind, g):
        c, _ = mixed_cells_complex(random.Random(seed), kind)
        seen = []

        def recording(m):
            seen.append(m)
            return cokernel(m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chains, "cokernel", recording)
            for n in range(-1, c.top_degree + 2):
                assert cohomology_direct(c, n, g) == reference_cohomology_direct(c, n, g), n
        for m in seen:
            cols = list(zip(*m.entries))
            assert m.rows and len(cols) == m.cols and all(map(any, cols)), "a zero column"
            if not g.free_rank:  # every matrix is a mapping cone
                assert all(map(any, m.entries)), "a zero cone row"

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(MIXED_KINDS))
    def test_direct_on_mixed_cells_matches_the_planted_hom_and_ext(self, seed, kind):
        rng = random.Random(seed)
        c, planted = mixed_cells_complex(rng, kind)
        g = random_group(rng)
        for n in range(-1, c.top_degree + 2):
            want = direct_sum([hom(planted.get(n, TRIVIAL), g),
                               ext(planted.get(n - 1, TRIVIAL), g)])
            assert cohomology_direct(c, n, g) == want == reference_cohomology_direct(c, n, g), \
                (n, str(g))

    @pytest.mark.parametrize("kind, least", [("random wedge", 8), ("scrambled wedge", 50)])
    def test_the_mixed_cells_draws_share_degrees(self, kind, least):
        # the two properties above see touched and untouched cells in one
        # degree of the cochains left after the split: 11 and 67 of these
        # 100 draws have such a degree; most random complexes split away
        shared = 0
        for seed in range(100):
            ranks, delta, _ = mixed_cells_complex(random.Random(seed), kind)[0]._cochains
            touched = {n: {*delta.get(1 - n, ((),) * 3)[1], *delta.get(-n, ((),) * 3)[2]}
                       for n in ranks}
            shared += any(0 < len(touched[n]) < r for n, r in ranks.items())
        assert shared >= least

    def test_direct_splits_the_cochains_once_per_complex(self, monkeypatch):
        calls = []

        def counting(d):
            calls.append(sorted(d))
            return abelian.split_pivots(d)

        monkeypatch.setattr(chains, "split_pivots", counting)
        rng = random.Random(31)
        groups = [Z, Z2, FgAbGroup.of(2, [2, 6, 12]), FgAbGroup.of(0, [3, 9])]
        for c in [projective(5), moore(FgAbGroup.of(1, [2, 4]), 2)] + [
                random_complex(rng, max_top=6, max_rank=7) for _ in range(5)]:
            calls.clear()
            for g in groups:
                for n in range(-1, c.top_degree + 2):
                    cohomology_direct(c, n, g)
            # one split of every coboundary, delta_k keyed at -k; a complex
            # without cells has no cochains to split
            assert calls == ([sorted(1 - n for n in c.boundaries)] if c.ranks else []), c.name


class TestRandomComplex:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 6), st.integers(0, 6), st.integers(1, 8))
    def test_same_draws_as_the_full_loop(self, seed, max_top, max_rank, entry_bound):
        # random_complex skips the kernel of the top boundary, which no draw
        # reads: the complexes and the generator state after them are the same
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            c = random_complex(rng, max_top=max_top, max_rank=max_rank, entry_bound=entry_bound)
            want = reference_random_complex(ref, max_top=max_top, max_rank=max_rank,
                                            entry_bound=entry_bound)
            assert c == want and c.name == want.name
            assert rng.getstate() == ref.getstate()


class TestConstructions:
    def test_suspension_of_sphere(self):
        s = suspension(sphere(3))
        assert s.ranks == sphere(4).ranks
        assert homology(s, 4) == Z

    def test_suspension_shifts_homology(self):
        rng = random.Random(19)
        for _ in range(12):
            c = random_complex(rng)
            s = suspension(c)
            for n in range(-1, c.top_degree + 2):
                assert homology(s, n + 1) == homology(c, n)

    def test_suspension_of_projective_plane_is_moore(self):
        s = suspension(projective(2))
        m = moore(Z2, 2)
        assert s.ranks == m.ranks
        assert s.boundaries == m.boundaries
        for n in range(5):
            assert homology(s, n) == homology(m, n)

    def test_wedge_spheres(self):
        w = wedge([sphere(2), sphere(3)])
        assert homology(w, 2) == Z
        assert homology(w, 3) == Z

    def test_wedge_empty(self):
        w = wedge([])
        assert w.ranks == {}
        assert homology(w, 0) == TRIVIAL

    def test_wedge_projective_planes(self):
        w = wedge([projective(2), projective(2)])
        assert homology(w, 1) == FgAbGroup.of(0, [2, 2])

    def test_wedge_homology_additive(self):
        rng = random.Random(23)
        for _ in range(10):
            cs = [random_complex(rng) for _ in range(rng.randint(0, 3))]
            w = wedge(cs)
            top = max([c.top_degree for c in cs], default=0)
            for n in range(top + 2):
                assert homology(w, n) == direct_sum([homology(c, n) for c in cs])

    def test_wedge_builds_no_zero_blocks(self):
        c = ChainComplex("free", {1: 300, 2: 300}, {})
        tracemalloc.start()
        try:
            w = wedge([c, c])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (w.ranks, w.boundaries) == ({1: 600, 2: 600}, {})
        assert peak < 100_000

    def test_graded_groups(self):
        assert projective(3).graded_homology == {1: Z2, 3: Z}


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        rng = random.Random(29)
        for i in range(10):
            c = random_complex(rng, name=f"rt{i}")
            path = tmp_path / f"c{i}.json"
            path.write_text(json.dumps(complex_to_json(c)))
            back = load_complex(str(path))
            assert back == c
            for n in range(c.top_degree + 2):
                assert homology(back, n) == homology(c, n)

    def test_rejects_non_reduced(self):
        with pytest.raises(InvalidComplexError, match="reduced"):
            complex_from_json({"name": "x", "ranks": {}, "boundaries": {}})

    def test_rejects_garbage(self):
        with pytest.raises(InvalidComplexError):
            complex_from_json([1, 2, 3])
        with pytest.raises(InvalidComplexError):
            complex_from_json({"reduced": True, "ranks": {"a": "b"}, "boundaries": {}})
        with pytest.raises(InvalidComplexError):
            complex_from_json({"reduced": True, "ranks": {"1": 1},
                               "boundaries": {"1": "nope"}})

    def test_rejects_invalid_complex(self):
        data = {"reduced": True, "name": "bad", "ranks": {"0": 1, "1": 1, "2": 1},
                "boundaries": {"1": [[1]], "2": [[2]]}}
        with pytest.raises(DSquaredError):
            complex_from_json(data)


class TestSmashProduct:
    """Chain-level smash products: a large structured workload whose homology
    the Kunneth formula predicts from the factors."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    def test_kunneth(self, seed_x, seed_y):
        x = connected_complex(random.Random(seed_x), max_top=3, max_rank=3)
        y = connected_complex(random.Random(seed_y), max_top=3, max_rank=3)
        xy = smash(x, y)
        assert sum(xy.ranks.values()) == sum(x.ranks.values()) * sum(y.ranks.values())
        for n in range(x.top_degree + y.top_degree + 2):
            assert homology(xy, n) == kunneth(x, y, n), n

    def test_smash_with_s_zero_is_the_identity(self):
        rp3 = projective(3)
        assert smash(sphere(0), rp3).graded_homology == rp3.graded_homology

    def test_triple_smash_of_rp20(self, monkeypatch):
        # 8,000 cells, at most 300 in one degree, 12,000 nonzero boundary
        # entries: validating and reducing it is a sparse large-complex case
        rp20 = projective(20)
        pair = smash(rp20, rp20)
        triple = smash(pair, rp20)
        assert sum(triple.ranks.values()) == 8000
        assert max(triple.ranks.values()) == 300
        want = {n: kunneth(pair, rp20, n) for n in range(triple.top_degree + 2)}
        # every entry is 0 or +-2: the divisor pivots leave no Smith work
        monkeypatch.setattr(abelian, "snf", None)
        for n in want:
            assert homology(triple, n) == want[n], n
        assert homology(triple, 3) == FgAbGroup.of(0, [2])
        assert homology(triple, 60) == TRIVIAL
