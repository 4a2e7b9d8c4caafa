import json
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahom import abelian, chains
from ahom.abelian import FgAbGroup, IntMatrix, cokernel, direct_sum, kernel_basis, snf, solve
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
from helpers import (brute_cohomology_orders, complex_to_json, hadamard_square, kunneth,
                     order_counts, scrambled_complex, smash, unreduced_graded_homology)

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
        d1 = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(r1)] for _ in range(r0)])
        d2 = IntMatrix.from_rows([[rng.choice([0, 0, rng.randint(-3, 3)]) for _ in range(r2)]
                                  for _ in range(r1)])
        comp = d1 @ d2
        bad = [(i, j, x) for i, row in enumerate(comp.entries) for j, x in enumerate(row) if x]
        if d1.is_zero() or d2.is_zero() or not bad:
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

    The quotient is read off the certified Smith diagonal of the relations
    solved in a kernel basis, so this oracle is independent of the rank
    arithmetic that homology uses; it shares the Smith loop with that route,
    which the certificate tests in test_abelian check on their own.
    """
    if n < 0 or c.rank(n) == 0:
        return TRIVIAL
    kernel = kernel_basis(c.boundary(n))
    dec = snf(solve(kernel, c.boundary(n + 1)))
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
            return cokernel(m)

        monkeypatch.setattr(chains, "cokernel", counting)
        c, planted = residual_complex()
        assert homology(c, 1) == planted[1]
        first = len(calls)
        assert first > 0
        # the first read reduces each boundary left by the divisor pivots
        # exactly once, by value
        residual = chains._unit_reduced(c.ranks, c.boundaries)[1]
        assert (sorted((m.rows, m.cols, m.entries) for m in calls)
                == sorted((m.rows, m.cols, m.entries) for m in residual.values()))
        assert homology(c, 1) == planted[1]
        assert homology(c, 2) == planted[2]
        assert cohomology_uct(c, 2, Z) == FgAbGroup(1, planted[1].invariant_factors)
        assert len(calls) == first

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


def residual_complex():
    """A scrambled complex that the divisor pivots do not reduce away, and
    its planted homology: Z/2 + Z/2 + Z/3 + Z/3 + Z/9 in H_1, Z/4 + Z in H_2."""
    pieces = ([(1, "torsion", d) for d in (2, 3, 4, 6, 9)]
              + [(2, "torsion", 4), (2, "free", 1), (1, "unit", 1), (2, "unit", -1)])
    return scrambled_complex(random.Random(0), pieces)


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

    def test_search_passes_zero_rows_by(self, monkeypatch):
        # a row that the Schur updates zero stays zero, so the search hands
        # _pivot nonzero rows only, and the homology is unchanged
        calls = Counter()
        pivot = chains._pivot

        def recording(row, rows):
            calls[any(row)] += 1
            return pivot(row, rows)

        monkeypatch.setattr(chains, "_pivot", recording)
        for seed in range(30):
            rng = random.Random(seed)
            c, planted = scrambled_complex(rng, planted_pieces(rng, 3, 14))
            assert c.graded_homology == planted == unreduced_graded_homology(c)
        assert calls[True] and not calls[False]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 14))
    def test_residual_entries_within_hadamard_bound(self, seed, top, count):
        rng = random.Random(seed)
        pieces = planted_pieces(rng, top, count, ("unit", "torsion", "torsion", "free"), 12)
        c, _ = scrambled_complex(rng, pieces, mixes=4)
        ranks, residual, torsion = chains._unit_reduced(c.ranks, c.boundaries)
        assert all(d >= 2 for orders in torsion.values() for d in orders)
        for n, m in residual.items():
            assert (m.rows, m.cols) == (ranks[n - 1], ranks[n])
            bound = hadamard_square(c.boundaries[n])
            assert all(x * x <= bound for row in m.entries for x in row)
            # the search stops only when no row holds a divisor pivot
            rows = [list(row) for row in m.entries]
            assert all(chains._pivot(row, rows) is None for row in rows)

    def test_divisor_pivot(self):
        # 2 divides its row and column and leaves Z/2; in what is left no
        # entry divides its row, so Smith finds the Z/5
        c = ChainComplex("d", {1: 3, 2: 3},
                         {2: IntMatrix.from_rows([[2, 0, 0], [4, 2, 3], [0, 3, 2]])})
        assert chains._unit_reduced(c.ranks, c.boundaries) == (
            {1: 2, 2: 2}, {2: IntMatrix.from_rows([[2, 3], [3, 2]])}, {1: [2]})
        assert c.graded_homology == {1: FgAbGroup.cyclic(10)} == unreduced_graded_homology(c)

    def test_contractible_complex(self, monkeypatch):
        pieces = [(n % 4, "unit", (-1) ** n) for n in range(20)]
        # scrambled, some pairs keep no unit entry, yet the homology vanishes
        c, planted = scrambled_complex(random.Random(5), pieces)
        assert planted == {} == c.graded_homology == unreduced_graded_homology(c)
        # unscrambled, every pair splits off and no Smith work is left
        c, _ = scrambled_complex(random.Random(5), pieces, mixes=0)
        assert chains._unit_reduced(c.ranks, c.boundaries) == ({}, {}, {})
        monkeypatch.setattr(chains, "cokernel", None)
        assert c.graded_homology == {}

    def test_boundary_that_empties(self):
        # d_2 has rank 1 over two cells each side: one pair splits off and
        # leaves a 1x1 zero boundary, which is dropped; d_3 is then [[-3]],
        # a divisor pivot that leaves Z/3
        c = ChainComplex("e", {1: 2, 2: 2, 3: 1},
                         {2: IntMatrix.from_rows([[1, 1], [1, 1]]),
                          3: IntMatrix.from_rows([[3], [-3]])})
        assert chains._unit_reduced(c.ranks, c.boundaries) == ({1: 1}, {}, {2: [3]})
        assert c.graded_homology == {1: Z, 2: FgAbGroup.cyclic(3)} == unreduced_graded_homology(c)
        # a pair that takes every cell of degree 1 leaves d_2 with no rows
        c = ChainComplex("f", {1: 1, 2: 2, 3: 1},
                         {2: IntMatrix.from_rows([[1, -2]]),
                          3: IntMatrix.from_rows([[4], [2]])})
        assert chains._unit_reduced(c.ranks, c.boundaries) == ({}, {}, {2: [2]})
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
        monkeypatch.setattr(chains, "cokernel", None)
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

        for name in ("hom", "ext", "homology"):
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
                # at most two for the free part, one per invariant factor
                assert len(calls) <= 2 + len(g.invariant_factors)

    def test_direct_builds_no_block_for_an_absent_boundary(self, monkeypatch):
        c = ChainComplex("free", {1: 200, 2: 200, 3: 200}, {})

        def refuse(*args):
            raise AssertionError("the cochain route built a zero matrix")

        monkeypatch.setattr(IntMatrix, "zeros", refuse)
        monkeypatch.setattr(ChainComplex, "boundary", refuse)
        assert cohomology_direct(c, 2, FgAbGroup.of(1, [2])) == FgAbGroup.of(200, [2] * 200)


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
        monkeypatch.setattr(chains, "cokernel", None)
        for n in want:
            assert homology(triple, n) == want[n], n
        assert homology(triple, 3) == FgAbGroup.of(0, [2])
        assert homology(triple, 60) == TRIVIAL
