import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahom import chains
from ahom.abelian import FgAbGroup, IntMatrix, cokernel, direct_sum, kernel_basis, solve
from ahom.chains import (
    ChainComplex,
    DSquaredError,
    GradedGroups,
    InvalidComplexError,
    ShapeMismatchError,
    cohomology_direct,
    cohomology_uct,
    complex_from_json,
    complex_to_json,
    connectivity_bounds,
    homology,
    load_complex,
    suspension,
    wedge,
)
from ahom.corpus import random_complex, random_group
from ahom.spaces import moore, projective, s_zero, sphere

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.cyclic(2)
TRIVIAL = FgAbGroup.trivial()


class TestValidation:
    def test_d_squared_violation(self):
        with pytest.raises(DSquaredError, match="degree 2"):
            ChainComplex("bad", {0: 1, 1: 1, 2: 1},
                         {1: IntMatrix.from_rows([[1]]),
                          2: IntMatrix.from_rows([[2]])})

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
    """ker(d_n) / im(d_(n+1)) reduced from scratch for this one degree."""
    if n < 0 or c.rank(n) == 0:
        return TRIVIAL
    kernel = kernel_basis(c.boundary(n))
    return cokernel(solve(kernel, c.boundary(n + 1)))


class TestGradedHomologyCache:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_equals_fresh_per_degree_reduction(self, seed):
        c = random_complex(random.Random(seed))
        fresh = {n: fresh_homology(c, n) for n in range(c.top_degree + 1)}
        assert c.graded_homology.entries == {n: g for n, g in fresh.items() if g != TRIVIAL}
        assert (c.graded_homology.lo, c.graded_homology.hi) == (0, c.top_degree)
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
            return kernel_basis(m)

        monkeypatch.setattr(chains, "kernel_basis", counting)
        c = projective(6)
        assert homology(c, 3) == Z2
        first = len(calls)
        assert first > 0
        assert homology(c, 3) == Z2
        assert homology(c, 5) == Z2
        assert cohomology_uct(c, 4, Z) == Z2
        assert len(calls) == first


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

    def test_connectivity_bounds(self):
        assert connectivity_bounds(sphere(4)) == (4, 4)
        assert connectivity_bounds(projective(2)) == (1, 2)
        assert connectivity_bounds(moore(FgAbGroup.cyclic(3), 5)) == (5, 6)
        assert connectivity_bounds(s_zero()) == (0, 0)

    def test_graded_groups(self):
        gg = projective(3).graded_homology
        assert gg.group_at(1) == Z2
        assert gg.group_at(2) == TRIVIAL
        assert gg.group_at(3) == Z
        with pytest.raises(ValueError):
            GradedGroups(0, 1, {5: Z})


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
