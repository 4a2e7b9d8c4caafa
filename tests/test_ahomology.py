import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahom.abelian import FgAbGroup, exponent
from ahom.ahomology import (
    a_homology,
    a_homology_range,
    check_suspension_axiom,
    check_wedge_axiom,
    moore_a_homology_ses,
    render_report,
    report_to_json,
)
from ahom.chains import cohomology_uct, homology, suspension, wedge
from ahom.corpus import connected_complex, random_complex, random_group
from ahom.spaces import moore, projective, sphere
from helpers import divides, window_a_homology

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.cyclic(2)
TRIVIAL = FgAbGroup.trivial()


class TestFormula:
    def test_zero_sphere_shape_gives_ordinary_homology(self):
        a = sphere(0)
        rng = random.Random(41)
        xs = [sphere(1), sphere(3), projective(2), projective(3),
              moore(FgAbGroup.cyclic(6), 2), wedge([sphere(2), projective(2)])]
        xs += [connected_complex(rng) for _ in range(4)]
        for x in xs:
            for n in range(0, x.top_degree + 2):
                assert a_homology(a, x, n) == homology(x, n), (x.name, n)

    def test_sphere_target_gives_cohomology_of_shape(self):
        shapes = [projective(2), projective(3), moore(Z2, 1),
                  suspension(projective(2)), wedge([sphere(2), sphere(3)])]
        for a in shapes:
            for n in range(1, 7):
                for r in range(0, n + 3):
                    assert a_homology(a, sphere(n), r) == cohomology_uct(a, n - r, Z), \
                        (a.name, n, r)

    def test_projective_plane_of_four_sphere(self):
        a = projective(2)
        x = sphere(4)
        assert a_homology(a, x, 2) == Z2
        for n in (0, 1, 3, 4, 5):
            assert a_homology(a, x, n) == TRIVIAL

    def test_projective_plane_of_moore_space(self):
        a = projective(2)
        x = moore(Z2, 3)
        assert a_homology(a, x, 1) == Z2  # Ext(Z/2, Z/2) from H^2(A; Z/2)
        assert a_homology(a, x, 2) == Z2  # Hom(Z/2, Z/2) from H^1(A; Z/2)
        assert a_homology(a, x, 3) == TRIVIAL

    def test_negative_degree_refused(self):
        # H^A_n is [S^n A, SP X], defined for n >= 0 only; the j = 1 term of
        # the sum at n = -1 would be H^2(RP^2; Z/2) = Z/2, not 0
        for x in (sphere(4), projective(2)):
            with pytest.raises(ValueError, match="n = -1"):
                a_homology(projective(2), x, -1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_equals_window_sum(self, seed):
        rng = random.Random(seed)
        a = random_complex(rng, max_top=3, max_rank=3)
        x = random_complex(rng, max_top=4, max_rank=3)
        for n in range(x.top_degree + a.top_degree + 2):
            assert a_homology(a, x, n) == window_a_homology(a, x, n), n


class TestRangeReport:
    def test_projective_plane_of_four_sphere(self):
        report = a_homology_range(projective(2), sphere(4))
        assert list(report.groups) == list(range(6))
        nonzero = {n: g for n, g in report.groups.items() if g != TRIVIAL}
        assert nonzero == {2: Z2}
        assert report.violations == ()

    def test_window_from_lowest_homology_and_dimension(self):
        # (max(0, lo(X) - dim A), dim X - lo(A)), lo the lowest degree with homology
        cases = [(projective(2), sphere(4), (2, 3)),
                 (sphere(4), moore(FgAbGroup.cyclic(3), 5), (1, 2)),
                 (moore(FgAbGroup.cyclic(3), 5), projective(2), (0, -3)),
                 (sphere(0), sphere(2), (2, 2)),
                 (wedge([]), sphere(2), (0, -1)),
                 (projective(2), wedge([]), (0, -1))]
        for a, x, window in cases:
            assert a_homology_range(a, x).range == window, (a.name, x.name)

    def test_sphere_shape_shifts_window(self):
        m = 2
        a = sphere(m)
        rng = random.Random(43)
        for _ in range(6):
            x = random_complex(rng)
            report = a_homology_range(a, x)
            assert list(report.groups) == list(range(x.top_degree + 2))
            for n, g in report.groups.items():
                assert g == homology(x, n + m)

    def test_coprime_torsion_annihilates(self):
        report = a_homology_range(moore(Z2, 1), moore(FgAbGroup.cyclic(3), 3))
        assert report.groups == {n: TRIVIAL for n in range(6)}
        assert report.violations == ()

    def test_violations_empty_on_corpus(self):
        rng = random.Random(47)
        for _ in range(15):
            a = random_complex(rng, max_top=3, max_rank=3)
            x = random_complex(rng, max_top=4, max_rank=4)
            assert a_homology_range(a, x).violations == ()

    def test_report_rendering(self):
        report = a_homology_range(projective(2), sphere(4))
        text = render_report(report)
        assert "H^A_2(X) = Z/2" in text
        assert "assumptions:" in text
        data = report_to_json(report)
        assert data["2"] == "Z/2"
        assert isinstance(data["assumptions"], list)

    def test_s_zero_shape_flagged_in_assumptions(self):
        report = a_homology_range(sphere(0), sphere(2))
        assert any("0-cells beyond the basepoint" in note
                   for note in report.assumptions)


class TestAxioms:
    def test_suspension_example(self):
        assert check_suspension_axiom(projective(2), sphere(4), [2])[0].holds

    def test_suspension_trivial_target(self):
        assert check_suspension_axiom(projective(2), wedge([]), [3])[0].holds

    def test_suspension_moore_shapes(self):
        assert check_suspension_axiom(moore(FgAbGroup.cyclic(4), 1), projective(2), [1])[0].holds

    def test_wedge_example(self):
        [check] = check_wedge_axiom(projective(2), [sphere(4), sphere(4)], [2])
        assert check.holds
        assert check.left == FgAbGroup.of(0, [2, 2])

    def test_wedge_empty(self):
        assert check_wedge_axiom(projective(3), [], [2])[0].holds

    def test_wedge_mixed(self):
        assert check_wedge_axiom(moore(Z2, 1), [sphere(3), moore(Z2, 3)], [1])[0].holds

    def test_axioms_randomized(self):
        rng = random.Random(53)
        for _ in range(25):
            a = random_complex(rng, max_top=3, max_rank=3)
            x = connected_complex(rng, max_top=4, max_rank=4)
            n = rng.randint(0, 6)
            assert check_suspension_axiom(a, x, [n])[0].holds
            pieces = [connected_complex(rng, max_top=3, max_rank=3)
                      for _ in range(rng.randint(0, 3))]
            assert check_wedge_axiom(a, pieces, [n])[0].holds

    def test_degree_sequence_matches_single_degrees(self):
        a, x = projective(3), moore(FgAbGroup.of(1, [2]), 2)
        degrees = [4, 0, 2, 2]
        assert check_suspension_axiom(a, x, degrees) == [
            check_suspension_axiom(a, x, [n])[0] for n in degrees]
        assert check_wedge_axiom(a, [x, x], degrees) == [
            check_wedge_axiom(a, [x, x], [n])[0] for n in degrees]
        assert check_wedge_axiom(a, [x], []) == []

    def test_suspension_axiom_needs_connected_target(self):
        # the formula presupposes a connected target: an extra 0-cell breaks
        # the degree-0 instance, which the checker faithfully reports
        [check] = check_suspension_axiom(sphere(0), sphere(0), [0])
        assert not check.holds


class TestMooreSes:
    def test_four_sphere_instance(self):
        ses = moore_a_homology_ses(Z2, 1, sphere(4), 2)
        assert ses.ext_part == Z2    # Ext(Z/2, H_4 = Z)
        assert ses.hom_part == TRIVIAL
        assert ses.middle == Z2
        assert ses.middle == a_homology(projective(2), sphere(4), 2)

    def test_free_coefficients_shift(self):
        rng = random.Random(59)
        for _ in range(8):
            x = random_complex(rng)
            n = rng.randint(1, 4)
            ses = moore_a_homology_ses(Z, 1, x, n)
            assert ses.ext_part == TRIVIAL
            assert ses.hom_part == homology(x, n + 1)
            assert ses.middle == ses.hom_part

    def test_moore_target_instance(self):
        # x = moore(Z/4, 3) has homology only in degree 3, so the Ext end
        # (degree n+m+1 = 4) vanishes and the middle is Hom(Z/2, Z/4).
        ses = moore_a_homology_ses(Z2, 1, moore(FgAbGroup.cyclic(4), 3), 2)
        assert ses.ext_part == TRIVIAL
        assert ses.hom_part == Z2
        assert ses.middle == Z2
        assert ses.middle.order() == ses.ext_part.order() * ses.hom_part.order()

    def test_order_and_exponent_identities(self):
        rng = random.Random(61)
        checked = 0
        while checked < 25:
            g = random_group(rng, max_rank=0, max_factors=2, max_order=9)
            x = random_complex(rng, max_top=4, max_rank=3)
            n = rng.randint(1, 3)
            m = rng.randint(1, 2)
            ses = moore_a_homology_ses(g, m, x, n)
            if not (ses.ext_part.is_finite() and ses.hom_part.is_finite()
                    and ses.middle.is_finite()):
                continue
            assert ses.middle.order() == ses.ext_part.order() * ses.hom_part.order()
            assert divides(exponent(ses.middle),
                           exponent(ses.ext_part) * exponent(ses.hom_part))
            checked += 1

    def test_rejects_bad_moore_degree(self):
        with pytest.raises(ValueError):
            moore_a_homology_ses(Z2, 0, sphere(3), 1)
