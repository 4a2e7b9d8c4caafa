import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahom import chains, federer
from ahom.abelian import FgAbGroup, IntMatrix, PrimeSet, hom_orders, in_class
from ahom.chains import ChainComplex, cohomology_direct, cohomology_uct, homology
from ahom.corpus import connected_complex, random_complex, random_group, random_table
from ahom.federer import (
    ABSOLUTE,
    DETERMINED,
    EXACT,
    GRADED_UPPER_BOUNDS,
    GROUP_VALUED,
    OUT_OF_RANGE,
    RELATIVE,
    SET_VALUED,
    TABLE_START,
    UPPER_BOUND,
    ZERO,
    BigradedPage,
    HomotopyTable,
    RefusedHypothesis,
    TableRangeMiss,
    collapse_report,
    e2_consistency_with_ahomology,
    federer_e2,
    homotopy_table_from_json,
    hopf_whitney,
    moore_homotopy_ses,
    page_to_json,
    relative_federer_e2,
    relative_hopf_whitney,
    render_page,
    torsion_class_check,
)
from ahom.spaces import moore, projective, sphere
from ahom.chains import suspension, wedge
from helpers import (EagerPage, constant_table, reference_collapse_report,
                     reference_torsion_class_check, unmemoized_uct)

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.cyclic(2)
TRIVIAL = FgAbGroup.trivial()


def table_z(q_max=6):
    return constant_table(ABSOLUTE, Z, q_max)


class TestHomotopyTable:
    def test_contiguity_enforced(self):
        with pytest.raises(ValueError):
            HomotopyTable(ABSOLUTE, {1: Z, 3: Z}, True)
        with pytest.raises(ValueError):
            HomotopyTable(ABSOLUTE, {2: Z, 3: Z}, True)
        with pytest.raises(ValueError):
            HomotopyTable(RELATIVE, {1: Z, 2: Z}, True)

    def test_variant_checked(self):
        with pytest.raises(ValueError):
            HomotopyTable("weird", {1: Z}, True)

    def test_json_round_trip(self):
        t = homotopy_table_from_json(
            {"variant": "absolute", "abelian": True,
             "pi": {"1": "Z", "2": "Z/2+Z/4", "3": "0"}})
        assert t.q_max == 3
        assert t.entries[2] == FgAbGroup.of(0, [2, 4])
        assert t.entries[3] == TRIVIAL

    def test_json_rejects(self):
        with pytest.raises(ValueError):
            homotopy_table_from_json({"variant": "absolute", "pi": {}})
        with pytest.raises(ValueError):
            homotopy_table_from_json(
                {"variant": "absolute", "abelian": True, "pi": {"1": "Q"}})

    def test_json_error_names_the_first_bad_degree(self):
        # each distinct text is parsed once; a repeated bad text is still
        # reported at the degree where the file first writes it
        pi = {"1": "Z", "4": "Z/2+Q", "2": "Z/2", "3": "Z/2+Q", "5": "Z/1"}
        with pytest.raises(ValueError, match=r"^q = 4: unrecognized summand 'Q'$"):
            homotopy_table_from_json({"variant": "absolute", "abelian": True, "pi": pi})
        del pi["4"], pi["3"]
        with pytest.raises(ValueError, match=r"^q = 5: bad cyclic factor 'Z/1'$"):
            homotopy_table_from_json({"variant": "absolute", "abelian": True, "pi": pi})

    def test_json_repeated_texts_read_alike(self):
        texts = ["Z/2+Z/4", "Z", "Z/4 + Z/2", "0", "Z/2+Z/4"]
        t = homotopy_table_from_json({"variant": "absolute", "abelian": True,
                                      "pi": {str(q): x for q, x in enumerate(texts, 1)}})
        assert t.entries == {1: FgAbGroup.of(0, [2, 4]), 2: Z, 3: FgAbGroup.of(0, [2, 4]),
                             4: TRIVIAL, 5: FgAbGroup.of(0, [2, 4])}


class TestPageAssembly:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from([ABSOLUTE, RELATIVE]))
    def test_page_assembles_each_distinct_group_once(self, seed, variant):
        # groups drawn from a pool of three, so many entries share (-p, pi_q)
        rng = random.Random(seed)
        a = random_complex(rng)
        pool = [random_group(rng) for _ in range(3)]
        start = TABLE_START[variant]
        table = HomotopyTable(variant, {q: rng.choice(pool)
                                        for q in range(start, start + rng.randint(1, 10))}, True)
        assemble = federer_e2 if variant == ABSOLUTE else relative_federer_e2

        # the page derives its cells when read, so each is read in the context
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(federer, "cohomology_uct", unmemoized_uct)
            unshared = assemble(a, table).entries
        assert "_cohomology" not in vars(a)
        # cohomology_uct assembles a group by one FgAbGroup.of over the Hom
        # and Ext orders, so one hom_orders call is one assembly
        homs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chains, "hom_orders", lambda h, g: homs.append(g) or hom_orders(h, g))
            page = assemble(a, table)
            assert homs == []
            shared = page.entries
        assert shared == unshared
        asked = {(-p, table.entries[q]) for p, q in shared if page.status(p, q) != ZERO}
        assert len(homs) == len(asked)

    def test_sphere_shape_single_column(self):
        m = 3
        page = federer_e2(sphere(m), table_z(6))
        for (p, q), group in page.entries.items():
            if p == -m and p + q >= 0:
                assert group == Z
            else:
                assert group == TRIVIAL

    def test_projective_plane_integer_table(self):
        page = federer_e2(projective(2), table_z(6))
        for q in range(1, 7):
            if q >= 3:
                assert page.group(-2, q) == Z2 and page.status(-2, q) == EXACT
            assert page.group(-1, q) == TRIVIAL

    def test_projective_plane_mod_two_table(self):
        page = federer_e2(projective(2), constant_table(ABSOLUTE, Z2, 5))
        for q in range(1, 6):
            for p in (-1, -2):
                if p + q >= 1:
                    assert page.group(p, q) == Z2

    def test_support_pattern_absolute(self):
        page = federer_e2(projective(2), table_z(4))
        for (p, q), group in page.entries.items():
            if p + q < 0:
                assert page.status(p, q) == ZERO and group == TRIVIAL
            elif p + q == 0:
                assert page.status(p, q) == UPPER_BOUND
            else:
                assert page.status(p, q) == EXACT

    def test_support_pattern_relative(self):
        t = constant_table(RELATIVE, FgAbGroup.cyclic(4), 7)
        page = relative_federer_e2(projective(2), t)
        for p, q in page.entries:
            if p + q <= 0:
                assert page.status(p, q) == ZERO
            elif p + q == 1:
                assert page.status(p, q) == UPPER_BOUND and page.must_die(p, q)
            else:
                assert page.status(p, q) == EXACT and not page.must_die(p, q)
        assert page.group(-1, 3) == Z2  # Hom(Z/2, Z/4)
        assert page.group(-2, 4) == Z2  # Ext(Z/2, Z/4)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from([ABSOLUTE, RELATIVE]))
    def test_cells_are_cochain_cohomology_and_status_is_positional(self, seed, variant):
        rng = random.Random(seed)
        a = connected_complex(rng, max_top=4, max_rank=3)
        table = random_table(rng, variant, q_max=rng.randint(TABLE_START[variant], 6))
        page = (federer_e2 if variant == ABSOLUTE else relative_federer_e2)(a, table)
        edge = 0 if variant == ABSOLUTE else 1
        cells = page.entries  # formed on each read
        assert set(cells) == {(p, q) for p in range(-a.top_degree, 0) for q in table.entries}
        direct = {}
        for p in range(-a.top_degree - 1, 1):
            for q in range(table.q_min - 1, table.q_max + 2):
                total = p + q
                if (p, q) not in cells:
                    assert page.group(p, q) == TRIVIAL
                elif total < edge:
                    assert page.group(p, q) == TRIVIAL
                else:
                    key = (-p, table.entries[q])
                    if key not in direct:
                        direct[key] = cohomology_direct(a, *key)
                    assert page.group(p, q) == direct[key], (p, q)
                want = ZERO if total < edge else UPPER_BOUND if total == edge else EXACT
                assert page.status(p, q) == want, (p, q)
                assert page.must_die(p, q) == (variant == RELATIVE and total == edge)

    def test_refuses_without_abelian_assumption(self):
        t = constant_table(ABSOLUTE, Z, 4, abelian=False)
        with pytest.raises(RefusedHypothesis, match="abelian"):
            federer_e2(projective(2), t)

    def test_variant_mismatch_is_value_error(self):
        with pytest.raises(ValueError):
            federer_e2(projective(2), constant_table(RELATIVE, Z, 4))
        with pytest.raises(ValueError):
            relative_federer_e2(projective(2), table_z(4))

    def test_rendering(self):
        page = federer_e2(projective(2), table_z(3))
        text = render_page(page)
        assert "q\\p" in text and "Z/2" in text
        data = page_to_json(page)
        assert data["-2,3"] == {"group": "Z/2", "status": "exact"}
        assert data["-2,2"]["status"] == "subgroup_upper_bound"

    def test_relative_must_die_in_json(self):
        t = constant_table(RELATIVE, Z, 4)
        data = page_to_json(relative_federer_e2(projective(2), t))
        assert data["-1,2"]["must_die"] is True


@st.composite
def pages(draw):
    """A random complex, which may be disconnected or a point, a random table
    of either variant and a prime set."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    variant = draw(st.sampled_from([ABSOLUTE, RELATIVE]))
    a = random_complex(rng, max_top=4, max_rank=3)
    table = random_table(rng, variant, q_max=rng.randint(TABLE_START[variant], 9), max_order=12)
    return a, table, PrimeSet.of(*draw(st.sampled_from([(2,), (3,), (2, 3), (2, 5)])))


# H^3(S^3; Z/3) sits only on the zero cell (-3, 1), so every cell is 2-primary
SPHERE_Z3_BELOW = (sphere(3), HomotopyTable(ABSOLUTE, {q: FgAbGroup.cyclic(3 if q == 1 else 2)
                                                       for q in range(1, 8)}, True),
                   PrimeSet.of(2))
# H_0 = Z/3 and H_1 = 0: the hypothesis holds, yet H^1(A; Z) = Z/3 fails on
# the diagonal n = 1 alone, so the report walks the diagonals
H0_Z3 = (ChainComplex("h0", {0: 1, 1: 1}, {1: IntMatrix.from_rows([[3]])}),
         HomotopyTable(ABSOLUTE, {1: Z2, 2: Z, 3: Z2, 4: Z2}, True), PrimeSet.of(2))


def refuse_grid(page):
    raise AssertionError("the whole grid was formed")


class TestPageView:
    @settings(max_examples=150, deadline=None)
    @given(pages())
    @example(SPHERE_Z3_BELOW)
    @example(H0_Z3)
    def test_view_matches_the_eager_grid(self, case):
        a, table, primes = case
        page = (federer_e2 if table.variant == ABSOLUTE else relative_federer_e2)(a, table)
        eager = EagerPage(a, table)
        (p_lo, p_hi), (q_lo, q_hi) = page.p_range, page.q_range
        for n in range(q_lo - 2, q_hi + 3):
            assert page.diagonal(n) == eager.diagonal(n), n
            assert collapse_report(page, n) == reference_collapse_report(eager, n), n
        for p in range(p_lo - 2, p_hi + 3):
            for q in range(q_lo - 2, q_hi + 3):
                assert page.group(p, q) == eager.group(p, q), (p, q)
        assert not hasattr(page, "__dict__")
        assert list(page.entries.items()) == sorted(eager.entries.items(), key=lambda c: c[0])
        if table.variant == ABSOLUTE:
            report = torsion_class_check(a, table, primes)
            assert report == reference_torsion_class_check(a, table, primes)
        else:
            with pytest.raises(ValueError):
                torsion_class_check(a, table, primes)

    def test_examples_decide_as_stated(self):
        assert torsion_class_check(*SPHERE_Z3_BELOW).entries_in_class
        report = torsion_class_check(*H0_Z3)
        assert report.hypothesis_holds and not report.entries_in_class
        assert report.diagonal_flags == {1: False, 2: True, 3: True}

    def test_partial_readers_form_no_grid(self, monkeypatch):
        table = constant_table(ABSOLUTE, Z2, 10_000)
        page = federer_e2(projective(8), table)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(BigradedPage, "entries", property(refuse_grid))
            report = federer.torsion_class_check(projective(8), table, PrimeSet.of(2))
            assert report.entries_in_class and all(report.diagonal_flags.values())
            assert collapse_report(page, 3).verdict == GRADED_UPPER_BOUNDS
        assert len(page.entries) == 8 * 10_000 and not hasattr(page, "__dict__")

    def test_both_forms_print_from_the_cells(self):
        # a relative page, so that both marks, "*" and "!", are printed
        page = relative_federer_e2(projective(3), constant_table(RELATIVE, FgAbGroup.of(1, [2]), 6))
        text, data = render_page(page), page_to_json(page)
        assert "*!" in text and len(data) == len(page.entries) == 3 * 5
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(BigradedPage, "entries", property(refuse_grid))
            assert render_page(page) == text
            assert page_to_json(page) == data


class TestCollapse:
    def test_single_column_determined(self):
        m = 2
        entries = {q: random_group(random.Random(q), max_rank=1, max_factors=2, max_order=9)
                   for q in range(1, 8)}
        t = HomotopyTable(ABSOLUTE, entries, True)
        page = federer_e2(sphere(m), t)
        for n in range(1, 6):
            verdict = collapse_report(page, n)
            assert verdict.verdict == DETERMINED
            assert verdict.group == entries[n + m]

    def test_two_column_shape_gives_graded_bounds(self):
        page = federer_e2(projective(2), constant_table(ABSOLUTE, Z2, 7))
        verdict = collapse_report(page, 3)
        assert verdict.verdict == GRADED_UPPER_BOUNDS
        assert len(verdict.surviving) == 2
        assert all("possible differential" not in note for note in verdict.notes)

    def test_projective_plane_integer_table_determined(self):
        page = federer_e2(projective(2), table_z(6))
        verdict = collapse_report(page, 2)
        assert verdict.verdict == DETERMINED
        assert verdict.group == Z2

    def test_below_range(self):
        page = federer_e2(projective(2), table_z(5))
        assert collapse_report(page, 0).verdict == OUT_OF_RANGE
        rel = relative_federer_e2(projective(2),
                                  constant_table(RELATIVE, Z, 5))
        assert collapse_report(rel, 1).verdict == OUT_OF_RANGE

    def test_table_too_short_reported(self):
        page = federer_e2(projective(2), table_z(4))
        verdict = collapse_report(page, 3)
        assert verdict.verdict == OUT_OF_RANGE
        assert any("q up to 5" in note for note in verdict.notes)

    def test_all_zero_diagonal_determined_trivial(self):
        t = HomotopyTable(ABSOLUTE, {1: Z, 2: TRIVIAL, 3: TRIVIAL, 4: TRIVIAL}, True)
        page = federer_e2(sphere(2), t)
        verdict = collapse_report(page, 1)  # needs pi_3 = 0
        assert verdict.verdict == DETERMINED
        assert verdict.group == TRIVIAL


class TestHopfWhitney:
    def test_sphere_identity(self):
        rng = random.Random(67)
        for _ in range(10):
            g = random_group(rng)
            res = hopf_whitney(sphere(rng.randint(2, 5)), g)
            assert res.group == g
            assert res.structure == GROUP_VALUED

    def test_projective_plane_set_valued(self):
        res = hopf_whitney(projective(2), Z)
        assert res.group == Z2
        assert res.structure == SET_VALUED

    def test_loop_space_assertion_upgrades(self):
        res = hopf_whitney(projective(2), Z, loop_space=True)
        assert res.structure == GROUP_VALUED

    def test_suspension_shape_group_valued(self):
        res = hopf_whitney(suspension(projective(2)), FgAbGroup.cyclic(4))
        assert res.group == Z2  # Ext(Z/2, Z/4)
        assert res.structure == GROUP_VALUED

    def test_low_dimension_refused(self):
        with pytest.raises(RefusedHypothesis):
            hopf_whitney(sphere(1), Z)

    def test_relative_on_spheres(self):
        g = FgAbGroup.of(1, [3])
        assert relative_hopf_whitney(sphere(3), g) == g

    def test_relative_on_suspended_projective_plane(self):
        assert relative_hopf_whitney(suspension(projective(2)), Z) == Z2

    def test_relative_on_suspended_wedge_of_circles(self):
        k = suspension(wedge([sphere(1), sphere(1)]))
        got = relative_hopf_whitney(k, FgAbGroup.cyclic(3))
        assert got == FgAbGroup.of(0, [3, 3])

    def test_relative_refuses_non_suspension_shape(self):
        with pytest.raises(RefusedHypothesis, match="suspension"):
            relative_hopf_whitney(projective(2), Z)

    def test_relative_refusals_keep_their_order(self):
        # the shape is tested first; a suspension-shaped source of dimension
        # < 2 (only the empty wedge) gets the absolute calculator's refusal
        with pytest.raises(RefusedHypothesis, match="dimension >= 2, got 0"):
            relative_hopf_whitney(wedge([]), Z)
        with pytest.raises(RefusedHypothesis, match="suspension"):
            relative_hopf_whitney(sphere(1), Z)


class TestMooreHomotopySes:
    def test_both_ends_determined(self):
        t = table_z(6)
        ses = moore_homotopy_ses(Z2, 1, t, 3)
        assert ses.ext_part == Z2
        assert ses.hom_part == TRIVIAL
        assert ses.order_product == 2
        assert ses.exponent_bound == 2

    def test_free_coefficients_recover_shifted_table(self):
        groups = {q: random_group(random.Random(100 + q)) for q in range(1, 7)}
        t = HomotopyTable(ABSOLUTE, groups, True)
        ses = moore_homotopy_ses(Z, 2, t, 3)
        assert ses.ext_part == TRIVIAL
        assert ses.hom_part == groups[5]

    def test_exponent_bound_at_most_four_for_z2(self):
        rng = random.Random(71)
        for _ in range(15):
            groups = {q: random_group(rng) for q in range(1, 8)}
            t = HomotopyTable(ABSOLUTE, groups, True)
            ses = moore_homotopy_ses(Z2, 1, t, rng.randint(1, 5))
            assert ses.exponent_bound in (1, 2, 4)

    def test_table_range_miss(self):
        with pytest.raises(TableRangeMiss, match="q = 5"):
            moore_homotopy_ses(Z2, 1, table_z(4), 3)

    def test_refusals_and_preconditions(self):
        with pytest.raises(ValueError):
            moore_homotopy_ses(Z2, 1, table_z(4), 0)
        t = constant_table(ABSOLUTE, Z, 6, abelian=False)
        with pytest.raises(RefusedHypothesis):
            moore_homotopy_ses(Z2, 1, t, 2)


class TestTorsionClass:
    def test_projective_plane_two_primary(self):
        report = torsion_class_check(projective(2), table_z(6), PrimeSet.of(2))
        assert report.hypothesis_holds
        assert report.entries_in_class
        assert report.diagonal_flags and all(report.diagonal_flags.values())

    def test_sphere_hypothesis_fails(self):
        report = torsion_class_check(sphere(3), table_z(6), PrimeSet.of(2))
        assert not report.hypothesis_holds
        assert report.hypothesis_failures == (3,)
        assert not any(report.diagonal_flags.values())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from([(2,), (3,), (2, 3), (2, 5)]))
    def test_matches_a_cell_by_cell_walk(self, seed, primes):
        # the report decides each distinct group once; walking every cell
        # must give the same flags
        rng = random.Random(seed)
        a = connected_complex(rng, max_top=3, max_rank=3)
        table, p = random_table(rng, q_max=rng.randint(1, 9), max_order=12), PrimeSet.of(*primes)
        report = torsion_class_check(a, table, p)
        page = federer_e2(a, table)
        cells = page.entries  # formed on each read
        hypothesis = all(in_class(homology(a, j), p) for j in range(1, a.top_degree + 1))
        assert report.entries_in_class == all(in_class(g, p) for g in cells.values())
        assert report.diagonal_flags == {
            n: hypothesis and all(in_class(cells[c], p) for c in page.diagonal(n))
            for n in range(1, table.q_max - a.top_degree + 1)}

    def test_moore_six_needs_both_primes(self):
        a = moore(FgAbGroup.cyclic(6), 2)
        bad = torsion_class_check(a, table_z(7), PrimeSet.of(2))
        assert not bad.hypothesis_holds
        good = torsion_class_check(a, table_z(7), PrimeSet.of(2, 3))
        assert good.hypothesis_holds


class TestTwoSphereScenario:
    """End-to-end run against the classical low-degree table for the 2-sphere."""

    @pytest.fixture
    def pi_s2(self):
        return homotopy_table_from_json({
            "variant": "absolute", "abelian": True,
            "pi": {"1": "0", "2": "Z", "3": "Z", "4": "Z/2",
                   "5": "Z/2", "6": "Z/12", "7": "Z/2"},
        })

    def test_projective_plane_bounds(self, pi_s2):
        ses = moore_homotopy_ses(Z2, 1, pi_s2, 3)
        assert ses.ext_part == Z2   # Ext(Z/2, pi_5)
        assert ses.hom_part == Z2   # Hom(Z/2, pi_4)
        assert ses.order_product == 4
        assert ses.exponent_bound == 4

    def test_determined_diagonal(self, pi_s2):
        page = federer_e2(projective(2), pi_s2)
        verdict = collapse_report(page, 2)
        assert verdict.verdict == DETERMINED
        assert verdict.group == Z2   # only Ext(Z/2, pi_4) survives

    def test_unresolved_extension_reported(self, pi_s2):
        # in degree 3 both Hom(Z/2, pi_4) and Ext(Z/2, pi_5) survive, so only
        # the associated graded is known
        page = federer_e2(projective(2), pi_s2)
        verdict = collapse_report(page, 3)
        assert verdict.verdict == GRADED_UPPER_BOUNDS
        assert sorted(str(g) for _, _, g, _ in verdict.surviving) == ["Z/2", "Z/2"]


class TestConsistency:
    def test_projective_plane_four_sphere(self):
        check = e2_consistency_with_ahomology(projective(2), sphere(4), 2)
        assert check.holds
        assert check.diagonal_sum == Z2

    def test_sphere_shape(self):
        rng = random.Random(73)
        for m in (1, 2, 3):
            x = random_complex(rng)
            for n in (1, 2, 3):
                check = e2_consistency_with_ahomology(sphere(m), x, n)
                assert check.holds
                assert check.formula_value == homology(x, n + m)

    def test_moore_shapes(self):
        check = e2_consistency_with_ahomology(
            moore(FgAbGroup.cyclic(4), 1), moore(Z2, 3), 2)
        assert check.holds

    def test_randomized(self):
        rng = random.Random(79)
        for _ in range(15):
            a = random_complex(rng, max_top=3, max_rank=3)
            if a.rank(0):
                continue  # page support needs a path-connected shape
            x = random_complex(rng, max_top=4, max_rank=4)
            n = rng.randint(1, 5)
            assert e2_consistency_with_ahomology(a, x, n).holds


class TestEilenbergMacLanePage:
    """For a one-row table (only pi_m = G, so Y = K(G, m)),
    [Sigma^n A, Y] = H^(m-n)(A; G): every diagonal in range is determined by
    its single entry, which the direct cochain route must reproduce."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 6), st.integers(0, 3))
    def test_every_diagonal_in_range_is_the_cohomology_group(self, seed, m, extra):
        rng = random.Random(seed)
        a = connected_complex(rng, max_top=4, max_rank=3)
        g = random_group(rng, max_rank=1, max_factors=2, max_order=12)
        q_max = m + a.top_degree + extra
        table = HomotopyTable(ABSOLUTE, {q: g if q == m else TRIVIAL
                                         for q in range(1, q_max + 1)}, True)
        page = federer_e2(a, table)
        for n in range(-1, q_max + 2):
            verdict = collapse_report(page, n)
            if verdict.verdict == OUT_OF_RANGE:
                continue
            assert verdict.verdict == DETERMINED, (n, verdict)
            assert verdict.group == cohomology_direct(a, m - n, g), n
            if not 1 <= m - n <= a.top_degree:
                assert verdict.group == TRIVIAL
