import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahom.abelian import FgAbGroup, IntMatrix
from ahom.chains import ChainComplex, homology, load_complex, suspension, wedge
from ahom.spaces import (
    MAX_MOORE_ENTRIES,
    RecipeError,
    build,
    is_suspension_shaped,
    moore,
    parse_recipe,
    projective,
    sphere,
)

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.cyclic(2)


class TestRecipes:
    def test_parse_sphere(self):
        assert build(parse_recipe("sphere:4")) == sphere(4)

    def test_parse_projective(self):
        assert build(parse_recipe("rp:2")) == projective(2)

    def test_parse_moore(self):
        r = parse_recipe("moore:Z/2+Z/4:3")
        assert build(r) == moore(FgAbGroup.of(0, [2, 4]), 3)

    def test_parse_file(self):
        # parsing reads no file: the path is only bound to the loader
        r = parse_recipe("file:/tmp/x.json")
        assert (r.func, r.args) == (load_complex, ("/tmp/x.json",))

    def test_moore_boundary_at_the_bound_parses_unbuilt(self, monkeypatch):
        # 2,048 copies of Z/2 ask for a 2,048 x 2,048 boundary, exactly the bound
        assert 2048 * 2048 == MAX_MOORE_ENTRIES
        monkeypatch.setattr(ChainComplex, "__new__", None)  # building would fail
        r = parse_recipe("moore:" + "+".join(["Z/2"] * 2048) + ":2")
        assert (r.func, r.args) == (moore, (FgAbGroup.of(0, [2] * 2048), 2))

    @pytest.mark.parametrize("group, entries", [
        (FgAbGroup.of(0, [2] * 2049), 2049 * 2049),
        (FgAbGroup.of(3, [2] * 2047), 2050 * 2047),  # free rows count too
    ])
    def test_moore_boundary_past_the_bound_is_refused(self, group, entries):
        assert entries > MAX_MOORE_ENTRIES
        with pytest.raises(RecipeError, match=f"{entries} entries is past the limit of "
                                              f"{MAX_MOORE_ENTRIES}"):
            parse_recipe(f"moore:{group}:2".replace(" ", ""))

    @pytest.mark.parametrize("bad", [
        "sphere", "sphere:x", "sphere:0", "rp:-1", "moore:Z/2", "moore:Q:1",
        "moore:Z/2:0", "torus:2", "file:", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(RecipeError):
            parse_recipe(bad)


class TestBuild:
    def test_sphere(self):
        c = build(parse_recipe("sphere:4"))
        for n in range(7):
            assert homology(c, n) == (Z if n == 4 else FgAbGroup.trivial())

    def test_moore_z2_matches_projective_plane(self):
        m = build(parse_recipe("moore:Z/2:1"))
        p = build(parse_recipe("rp:2"))
        for n in range(4):
            assert homology(m, n) == homology(p, n)

    def test_projective_three(self):
        c = build(parse_recipe("rp:3"))
        assert homology(c, 1) == Z2
        assert homology(c, 2) == FgAbGroup.trivial()
        assert homology(c, 3) == Z

    def test_build_from_file(self, tmp_path):
        import json

        from helpers import complex_to_json
        c = projective(2)
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(complex_to_json(c)))
        assert build(parse_recipe(f"file:{path}")) == c

    def test_deterministic(self):
        r = parse_recipe("moore:Z+Z/2+Z/6:2")
        assert build(r) == build(r)

    def test_moore_of_trivial_group(self):
        c = moore(FgAbGroup.trivial(), 2)
        assert c.ranks == {}

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.lists(st.integers(2, 30), max_size=8), st.integers(1, 5))
    @example(0, [], 1)  # the trivial group
    @example(3, [], 5)  # free only
    def test_moore_equals_the_entrywise_construction(self, r, orders, m):
        group = FgAbGroup.of(r, orders)
        torsion = group.invariant_factors
        t = len(torsion)
        name = f"moore:{group}:{m}".replace(" ", "")
        if r + t == 0:
            ref = ChainComplex(name, {}, {})
        else:
            ranks, boundaries = {m: r + t}, {}
            if t:
                ranks[m + 1] = t
                boundaries[m + 1] = IntMatrix.from_rows(
                    [[torsion[j] if i == r + j else 0 for j in range(t)]
                     for i in range(r + t)],
                    cols=t)
            ref = ChainComplex(name, ranks, boundaries)
        assert moore(group, m) == ref

    def test_s_zero(self):
        c = sphere(0)
        assert c.rank(0) == 1
        assert homology(c, 0) == Z


class TestSuspensionShape:
    def test_suspended_projective_plane(self):
        assert is_suspension_shaped(suspension(projective(2)))

    def test_projective_plane_is_not(self):
        assert not is_suspension_shaped(projective(2))

    def test_circle_is_not(self):
        assert not is_suspension_shaped(sphere(1))

    def test_high_spheres_are(self):
        assert is_suspension_shaped(sphere(2))
        assert is_suspension_shaped(wedge([sphere(2), sphere(5)]))
