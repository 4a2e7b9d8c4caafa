import argparse
import json
import signal
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ahom.abelian import MAX_SUMMANDS
from ahom.chains import MAX_DEGREE
from ahom.cli import VERBS, main
from ahom.spaces import MAX_MOORE_ENTRIES, projective
from helpers import complex_to_json


@pytest.fixture
def table_file(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({
        "variant": "absolute",
        "abelian": True,
        "pi": {str(q): "Z" for q in range(1, 7)},
    }))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerbs:
    def test_homology_text(self, capsys):
        code, out, _ = run(capsys, "homology", "--X", "rp:3")
        assert code == 0
        assert "H_1(rp:3) = Z/2" in out
        assert "H_3(rp:3) = Z" in out

    def test_homology_single_degree_json(self, capsys):
        code, out, _ = run(capsys, "homology", "--X", "moore:Z/6:2",
                           "--degree", "2", "--out", "json")
        assert code == 0
        assert json.loads(out) == {"2": "Z/6"}

    def test_cohomology(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--X", "rp:2",
                           "--coefficients", "Z", "--degree", "2")
        assert code == 0
        assert "Z/2" in out

    def test_ahomology_example(self, capsys):
        code, out, _ = run(capsys, "ahomology", "--A", "rp:2", "--X", "sphere:4")
        assert code == 0
        assert "H^A_2(X) = Z/2" in out
        lines = [l for l in out.splitlines() if l.startswith("H^A_")]
        others = [l for l in lines if not l.startswith("H^A_2")]
        assert all(l.endswith("= 0") for l in others)

    def test_federer_page_text_and_json(self, capsys, table_file):
        code, out, _ = run(capsys, "federer-e2", "--A", "rp:2", "--table", table_file)
        assert code == 0
        assert "Z/2" in out and "q\\p" in out
        code, out, _ = run(capsys, "federer-e2", "--A", "rp:2",
                           "--table", table_file, "--out", "json")
        data = json.loads(out)
        assert data["-2,3"] == {"group": "Z/2", "status": "exact"}

    @pytest.mark.parametrize("out, built, unbuilt", [("text", "render_page", "page_to_json"),
                                                     ("json", "page_to_json", "render_page")])
    def test_federer_page_builds_only_the_asked_form(self, capsys, monkeypatch, table_file,
                                                     out, built, unbuilt):
        from ahom import cli

        def refuse(page):
            raise AssertionError(f"{unbuilt} called for --out {out}")

        monkeypatch.setattr(cli, unbuilt, refuse)
        code, printed, _ = run(capsys, "federer-e2", "--A", "rp:2", "--table", table_file,
                               "--out", out)
        assert code == 0 and printed.strip()

    def test_diagonal(self, capsys, table_file):
        code, out, _ = run(capsys, "diagonal", "--A", "rp:2",
                           "--table", table_file, "--n", "2")
        assert code == 0
        assert "verdict = determined" in out
        assert "group = Z/2" in out

    def test_hopf_whitney(self, capsys):
        code, out, _ = run(capsys, "hopf-whitney", "--K", "sphere:3", "--pi", "Z/5")
        assert code == 0
        assert "[K,Y] = Z/5" in out
        assert "structure = group" in out

    def test_hopf_whitney_set_valued(self, capsys):
        code, out, _ = run(capsys, "hopf-whitney", "--K", "rp:2", "--pi", "Z")
        assert code == 0
        assert "structure = set_with_group_cardinality" in out

    def test_moore_ses(self, capsys, table_file):
        code, out, _ = run(capsys, "moore-ses", "--G", "Z/2", "--m", "1",
                           "--table", table_file, "--n", "3")
        assert code == 0
        assert "ext part = Z/2" in out
        assert "exponent bound = 2" in out

    def test_moore_ses_with_a_free_homotopy_group_is_infinite(self, capsys, table_file):
        # the table's pi_3 is Z, so the hom part is Z and neither bound is finite
        code, out, _ = run(capsys, "moore-ses", "--G", "Z", "--m", "1",
                           "--table", table_file, "--n", "2")
        assert code == 0
        assert "hom part = Z\n" in out
        assert "order product = infinite\n" in out and "exponent bound = infinite\n" in out

    def test_torsion_check(self, capsys, table_file):
        code, out, _ = run(capsys, "torsion-check", "--A", "rp:2",
                           "--table", table_file, "--primes", "2")
        assert code == 0
        assert "holds" in out

    def test_axioms(self, capsys):
        code, out, _ = run(capsys, "axioms", "--A", "rp:2", "--X", "sphere:3")
        assert code == 0
        assert "FAILS" not in out

    def test_axioms_builds_one_suspension_and_one_wedge(self, capsys, monkeypatch):
        from ahom import ahomology
        calls = {"suspension": 0, "wedge": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(ahomology, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(ahomology, name, counted)
        code, out, _ = run(capsys, "axioms", "--A", "rp:2", "--X", "rp:12")
        assert code == 0
        assert len(out.splitlines()) == 2 * 14
        assert calls == {"suspension": 1, "wedge": 1}

    def test_axioms_sum_only_where_x_has_homology(self, capsys, monkeypatch):
        # sphere:64 has homology in degree 64 only, so each of the three sums
        # at n = 0..64 (x once for its suspension check and both wedge pieces)
        # makes one call (195) and n = 65 none
        from ahom import ahomology
        calls = []

        def counted(*args, _fn=ahomology.cohomology_uct):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(ahomology, "cohomology_uct", counted)
        code, out, _ = run(capsys, "axioms", "--A", "sphere:64", "--X", "sphere:64")
        assert code == 0 and "FAILS" not in out
        assert len(calls) <= 195

    def test_axioms_form_each_shaped_group_once(self, capsys, monkeypatch):
        # per degree n = 0..65: H^A_n(x), which serves the suspension check
        # and both wedge pieces, H^A_(n+1) of the suspension and H^A_n of x v x
        from ahom import ahomology
        calls = []

        def counted(*args, _fn=ahomology.a_homology):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(ahomology, "a_homology", counted)
        code, out, _ = run(capsys, "axioms", "--A", "rp:64", "--X", "rp:64")
        assert code == 0 and "FAILS" not in out
        assert len(calls) == 3 * 66 and len({(id(x), n) for _, x, n in calls}) == 3 * 66

    def test_axioms_assemble_each_cohomology_group_once(self, capsys, monkeypatch):
        # H^k(rp:64; g) for k = 0..64 and two groups g, Z/2 for x and its
        # suspension and Z/2+Z/2 for the wedge x v x: at most 130 Hom groups,
        # each assembled from one hom_orders call
        from ahom import chains
        calls = []

        def counted(*args, _fn=chains.hom_orders):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(chains, "hom_orders", counted)
        code, out, _ = run(capsys, "axioms", "--A", "rp:64", "--X", "rp:64")
        assert code == 0 and "FAILS" not in out
        assert len(calls) <= 130


class TestExitCodes:
    def test_refusal_is_one(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({
            "variant": "absolute", "abelian": False, "pi": {"1": "Z"}}))
        code, _, err = run(capsys, "federer-e2", "--A", "rp:2", "--table", str(path))
        assert code == 1
        assert "abelian" in err

    def test_low_dimension_refused(self, capsys):
        code, _, err = run(capsys, "hopf-whitney", "--K", "sphere:1", "--pi", "Z")
        assert code == 1
        assert "dimension" in err

    def test_negative_shaped_homology_degree_is_two(self, capsys):
        # H^A_n is [S^n A, SP X]: there is no degree -1 to check an axiom at
        code, out, err = run(capsys, "axioms", "--A", "rp:2", "--X", "rp:2", "--n", "-1")
        assert (code, out) == (2, "")
        assert err == "error: shaped homology needs a degree n >= 0, got n = -1\n"

    def test_table_range_miss_is_one(self, capsys, table_file):
        code, _, err = run(capsys, "moore-ses", "--G", "Z/2", "--m", "1",
                           "--table", table_file, "--n", "6")
        assert code == 1
        assert "q = 7" in err

    def test_bad_recipe_is_two(self, capsys):
        code, _, err = run(capsys, "homology", "--X", "klein:2")
        assert code == 2

    def test_bad_group_is_two(self, capsys):
        code, _, _ = run(capsys, "hopf-whitney", "--K", "sphere:3", "--pi", "Q")
        assert code == 2

    def test_missing_file_is_two(self, capsys):
        code, _, _ = run(capsys, "federer-e2", "--A", "rp:2",
                         "--table", "/nonexistent/t.json")
        assert code == 2

    def test_invalid_complex_file_is_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "reduced": True, "ranks": {"0": 1, "1": 1, "2": 1},
            "boundaries": {"1": [[1]], "2": [[2]]}}))
        code, _, err = run(capsys, "homology", "--X", f"file:{path}")
        assert code == 2
        assert "nonzero" in err

    @pytest.mark.parametrize("field, value, shown", [
        ("boundary", 2.9, "2.9"),
        ("boundary", True, "true"),
        ("boundary", "2", '"2"'),
        ("rank", 1.0, "1.0"),
        ("rank", True, "true"),
        ("rank", "1", '"1"'),
    ])
    def test_non_integer_json_is_two(self, capsys, tmp_path, field, value, shown):
        data = {"reduced": True, "ranks": {"1": 1, "2": 1}, "boundaries": {"2": [[2]]}}
        if field == "boundary":
            data["boundaries"]["2"] = [[value]]
        else:
            data["ranks"]["2"] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "homology", "--X", f"file:{path}")
        assert (code, out) == (2, "")
        assert "JSON integer" in err and shown in err

    @pytest.mark.parametrize("argv, shown", [
        (("homology", "--X", "sphere:1_0"), "'1_0'"),
        (("homology", "--X", "sphere:\u0663"), "'\u0663'"),
        (("hopf-whitney", "--K", "sphere:3", "--pi", "Z/1_2"), "'1_2'"),
        (("torsion-check", "--A", "rp:2", "--table", "{table}", "--primes", "2,0_3"), "'0_3'"),
    ], ids=["sphere-underscore", "sphere-arabic-digit", "cyclic-underscore", "prime-underscore"])
    def test_non_canonical_argument_is_two(self, capsys, table_file, argv, shown):
        code, out, err = run(capsys, *(a.replace("{table}", table_file) for a in argv))
        assert (code, out) == (2, "")
        assert shown in err and "canonical" in err

    @pytest.mark.parametrize("argv, option, text", [
        (("homology", "--X", "sphere:3", "--degree"), "--degree", "1_0"),
        (("cohomology", "--X", "sphere:3", "--coefficients", "Z", "--degree"), "--degree", "+3"),
        (("diagonal", "--A", "rp:2", "--table", "{table}", "--n"), "--n", " 2"),
        (("moore-ses", "--G", "Z/2", "--m", "1", "--table", "{table}", "--n"), "--n", "03"),
        (("moore-ses", "--G", "Z/2", "--table", "{table}", "--n", "3", "--m"), "--m", "\u0661"),
        (("axioms", "--A", "rp:2", "--X", "rp:2", "--n"), "--n", "2 "),
    ], ids=["homology-degree", "cohomology-degree", "diagonal-n", "moore-ses-n",
            "moore-ses-m", "axioms-n"])
    def test_non_canonical_integer_option_is_two(self, capsys, table_file, argv, option, text):
        code, out, err = run(capsys, *(a.replace("{table}", table_file) for a in argv), text)
        assert (code, out) == (2, "")
        assert f"argument {option}: bad integer: {text!r} is not a canonical" in err

    @pytest.mark.parametrize("ranks, shown", [
        ({"1_0": 1}, "'1_0'"),
        ({"2": 1, "02": 3}, "'02'"),
    ], ids=["underscore", "leading-zero"])
    def test_non_canonical_complex_degree_is_two(self, capsys, tmp_path, ranks, shown):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"reduced": True, "ranks": ranks, "boundaries": {}}))
        code, out, err = run(capsys, "homology", "--X", f"file:{path}")
        assert (code, out) == (2, "")
        assert shown in err and "canonical" in err

    @pytest.mark.parametrize("key, meant", [("0_3", "3"), (" 4", "4")])
    def test_non_canonical_table_degree_is_two(self, capsys, tmp_path, key, meant):
        pi = {"1": "Z", "2": "Z", "3": "Z", "4": "Z"}
        pi[key] = pi.pop(meant)
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"variant": "absolute", "abelian": True, "pi": pi}))
        code, out, err = run(capsys, "federer-e2", "--A", "rp:2", "--table", str(path))
        assert (code, out) == (2, "")
        assert repr(key) in err and "canonical" in err

    def test_integer_past_the_digit_limit_is_two(self, capsys):
        code, out, err = run(capsys, "hopf-whitney", "--K", "sphere:3",
                             "--pi", "Z/" + "9" * 5000)
        assert (code, out) == (2, "")
        assert str(sys.get_int_max_str_digits()) in err
        assert "99" not in err and len(err) < 200

    def test_whitespace_around_separators_is_allowed(self, capsys, table_file):
        code, out, _ = run(capsys, "torsion-check", "--A", "moore: Z/2 + Z/4 :2",
                           "--table", table_file, "--primes", " 2 , 3 ")
        assert code == 0
        assert "primes = {2, 3}" in out

    def test_huge_torsion_factor_is_decided_without_factoring(self, capsys, table_file):
        # 2000000000000000006 = 2 * 1000000000000000003, a prime near 2^60
        code, out, _ = run(capsys, "torsion-check", "--A", "moore:Z/2000000000000000006:2",
                           "--table", table_file, "--primes", "2")
        assert code == 0
        assert "fails at degree(s) 2" in out

    def test_large_prime_is_accepted(self, capsys, table_file):
        code, out, _ = run(capsys, "torsion-check", "--A", "rp:2",
                           "--table", table_file, "--primes", "1000000000000000003")
        assert code == 0
        assert "primes = {1000000000000000003}" in out

    def test_prime_past_the_limit_is_two(self, capsys, table_file):
        code, out, err = run(capsys, "torsion-check", "--A", "rp:2",
                             "--table", table_file, "--primes", str(2**89 - 1))
        assert (code, out) == (2, "")
        assert "2^64" in err

    def test_relative_table_on_an_absolute_page_is_two(self, capsys):
        table = Path(__file__).parent / "golden" / "rel-table.json"
        code, out, err = run(capsys, "torsion-check", "--A", "rp:2",
                             "--table", str(table), "--primes", "2")
        assert (code, out) == (2, "")
        assert "the absolute variant" in err and "the relative variant" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, text, message", [
        (("homology", "--X", "file:{path}"),
         '{"reduced": true, "ranks": {"1": 2, "2": 2}, "boundaries": {"2": [[1, 0], [1]]}}',
         "boundary '2': expected 2 columns, got 1"),
        (("homology", "--X", "file:{path}"),
         '{"name": 5, "reduced": true, "ranks": {"1": 1}, "boundaries": {}}',
         '"name" must be a string'),
        (("homology", "--X", "file:{path}"), '{"reduced": true, "ranks": [], "boundaries": {}}',
         '"ranks" and "boundaries" must be objects'),
        (("homology", "--X", "file:{path}"),
         '{"reduced": true, "ranks": {"1": -1}, "boundaries": {}}',
         "negative cell count at degree 1"),
        (("homology", "--X", "file:{path}"), "not json",
         "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        (("federer-e2", "--A", "rp:2", "--table", "{path}"), "[1, 2]",
         "homotopy table file must hold a JSON object"),
        (("federer-e2", "--A", "rp:2", "--table", "{path}"),
         '{"variant": "sideways", "abelian": true, "pi": {"1": "Z"}}',
         '"variant" must be "absolute" or "relative"'),
        (("federer-e2", "--A", "rp:2", "--table", "{path}"),
         '{"variant": "absolute", "abelian": true, "pi": [1]}',
         '"pi" must map degrees to group strings'),
        (("federer-e2", "--A", "rp:2", "--table", "{path}"),
         '{"variant": "absolute", "abelian": true, "pi": {"1": 5}}',
         "group for q = 1 must be a string"),
        (("moore-ses", "--G", "Z/2", "--m", "1", "--n", "1", "--table", "{relative}"), None,
         "Moore-space homotopy bounds need an absolute table"),
        (("moore-ses", "--G", "Z/2", "--m", "0", "--n", "1", "--table", "{table}"), None,
         "the Moore degree m must be >= 1"),
        (("torsion-check", "--A", "rp:2", "--table", "{table}", "--primes", ","), None,
         "empty prime list"),
    ], ids=["ragged-boundary", "name-not-a-string", "ranks-a-list", "negative-rank",
            "complex-not-json", "table-not-an-object", "bad-variant", "pi-a-list",
            "group-not-a-string", "moore-ses-relative-table", "moore-ses-m-zero",
            "empty-prime-list"])
    def test_refusal_is_one_error_line(self, capsys, tmp_path, table_file, argv, text, message):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        relative = Path(__file__).parent / "golden" / "rel-table.json"
        code, out, err = run(capsys, *(a.replace("{path}", str(path)).replace(
            "{table}", table_file).replace("{relative}", str(relative)) for a in argv))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unknown_verb_is_two(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("homology", "--X", "file:{path}"),
        ("federer-e2", "--A", "rp:2", "--table", "{path}"),
    ], ids=["complex", "table"])
    def test_deeply_nested_json_is_two(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, *(a.replace("{path}", str(path)) for a in argv))
        assert (code, out) == (2, "")
        assert "nested too deeply" in err

    @pytest.mark.parametrize("argv, text", [
        (("homology", "--X", "file:{path}"),
         '{"reduced": true, "ranks": {"1": 1, "1": 2}, "boundaries": {}}'),
        (("federer-e2", "--A", "rp:2", "--table", "{path}"),
         '{"variant": "absolute", "abelian": true, "pi": {"1": "Z", "2": "0", "1": "Z/2"}}'),
    ], ids=["complex", "table"])
    def test_repeated_json_key_is_two(self, capsys, tmp_path, argv, text):
        # the last value would silently win; the file is refused instead
        path = tmp_path / "repeated.json"
        path.write_text(text)
        code, out, err = run(capsys, *(a.replace("{path}", str(path)) for a in argv))
        assert (code, out) == (2, "")
        assert 'JSON object repeats the key "1"' in err

    @pytest.mark.parametrize("verb", ["homology", "cohomology", "ahomology", "axioms"])
    def test_sphere_at_the_degree_limit_answers(self, capsys, verb):
        x = f"sphere:{MAX_DEGREE}"
        argv = {"homology": ["--X", x], "cohomology": ["--X", x, "--coefficients", "Z/2"],
                "ahomology": ["--A", x, "--X", x], "axioms": ["--A", x, "--X", x]}[verb]
        code, out, err = run(capsys, verb, *argv)
        assert (code, err) == (0, "")
        assert str(MAX_DEGREE) in out

    @pytest.mark.parametrize("recipe, what", [
        ("sphere:{over}", "sphere dimension"),
        ("rp:{over}", "rp dimension"),
        ("moore:Z:{over}", "moore degree"),
        ("moore:Z/2:{limit}", "moore degree"),
        ("sphere:3000000", "sphere dimension"),
    ], ids=["sphere", "rp", "moore-degree", "moore-torsion-cell", "huge-sphere"])
    def test_recipe_past_the_degree_limit_is_two(self, capsys, recipe, what):
        recipe = recipe.format(over=MAX_DEGREE + 1, limit=MAX_DEGREE)
        code, out, err = run(capsys, "homology", "--X", recipe)
        assert (code, out) == (2, "")
        assert what in err and f"past the limit of {MAX_DEGREE} on cell degrees" in err

    @pytest.mark.parametrize("recipe, message", [
        ("sphere:0", "sphere requires a dimension >= 1"),
        ("rp:0", "projective requires a dimension >= 1"),
        ("rp:-1", "projective requires a dimension >= 1"),
        ("moore:Z/2:0", "moore requires a group and a degree m >= 1"),
        ("moore:Z/2", "recipe 'moore:Z/2' needs moore:GROUP:M"),
        ("file:", "file recipe requires a path"),
        ("torus:2", "unknown recipe kind 'torus'"),
        ("sphere", "recipe 'sphere' needs a ':'"),
        ("sphere:65", "sphere dimension 65 puts a cell past the limit of 64 on cell degrees"),
    ])
    def test_recipe_refusal_text_is_pinned(self, capsys, recipe, message):
        code, out, err = run(capsys, "homology", "--X", recipe)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("field", ["ranks", "boundaries"])
    def test_complex_file_degree_past_the_limit_is_two(self, capsys, tmp_path, field):
        over = str(MAX_DEGREE + 1)
        data = {"reduced": True, "ranks": {"1": 1}, "boundaries": {}}
        data[field][over] = 1 if field == "ranks" else []
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "homology", "--X", f"file:{path}")
        assert (code, out) == (2, "")
        assert f"degree {over} puts a cell past the limit of {MAX_DEGREE}" in err

    def test_sparse_table_is_two(self, capsys, tmp_path):
        # two entries 10^11 apart: refused without listing the degrees between
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({"variant": "absolute", "abelian": True,
                                    "pi": {"1": "Z", "100000000000": "Z"}}))
        code, out, err = run(capsys, "federer-e2", "--A", "rp:2", "--table", str(path))
        assert (code, out) == (2, "")
        assert err == "error: absolute table must cover a contiguous range starting at 1\n"

    @pytest.mark.parametrize("argv", [
        ("ahomology", "--A", "rp:3", "--X", "moore:Z^100000000000000000000000:3"),
        ("hopf-whitney", "--K", "rp:8", "--pi", "Z^100000000000000000000000000+Z^3+Z^2"),
        ("cohomology", "--X", "moore:Z^100000000000:3", "--coefficients", "Z/2",
         "--degree", "3"),
        ("homology", "--X", "moore:Z^100000000+Z/3:5"),
        ("homology", "--X", f"moore:Z^{MAX_SUMMANDS}+Z/3:5"),
        ("cohomology", "--X", "rp:2", "--coefficients", f"Z^{MAX_SUMMANDS}+Z"),
        ("cohomology", "--X", f"moore:Z^{MAX_SUMMANDS - 1}:3", "--coefficients",
         "+".join(["Z/2"] * 20), "--degree", "3"),
    ], ids=["ahomology", "hopf-whitney", "cohomology", "homology", "one-over", "two-terms",
            "hom-of-two"])
    def test_summands_past_the_limit_are_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"past the limit of {MAX_SUMMANDS}" in err

    def test_summands_at_the_limit_answer(self, capsys):
        code, out, err = run(capsys, "homology", "--X", f"moore:Z^{MAX_SUMMANDS - 1}+Z/3:2",
                             "--degree", "2")
        assert (code, err) == (0, "")
        assert out == f"H_2(moore:Z^{MAX_SUMMANDS - 1}+Z/3:2) = Z^{MAX_SUMMANDS - 1} + Z/3\n"

    def test_moore_boundary_past_the_bound_is_two(self, capsys):
        code, out, err = run(capsys, "homology", "--X", "moore:" + "+".join(["Z/2"] * 2049) + ":2")
        assert (code, out) == (2, "")
        assert err == (f"error: moore recipe: a boundary of {2049 * 2049} entries is past "
                       f"the limit of {MAX_MOORE_ENTRIES}\n")

    def test_hom_past_the_limit_is_two(self, capsys, tmp_path):
        # each group is under the limit, but Hom(Z^99999, pi_2) would list 10^10 summands
        path = tmp_path / "wide.json"
        path.write_text(WIDE_TABLE)
        code, out, err = run(capsys, "moore-ses", "--G", f"Z^{MAX_SUMMANDS - 1}", "--m", "1",
                             "--table", str(path), "--n", "1")
        assert (code, out) == (2, "")
        assert err == f"error: {(MAX_SUMMANDS - 1) ** 2} summands are past the limit of {MAX_SUMMANDS}\n"

    def test_complex_file_rank_past_the_limit_is_two(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        for rank, want in ((MAX_SUMMANDS, 0), (MAX_SUMMANDS + 1, 2)):
            path.write_text(json.dumps({"reduced": True, "ranks": {"2": rank}, "boundaries": {}}))
            code, _, err = run(capsys, "homology", "--X", f"file:{path}", "--degree", "2")
            assert code == want
        assert err == (f"error: a rank is past the limit of {MAX_SUMMANDS} cells in one degree\n")

    def test_help_is_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0


# a JSON integer past the interpreter's digit limit, spliced into the text
HUGE = "<huge>"
JUNK = st.one_of(st.floats(), st.booleans(), st.text(max_size=2), st.none(),
                 st.lists(st.integers(-2, 2), max_size=2), st.integers(-2**80, 2**80),
                 st.just(HUGE))
DEGREES = st.sampled_from(["0", "3", "01", "+1", "-1", " 2", "1_0", "x", str(MAX_DEGREE + 1)])


@st.composite
def complex_files(draw):
    """The JSON text of a valid two-degree complex with up to three of its
    parts replaced: an entry, a row, a rank, a key or a whole boundary."""
    r1, r2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rows = [[draw(st.integers(-4, 4)) for _ in range(r2)] for _ in range(r1)]
    data = {"reduced": True, "ranks": {"1": r1, "2": r2}, "boundaries": {"2": rows}}
    for kind in draw(st.lists(st.sampled_from(["entry", "row", "rank", "key", "boundary"]),
                              max_size=3)):
        row = rows[draw(st.integers(0, r1 - 1))] if r1 else None
        if kind == "entry" and isinstance(row, list) and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(JUNK)
        elif kind == "row" and r1:
            rows[draw(st.integers(0, r1 - 1))] = draw(st.one_of(
                JUNK, st.lists(st.integers(-4, 4), max_size=4)))
        elif kind == "key":
            values = data[draw(st.sampled_from(["ranks", "boundaries"]))]
            if values:
                values[draw(DEGREES)] = values.pop(draw(st.sampled_from(sorted(values))))
        elif kind in ("rank", "boundary"):
            field = "ranks" if kind == "rank" else "boundaries"
            data[field][draw(st.sampled_from(["1", "2"]))] = draw(JUNK)
    return json.dumps(data).replace(json.dumps(HUGE), "9" * 5000), data


class TestComplexFileFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(complex_files())
    def test_every_file_is_read_or_rejected(self, capsys, tmp_path, case):
        text, data = case
        path = tmp_path / "c.json"
        path.write_text(text)
        code, out, err = run(capsys, "homology", "--X", f"file:{path}")
        assert code in (0, 2) and "Traceback" not in err
        if code == 0:
            assert out and err == ""
            return
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        # an entry of the wrong type is named as the JSON text wrote it
        prefix, _, shown = err.partition(" entries must be JSON integers, got ")
        if shown:
            rows = data["boundaries"][prefix.removeprefix("error: boundary ")[1:-1]]
            first = next(x for row in rows for x in row if type(x) is not int)
            assert shown == json.dumps(first) + "\n"


# pi_2 written out as MAX_SUMMANDS - 1 copies of Z/2: about 400 KB of table
WIDE_TABLE = json.dumps({"variant": "absolute", "abelian": True,
                         "pi": {"1": "0", "2": "+".join(["Z/2"] * (MAX_SUMMANDS - 1)), "3": "0"}})
SPARSE_TABLE = json.dumps({"variant": "absolute", "abelian": True,
                           "pi": {"1": "Z", "100000000000": "Z"}})
def mostly(valid, odd):
    """Values drawn from `valid` nine times in ten, from `odd` otherwise."""
    return st.integers(0, 9).flatmap(lambda i: odd if i == 9 else valid)


ODD_INTS = st.sampled_from(["0", str(MAX_DEGREE), str(MAX_DEGREE + 1), "-1", "01", "+2", " 3",
                            "x", "", str(MAX_SUMMANDS - 1), str(MAX_SUMMANDS + 1),
                            "100000000000", "1" + "0" * 25])
INTS = mostly(st.sampled_from(["1", "2", "3", "4", "6", "8"]), ODD_INTS)
SUMMANDS = mostly(st.sampled_from(["Z", "Z/2", "Z/3", "Z/4", "Z^2", "Z/12"]),
                  st.one_of(st.sampled_from(["0", "Z/", "Q", "Z^", " Z /2"]),
                            ODD_INTS.map("Z^{}".format), ODD_INTS.map("Z/{}".format)))
GROUPS = st.one_of(st.lists(SUMMANDS, min_size=1, max_size=4).map("+".join), st.just("0"))
RECIPES = mostly(
    st.one_of(st.tuples(st.sampled_from(["sphere", "rp", "moore:Z/2", "moore:Z"]), INTS),
              st.tuples(st.just("moore"), GROUPS, INTS), st.just(("file", "{complex}"))),
    st.sampled_from([("file", ""), ("disk", "2"), ("rp", "2:3")])).map(":".join)
PRIMES = mostly(st.sampled_from(["2", "3", "2,3", "5", "2, 5"]),
                st.sampled_from(["4", "0", "-2", "x", "", "2,,3", "18446744073709551557",
                                 "18446744073709551629"]))


@st.composite
def table_texts(draw):
    """The JSON text of a small homotopy table, now and then of the wrong
    variant, not contiguous, unasserted or cut short."""
    variant = draw(mostly(st.sampled_from(["absolute", "relative"]), st.just("both")))
    start = 2 if variant == "relative" else 1
    pi = {str(q): draw(GROUPS) for q in range(start, start + draw(st.integers(0, 9)))}
    if draw(st.integers(0, 9)) == 9:
        pi[draw(ODD_INTS)] = draw(GROUPS)
    text = json.dumps({"variant": variant, "pi": pi,
                       "abelian": draw(mostly(st.just(True), st.sampled_from([False, 1])))})
    return text[:draw(mostly(st.just(len(text)), st.just(len(text) // 2)))]


@st.composite
def calls(draw):
    """A verb with each of its options given a value of the kind it takes,
    now and then left out, and the files it may read: a table and a complex."""
    verb = draw(st.sampled_from([v for v in VERBS if v != "corpus"]))  # corpus reads no input
    argv = [verb]
    for flag, kwargs in VERBS[verb][2]:
        if draw(st.integers(0, 19)) == 19:
            continue
        if "action" in kwargs:
            argv.append(flag)
            continue
        kind = {"RECIPE": RECIPES, "GROUP": GROUPS, "PATH": mostly(st.just("{table}"), st.just("")),
                "P1,P2,...": PRIMES}.get(kwargs.get("metavar"), INTS)
        argv += [flag, draw(kind)]
    argv += draw(mostly(st.sampled_from([[], ["--out", "json"]]), st.just(["--out", "xml"])))
    return argv, draw(table_texts()), draw(complex_files())[0]


class TimeCap(Exception):
    """An in-process call ran past its time cap."""


def _time_cap(signum, frame):
    raise TimeCap


VALID_TABLE = json.dumps({"variant": "absolute", "abelian": True, "pi": {"1": "Z", "2": "Z/2"}})
VALID_COMPLEX = json.dumps({"reduced": True, "ranks": {"1": 1, "2": 1}, "boundaries": {"2": [[2]]}})


class TestMainFuzz:
    """Every call of main ends in exit 0, 1 or 2 within a time cap, with no
    traceback, whatever recipe, group, table or complex text it is given."""

    CAP_S = 5

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(calls())
    @example((["ahomology", "--A", "rp:3", "--X", "moore:Z^100000000000000000000000:3"],
              VALID_TABLE, VALID_COMPLEX))
    @example((["hopf-whitney", "--K", "rp:8", "--pi", "Z^100000000000000000000000000+Z^3+Z^2"],
              VALID_TABLE, VALID_COMPLEX))
    @example((["cohomology", "--X", "moore:Z^100000000000:3", "--coefficients", "Z/2",
               "--degree", "3"], VALID_TABLE, VALID_COMPLEX))
    @example((["homology", "--X", "moore:Z^100000000+Z/3:5"], VALID_TABLE, VALID_COMPLEX))
    @example((["federer-e2", "--A", "rp:2", "--table", "{table}"], SPARSE_TABLE, VALID_COMPLEX))
    @example((["moore-ses", "--G", f"Z^{MAX_SUMMANDS - 1}", "--m", "1", "--table", "{table}",
               "--n", "1"], WIDE_TABLE, VALID_COMPLEX))
    @example((["cohomology", "--X", f"moore:Z^{MAX_SUMMANDS - 1}:3", "--coefficients",
               "+".join(["Z/2"] * 20), "--degree", "3"], VALID_TABLE, VALID_COMPLEX))
    @example((["corpus"], VALID_TABLE, VALID_COMPLEX))
    def test_every_call_exits_cleanly(self, capsys, tmp_path, case):
        argv, table_text, complex_text = case
        paths = {"table": tmp_path / "table.json", "complex": tmp_path / "complex.json"}
        paths["table"].write_text(table_text)
        paths["complex"].write_text(complex_text)
        argv = [arg.format_map(paths) for arg in argv]
        previous = signal.signal(signal.SIGALRM, _time_cap)
        signal.setitimer(signal.ITIMER_REAL, self.CAP_S)
        try:
            code = main(argv)
        except TimeCap:
            pytest.fail(f"ahom {' '.join(argv)} ran past {self.CAP_S} s")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)


class TestParserBuild:
    """A call that names a verb builds that verb's parser alone."""

    @pytest.fixture
    def added(self, monkeypatch):
        names = []

        def counted(action, name, _fn=argparse._SubParsersAction.add_parser, **kwargs):
            names.append(name)
            return _fn(action, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        return names

    @pytest.mark.parametrize("verb", list(VERBS))
    def test_a_named_verb_adds_one_parser(self, capsys, added, verb):
        assert main([verb, "--help"]) == 0
        assert added == [verb]

    def test_a_computing_call_adds_one_parser(self, capsys, added):
        code, out, err = run(capsys, "homology", "--X", "rp:2", "--degree", "1")
        assert (code, out, err) == (0, "H_1(rp:2) = Z/2\n", "")
        assert added == ["homology"]

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"]], ids=["none", "help", "unknown"])
    def test_no_verb_adds_every_parser_in_table_order(self, capsys, added, argv):
        main(argv)
        assert added == list(VERBS) and len(added) == 10

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch, added):
        monkeypatch.setattr(sys, "argv", ["ahom", "homology", "--X", "rp:2"])
        assert main() == 0
        assert capsys.readouterr().out == "H_0(rp:2) = 0\nH_1(rp:2) = Z/2\nH_2(rp:2) = 0\n"
        assert added == ["homology"]


class TestDeterminismAndRoundTrip:
    def test_file_round_trip_matches_recipe(self, capsys, tmp_path):
        c = projective(2)
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(complex_to_json(c)))
        code1, out1, _ = run(capsys, "homology", "--X", f"file:{path}", "--out", "json")
        code2, out2, _ = run(capsys, "homology", "--X", "rp:2", "--out", "json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_byte_identical_runs(self, capsys, table_file):
        outs = []
        for _ in range(2):
            _, out, _ = run(capsys, "federer-e2", "--A", "moore:Z/4+Z:1",
                            "--table", table_file, "--out", "json")
            outs.append(out)
        assert outs[0] == outs[1]


class TestRepeatedCalls:
    """Consecutive main() calls in one process are independent."""

    def test_options_do_not_leak(self, capsys):
        code, out, _ = run(capsys, "homology", "--X", "rp:4", "--degree", "2")
        assert (code, out) == (0, "H_2(rp:4) = 0\n")
        code, out, _ = run(capsys, "homology", "--X", "rp:4")
        assert code == 0
        assert [line.split(" = ")[0] for line in out.splitlines()] == [
            f"H_{n}(rp:4)" for n in range(5)]

    def test_rejected_call_leaves_no_trace(self, capsys):
        code, out, _ = run(capsys, "homology", "--X", "rp:6", "--degree", "two", "--out", "json")
        assert (code, out) == (2, "")
        code, out, err = run(capsys, "homology", "--X", "rp:6", "--out", "json")
        assert (code, err) == (0, "")
        assert out == (Path(__file__).parent / "golden" / "homology-json.out").read_text()
