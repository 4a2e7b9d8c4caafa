import json
import sys
from pathlib import Path

import pytest

from ahom.chains import MAX_DEGREE
from ahom.cli import main
from ahom.spaces import projective
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
        # sphere:64 has homology in degree 64 only, so each of the five sums
        # at n = 0..64 makes one Hom/Ext call (325) and n = 65 makes none
        from ahom import ahomology
        calls = []

        def counted(*args, _fn=ahomology.cohomology_uct):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(ahomology, "cohomology_uct", counted)
        code, out, _ = run(capsys, "axioms", "--A", "sphere:64", "--X", "sphere:64")
        assert code == 0 and "FAILS" not in out
        assert len(calls) <= 330


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

    def test_help_is_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0


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
