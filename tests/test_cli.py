import json

import pytest

from ahom.chains import complex_to_json
from ahom.cli import main
from ahom.spaces import projective


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

    def test_unknown_verb_is_two(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

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
