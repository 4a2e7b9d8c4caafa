"""Byte-for-byte command-line outputs on fixed inputs.

Each case runs one verb invocation in-process and compares its exit code,
stdout and stderr exactly against the files stored under ``golden/``:
``<case>.out`` holds stdout and ``<case>.err`` stderr (absent when empty).
After a deliberate output change, rewrite the expected files with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ahom.cli import main

GOLDEN = Path(__file__).parent / "golden"
ABS = "{golden}/abs-table.json"
REL = "{golden}/rel-table.json"
FILE = "file:{golden}/complex.json"

# case name -> (argv, expected exit code)
CASES = {
    "homology-text": (["homology", "--X", FILE], 0),
    "homology-json": (["homology", "--X", "rp:6", "--out", "json"], 0),
    "cohomology-text": (["cohomology", "--X", "rp:4", "--coefficients", "Z/2+Z"], 0),
    "cohomology-json": (["cohomology", "--X", FILE, "--coefficients", "Z/6",
                         "--degree", "2", "--out", "json"], 0),
    "ahomology-text": (["ahomology", "--A", "rp:3", "--X", "moore:Z/2:3"], 0),
    "ahomology-json": (["ahomology", "--A", "moore:Z/3:2", "--X", "rp:4",
                        "--out", "json"], 0),
    "federer-e2-text": (["federer-e2", "--A", "rp:3", "--table", ABS], 0),
    "federer-e2-json": (["federer-e2", "--A", "moore:Z/4:2", "--table", REL,
                         "--out", "json"], 0),
    "diagonal-text": (["diagonal", "--A", "rp:2", "--table", ABS, "--n", "2"], 0),
    "diagonal-json": (["diagonal", "--A", "rp:3", "--table", REL, "--n", "3",
                       "--out", "json"], 0),
    "hopf-whitney-text": (["hopf-whitney", "--K", "rp:3", "--pi", "Z/4"], 0),
    "hopf-whitney-json": (["hopf-whitney", "--K", "moore:Z/2:2", "--pi", "Z",
                           "--loop-space", "--out", "json"], 0),
    "moore-ses-text": (["moore-ses", "--G", "Z/2", "--m", "1", "--table", ABS,
                        "--n", "3"], 0),
    "moore-ses-json": (["moore-ses", "--G", "Z/4+Z", "--m", "2", "--table", ABS,
                        "--n", "2", "--out", "json"], 0),
    "torsion-check-text": (["torsion-check", "--A", "rp:2", "--table", ABS,
                            "--primes", "2,3"], 0),
    "torsion-check-json": (["torsion-check", "--A", "moore:Z/3:2", "--table", ABS,
                            "--primes", "2", "--out", "json"], 0),
    "axioms-text": (["axioms", "--A", "rp:2", "--X", "sphere:3"], 0),
    "axioms-json": (["axioms", "--A", "moore:Z/2:1", "--X", "rp:3", "--n", "2",
                     "--out", "json"], 0),
    "corpus-text": (["corpus"], 0),
    "corpus-json": (["corpus", "--out", "json"], 0),
    "refused": (["federer-e2", "--A", "rp:2", "--table",
                 "{golden}/nonabelian-table.json"], 1),
    "malformed": (["hopf-whitney", "--K", "sphere:3", "--pi", "Q"], 2),
}


def run_case(name: str) -> tuple[int, str, str]:
    argv, _ = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([a.replace("{golden}", str(GOLDEN)) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _expected(name: str, suffix: str) -> str:
    path = GOLDEN / f"{name}.{suffix}"
    return path.read_bytes().decode("utf-8") if path.exists() else ""


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    code, out, err = run_case(name)
    assert code == CASES[name][1]
    assert out == _expected(name, "out")
    assert err == _expected(name, "err")


def regenerate() -> None:
    for name in sorted(CASES):
        code, out, err = run_case(name)
        if code != CASES[name][1]:
            sys.exit(f"{name}: exit {code}, expected {CASES[name][1]}")
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
        err_path = GOLDEN / f"{name}.err"
        if err:
            err_path.write_bytes(err.encode("utf-8"))
        elif err_path.exists():
            err_path.unlink()


if __name__ == "__main__":
    regenerate()
