"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is an exact group equality (zero tolerance); the randomized
criteria run on fixed seeds with the instance counts pinned inside
ahom.corpus, so this suite is deterministic.  The same checks back the
command-line `corpus` verb.
"""

import pytest

from ahom import corpus
from ahom.abelian import IntMatrix, SmithDecomposition
from helpers import check_name

CRITERIA = [(f"{i:02d}-{check_name(check)}", check)
            for i, check in enumerate(corpus.ALL_CHECKS, 1)]


@pytest.mark.parametrize("label,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance(label, check):
    result = check()
    print(f"[{label}] {result.line()}")
    assert result.passed, result.detail


def test_corpus_verb_runs_everything(capsys):
    from ahom.cli import main
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == len(CRITERIA)
    assert "FAIL" not in out


@pytest.mark.parametrize("m_rows, u_rows, diagonal", [
    ([[1, 1], [0, 1]], [[1, 0], [0, 1]], (1, 1)),  # U @ m @ V has an off-diagonal entry
    ([[1, 0], [0, 1]], [[1, 0], [0, 2]], (1, 2)),  # U has determinant 2
    ([[2, 0], [0, 3]], [[1, 0], [0, 1]], (2, 3)),  # 2 does not divide 3
    ([[1, 0], [0, 2]], [[1, 0], [0, 1]], (1, 4)),  # U @ m @ V is diag(1, 2), not diag(1, 4)
], ids=["off-diagonal", "det-2", "broken-chain", "other-diagonal"])
def test_snf_certificate_check_rejects_a_bad_decomposition(monkeypatch, m_rows, u_rows, diagonal):
    m, identity = IntMatrix.from_rows(m_rows), IntMatrix.from_rows([[1, 0], [0, 1]])
    bad = SmithDecomposition(IntMatrix.from_rows(u_rows), diagonal, identity)
    assert corpus._snf_certificate_ok(m)
    monkeypatch.setattr(corpus, "snf", lambda _: bad)
    assert not corpus._snf_certificate_ok(m)
