"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is an exact group equality (zero tolerance); the randomized
criteria run on fixed seeds with the instance counts pinned inside
ahom.corpus, so this suite is deterministic.  The same checks back the
command-line `corpus` verb.
"""

import pytest

from ahom import abelian, corpus
from ahom.abelian import FgAbGroup, IntMatrix, cokernel, direct_sum, snf, split_pivots
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


def _lose_rank(d: tuple[int, ...]) -> tuple[int, ...]:
    """d with its last nonzero entry made 0, so zeros still trail."""
    rank = sum(1 for x in d if x)
    return d[:rank - 1] + (0,) * (len(d) - rank + 1) if rank else d


@pytest.mark.parametrize("edit", [
    lambda d: (2 * d[0], *d[1:]) if d else d,
    _lose_rank,
], ids=["other-diagonal", "lost-rank"])
def test_snf_certificate_check_rejects_a_bad_decomposition(monkeypatch, edit):
    def bad_snf(m):
        dec = snf(m)
        return dec._replace(diagonal=edit(dec.diagonal))

    monkeypatch.setattr(corpus, "snf", bad_snf)
    assert not corpus.check_snf_certificates().passed


@pytest.mark.parametrize("extra", [FgAbGroup.free(1), FgAbGroup.cyclic(2)],
                         ids=["extra-free", "extra-torsion"])
def test_snf_certificate_check_rejects_a_wrong_cokernel(monkeypatch, extra):
    monkeypatch.setattr(corpus, "cokernel", lambda m: direct_sum([cokernel(m), extra]))
    assert not corpus.check_snf_certificates().passed


def _residual_mutant(free, factors):
    """abelian.residual_cokernel with its last line edited: free(rows, rank)
    for the free rank, factors(diagonal) for the nonzero Smith diagonal."""
    def residual_cokernel(rows, orders):
        if not any(map(any, rows)):
            return FgAbGroup.of(len(rows), orders)
        dec = snf(IntMatrix.from_rows(rows))
        return FgAbGroup.of(free(len(rows), dec.rank), [*orders, *factors(dec.diagonal[:dec.rank])])
    return residual_cokernel


def _double_first_multiple_of_4(d):
    first = next((i for i, x in enumerate(d) if x % 4 == 0), -1)
    return [x * (1 + (i == first)) for i, x in enumerate(d)]


def _nine_for_three(d):
    """abelian.split_pivots recording each split pivot 3 as 9."""
    return {n: [9 if p == 3 else p for p in orders] for n, orders in split_pivots(d).items()}


ENGINE_MUTANTS = {
    "free-rank": ("residual_cokernel", _residual_mutant(
        lambda rows, rank: rows - rank - (rank > 2 and rows > rank), list)),
    "double-4": ("residual_cokernel", _residual_mutant(
        lambda rows, rank: rows - rank, _double_first_multiple_of_4)),
    "third-of-27": ("residual_cokernel", _residual_mutant(
        lambda rows, rank: rows - rank, lambda d: [x // 3 if x % 27 == 0 else x for x in d])),
    "pivot-3-as-9": ("split_pivots", _nine_for_three),
}


@pytest.mark.parametrize("mutant", ENGINE_MUTANTS)
def test_snf_certificate_check_catches_each_engine_mutant(monkeypatch, mutant):
    """The four recorded one-line mutants of the engine behind cokernel each
    fail the planted check; the free-rank one passes every other check."""
    name, replacement = ENGINE_MUTANTS[mutant]
    monkeypatch.setattr(abelian, name, replacement)
    assert not corpus.check_snf_certificates().passed
