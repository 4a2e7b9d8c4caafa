"""Homology shaped by a finite complex A.

For a finite-dimensional complex A and a connected complex X, the degree-n
shaped homology of X (n >= 0) is the finite direct sum of the cohomology
groups H^(j-n)(A; H_j(X)) over the degrees j where X has homology: by
Dold-Thom it is [S^n A, SP X] = [S^n A, prod_j K(H_j X, j)], so a degree
with H_j(X) = 0 contributes nothing and is never visited.  That formula is
the single computation route here; no symmetric-product model is ever
built.  With A the based 0-sphere the theory collapses to ordinary reduced
homology, which is one of the corpus checks.

The axiom checkers (suspension and wedge) and the Moore-space short-exact-
sequence decomposition are verification tools: on valid inputs they must
always succeed, so a failing check is evidence of a bug, not of new
mathematics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .abelian import FgAbGroup, direct_sum, ext, hom
from .chains import ChainComplex, cohomology_uct, homology, suspension, wedge
from .spaces import moore


def a_homology(a: ChainComplex, x: ChainComplex, n: int) -> FgAbGroup:
    """The degree-n homology of x shaped by a.

    Sums cohomology_uct(a, j-n, H_j(x)) over the degrees j >= 1 of
    ``x.graded_homology`` with 0 <= j-n <= dim a; every other term vanishes,
    since a carries no cohomology outside [0, dim a].  The theory is
    [S^n A, SP X], so a negative n raises ValueError.
    """
    if n < 0:
        raise ValueError(f"shaped homology needs a degree n >= 0, got n = {n}")
    return direct_sum([cohomology_uct(a, j - n, h) for j, h in x.graded_homology.items()
                       if j >= 1 and 0 <= j - n <= a.top_degree])


@dataclass(frozen=True)
class AHomologyReport:
    """Shaped homology of x over all degrees, with the vanishing window.

    `groups` holds every degree from 0 to dim x + 1, trivial ones included.
    `range` is the closed degree interval outside which every group must be
    trivial, derived from the homological connectivity and dimension of both
    complexes; an empty window is (0, -1).  `violations` lists degrees where
    a computed group escapes the window -- that list must stay empty, and a
    nonempty one signals an internal inconsistency.
    """

    a_name: str
    x_name: str
    range: tuple[int, int]
    groups: dict[int, FgAbGroup]
    assumptions: tuple[str, ...]
    violations: tuple[str, ...] = ()


def a_homology_range(a: ChainComplex, x: ChainComplex) -> AHomologyReport:
    """Compute every degree and verify the two vanishing bounds.

    With lo(c) the lowest nonzero-homology degree, a nonzero group needs
    lo(x) - dim(a) <= n <= dim(x) - lo(a): the summand at j demands both
    j - n <= dim(a) with j >= lo(x) and j - n >= lo(a) with j <= dim(x).
    As lo(a) >= 0, the window never reaches past dim(x), the last degree
    but one that is printed.
    """
    ha, hx = a.graded_homology, x.graded_homology
    window = (max(0, min(hx) - a.top_degree), x.top_degree - min(ha)) if ha and hx else (0, -1)
    groups = {n: a_homology(a, x, n) for n in range(x.top_degree + 2)}
    violations = tuple(
        f"nonzero group {g} at degree {n} outside window {window}"
        for n, g in groups.items() if not g.is_trivial() and not window[0] <= n <= window[1])
    return AHomologyReport(
        a_name=a.name,
        x_name=x.name,
        range=window,
        groups=groups,
        assumptions=_assumptions(a, x),
        violations=violations,
    )


def _assumptions(a: ChainComplex, x: ChainComplex) -> tuple[str, ...]:
    notes = [
        "A is finite-dimensional (finite cell data)",
        "X is taken to be path-connected; connectivity is certified "
        "homologically, not homotopically",
    ]
    if a.rank(0) > 0:
        notes.append(
            "A has 0-cells beyond the basepoint (0-sphere-style comparison); "
            "the path-connectedness convention does not apply to A")
    return tuple(notes)


def render_report(report: AHomologyReport) -> str:
    lines = [f"A = {report.a_name}", f"X = {report.x_name}"]
    lines.extend(f"H^A_{n}(X) = {g}" for n, g in report.groups.items())
    for violation in report.violations:
        lines.append(f"INTERNAL CONSISTENCY FAILURE: {violation}")
    lines.append("assumptions:")
    lines.extend(f"  - {note}" for note in report.assumptions)
    return "\n".join(lines)


def report_to_json(report: AHomologyReport) -> dict:
    out: dict = {str(n): str(g) for n, g in report.groups.items()}
    out["assumptions"] = list(report.assumptions)
    if report.violations:
        out["violations"] = list(report.violations)
    return out


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one homology-theory axiom instance: both sides rendered."""

    axiom: str
    left: FgAbGroup
    right: FgAbGroup
    detail: str

    @property
    def holds(self) -> bool:
        return self.left == self.right

    def line(self) -> str:
        verdict = "holds" if self.holds else "FAILS"
        return f"{self.axiom} axiom {verdict}: {self.detail}: {self.left} vs {self.right}"


def check_suspension_axiom(a: ChainComplex, x: ChainComplex,
                           degrees: Sequence[int]) -> list[AxiomCheck]:
    """H^A_n(x) must agree with H^A_(n+1) of the suspension of x, for each n
    in `degrees`; the suspension is built once.

    Holds for every connected x; a target with extra 0-cells violates the
    formula's hypothesis and can fail at n = 0.
    """
    sx = suspension(x)
    return [AxiomCheck("suspension", a_homology(a, x, n), a_homology(a, sx, n + 1),
                       f"A={a.name}, X={x.name}, n={n}")
            for n in degrees]


def check_wedge_axiom(a: ChainComplex, xs: Sequence[ChainComplex],
                      degrees: Sequence[int]) -> list[AxiomCheck]:
    """Shaped homology of a wedge must be the direct sum of the pieces, for
    each n in `degrees`; the wedge is built once.

    As with the suspension axiom, the pieces are assumed connected.
    """
    w = wedge(xs)
    return [AxiomCheck("wedge", a_homology(a, w, n),
                       direct_sum([a_homology(a, x, n) for x in xs]),
                       f"A={a.name}, pieces={len(xs)}, n={n}")
            for n in degrees]


@dataclass(frozen=True)
class MooreHomologySes:
    """The two end terms of the Moore-coefficient short exact sequence and
    the middle group as the formula computes it.

    The sequence places the middle between Ext(g, H_(n+m+1)(x)) and
    Hom(g, H_(n+m)(x)); when everything is finite the middle's order is the
    product of the end orders, but the extension itself is not resolved.
    """

    ext_part: FgAbGroup
    hom_part: FgAbGroup
    middle: FgAbGroup


def moore_a_homology_ses(g: FgAbGroup, m: int, x: ChainComplex, n: int) -> MooreHomologySes:
    if m < 1:
        raise ValueError("the Moore degree m must be >= 1")
    return MooreHomologySes(
        ext_part=ext(g, homology(x, n + m + 1)),
        hom_part=hom(g, homology(x, n + m)),
        middle=a_homology(moore(g, m), x, n),
    )
