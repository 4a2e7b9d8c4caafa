"""Homology shaped by a finite complex A.

For a finite-dimensional complex A and a connected complex X, the degree-n
shaped homology of X (n >= 0) is the finite direct sum of the cohomology
groups H^(j-n)(A; H_j(X)) over the degrees j where X has homology: by
Dold-Thom it is [S^n A, SP X] = [S^n A, prod_j K(H_j X, j)], so a degree
with H_j(X) = 0 contributes nothing and is never visited.  That formula is
the single computation route here; no symmetric-product model is ever
built.  With A the based 0-sphere the theory collapses to ordinary reduced
homology, which is one of the corpus checks.  Each H^k(A; g) is kept on A by
:func:`~ahom.chains.cohomology_uct`, so sums asked for again cost no Hom/Ext.

One ``axiom_checks(a, x, pieces, degrees)`` checks the suspension and wedge
axioms.  One ``MooreSes`` carries the Moore-coefficient short exact
sequence, for this homology and for the homotopy of ``federer`` alike.  Both
are verification tools: on valid inputs they must always succeed, so a
failing check is evidence of a bug, not of new mathematics.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .abelian import FgAbGroup, direct_sum, exponent, ext, hom
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


class AHomologyReport(namedtuple("AHomologyReport",
                                 "a_name x_name range groups assumptions violations")):
    """Shaped homology of x over all degrees, with the vanishing window.

    `groups` holds every degree from 0 to dim x + 1, trivial ones included.
    `range` is the closed degree interval outside which every group must be
    trivial, derived from the homological connectivity and dimension of both
    complexes; an empty window is (0, -1).  `assumptions` are notes on the
    inputs.  `violations` lists degrees where a computed group escapes the
    window -- that tuple must stay empty, and a nonempty one signals an
    internal inconsistency.
    """

    __slots__ = ()


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


class AxiomCheck(namedtuple("AxiomCheck", "axiom left right detail")):
    """Outcome of one homology-theory axiom instance: both sides rendered."""

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.left == self.right

    def line(self) -> str:
        verdict = "holds" if self.holds else "FAILS"
        return f"{self.axiom} axiom {verdict}: {self.detail}: {self.left} vs {self.right}"


def axiom_checks(a: ChainComplex, x: ChainComplex, pieces: Sequence[ChainComplex],
                 degrees: Sequence[int]) -> list[AxiomCheck]:
    """Per n in `degrees`, the suspension check of x (H^A_n(x) against
    H^A_(n+1) of its suspension) and then the wedge check of `pieces` (H^A_n
    of their wedge against the sum over the pieces).

    The suspension and the wedge are built once, and per degree H^A_n is
    formed once for x and for each distinct piece, x among them or not.
    Both axioms assume connected complexes; a target with extra 0-cells
    violates the formula's hypothesis and can fail at n = 0.
    """
    sx, w = suspension(x), wedge(pieces)
    distinct = {id(c): c for c in (x, *pieces)}
    checks = []
    for n in degrees:
        h = {key: a_homology(a, c, n) for key, c in distinct.items()}
        checks += [AxiomCheck("suspension", h[id(x)], a_homology(a, sx, n + 1),
                              f"A={a.name}, X={x.name}, n={n}"),
                   AxiomCheck("wedge", a_homology(a, w, n), direct_sum([h[id(c)] for c in pieces]),
                              f"A={a.name}, pieces={len(pieces)}, n={n}")]
    return checks


class MooreSes(namedtuple("MooreSes", "ext_part hom_part middle")):
    """The Moore-coefficient short exact sequence Ext(g, T_(n+m+1)) -> middle
    -> Hom(g, T_(n+m)), with T the homology of x or the homotopy of Y.

    `middle` is H^A_n(x) for homology and None for homotopy, whose middle is
    not claimed.  What is claimed derives from the end terms alone: the middle
    has order `order_product` and exponent dividing `exponent_bound`, each an
    int, or math.inf; the extension itself is not resolved.
    """

    __slots__ = ()

    @property
    def order_product(self) -> int | float:
        return self.ext_part.order() * self.hom_part.order()

    @property
    def exponent_bound(self) -> int | float:
        return exponent(self.ext_part) * exponent(self.hom_part)


def moore_a_homology_ses(g: FgAbGroup, m: int, xs: Sequence[ChainComplex],
                         degrees: Sequence[int]) -> list[MooreSes]:
    """The sequence for each target in `xs` and each n in `degrees`, target by
    target; M(g, m) is built once (m < 1 raises ValueError), so its homology
    and the cohomology kept on it serve every pair."""
    a = moore(g, m)
    return [MooreSes(ext(g, homology(x, n + m + 1)), hom(g, homology(x, n + m)),
                     a_homology(a, x, n)) for x in xs for n in degrees]
