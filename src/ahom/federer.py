"""Second-page assembly for the homotopy spectral sequence of a shape complex.

The page lives in the second quadrant: columns p from -dim(A) to -1, rows q
over a user-supplied table of homotopy groups.  The page is a view of A and
the table: it stores no cell, and derives the group at (p, q), the
cohomology H^(-p)(A; pi_q), when asked, so a verb pays for the cells it
reads; A keeps each such group once (``chains.cohomology_uct``).  How much
the underlying theorem pins a cell down depends on its position alone,
p + q against the edge diagonal q_min - 1 of the variant, and
:meth:`BigradedPage.status` is the one place that says so:

* ``exact`` above the edge diagonal,
* ``subgroup_upper_bound`` on the edge diagonal (the theorem only places the
  true entry inside that group, and this module never narrows it); in the
  relative variant these cells must also die,
* ``zero`` below it, where the support pattern mandates vanishing.

Higher differentials have no formula here, so collapse detection is purely
positional: a diagonal entry is pinned down only when every differential
endpoint it could interact with is forced to vanish.  Diagonals that would
need table entries beyond q_max are reported out of range, never silently
truncated.

The page is also the engine behind the Hopf-Whitney calculators and the
torsion-class propagation report.  The Moore-space bounds on homotopy groups
come as the one ``ahomology.MooreSes`` that also carries the homology
sequence, with no middle claimed.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .abelian import (
    FgAbGroup,
    GroupParseError,
    PrimeSet,
    canonical_int,
    direct_sum,
    ext,
    hom,
    in_class,
    parse_group,
)
from .chains import ChainComplex, cohomology_uct, homology, read_json
from .ahomology import MooreSes, a_homology
from .spaces import is_suspension_shaped

ABSOLUTE = "absolute"
RELATIVE = "relative"
# first table degree of each variant; also where its page converges
TABLE_START = {ABSOLUTE: 1, RELATIVE: 2}

EXACT = "exact"
UPPER_BOUND = "subgroup_upper_bound"
ZERO = "zero"

DETERMINED = "determined"
GRADED_UPPER_BOUNDS = "graded_upper_bounds"
OUT_OF_RANGE = "out_of_convergence_range"

GROUP_VALUED = "group"
SET_VALUED = "set_with_group_cardinality"


class RefusedHypothesis(Exception):
    """An unverifiable hypothesis was not asserted by the caller."""


class TableRangeMiss(RefusedHypothesis):
    """A computation needs homotopy groups beyond the supplied table."""


class HomotopyTable(namedtuple("HomotopyTable", "variant entries abelian_assumption")):
    """Caller-supplied homotopy groups over a contiguous degree range.

    Absolute tables start at q = 1 and stand for pi_q(Y); relative tables
    start at q = 2 and stand for pi_q(Y, B).  `abelian_assumption` asserts
    the abelianness hypothesis (pi_1(Y), respectively pi_2(Y, B)) that the
    page construction cannot verify and refuses to run without.
    """

    __slots__ = ()

    def __new__(cls, variant: str, entries: dict[int, FgAbGroup], abelian_assumption: bool):
        if variant not in TABLE_START:
            raise ValueError(f"unknown table variant {variant!r}")
        if not entries:
            raise ValueError("homotopy table must not be empty")
        keys = sorted(entries)
        q_min = TABLE_START[variant]
        if keys[0] != q_min or keys[-1] - keys[0] + 1 != len(keys):
            raise ValueError(
                f"{variant} table must cover a contiguous range starting at {q_min}")
        return tuple.__new__(cls, (variant, entries, abelian_assumption))

    @property
    def q_min(self) -> int:
        return TABLE_START[self.variant]

    @property
    def q_max(self) -> int:
        return max(self.entries)


TRIVIAL = FgAbGroup.trivial()


class BigradedPage(namedtuple("BigradedPage", "variant p_range q_range a pi")):
    """The second page of the shape complex `a` and the table groups `pi`
    (a dict by q), over the cells p_range x q_range; a cell's group is
    derived when read, and its status follows from p + q and the variant alone."""

    __slots__ = ()

    @property
    def entries(self) -> dict[tuple[int, int], FgAbGroup]:
        """Every cell's group by (p, q), in sorted order, formed on each read
        and kept by no one: only readers of the whole page ask for it."""
        p_lo, p_hi = self.p_range
        q_lo, q_hi = self.q_range
        return {(p, q): self.group(p, q) for p in range(p_lo, p_hi + 1)
                for q in range(q_lo, q_hi + 1)}

    def status(self, p: int, q: int) -> str:
        """Zero below the edge diagonal p + q = q_min - 1, an upper bound on it, exact above."""
        above_edge = p + q - TABLE_START[self.variant] + 1
        return ZERO if above_edge < 0 else EXACT if above_edge else UPPER_BOUND

    def must_die(self, p: int, q: int) -> bool:
        """Relative edge cells converge to the trivial group."""
        return self.variant == RELATIVE and self.status(p, q) == UPPER_BOUND

    def group(self, p: int, q: int) -> FgAbGroup:
        """H^(-p)(A; pi_q), or the trivial group off the page or below the edge."""
        g = self.pi.get(q)  # pi covers q_range exactly
        if g is None or not self.p_range[0] <= p <= self.p_range[1] or self.status(p, q) == ZERO:
            return TRIVIAL
        return cohomology_uct(self.a, -p, g)

    def diagonal(self, n: int) -> list[tuple[int, int]]:
        """The cells of the page with p + q = n, leftmost column first."""
        p_lo, p_hi = self.p_range
        q_lo, q_hi = self.q_range
        return [(p, n - p) for p in range(max(p_lo, n - q_hi), min(p_hi, n - q_lo) + 1)]


def _assemble_page(a: ChainComplex, table: HomotopyTable, variant: str) -> BigradedPage:
    if table.variant != variant:
        raise ValueError(f"expected a homotopy table of the {variant} variant, "
                         f"got the {table.variant} variant")
    if not table.abelian_assumption:
        fundamental = "pi_1(Y)" if variant == ABSOLUTE else "pi_2(Y, B)"
        raise RefusedHypothesis(
            f"refused: the table does not assert that {fundamental} is abelian, "
            "which the page construction requires and cannot verify")
    return BigradedPage(variant, (-a.top_degree, -1), (table.q_min, table.q_max), a, table.entries)


def federer_e2(a: ChainComplex, table: HomotopyTable) -> BigradedPage:
    """Absolute second page: entry (p, q) is H^(-p)(a; pi_q(Y)).

    Entries vanish for p + q < 0; the edge diagonal p + q = 0 only carries
    subgroup upper bounds; everything with p + q >= 1 is exact.
    """
    return _assemble_page(a, table, ABSOLUTE)


def relative_federer_e2(a: ChainComplex, table: HomotopyTable) -> BigradedPage:
    """Relative second page: vanishing for p + q <= 0, upper bounds on
    p + q = 1, exact from p + q = 2 on.

    The whole p + q = 1 diagonal converges to the trivial group, so those
    entries additionally carry the must-die mark.
    """
    return _assemble_page(a, table, RELATIVE)


# ---------------------------------------------------------------------------
# Collapse analysis
# ---------------------------------------------------------------------------

class DiagonalVerdict(namedtuple("DiagonalVerdict", "n surviving verdict group notes")):
    """What position analysis alone can say about one total degree.

    `surviving` holds a (p, q, group, status) tuple per nonzero cell, and
    `group` is the limit when the verdict pins it, else None.
    `determined` needs a single surviving exact entry (or none at all, which
    pins the limit to the trivial group) with every differential endpoint
    dead; several survivors only ever yield associated-graded upper bounds,
    because no differential or extension data is computed.
    """

    __slots__ = ()


def collapse_report(page: BigradedPage, n: int) -> DiagonalVerdict:
    threshold = TABLE_START[page.variant]
    if n < threshold:
        return DiagonalVerdict(
            n, (), OUT_OF_RANGE, None,
            (f"total degree {n} is below the convergence range (n >= {threshold})",))
    p_lo, p_hi = page.p_range
    q_hi = page.q_range[1]
    if p_lo <= p_hi and n - p_lo > q_hi:  # the leftmost column needs the highest q
        return DiagonalVerdict(
            n, (), OUT_OF_RANGE, None,
            (f"table ends at q = {q_hi} but the diagonal needs q up to {n - p_lo}",))

    surviving = [(p, q, g, page.status(p, q)) for p, q in page.diagonal(n)
                 if not (g := page.group(p, q)).is_trivial()]
    # a differential endpoint lies on diagonal n - 1 or n + 1, so in a column
    # of the page it lies below q = n - p_lo, inside the table
    notes = [f"possible differential between ({p},{q}) and ({p2},{q2})"
             for p, q, _, _ in surviving for step in range(2, (p_hi - p_lo) + 2)
             for p2, q2 in ((p + step, q - step + 1), (p - step, q + step - 1))
             if not page.group(p2, q2).is_trivial()]

    if not surviving:
        return DiagonalVerdict(
            n, (), DETERMINED, FgAbGroup.trivial(),
            ("every entry on the diagonal vanishes",))
    if notes:
        return DiagonalVerdict(
            n, tuple(surviving), GRADED_UPPER_BOUNDS, None, tuple(notes))
    if len(surviving) == 1 and surviving[0][3] == EXACT:
        return DiagonalVerdict(
            n, tuple(surviving), DETERMINED, surviving[0][2],
            ("single surviving exact entry with all differentials dead",))
    return DiagonalVerdict(
        n, tuple(surviving), GRADED_UPPER_BOUNDS, None,
        ("several surviving entries: only the associated graded is known; "
         "the extension problem is not solved",))


# ---------------------------------------------------------------------------
# Hopf-Whitney calculators
# ---------------------------------------------------------------------------

class HopfWhitneyResult(namedtuple("HopfWhitneyResult", "group structure")):
    """The group, and whether [K, Y] is one: `structure` is GROUP_VALUED or SET_VALUED."""

    __slots__ = ()


def hopf_whitney(k: ChainComplex, pi_n: FgAbGroup,
                 loop_space: bool = False) -> HopfWhitneyResult:
    """[K, Y] for an n-dimensional K and (n-1)-connected Y with pi_n(Y) given.

    The answer is H^n(K; pi_n) as a set; it is a group when K has suspension
    shape or the caller asserts that Y is a loop space.
    """
    n = k.top_degree
    if n < 2:
        raise RefusedHypothesis(
            f"refused: the source complex must have dimension >= 2, got {n}")
    group = cohomology_uct(k, n, pi_n)
    structure = GROUP_VALUED if (is_suspension_shaped(k) or loop_space) else SET_VALUED
    return HopfWhitneyResult(group, structure)


def relative_hopf_whitney(k: ChainComplex, pi_rel: FgAbGroup) -> FgAbGroup:
    """[(CK, K); (Y, B)] for suspension-shaped K of dimension n and an
    n-connected pair with pi_(n+1)(Y, B) given: the group H^n(K; pi_rel)."""
    if not is_suspension_shaped(k):
        raise RefusedHypothesis(
            "refused: K must be the suspension of a path-connected complex "
            "(no cells in degrees 0 or 1)")
    return hopf_whitney(k, pi_rel).group


# ---------------------------------------------------------------------------
# Moore-coefficient bounds on homotopy groups
# ---------------------------------------------------------------------------

def moore_homotopy_ses(g: FgAbGroup, m: int, table: HomotopyTable, n: int) -> MooreSes:
    """The sequence around pi_n shaped by M(g, m), its middle not claimed."""
    if m < 1:
        raise ValueError("the Moore degree m must be >= 1")
    if n < 1:
        raise ValueError("the homotopy degree n must be >= 1")
    if table.variant != ABSOLUTE:
        raise ValueError("Moore-space homotopy bounds need an absolute table")
    if not table.abelian_assumption:
        raise RefusedHypothesis(
            "refused: the table does not assert that pi_1(Y) is abelian")
    for q in (n + m, n + m + 1):
        if q not in table.entries:
            raise TableRangeMiss(f"refused: homotopy table does not cover q = {q}")
    return MooreSes(ext(g, table.entries[n + m + 1]), hom(g, table.entries[n + m]), None)


# ---------------------------------------------------------------------------
# Torsion-class propagation
# ---------------------------------------------------------------------------

class TorsionClassReport(namedtuple("TorsionClassReport", "primes hypothesis_holds "
                                    "hypothesis_failures entries_in_class diagonal_flags")):
    """Whether torsion confined to the primes of p propagates to the page.

    When every reduced homology group of the shape complex lies in the
    torsion class, every page entry must too, and then so does every
    convergent diagonal; `diagonal_flags` records that conclusion per total
    degree that the table fully covers.
    """

    __slots__ = ()


def torsion_class_check(a: ChainComplex, table: HomotopyTable,
                        primes: PrimeSet) -> TorsionClassReport:
    failures = tuple(j for j in range(1, a.top_degree + 1)
                     if not in_class(homology(a, j), primes))
    hypothesis = not failures
    page = federer_e2(a, table)
    # H^k(A; g) sits on a cell above the zero region exactly when g = pi_q, q >= k
    highest = {table.entries[q]: q for q in range(table.q_min, table.q_max + 1)}
    in_range = all(in_class(cohomology_uct(a, k, g), primes)
                   for g, q in highest.items() for k in range(1, min(q, a.top_degree) + 1))
    flags = {n: hypothesis and (in_range or all(in_class(page.group(*cell), primes)
                                                for cell in page.diagonal(n)))
             for n in range(1, table.q_max - a.top_degree + 1)}
    return TorsionClassReport(
        primes=primes,
        hypothesis_holds=hypothesis,
        hypothesis_failures=failures,
        entries_in_class=in_range,
        diagonal_flags=flags,
    )


# ---------------------------------------------------------------------------
# Cross-path consistency with the shaped-homology formula
# ---------------------------------------------------------------------------

class ConsistencyCheck(namedtuple("ConsistencyCheck", "n holds diagonal_sum formula_value")):
    __slots__ = ()


def e2_consistency_with_ahomology(a: ChainComplex, x: ChainComplex,
                                  n: int) -> ConsistencyCheck:
    """Feed t(q) = H_q(x) into the absolute page and compare diagonal n
    against the shaped-homology formula: the two routes must agree."""
    if n < 1:
        raise ValueError("consistency check needs n >= 1")
    q_max = max(n + a.top_degree, 1)
    # pi_1 of the symmetric-product target is abelian, so nothing is refused
    page = federer_e2(a, HomotopyTable(ABSOLUTE, {q: homology(x, q) for q in range(1, q_max + 1)},
                                       True))
    # p + q = n >= 1 puts every cell of the diagonal above the edge: all exact
    diagonal_sum = direct_sum(page.group(p, q) for p, q in page.diagonal(n))
    formula_value = a_homology(a, x, n)
    return ConsistencyCheck(n, diagonal_sum == formula_value,
                            diagonal_sum, formula_value)


# ---------------------------------------------------------------------------
# Interchange formats and rendering
# ---------------------------------------------------------------------------

def homotopy_table_from_json(data: object) -> HomotopyTable:
    """Parse {"variant": ..., "abelian": ..., "pi": {"q": "group", ...}}."""
    if not isinstance(data, dict):
        raise ValueError("homotopy table file must hold a JSON object")
    variant = data.get("variant")
    if variant not in (ABSOLUTE, RELATIVE):
        raise ValueError('"variant" must be "absolute" or "relative"')
    abelian = data.get("abelian")
    if not isinstance(abelian, bool):
        raise ValueError('"abelian" must be true or false')
    pi = data.get("pi")
    if not isinstance(pi, dict):
        raise ValueError('"pi" must map degrees to group strings')
    groups, parsed = {}, {}  # parsed: each distinct group text, read once
    for key, text in pi.items():
        q = canonical_int(key, "table degree")
        if not isinstance(text, str):
            raise ValueError(f"group for q = {q} must be a string")
        if text not in parsed:
            try:
                parsed[text] = parse_group(text)
            except GroupParseError as exc:
                raise ValueError(f"q = {q}: {exc}") from None
        groups[q] = parsed[text]
    return HomotopyTable(variant, groups, abelian_assumption=abelian)


def load_homotopy_table(path: str) -> HomotopyTable:
    return homotopy_table_from_json(read_json(path))


def render_page(page: BigradedPage) -> str:
    """Text grid, rows q descending, columns p ascending from -dim(A).

    Cells carry "*" for subgroup upper bounds and "!" for entries that must
    vanish in the limit.  Each cell is read from the page as its row is made.
    """
    p_lo, p_hi = page.p_range
    q_lo, q_hi = page.q_range
    ps = range(p_lo, p_hi + 1)
    rows = [["q\\p"] + [str(p) for p in ps]]
    for q in range(q_hi, q_lo - 1, -1):
        rows.append([str(q)] + [str(page.group(p, q))
                                + ("*" if page.status(p, q) == UPPER_BOUND else "")
                                + ("!" if page.must_die(p, q) else "") for p in ps])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in rows)


def page_to_json(page: BigradedPage) -> dict:
    out = {}
    for p in range(page.p_range[0], page.p_range[1] + 1):
        for q in range(page.q_range[0], page.q_range[1] + 1):
            cell = {"group": str(page.group(p, q)), "status": page.status(p, q)}
            if page.must_die(p, q):
                cell["must_die"] = True
            out[f"{p},{q}"] = cell
    return out


def render_exponent(value: int | float) -> str:
    return "infinite" if value == math.inf else str(value)
