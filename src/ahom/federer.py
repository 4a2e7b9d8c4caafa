"""Second-page assembly for the homotopy spectral sequence of a shape complex.

The page lives in the second quadrant: columns p from -dim(A) to -1, rows q
over a user-supplied table of homotopy groups.  Entry (p, q) is the
cohomology H^(-p)(A; pi_q) with a status recording how much the underlying
theorem pins it down:

* ``exact`` above the edge diagonal,
* ``subgroup_upper_bound`` on the edge diagonal (the theorem only places the
  true entry inside that group, and this module never narrows it),
* ``zero`` where the support pattern mandates vanishing.

Higher differentials have no formula here, so collapse detection is purely
positional: a diagonal entry is pinned down only when every differential
endpoint it could interact with is forced to vanish.  Diagonals that would
need table entries beyond q_max are reported out of range, never silently
truncated.

The page is also the engine behind the Hopf-Whitney calculators, the
Moore-space bounds on homotopy groups, and the torsion-class propagation
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

from .abelian import (
    FgAbGroup,
    GroupParseError,
    PrimeSet,
    canonical_int,
    direct_sum,
    exponent,
    ext,
    hom,
    in_class,
    parse_group,
)
from .chains import ChainComplex, cohomology_uct, homology, read_json
from .ahomology import a_homology
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


@dataclass(frozen=True)
class HomotopyTable:
    """Caller-supplied homotopy groups over a contiguous degree range.

    Absolute tables start at q = 1 and stand for pi_q(Y); relative tables
    start at q = 2 and stand for pi_q(Y, B).  `abelian_assumption` asserts
    the abelianness hypothesis (pi_1(Y), respectively pi_2(Y, B)) that the
    page construction cannot verify and refuses to run without.
    """

    variant: str
    entries: dict[int, FgAbGroup]
    abelian_assumption: bool

    def __post_init__(self):
        if self.variant not in TABLE_START:
            raise ValueError(f"unknown table variant {self.variant!r}")
        if not self.entries:
            raise ValueError("homotopy table must not be empty")
        keys = sorted(self.entries)
        if keys != list(range(self.q_min, keys[-1] + 1)):
            raise ValueError(
                f"{self.variant} table must cover a contiguous range starting at {self.q_min}")

    @property
    def q_min(self) -> int:
        return TABLE_START[self.variant]

    @property
    def q_max(self) -> int:
        return max(self.entries)


@dataclass(frozen=True)
class PageEntry:
    group: FgAbGroup
    status: str
    must_die: bool = False


_ZERO_ENTRY = PageEntry(FgAbGroup.trivial(), ZERO)


@dataclass(frozen=True)
class BigradedPage:
    """The finite grid of second-page entries for one shape complex and table."""

    variant: str
    p_range: tuple[int, int]
    q_range: tuple[int, int]
    entries: dict[tuple[int, int], PageEntry]

    def entry(self, p: int, q: int) -> PageEntry:
        return self.entries.get((p, q), _ZERO_ENTRY)

    def diagonal(self, n: int) -> list[tuple[int, int, PageEntry]]:
        """All stored entries with p + q = n, leftmost column first."""
        p_lo, p_hi = self.p_range
        return [(p, n - p, self.entries[(p, n - p)])
                for p in range(p_lo, p_hi + 1)
                if (p, n - p) in self.entries]


def _assemble_page(a: ChainComplex, table: HomotopyTable, variant: str) -> BigradedPage:
    if table.variant != variant:
        raise ValueError(f"expected a {variant} homotopy table, got {table.variant}")
    if not table.abelian_assumption:
        fundamental = "pi_1(Y)" if variant == ABSOLUTE else "pi_2(Y, B)"
        raise RefusedHypothesis(
            f"refused: the table does not assert that {fundamental} is abelian, "
            "which the page construction requires and cannot verify")
    dim_a = a.top_degree
    uct = cache(partial(cohomology_uct, a))  # one H^(-p)(a; g) per distinct (p, g)
    entries: dict[tuple[int, int], PageEntry] = {}
    for p in range(-dim_a, 0):
        for q in range(table.q_min, table.q_max + 1):
            total = p + q
            if total < table.q_min - 1:
                entries[(p, q)] = _ZERO_ENTRY
            else:
                group = uct(-p, table.entries[q])
                if total >= table.q_min:
                    entries[(p, q)] = PageEntry(group, EXACT)
                else:
                    entries[(p, q)] = PageEntry(
                        group, UPPER_BOUND, must_die=(variant == RELATIVE))
    return BigradedPage(variant, (-dim_a, -1), (table.q_min, table.q_max), entries)


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

@dataclass(frozen=True)
class DiagonalVerdict:
    """What position analysis alone can say about one total degree.

    `determined` needs a single surviving exact entry (or none at all, which
    pins the limit to the trivial group) with every differential endpoint
    dead; several survivors only ever yield associated-graded upper bounds,
    because no differential or extension data is computed.
    """

    n: int
    surviving: tuple[tuple[int, int, PageEntry], ...]
    verdict: str
    group: FgAbGroup | None = None
    notes: tuple[str, ...] = ()


def collapse_report(page: BigradedPage, n: int) -> DiagonalVerdict:
    threshold = TABLE_START[page.variant]
    if n < threshold:
        return DiagonalVerdict(
            n, (), OUT_OF_RANGE, None,
            (f"total degree {n} is below the convergence range (n >= {threshold})",))
    p_lo, p_hi = page.p_range
    q_lo, q_hi = page.q_range

    missing = [n - p for p in range(p_lo, p_hi + 1) if n - p > q_hi]
    if missing:
        return DiagonalVerdict(
            n, (), OUT_OF_RANGE, None,
            (f"table ends at q = {q_hi} but the diagonal needs q up to {max(missing)}",))

    support_min = threshold - 1

    def possibly_nonzero(p: int, q: int) -> bool | None:
        """False when the position is forced to vanish, None when unknown."""
        if p < p_lo or p > p_hi:
            return False
        if p + q < support_min:
            return False
        if q > q_hi:
            return None
        return not page.entry(p, q).group.is_trivial()

    surviving = [(p, q, e) for p, q, e in page.diagonal(n)
                 if not e.group.is_trivial()]
    notes: list[str] = []
    any_possible_differential = False
    for p, q, _ in surviving:
        for step in range(2, (p_hi - p_lo) + 2):
            for p2, q2 in ((p + step, q - step + 1), (p - step, q + step - 1)):
                state = possibly_nonzero(p2, q2)
                if state is None:
                    return DiagonalVerdict(
                        n, tuple(surviving), OUT_OF_RANGE, None,
                        (f"a differential endpoint of ({p},{q}) needs q = {q2} "
                         f"beyond the table (q_max = {q_hi})",))
                if state:
                    any_possible_differential = True
                    notes.append(f"possible differential between ({p},{q}) and ({p2},{q2})")

    if not surviving:
        return DiagonalVerdict(
            n, (), DETERMINED, FgAbGroup.trivial(),
            ("every entry on the diagonal vanishes",))
    if any_possible_differential:
        return DiagonalVerdict(
            n, tuple(surviving), GRADED_UPPER_BOUNDS, None, tuple(notes))
    if len(surviving) == 1 and surviving[0][2].status == EXACT:
        return DiagonalVerdict(
            n, tuple(surviving), DETERMINED, surviving[0][2].group,
            ("single surviving exact entry with all differentials dead",))
    return DiagonalVerdict(
        n, tuple(surviving), GRADED_UPPER_BOUNDS, None,
        ("several surviving entries: only the associated graded is known; "
         "the extension problem is not solved",))


# ---------------------------------------------------------------------------
# Hopf-Whitney calculators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HopfWhitneyResult:
    group: FgAbGroup
    structure: str  # GROUP_VALUED or SET_VALUED


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

@dataclass(frozen=True)
class MooreHomotopySes:
    """End terms of the short exact sequence around pi_n shaped by a Moore
    space: Ext(g, pi_(n+m+1)) feeds in, Hom(g, pi_(n+m)) projects out.

    The middle group itself is not claimed; `order_product` and
    `exponent_bound` are the consequences that are: the middle has exactly
    that order (finite case) and exponent dividing the bound.
    """

    ext_part: FgAbGroup
    hom_part: FgAbGroup
    order_product: int | float
    exponent_bound: int | float


def moore_homotopy_ses(g: FgAbGroup, m: int, table: HomotopyTable,
                       n: int) -> MooreHomotopySes:
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
    ext_part = ext(g, table.entries[n + m + 1])
    hom_part = hom(g, table.entries[n + m])
    return MooreHomotopySes(
        ext_part=ext_part,
        hom_part=hom_part,
        order_product=ext_part.order() * hom_part.order(),
        exponent_bound=exponent(ext_part) * exponent(hom_part),
    )


# ---------------------------------------------------------------------------
# Torsion-class propagation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorsionClassReport:
    """Whether torsion confined to the primes of p propagates to the page.

    When every reduced homology group of the shape complex lies in the
    torsion class, every page entry must too, and then so does every
    convergent diagonal; `diagonal_flags` records that conclusion per total
    degree that the table fully covers.
    """

    primes: PrimeSet
    hypothesis_holds: bool
    hypothesis_failures: tuple[int, ...]
    entries_in_class: bool
    diagonal_flags: dict[int, bool]


def torsion_class_check(a: ChainComplex, table: HomotopyTable,
                        primes: PrimeSet) -> TorsionClassReport:
    failures = tuple(j for j in range(1, a.top_degree + 1)
                     if not in_class(homology(a, j), primes))
    hypothesis = not failures
    page = federer_e2(a, table)
    entries_ok = all(in_class(e.group, primes) for e in page.entries.values())
    flags: dict[int, bool] = {}
    for n in range(1, table.q_max - a.top_degree + 1):
        diag_ok = all(in_class(e.group, primes) for _, _, e in page.diagonal(n))
        flags[n] = hypothesis and diag_ok
    return TorsionClassReport(
        primes=primes,
        hypothesis_holds=hypothesis,
        hypothesis_failures=failures,
        entries_in_class=entries_ok,
        diagonal_flags=flags,
    )


# ---------------------------------------------------------------------------
# Cross-path consistency with the shaped-homology formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsistencyCheck:
    n: int
    holds: bool
    diagonal_sum: FgAbGroup
    formula_value: FgAbGroup


def e2_consistency_with_ahomology(a: ChainComplex, x: ChainComplex,
                                  n: int) -> ConsistencyCheck:
    """Feed t(q) = H_q(x) into the absolute page and compare diagonal n
    against the shaped-homology formula: the two routes must agree."""
    if n < 1:
        raise ValueError("consistency check needs n >= 1")
    q_max = max(n + a.top_degree, 1)
    table = HomotopyTable(
        ABSOLUTE,
        {q: homology(x, q) for q in range(1, q_max + 1)},
        abelian_assumption=True,  # automatic for the symmetric-product target
    )
    page = federer_e2(a, table)
    diagonal_sum = direct_sum([e.group for _, _, e in page.diagonal(n)
                               if e.status == EXACT])
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
    groups = {}
    for key, text in pi.items():
        q = canonical_int(key, "table degree")
        if not isinstance(text, str):
            raise ValueError(f"group for q = {q} must be a string")
        try:
            groups[q] = parse_group(text)
        except GroupParseError as exc:
            raise ValueError(f"q = {q}: {exc}") from None
    return HomotopyTable(variant, groups, abelian_assumption=abelian)


def load_homotopy_table(path: str) -> HomotopyTable:
    return homotopy_table_from_json(read_json(path))


def _cell_text(entry: PageEntry) -> str:
    text = str(entry.group)
    if entry.status == UPPER_BOUND:
        text += "*"
    if entry.must_die:
        text += "!"
    return text


def render_page(page: BigradedPage) -> str:
    """Text grid, rows q descending, columns p ascending from -dim(A).

    Cells carry "*" for subgroup upper bounds and "!" for entries that must
    vanish in the limit.
    """
    p_lo, p_hi = page.p_range
    q_lo, q_hi = page.q_range
    ps = list(range(p_lo, p_hi + 1))
    header = ["q\\p"] + [str(p) for p in ps]
    rows = [header]
    for q in range(q_hi, q_lo - 1, -1):
        rows.append([str(q)] + [_cell_text(page.entry(p, q)) for p in ps])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in rows)


def page_to_json(page: BigradedPage) -> dict:
    out = {}
    for (p, q) in sorted(page.entries):
        entry = page.entries[(p, q)]
        cell = {"group": str(entry.group), "status": entry.status}
        if entry.must_die:
            cell["must_die"] = True
        out[f"{p},{q}"] = cell
    return out


def render_exponent(value: int | float) -> str:
    return "infinite" if value == math.inf else str(value)
