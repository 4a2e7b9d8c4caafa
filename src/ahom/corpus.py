"""The built-in verification corpus: seeded generators and named checks.

Everything here is deterministic: each check owns a fixed-seed generator, so
the `corpus` command prints byte-identical output on every run.  The checks
mirror the package's acceptance gate; all comparisons are exact group
equalities with zero tolerance.
"""

from __future__ import annotations

import functools
import random
from collections import namedtuple
from collections.abc import Callable

from .abelian import (
    FgAbGroup,
    IntMatrix,
    PrimeSet,
    cokernel,
    exponent,
    kernel_basis,
    snf,
)
from .ahomology import a_homology, axiom_checks, moore_a_homology_ses
from .chains import ChainComplex, cohomology_direct, cohomology_uct, homology, suspension, wedge
from .federer import (
    ABSOLUTE,
    DETERMINED,
    EXACT,
    GROUP_VALUED,
    OUT_OF_RANGE,
    RELATIVE,
    SET_VALUED,
    TABLE_START,
    UPPER_BOUND,
    ZERO,
    HomotopyTable,
    collapse_report,
    e2_consistency_with_ahomology,
    federer_e2,
    hopf_whitney,
    moore_homotopy_ses,
    relative_federer_e2,
    torsion_class_check,
)
from .spaces import moore, projective, sphere

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.cyclic(2)


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

def uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    """rng.randint(lo, hi), the same value from the same draws: on CPython
    3.10-3.13 randint redraws getrandbits(k), k the bit length of the width,
    until it falls below the width, and so does this, in one frame, not three."""
    n = hi - lo + 1
    if n < 1:  # randint raises here too; the redraw loop would never end
        raise ValueError(f"empty range {lo}..{hi}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def random_matrix(rng: random.Random, max_dim: int = 8, bound: int = 10) -> IntMatrix:
    rows, cols = uniform_int(rng, 0, max_dim), uniform_int(rng, 0, max_dim)
    return tuple.__new__(IntMatrix, (rows, cols, tuple(  # its shape holds by construction
        [tuple([uniform_int(rng, -bound, bound) for _ in range(cols)]) for _ in range(rows)])))


def planted_matrix(rng: random.Random) -> tuple[IntMatrix, FgAbGroup]:
    """A matrix with a planted Smith form, and its cokernel.

    A rows x cols diagonal of orders in 1..50, rows and cols in 0..8, is
    hidden by rows + cols elementary operations, each adding +-1 times one row
    to another, or one column to another.  They are unimodular, so the
    cokernel stays Z^(rows - k) plus the cyclic groups of the k = min(rows,
    cols) orders.  No draw is rejected.
    """
    rows, cols = uniform_int(rng, 0, 8), uniform_int(rng, 0, 8)
    diag = [uniform_int(rng, 1, 50) for _ in range(min(rows, cols))]
    a = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(diag):
        a[i][i] = d
    for _ in range(rows + cols):
        sign = 2 * uniform_int(rng, 0, 1) - 1
        by_rows = uniform_int(rng, 0, 1)
        n = rows if by_rows else cols
        if n < 2:
            continue
        i, j = uniform_int(rng, 0, n - 1), uniform_int(rng, 0, n - 2)
        j += j >= i  # j != i
        if by_rows:  # row i += sign * row j
            a[i] = [x + sign * y for x, y in zip(a[i], a[j])]
        else:  # column i += sign * column j
            for row in a:
                row[i] += sign * row[j]
    m = tuple.__new__(IntMatrix, (rows, cols, tuple(map(tuple, a))))  # its shape holds by construction
    return m, FgAbGroup.of(rows - len(diag), diag)


def random_group(rng: random.Random, max_rank: int = 2, max_factors: int = 3,
                 max_order: int = 50) -> FgAbGroup:
    rank = uniform_int(rng, 0, max_rank)
    factors = [uniform_int(rng, 2, max_order) for _ in range(uniform_int(rng, 0, max_factors))]
    return FgAbGroup.of(rank, factors)


def random_complex(rng: random.Random, max_top: int = 5, max_rank: int = 5,
                   entry_bound: int = 6, name: str = "random") -> ChainComplex:
    """A random valid complex with small boundary entries.

    Each boundary is drawn inside the kernel of the previous one (so the
    d*d = 0 law holds by construction); draws whose entries overflow the
    bound are rejected and retried.
    """
    for _ in range(500):
        top = uniform_int(rng, 0, max_top)
        ranks = [uniform_int(rng, 0, max_rank) for _ in range(top + 1)]
        if rng.random() < 0.7 and ranks:
            ranks[0] = 0  # usually based and path-connected
        boundaries: dict[int, IntMatrix] = {}
        kernel = None  # ker(d_(n-1)) by columns; None while that is all of C_(n-1)
        overflow = False
        for n in range(1, top + 1):
            cols = ranks[n]
            if cols == 0:
                kernel = None
                continue
            width = ranks[n - 1] if kernel is None else kernel.cols
            mixing = tuple.__new__(IntMatrix, (width, cols, tuple(
                [tuple([uniform_int(rng, -2, 2) if rng.random() < 0.5 else 0 for _ in range(cols)])
                 for _ in range(width)])))
            bnd = mixing if kernel is None else kernel @ mixing
            if bnd.max_abs() > entry_bound:
                overflow = True
                break
            boundaries[n] = bnd  # ChainComplex drops it when zero
            kernel = kernel_basis(bnd) if n < top else kernel  # the top one bounds no draw
        if overflow:
            continue
        return ChainComplex(name, {n: r for n, r in enumerate(ranks)}, boundaries)
    raise RuntimeError("could not draw a complex within the entry bound")


def random_table(rng: random.Random, variant: str = ABSOLUTE, q_max: int = 8,
                 max_order: int = 24) -> HomotopyTable:
    groups = {q: random_group(rng, max_rank=1, max_factors=2, max_order=max_order)
              for q in range(TABLE_START[variant], q_max + 1)}
    return HomotopyTable(variant, groups, abelian_assumption=True)


def connected_complex(rng: random.Random, **kwargs) -> ChainComplex:
    while True:
        c = random_complex(rng, **kwargs)
        if c.rank(0) == 0:
            return c


# ---------------------------------------------------------------------------
# Named checks
# ---------------------------------------------------------------------------

class CheckResult(namedtuple("CheckResult", "name passed detail")):
    __slots__ = ()

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


ALL_CHECKS: list[Callable[[], CheckResult]] = []


def _check(fn: Callable[[], tuple[bool, str]]) -> Callable[[], CheckResult]:
    """Register `fn` in ALL_CHECKS, named as the benchmark's tracer names it:
    check_page_shape reports as page-shape.  The name is bound here, since
    the tracer swaps the ALL_CHECKS entries for wrappers of another name."""
    name = fn.__name__.removeprefix("check_").replace("_", "-")

    @functools.wraps(fn)
    def check() -> CheckResult:
        return CheckResult(name, *fn())

    ALL_CHECKS.append(check)
    return check


def _shape_pool() -> list[ChainComplex]:
    # built once per check call: each complex reduces once, and none outlives the run
    return [
        projective(2),
        projective(3),
        moore(Z2, 1),
        moore(FgAbGroup.cyclic(6), 2),
        suspension(projective(2)),
        wedge([sphere(2), sphere(3)]),
    ]


@_check
def check_sphere_formula() -> tuple[bool, str]:
    """Shaped homology of spheres equals integral cohomology of the shape."""
    cases = 0
    for a in _shape_pool():
        for n in range(1, 9):
            x = sphere(n)
            for r in range(0, n + 3):
                expected = cohomology_uct(a, n - r, Z)
                got = a_homology(a, x, r)
                if got != expected:
                    return False, f"A={a.name}, n={n}, r={r}: {got} != {expected}"
                cases += 1
    return True, f"{cases} instances, exact equality"


@_check
def check_s0_degeneration() -> tuple[bool, str]:
    """With the based 0-sphere as shape, the theory is ordinary homology."""
    a = sphere(0)
    rng = random.Random(2002)
    pool = [sphere(1), sphere(4), projective(2), projective(4),
            moore(FgAbGroup.of(1, [2, 4]), 2), wedge([sphere(2), projective(2)])]
    pool += [connected_complex(rng) for _ in range(6)]
    cases = 0
    for x in pool:
        for n in range(0, x.top_degree + 2):
            if a_homology(a, x, n) != homology(x, n):
                return False, f"X={x.name}, n={n}"
            cases += 1
    return True, f"{len(pool)} complexes, {cases} degrees"


@_check
def check_uct_vs_direct() -> tuple[bool, str]:
    """The Hom/Ext route and the cochain route agree everywhere."""
    rng = random.Random(2003)
    complexes = 200
    cases = 0
    for _ in range(complexes):
        c = random_complex(rng)
        g = random_group(rng, max_rank=2, max_factors=3, max_order=50)
        for n in range(0, c.top_degree + 2):
            via_uct = cohomology_uct(c, n, g)
            via_cochains = cohomology_direct(c, n, g)
            if via_uct != via_cochains:
                return False, f"complex #{cases}, n={n}, g={g}: {via_uct} != {via_cochains}"
            cases += 1
    return True, f"{complexes} random complexes, {cases} degree/group pairs"


@_check
def check_snf_certificates() -> tuple[bool, str]:
    """Cokernels and Smith diagonals of matrices with a planted Smith form."""
    rng = random.Random(2004)
    matrices = 500
    for i in range(matrices):
        m, planted = planted_matrix(rng)
        dec = snf(m)
        for route, got in (("cokernel", cokernel(m)),
                           ("snf", FgAbGroup.of(m.rows - dec.rank, dec.diagonal[:dec.rank]))):
            if got != planted:
                return False, f"matrix #{i}, {route}: {got} != {planted}"
    return True, f"{matrices} planted Smith forms, by cokernel and by snf"


@_check
def check_axioms() -> tuple[bool, str]:
    """Suspension and wedge axioms on randomized triples.

    Targets are drawn connected: the formula presupposes a connected X, and
    degree 0 genuinely depends on that hypothesis.
    """
    rng = random.Random(2005)
    triples = 50
    pool = _shape_pool()
    for i in range(triples):
        a = rng.choice([*pool, random_complex(rng, max_top=3, max_rank=3)])
        x = connected_complex(rng, max_top=4, max_rank=4)
        n = uniform_int(rng, 0, 6)
        pieces = [connected_complex(rng, max_top=3, max_rank=3)
                  for _ in range(uniform_int(rng, 0, 3))]
        for check in axiom_checks(a, x, pieces, [n]):
            if not check.holds:
                return False, f"{check.axiom} #{i}: {check.line()}"
    return True, f"{triples} suspension and wedge instances"


@_check
def check_moore_ses_orders() -> tuple[bool, str]:
    """Order and exponent identities for the Moore-coefficient sequences."""
    rng = random.Random(2006)
    targets = [projective(2), projective(4), moore(Z2, 3),
               moore(FgAbGroup.cyclic(12), 2), sphere(3), sphere(5)]
    coefficients = [Z2, FgAbGroup.cyclic(4), FgAbGroup.cyclic(6),
                    FgAbGroup.of(0, [2, 4]), FgAbGroup.cyclic(9)]
    degrees = range(1, 5)
    pairs = [(x, n) for x in targets for n in degrees]  # the order the sequences come in
    finite_cases = 0
    for g in coefficients:
        for m in (1, 2):  # one Moore space serves every target and degree
            for (x, n), ses in zip(pairs, moore_a_homology_ses(g, m, targets, degrees)):
                if not (ses.ext_part.is_finite() and ses.hom_part.is_finite()
                        and ses.middle.is_finite()):
                    continue
                if ses.middle.order() != ses.order_product:
                    return False, f"g={g}, m={m}, X={x.name}, n={n}: order mismatch"
                if ses.exponent_bound % exponent(ses.middle):
                    return False, f"g={g}, m={m}, X={x.name}, n={n}: exponent bound broken"
                finite_cases += 1
    # the projective-plane coefficient bound: every element has order 1, 2 or 4
    for i in range(10):
        table = random_table(rng, q_max=7)
        ses = moore_homotopy_ses(Z2, 1, table, uniform_int(rng, 1, 5))
        if ses.exponent_bound not in (1, 2, 4):
            return False, f"projective-plane bound {ses.exponent_bound} > 4"
    return True, f"{finite_cases} finite instances, bound <= 4 on 10 tables"


@_check
def check_page_shape() -> tuple[bool, str]:
    """Support pattern, edge statuses, and the relative must-die mark."""
    rng = random.Random(2007)
    shapes = [projective(2), projective(3), moore(FgAbGroup.cyclic(4), 1), sphere(2)]
    pages = 0
    for a in shapes:
        for _ in range(3):
            abs_page = federer_e2(a, random_table(rng, ABSOLUTE, q_max=6))
            rel_page = relative_federer_e2(a, random_table(rng, RELATIVE, q_max=7))
            for page, edge in ((abs_page, 0), (rel_page, 1)):
                for (p, q), group in page.entries.items():
                    total, status, must_die = p + q, page.status(p, q), page.must_die(p, q)
                    if total < edge:
                        ok = status == ZERO and group.is_trivial() and not must_die
                    elif total == edge:
                        ok = status == UPPER_BOUND and must_die == (page.variant == RELATIVE)
                    else:
                        ok = status == EXACT and not must_die
                    if not ok:
                        return False, (f"A={a.name}, variant={page.variant}, "
                                       f"entry ({p},{q}) has status {status}")
                if not page.group(-a.top_degree - 1, page.q_range[1]).is_trivial():
                    return False, "column bound violated"
                pages += 1
    return True, f"{pages} pages with exact support"


@_check
def check_hopf_whitney() -> tuple[bool, str]:
    """Sphere identity, set-valued projective case, group-valued suspensions."""
    rng = random.Random(2008)
    for i in range(20):
        g = random_group(rng)
        res = hopf_whitney(sphere(uniform_int(rng, 2, 6)), g)
        if res.group != g or res.structure != GROUP_VALUED:
            return False, f"sphere case #{i}"
    res = hopf_whitney(projective(2), Z)
    if res.group != Z2 or res.structure != SET_VALUED:
        return False, "projective-plane case"
    for k in (suspension(projective(2)), suspension(wedge([sphere(1), sphere(1)]))):
        if hopf_whitney(k, FgAbGroup.cyclic(4)).structure != GROUP_VALUED:
            return False, f"suspension case {k.name}"
    return True, "20 sphere identities, set/group flags as required"


@_check
def check_cross_path() -> tuple[bool, str]:
    """Diagonal sums of the assembled page match the shaped-homology formula."""
    rng = random.Random(2009)
    triples = 0
    pool = _shape_pool()
    while triples < 30:
        a = rng.choice([*pool, connected_complex(rng, max_top=3, max_rank=3)])
        x = random_complex(rng, max_top=4, max_rank=4)
        n = uniform_int(rng, 1, 5)
        check = e2_consistency_with_ahomology(a, x, n)
        if not check.holds:
            return False, (f"A={a.name}, X={x.name}, n={n}: "
                           f"{check.diagonal_sum} != {check.formula_value}")
        triples += 1
    return True, f"{triples} triples, two routes agree"


@_check
def check_torsion_class() -> tuple[bool, str]:
    """Two-primary propagation plus correctly failing hypotheses."""
    rng = random.Random(2010)
    two = PrimeSet.of(2)
    for a in (projective(2), moore(FgAbGroup.cyclic(8), 1)):
        for i in range(20):
            report = torsion_class_check(a, random_table(rng, q_max=6), two)
            if not (report.hypothesis_holds and report.entries_in_class
                    and all(report.diagonal_flags.values())):
                return False, f"A={a.name}, table #{i}"
    failing = torsion_class_check(sphere(3), random_table(rng, q_max=6), two)
    if failing.hypothesis_holds or any(failing.diagonal_flags.values()):
        return False, "free shape should fail the hypothesis"
    mixed = torsion_class_check(moore(FgAbGroup.cyclic(6), 2),
                                random_table(rng, q_max=6), two)
    if mixed.hypothesis_holds:
        return False, "6-torsion shape should fail for primes {2}"
    return True, "40 propagating tables, hypothesis failures flagged"


@_check
def check_single_column() -> tuple[bool, str]:
    """A one-column page determines every in-range diagonal exactly."""
    rng = random.Random(2011)
    q_max = 8
    for m in (1, 2, 3):
        a = sphere(m)
        table = random_table(rng, q_max=q_max)
        page = federer_e2(a, table)
        for n in range(1, q_max - m + 1):
            verdict = collapse_report(page, n)
            if verdict.verdict != DETERMINED or verdict.group != table.entries[n + m]:
                return False, f"m={m}, n={n}: verdict {verdict.verdict}"
        beyond = collapse_report(page, q_max - m + 1)
        if beyond.verdict != OUT_OF_RANGE:
            return False, f"m={m}: truncated diagonal not reported out of range"
    return True, "spheres of dimension 1..3, all in-range diagonals determined"


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
