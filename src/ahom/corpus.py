"""The built-in verification corpus: seeded generators and named checks.

Everything here is deterministic: each check owns a fixed-seed generator, so
the `corpus` command prints byte-identical output on every run.  The checks
mirror the package's acceptance gate; all comparisons are exact group
equalities with zero tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .abelian import (
    FgAbGroup,
    IntMatrix,
    PrimeSet,
    cokernel,
    exponent,
    kernel_basis,
    snf,
)
from .ahomology import (
    a_homology,
    check_suspension_axiom,
    check_wedge_axiom,
    moore_a_homology_ses,
)
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
from .spaces import moore, projective, s_zero, sphere

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.cyclic(2)


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

def random_matrix(rng: random.Random, max_dim: int = 8, bound: int = 10) -> IntMatrix:
    rows = rng.randint(0, max_dim)
    cols = rng.randint(0, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols)


def random_group(rng: random.Random, max_rank: int = 2, max_factors: int = 3,
                 max_order: int = 50) -> FgAbGroup:
    rank = rng.randint(0, max_rank)
    factors = [rng.randint(2, max_order) for _ in range(rng.randint(0, max_factors))]
    return FgAbGroup.of(rank, factors)


def random_complex(rng: random.Random, max_top: int = 5, max_rank: int = 5,
                   entry_bound: int = 6, name: str = "random") -> ChainComplex:
    """A random valid complex with small boundary entries.

    Each boundary is drawn inside the kernel of the previous one (so the
    d*d = 0 law holds by construction); draws whose entries overflow the
    bound are rejected and retried.
    """
    for _ in range(500):
        top = rng.randint(0, max_top)
        ranks = [rng.randint(0, max_rank) for _ in range(top + 1)]
        if rng.random() < 0.7 and ranks:
            ranks[0] = 0  # usually based and path-connected
        boundaries: dict[int, IntMatrix] = {}
        kernel = IntMatrix.identity(ranks[0] if ranks else 0)
        overflow = False
        for n in range(1, top + 1):
            cols = ranks[n]
            if cols == 0:
                kernel = IntMatrix.identity(0)
                continue
            mixing = IntMatrix.from_rows(
                [[rng.randint(-2, 2) if rng.random() < 0.5 else 0
                  for _ in range(cols)]
                 for _ in range(kernel.cols)],
                cols=cols)
            bnd = kernel @ mixing
            if bnd.max_abs() > entry_bound:
                overflow = True
                break
            if not bnd.is_zero():
                boundaries[n] = bnd
            kernel = kernel_basis(bnd)
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

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _shape_pool() -> list[ChainComplex]:
    return [
        projective(2),
        projective(3),
        moore(Z2, 1),
        moore(FgAbGroup.cyclic(6), 2),
        suspension(projective(2)),
        wedge([sphere(2), sphere(3)]),
    ]


def check_sphere_formula() -> CheckResult:
    """Shaped homology of spheres equals integral cohomology of the shape."""
    cases = 0
    for a in _shape_pool():
        for n in range(1, 9):
            x = sphere(n)
            for r in range(0, n + 3):
                expected = cohomology_uct(a, n - r, Z)
                got = a_homology(a, x, r)
                if got != expected:
                    return CheckResult(
                        "sphere-formula", False,
                        f"A={a.name}, n={n}, r={r}: {got} != {expected}")
                cases += 1
    return CheckResult("sphere-formula", True, f"{cases} instances, exact equality")


def check_s0_degeneration() -> CheckResult:
    """With the based 0-sphere as shape, the theory is ordinary homology."""
    a = s_zero()
    rng = random.Random(2002)
    pool = [sphere(1), sphere(4), projective(2), projective(4),
            moore(FgAbGroup.of(1, [2, 4]), 2), wedge([sphere(2), projective(2)])]
    pool += [connected_complex(rng) for _ in range(6)]
    cases = 0
    for x in pool:
        for n in range(0, x.top_degree + 2):
            if a_homology(a, x, n) != homology(x, n):
                return CheckResult("s0-degeneration", False,
                                   f"X={x.name}, n={n}")
            cases += 1
    return CheckResult("s0-degeneration", True,
                       f"{len(pool)} complexes, {cases} degrees")


def check_uct_vs_direct() -> CheckResult:
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
                return CheckResult(
                    "uct-vs-direct", False,
                    f"complex #{cases}, n={n}, g={g}: {via_uct} != {via_cochains}")
            cases += 1
    return CheckResult("uct-vs-direct", True,
                       f"{complexes} random complexes, {cases} degree/group pairs")


def _snf_certificate_ok(m: IntMatrix) -> bool:
    dec = snf(m)
    if dec.U @ m @ dec.V != dec.S:
        return False
    if abs(dec.U.det()) != 1 or abs(dec.V.det()) != 1:
        return False
    for i in range(dec.S.rows):
        for j in range(dec.S.cols):
            if i != j and dec.S.entries[i][j]:
                return False
    diag = dec.diagonal
    seen_zero = False
    prev = None
    for d in diag:
        if d < 0:
            return False
        if d == 0:
            seen_zero = True
            continue
        if seen_zero or (prev is not None and d % prev):
            return False
        prev = d
    return True


def check_snf_certificates() -> CheckResult:
    """Smith certificates on random matrices; cokernel order on full rank."""
    rng = random.Random(2004)
    matrices = 500
    for i in range(matrices):
        if not _snf_certificate_ok(random_matrix(rng)):
            return CheckResult("snf-certificates", False, f"matrix #{i}")
    square = 0
    while square < 100:
        n = rng.randint(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randint(-10, 10) for _ in range(n)] for _ in range(n)])
        d = m.det()
        if d == 0:
            continue
        if cokernel(m).order() != abs(d):
            return CheckResult("snf-certificates", False,
                               f"cokernel order mismatch for det {d}")
        square += 1
    return CheckResult("snf-certificates", True,
                       f"{matrices} certificates, {square} cokernel orders")


def check_axioms() -> CheckResult:
    """Suspension and wedge axioms on randomized triples.

    Targets are drawn connected: the formula presupposes a connected X, and
    degree 0 genuinely depends on that hypothesis.
    """
    rng = random.Random(2005)
    triples = 50
    for i in range(triples):
        a = rng.choice(_shape_pool() + [random_complex(rng, max_top=3, max_rank=3)])
        x = connected_complex(rng, max_top=4, max_rank=4)
        n = rng.randint(0, 6)
        s = check_suspension_axiom(a, x, n)
        if not s.holds:
            return CheckResult("axioms", False, f"suspension #{i}: {s.line()}")
        pieces = [connected_complex(rng, max_top=3, max_rank=3)
                  for _ in range(rng.randint(0, 3))]
        w = check_wedge_axiom(a, pieces, n)
        if not w.holds:
            return CheckResult("axioms", False, f"wedge #{i}: {w.line()}")
    return CheckResult("axioms", True, f"{triples} suspension and wedge instances")


def check_moore_ses_orders() -> CheckResult:
    """Order and exponent identities for the Moore-coefficient sequences."""
    rng = random.Random(2006)
    targets = [projective(2), projective(4), moore(Z2, 3),
               moore(FgAbGroup.cyclic(12), 2), sphere(3), sphere(5)]
    coefficients = [Z2, FgAbGroup.cyclic(4), FgAbGroup.cyclic(6),
                    FgAbGroup.of(0, [2, 4]), FgAbGroup.cyclic(9)]
    finite_cases = 0
    for g in coefficients:
        for x in targets:
            for m in (1, 2):
                for n in range(1, 5):
                    ses = moore_a_homology_ses(g, m, x, n)
                    if not (ses.ext_part.is_finite() and ses.hom_part.is_finite()
                            and ses.middle.is_finite()):
                        continue
                    if ses.middle.order() != ses.ext_part.order() * ses.hom_part.order():
                        return CheckResult(
                            "moore-ses-orders", False,
                            f"g={g}, m={m}, X={x.name}, n={n}: order mismatch")
                    bound = exponent(ses.ext_part) * exponent(ses.hom_part)
                    if bound % exponent(ses.middle):
                        return CheckResult(
                            "moore-ses-orders", False,
                            f"g={g}, m={m}, X={x.name}, n={n}: exponent bound broken")
                    finite_cases += 1
    # the projective-plane coefficient bound: every element has order 1, 2 or 4
    for i in range(10):
        table = random_table(rng, q_max=7)
        ses = moore_homotopy_ses(Z2, 1, table, rng.randint(1, 5))
        if ses.exponent_bound not in (1, 2, 4):
            return CheckResult("moore-ses-orders", False,
                               f"projective-plane bound {ses.exponent_bound} > 4")
    return CheckResult("moore-ses-orders", True,
                       f"{finite_cases} finite instances, bound <= 4 on 10 tables")


def check_page_shape() -> CheckResult:
    """Support pattern, edge statuses, and the relative must-die mark."""
    rng = random.Random(2007)
    shapes = [projective(2), projective(3), moore(FgAbGroup.cyclic(4), 1), sphere(2)]
    pages = 0
    for a in shapes:
        for _ in range(3):
            abs_page = federer_e2(a, random_table(rng, ABSOLUTE, q_max=6))
            rel_page = relative_federer_e2(a, random_table(rng, RELATIVE, q_max=7))
            for page, edge in ((abs_page, 0), (rel_page, 1)):
                for (p, q), entry in page.entries.items():
                    total = p + q
                    if total < edge:
                        ok = entry.status == ZERO and entry.group.is_trivial()
                    elif total == edge:
                        ok = entry.status == UPPER_BOUND and \
                            entry.must_die == (page.variant == RELATIVE)
                    else:
                        ok = entry.status == EXACT and not entry.must_die
                    if not ok:
                        return CheckResult(
                            "page-shape", False,
                            f"A={a.name}, variant={page.variant}, "
                            f"entry ({p},{q}) has status {entry.status}")
                if not page.entry(-a.top_degree - 1, page.q_range[1]).group.is_trivial():
                    return CheckResult("page-shape", False, "column bound violated")
                pages += 1
    return CheckResult("page-shape", True, f"{pages} pages with exact support")


def check_hopf_whitney() -> CheckResult:
    """Sphere identity, set-valued projective case, group-valued suspensions."""
    rng = random.Random(2008)
    for i in range(20):
        g = random_group(rng)
        res = hopf_whitney(sphere(rng.randint(2, 6)), g)
        if res.group != g or res.structure != GROUP_VALUED:
            return CheckResult("hopf-whitney", False, f"sphere case #{i}")
    res = hopf_whitney(projective(2), Z)
    if res.group != Z2 or res.structure != SET_VALUED:
        return CheckResult("hopf-whitney", False, "projective-plane case")
    for k in (suspension(projective(2)), suspension(wedge([sphere(1), sphere(1)]))):
        if hopf_whitney(k, FgAbGroup.cyclic(4)).structure != GROUP_VALUED:
            return CheckResult("hopf-whitney", False, f"suspension case {k.name}")
    return CheckResult("hopf-whitney", True,
                       "20 sphere identities, set/group flags as required")


def check_cross_path() -> CheckResult:
    """Diagonal sums of the assembled page match the shaped-homology formula."""
    rng = random.Random(2009)
    triples = 0
    while triples < 30:
        a = rng.choice(_shape_pool() + [connected_complex(rng, max_top=3, max_rank=3)])
        x = random_complex(rng, max_top=4, max_rank=4)
        n = rng.randint(1, 5)
        check = e2_consistency_with_ahomology(a, x, n)
        if not check.holds:
            return CheckResult(
                "cross-path", False,
                f"A={a.name}, X={x.name}, n={n}: "
                f"{check.diagonal_sum} != {check.formula_value}")
        triples += 1
    return CheckResult("cross-path", True, f"{triples} triples, two routes agree")


def check_torsion_class() -> CheckResult:
    """Two-primary propagation plus correctly failing hypotheses."""
    rng = random.Random(2010)
    two = PrimeSet.of(2)
    for a in (projective(2), moore(FgAbGroup.cyclic(8), 1)):
        for i in range(20):
            report = torsion_class_check(a, random_table(rng, q_max=6), two)
            if not (report.hypothesis_holds and report.entries_in_class
                    and all(report.diagonal_flags.values())):
                return CheckResult("torsion-class", False,
                                   f"A={a.name}, table #{i}")
    failing = torsion_class_check(sphere(3), random_table(rng, q_max=6), two)
    if failing.hypothesis_holds or any(failing.diagonal_flags.values()):
        return CheckResult("torsion-class", False,
                           "free shape should fail the hypothesis")
    mixed = torsion_class_check(moore(FgAbGroup.cyclic(6), 2),
                                random_table(rng, q_max=6), two)
    if mixed.hypothesis_holds:
        return CheckResult("torsion-class", False,
                           "6-torsion shape should fail for primes {2}")
    return CheckResult("torsion-class", True,
                       "40 propagating tables, hypothesis failures flagged")


def check_single_column() -> CheckResult:
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
                return CheckResult("single-column", False,
                                   f"m={m}, n={n}: verdict {verdict.verdict}")
        beyond = collapse_report(page, q_max - m + 1)
        if beyond.verdict != OUT_OF_RANGE:
            return CheckResult("single-column", False,
                               f"m={m}: truncated diagonal not reported out of range")
    return CheckResult("single-column", True,
                       "spheres of dimension 1..3, all in-range diagonals determined")


ALL_CHECKS = [
    check_sphere_formula,
    check_s0_degeneration,
    check_uct_vs_direct,
    check_snf_certificates,
    check_axioms,
    check_moore_ses_orders,
    check_page_shape,
    check_hopf_whitney,
    check_cross_path,
    check_torsion_class,
    check_single_column,
]


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
