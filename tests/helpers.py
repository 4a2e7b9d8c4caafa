"""Brute-force oracles and small utilities shared by the test modules.

The oracles here enumerate group elements or cochains, factor orders or
invert over the rationals, and never touch the Smith-form machinery they are
used to check.  The exceptions are the per-entry reference Hermite pass
and the Smith form built on it, the matrix adapter of the library's Hermite
pass, the unmemoized Hom/Ext cohomology, the per-summand cochain route,
the degree-window sum for shaped homology, the unreduced graded homology,
the Hom complex whose homology is shaped homology, the smash product
with its Kunneth formula, the full draw loop of random complexes, the
randint forms of the other seeded generators and the eager second page
with its collapse and torsion reports, which reduce through the library
on purpose.
"""

import math
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product

from ahom.abelian import (FgAbGroup, IntMatrix, PrimeSet, SmithDecomposition, cokernel,
                          column_echelon, direct_sum, ext, hom, in_class, kernel_basis)
from ahom.chains import ChainComplex, cohomology_uct, homology
from ahom.federer import (DETERMINED, EXACT, GRADED_UPPER_BOUNDS, OUT_OF_RANGE, TABLE_START,
                          ZERO, BigradedPage, DiagonalVerdict, HomotopyTable,
                          TorsionClassReport)


def check_name(check) -> str:
    """The name bench/tracing.py gives a corpus check: check_page_shape is
    page-shape."""
    return check.__name__.removeprefix("check_").replace("_", "-")


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, ((0,) * cols,) * rows)


def identity(n: int) -> IntMatrix:
    """The n x n identity matrix."""
    return IntMatrix.diagonal((1,) * n)


def transpose(m: IntMatrix) -> IntMatrix:
    """The transpose of m; a 0-row matrix transposes to 0-length rows."""
    return IntMatrix(m.cols, m.rows, tuple(zip(*m.entries)) if m.rows else ((),) * m.cols)


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        ak = a[k]
        p = ak[k]
        for ai in a[k + 1:]:
            f = ai[k]
            if f == 0 and p == prev:
                continue  # each update would be x * p // prev = x
            for j in range(k + 1, n):
                ai[j] = (ai[j] * p - f * ak[j]) // prev
            ai[k] = 0
        prev = p
    return sign * a[n - 1][n - 1]


def is_zero(m: IntMatrix) -> bool:
    """Whether every entry of m is zero."""
    return not any(map(any, m.entries))


def boundary(c: ChainComplex, n: int) -> IntMatrix:
    """The degree-n boundary of c, a zero matrix of its shape when absent."""
    return c.boundaries.get(n) or zeros(c.rank(n - 1), c.rank(n))


def rank_mod_p(rows, p: int) -> int:
    """The rank over F_p of a matrix given as a list of rows, by plain
    Gaussian elimination: each pivot row, scaled to a leading 1, clears its
    column from the rows below it."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][j], -1, p)
        top = rows[rank] = [x * inverse % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            if rows[i][j]:
                rows[i] = [(x - rows[i][j] * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def valuation(x: int, p: int) -> int:
    """The exponent of p in a nonzero integer x."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def local_smith_exponents(rows, p: int, e: int) -> list[int]:
    """The exponents v with 1 <= v < e of the Smith form over Z/p^e of a
    matrix given as a list of rows, sorted.  Each pivot is an entry of least
    p-adic valuation, p^v times a unit; it divides every other entry, so its
    row clears its column and the rest of its row then clears by column
    operations that touch nothing else, leaving p^v as one local invariant
    factor.  No Smith or Hermite work over Z is done."""
    q = p ** e
    rows = [[x % q for x in row] for row in rows]
    found = []
    while entries := [(valuation(x, p), i, j) for i, row in enumerate(rows)
                      for j, x in enumerate(row) if x]:
        v, i, j = min(entries)
        if v:
            found.append(v)
        top = rows.pop(i)
        inverse = pow(top[j] // p ** v, -1, q)
        rows = [[(x - row[j] // p ** v * inverse * y) % q
                 for k, (x, y) in enumerate(zip(row, top)) if k != j] for row in rows]
    return sorted(found)


def elements(g: FgAbGroup):
    """All elements of a finite group as coordinate tuples."""
    assert g.is_finite()
    return product(*(range(d) for d in g.invariant_factors))


def order_counts(g: FgAbGroup) -> Counter:
    """How many elements of each order the finite group g has.

    The counts determine a finite abelian group up to isomorphism.
    """
    return Counter(math.lcm(*(d // math.gcd(x, d) for x, d in zip(e, g.invariant_factors)))
                   for e in elements(g))


def brute_cohomology_orders(c: ChainComplex, n: int, g: FgAbGroup) -> Counter:
    """Element orders of H^n(c; g) for finite g, from every g-valued cochain.

    A k-cochain assigns an element of g to each k-cell, and its coboundary
    sends a (k+1)-cell e to the sum of the values on the boundary of e.
    H^n is read as the n-cocycles modulo the coboundaries of (n-1)-cochains,
    one coset at a time.
    """
    orders = g.invariant_factors
    values = list(elements(g))

    def cochains(k):
        return product(values, repeat=c.rank(k))

    def coboundary(phi, k):
        d = boundary(c, k + 1)
        return tuple(tuple(sum(d.entries[i][j] * phi[i][t] for i in range(d.rows)) % orders[t]
                           for t in range(len(orders)))
                     for j in range(d.cols))

    def add(phi, psi):
        return tuple(tuple((a + b) % o for a, b, o in zip(x, y, orders))
                     for x, y in zip(phi, psi))

    zero = ((0,) * len(orders),) * c.rank(n + 1)
    bounding = {coboundary(psi, n - 1) for psi in cochains(n - 1)}
    counts: Counter = Counter()
    seen: set = set()
    for phi in cochains(n):
        if phi in seen or coboundary(phi, n) != zero:
            continue
        seen.update(add(phi, b) for b in bounding)
        multiple, k = phi, 1
        while multiple not in bounding:
            multiple, k = add(multiple, phi), k + 1
        counts[k] += 1
    return counts


def brute_hom_order(g: FgAbGroup, h: FgAbGroup) -> int:
    """|Hom(g, h)| for finite g, h by counting annihilated elements.

    A homomorphism is a free choice, for each cyclic generator of order a,
    of an element y in h with a*y = 0.
    """
    assert g.is_finite() and h.is_finite()
    count = 1
    for a in g.invariant_factors:
        killed = sum(
            1 for y in elements(h)
            if all((a * yj) % dj == 0 for yj, dj in zip(y, h.invariant_factors))
        )
        count *= killed
    return count


def brute_ext_order(g: FgAbGroup, h: FgAbGroup) -> int:
    """|Ext(g, h)| for finite g, h via Ext(Z/a, H) = H / aH."""
    assert g.is_finite() and h.is_finite()
    count = 1
    for a in g.invariant_factors:
        image = {
            tuple((a * yj) % dj for yj, dj in zip(y, h.invariant_factors))
            for y in elements(h)
        }
        count *= h.order() // len(image)
    return count


def unmemoized_uct(c: ChainComplex, n: int, g: FgAbGroup) -> FgAbGroup:
    """H^n(c; g) as Hom(H_n, g) + Ext(H_(n-1), g), assembled afresh on every
    call; cohomology_uct keeps the same value on c."""
    return direct_sum([hom(homology(c, n), g), ext(homology(c, n - 1), g)])


def reference_cohomology_direct(c: ChainComplex, n: int, g: FgAbGroup) -> FgAbGroup:
    """H^n(c; g) from the cochain complex reduced afresh for each degree and
    each cyclic summand of g, with no divisor pivot split off the complex as
    a whole: the per-summand reference for chains.cohomology_direct.

    With alpha = d_n^T and beta = d_(n+1)^T, the Z summands take one
    cokernel of alpha and one Hermite pass for rank(beta), and each Z/d
    takes the torsion of the cokernel of the mapping cone
    [[-beta, 0], [d*I, alpha]] of multiplication by d.
    """
    r = c.rank(n)
    if r == 0 or g.is_trivial():
        return FgAbGroup.trivial()
    lower, upper = c.boundaries.get(n), c.boundaries.get(n + 1)
    alpha = transpose(lower).entries if lower is not None else ((),) * r
    beta = transpose(upper).entries if upper is not None else ()
    zero = (0,) * len(alpha[0])
    rank, orders = 0, []
    if g.free_rank:
        coker = cokernel(tuple.__new__(IntMatrix, (r, len(zero), alpha)))
        rank = (coker.free_rank - len(column_echelon(list(beta)))) * g.free_rank
        orders = list(coker.invariant_factors) * g.free_rank
    for d in g.invariant_factors:
        cone = tuple(row + zero for row in beta) + tuple(
            (0,) * i + (d,) + (0,) * (r - i - 1) + a for i, a in enumerate(alpha))
        cone = tuple.__new__(IntMatrix, (len(cone), r + len(zero), cone))
        orders += cokernel(cone).invariant_factors
    return FgAbGroup.of(rank, orders)


def window_a_homology(a: ChainComplex, x: ChainComplex, n: int) -> FgAbGroup:
    """Reference shaped homology: one Hom/Ext term for every degree j in
    [max(1, n), min(dim x, n + dim a)], trivial H_j included."""
    return direct_sum([cohomology_uct(a, j - n, homology(x, j))
                       for j in range(max(1, n), min(x.top_degree, n + a.top_degree) + 1)])


def unreduced_graded_homology(c: ChainComplex) -> dict[int, FgAbGroup]:
    """The nonzero homology groups by degree, from one Smith reduction of
    every input boundary, with no cell pair split off first.

    coker(d_(n+1)) = H_n + Z^(rank d_n), and rank d_n = c_(n-1) - free rank
    of coker(d_n).
    """
    cokernels = {n: cokernel(c.boundaries[n + 1]) if n + 1 in c.boundaries
                 else FgAbGroup.free(r) for n, r in c.ranks.items()}
    none = FgAbGroup.trivial()
    groups = ((n, FgAbGroup(g.free_rank - c.rank(n - 1)
                            + cokernels.get(n - 1, none).free_rank, g.invariant_factors))
              for n, g in cokernels.items())
    return {n: h for n, h in groups if not h.is_trivial()}


def scrambled_complex(rng, pieces, mixes: int = 3) -> tuple[ChainComplex, dict[int, FgAbGroup]]:
    """A complex with planted homology, and that homology as a dict.

    `pieces` lists (degree n, kind, value): a "free" cell in degree n, or a
    pair of cells in degrees n and n + 1 joined by the incidence `value`,
    where kind "unit" (value +-1) is contractible and kind "torsion" (value
    d >= 2) adds Z/d to H_n.  Cells are shuffled in each degree, then
    `mixes` x rank(n) elementary column operations on d_n, each with the
    inverse row operation on d_(n+1), make the matrices dense while keeping
    d*d = 0 and the homology.
    """
    ranks: Counter = Counter()
    for n, kind, _ in pieces:
        ranks[n] += 1
        if kind != "free":
            ranks[n + 1] += 1
    cells = {n: rng.sample(range(r), r) for n, r in ranks.items()}
    d = {n: [[0] * r for _ in range(ranks[n - 1])] for n, r in ranks.items() if ranks[n - 1]}
    planted: dict[int, FgAbGroup] = {}
    for n, kind, value in pieces:
        i = cells[n].pop()
        if kind == "free":
            planted[n] = direct_sum([planted.get(n, FgAbGroup()), FgAbGroup.free(1)])
            continue
        d[n + 1][i][cells[n + 1].pop()] = value
        if kind == "torsion":
            planted[n] = direct_sum([planted.get(n, FgAbGroup()), FgAbGroup.cyclic(value)])
    for n, r in ranks.items():
        low, high = d.get(n), d.get(n + 1)
        for _ in range(mixes * r if r > 1 else 0):
            i, j = rng.sample(range(r), 2)
            k = rng.choice((-2, -1, 1, 2))
            for row in low or ():  # column j of d_n += k * column i
                row[j] += k * row[i]
            if high is not None:  # row i of d_(n+1) -= k * row j
                high[i] = [a - k * b for a, b in zip(high[i], high[j])]
    c = ChainComplex("scrambled", dict(ranks),
                     {n: IntMatrix.from_rows(rows, cols=ranks[n]) for n, rows in d.items()})
    return c, planted


def hadamard_square(m: IntMatrix) -> int:
    """The square of the Hadamard bound of m: the product of the squared
    column norms, each at least 1, bounds the square of every minor of m."""
    return math.prod(max(1, sum(x * x for x in col)) for col in zip(*m.entries))


def leibniz_det(rows) -> int:
    """The determinant of a square matrix, given as a list of rows, as the
    Leibniz sum of sign(s) * rows[0][s(0)] * ... over the permutations s.

    Row i picks the k-th of the columns still free, which adds k inversions;
    a zero pick drops every permutation that extends it.  No elimination and
    no division, so it checks :func:`det` without sharing any of its steps.
    """
    def expand(i, free, sign, term):
        if i == len(rows):
            return sign * term
        return sum(expand(i + 1, free[:k] + free[k + 1:], -sign if k % 2 else sign, term * x)
                   for k, j in enumerate(free) if (x := rows[i][j]))

    return expand(0, list(range(len(rows))), 1, 1)


def divides(a, b) -> bool:
    """Divisibility allowing math.inf on the right."""
    if b == float("inf"):
        return True
    if a == float("inf"):
        return False
    return b % a == 0


def prime_power_group(free_rank: int, orders) -> FgAbGroup:
    """Canonical form of Z^free_rank + sum of Z/d via prime-power multisets.

    Each order is split into its prime powers; the k-th largest invariant
    factor is the product, over the primes, of the k-th largest power.
    """
    powers = defaultdict(list)
    for d in orders:
        p = 2
        while d > 1:
            e = 1
            while d % p == 0:
                d //= p
                e *= p
            if e > 1:
                powers[p].append(e)
            p += 1
    depth = max((len(v) for v in powers.values()), default=0)
    factors = [1] * depth
    for v in powers.values():
        for k, e in enumerate(sorted(v, reverse=True)):
            factors[depth - 1 - k] *= e
    return FgAbGroup(free_rank, tuple(factors))


def pairwise_group(free_rank: int, orders) -> FgAbGroup:
    """Canonical form of Z^free_rank + sum of Z/d by the quadratic pairwise
    pass: each pair (a, b) of orders becomes (gcd(a, b), lcm(a, b))."""
    torsion = sorted(d for d in orders if d != 1)
    for i in range(len(torsion)):
        for j in range(i + 1, len(torsion)):
            a, b = torsion[i], torsion[j]
            g = math.gcd(a, b)
            torsion[i], torsion[j] = g, a // g * b
    return FgAbGroup(free_rank, tuple(d for d in torsion if d > 1))

def prime_factors(n: int) -> set[int]:
    """The primes dividing n >= 1, by trial division."""
    out = set()
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def torsion_primes(g: FgAbGroup) -> PrimeSet:
    """The set of primes dividing some invariant factor of g."""
    out: set[int] = set()
    for d in g.invariant_factors:
        out |= prime_factors(d)
    return PrimeSet(frozenset(out))


def invert_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1, by rational elimination."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    aug = [[Fraction(x) for x in m.entries[i]] +
           [Fraction(1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
    out = []
    for i in range(n):
        row = []
        for j in range(n, 2 * n):
            x = aug[i][j]
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular (inverse is not integral)")
            row.append(int(x))
        out.append(tuple(row))
    return IntMatrix(n, n, tuple(out))


def complex_to_json(c: ChainComplex) -> dict:
    """The interchange form: degree-keyed ranks and row-major boundaries."""
    return {
        "name": c.name,
        "reduced": True,
        "ranks": {str(n): c.ranks[n] for n in sorted(c.ranks)},
        "boundaries": {str(n): [list(row) for row in c.boundaries[n].entries]
                       for n in sorted(c.boundaries)},
    }


def reference_random_complex(rng, max_top: int = 5, max_rank: int = 5,
                             entry_bound: int = 6, name: str = "random") -> ChainComplex:
    """corpus.random_complex with its draw loop written out in full: this one
    also takes the kernel of the top boundary, which bounds no further draw,
    so the two must return equal complexes and leave rng in the same state."""
    for _ in range(500):
        top = rng.randint(0, max_top)
        ranks = [rng.randint(0, max_rank) for _ in range(top + 1)]
        if rng.random() < 0.7 and ranks:
            ranks[0] = 0
        boundaries = {}
        kernel = identity(ranks[0] if ranks else 0)
        overflow = False
        for n in range(1, top + 1):
            cols = ranks[n]
            if cols == 0:
                kernel = identity(0)
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
            if not is_zero(bnd):
                boundaries[n] = bnd
            kernel = kernel_basis(bnd)
        if overflow:
            continue
        return ChainComplex(name, {n: r for n, r in enumerate(ranks)}, boundaries)
    raise RuntimeError("could not draw a complex within the entry bound")


def reference_random_matrix(rng, max_dim: int = 8, bound: int = 10) -> IntMatrix:
    """corpus.random_matrix drawn through rng.randint."""
    rows = rng.randint(0, max_dim)
    cols = rng.randint(0, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols)


def reference_random_group(rng, max_rank: int = 2, max_factors: int = 3,
                           max_order: int = 50) -> FgAbGroup:
    """corpus.random_group drawn through rng.randint."""
    rank = rng.randint(0, max_rank)
    factors = [rng.randint(2, max_order) for _ in range(rng.randint(0, max_factors))]
    return FgAbGroup.of(rank, factors)


def reference_random_table(rng, variant: str, q_max: int = 8,
                           max_order: int = 24) -> HomotopyTable:
    """corpus.random_table drawn through rng.randint."""
    groups = {q: reference_random_group(rng, max_rank=1, max_factors=2, max_order=max_order)
              for q in range(TABLE_START[variant], q_max + 1)}
    return HomotopyTable(variant, groups, abelian_assumption=True)


def constant_table(variant: str, group: FgAbGroup, q_max: int,
                   abelian: bool = True) -> HomotopyTable:
    """The table with pi_q = group for every q from the variant's start to q_max."""
    return HomotopyTable(variant, {q: group for q in range(TABLE_START[variant], q_max + 1)},
                         abelian)


class EagerPage:
    """The second page as it was stored before it became a view: every cell
    of p_range x q_range assembled at once, and read back from that grid."""

    status = BigradedPage.status  # positional, so shared with the view

    def __init__(self, a: ChainComplex, table: HomotopyTable):
        self.variant = table.variant
        self.p_range, self.q_range = (-a.top_degree, -1), (table.q_min, table.q_max)
        self.entries = {
            (p, q): FgAbGroup.trivial() if self.status(p, q) == ZERO
            else cohomology_uct(a, -p, table.entries[q])
            for p in range(-a.top_degree, 0) for q in range(table.q_min, table.q_max + 1)}

    def group(self, p: int, q: int) -> FgAbGroup:
        return self.entries.get((p, q), FgAbGroup.trivial())

    def diagonal(self, n: int) -> list[tuple[int, int]]:
        p_lo, p_hi = self.p_range
        return [(p, n - p) for p in range(p_lo, p_hi + 1) if (p, n - p) in self.entries]


def reference_collapse_report(page: EagerPage, n: int) -> DiagonalVerdict:
    """The collapse analysis as it read the stored grid, with its test for a
    differential endpoint past the table."""
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

    def possibly_nonzero(p: int, q: int) -> bool | None:
        """False when the position is forced to vanish, None when unknown."""
        if p < p_lo or p > p_hi or page.status(p, q) == ZERO:
            return False
        if q > q_hi:
            return None
        return not page.group(p, q).is_trivial()

    surviving = [(p, q, g, page.status(p, q)) for p, q in page.diagonal(n)
                 if not (g := page.entries[(p, q)]).is_trivial()]
    notes: list[str] = []
    for p, q, _, _ in surviving:
        for step in range(2, (p_hi - p_lo) + 2):
            for p2, q2 in ((p + step, q - step + 1), (p - step, q + step - 1)):
                state = possibly_nonzero(p2, q2)
                if state is None:
                    return DiagonalVerdict(
                        n, tuple(surviving), OUT_OF_RANGE, None,
                        (f"a differential endpoint of ({p},{q}) needs q = {q2} "
                         f"beyond the table (q_max = {q_hi})",))
                if state:
                    notes.append(f"possible differential between ({p},{q}) and ({p2},{q2})")
    if not surviving:
        return DiagonalVerdict(n, (), DETERMINED, FgAbGroup.trivial(),
                               ("every entry on the diagonal vanishes",))
    if notes:
        return DiagonalVerdict(n, tuple(surviving), GRADED_UPPER_BOUNDS, None, tuple(notes))
    if len(surviving) == 1 and surviving[0][3] == EXACT:
        return DiagonalVerdict(n, tuple(surviving), DETERMINED, surviving[0][2],
                               ("single surviving exact entry with all differentials dead",))
    return DiagonalVerdict(
        n, tuple(surviving), GRADED_UPPER_BOUNDS, None,
        ("several surviving entries: only the associated graded is known; "
         "the extension problem is not solved",))


def reference_torsion_class_check(a: ChainComplex, table: HomotopyTable,
                                  primes: PrimeSet) -> TorsionClassReport:
    """The torsion report decided cell by cell over the whole eager page."""
    failures = tuple(j for j in range(1, a.top_degree + 1)
                     if not in_class(homology(a, j), primes))
    page = EagerPage(a, table)
    flags = {n: not failures and all(in_class(page.entries[c], primes) for c in page.diagonal(n))
             for n in range(1, table.q_max - a.top_degree + 1)}
    return TorsionClassReport(primes, not failures, failures,
                              all(in_class(g, primes) for g in page.entries.values()), flags)


def reference_column_echelon(m: IntMatrix,
                             transform: IntMatrix | None = None) -> tuple[IntMatrix, IntMatrix]:
    """Column Hermite form: (H, W) with m @ W == H and W unimodular.

    The per-entry form of :func:`ahom.abelian.column_echelon`, kept as its
    oracle: the library pass must do the same operations in the same order,
    so that every result is identical, not merely equivalent.

    Nonzero columns of H have strictly increasing leading rows and positive
    leading entries, entries to the left of a leading entry are reduced
    modulo it, and zero columns trail.  Unlike the Smith transforms, the
    nonzero part of H is a basis of the column lattice of m with entries of
    moderate size, which is what the homology pipeline builds on.

    The columns of W over the zero columns of H are a lattice basis of
    ker(m).  When `transform` (with m.cols columns) is given, the column
    operations are applied to it instead of to the identity, and the second
    result is transform @ W.
    """
    rows, ncols = m.rows, m.cols
    if transform is None:
        transform = identity(ncols)
    elif transform.cols != ncols:
        raise ValueError(f"transform has {transform.cols} columns, expected {ncols}")
    cols = [[m.entries[i][j] for i in range(rows)] for j in range(ncols)]
    w = [[transform.entries[i][j] for i in range(transform.rows)] for j in range(ncols)]

    def combine(j, j0, q):
        # column j -= q * column j0
        cols[j] = [x - q * y for x, y in zip(cols[j], cols[j0])]
        w[j] = [x - q * y for x, y in zip(w[j], w[j0])]

    next_pivot = 0
    for row in range(rows):
        if next_pivot >= ncols:
            break
        while True:
            nz = [j for j in range(next_pivot, ncols) if cols[j][row]]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(cols[j][row]))
            for j in nz:
                if j != j0:
                    q = cols[j][row] // cols[j0][row]
                    if q:
                        combine(j, j0, q)
        nz = [j for j in range(next_pivot, ncols) if cols[j][row]]
        if not nz:
            continue
        j0 = nz[0]
        if j0 != next_pivot:
            cols[j0], cols[next_pivot] = cols[next_pivot], cols[j0]
            w[j0], w[next_pivot] = w[next_pivot], w[j0]
        if cols[next_pivot][row] < 0:
            cols[next_pivot] = [-x for x in cols[next_pivot]]
            w[next_pivot] = [-x for x in w[next_pivot]]
        for j in range(next_pivot):
            q = cols[j][row] // cols[next_pivot][row]
            if q:
                combine(j, next_pivot, q)
        next_pivot += 1

    h = IntMatrix(rows, ncols, tuple(tuple(cols[j][i] for j in range(ncols))
                                     for i in range(rows)))
    wm = IntMatrix(transform.rows, ncols, tuple(tuple(w[j][i] for j in range(ncols))
                                                for i in range(transform.rows)))
    return h, wm


def echelon(m: IntMatrix, transform: IntMatrix | None = None) -> tuple[IntMatrix, IntMatrix]:
    """:func:`ahom.abelian.column_echelon` on matrices: (H, W) with
    m @ W == H, and transform @ W in place of W when `transform` is given.

    The one adapter between the in-place pass on column lists and the
    matrix form of :func:`reference_column_echelon`, which it must equal.
    """
    if transform is None:
        transform = identity(m.cols)
    cols = list(zip(*m.entries)) or [()] * m.cols
    w = list(zip(*transform.entries)) or [()] * transform.cols
    column_echelon(cols, w)
    return (IntMatrix(m.rows, m.cols, tuple(zip(*cols)) or ((),) * m.rows),
            IntMatrix(transform.rows, m.cols, tuple(zip(*w)) or ((),) * transform.rows))


def reference_snf(m: IntMatrix, certificate: bool = True) -> SmithDecomposition:
    """The Smith form by matrix-level passes of :func:`reference_column_echelon`,
    kept as the oracle of :func:`ahom.abelian.snf`.

    With a certificate, U @ m @ V == S with U and V unimodular, and one pass
    of 2x2 transforms closes the divisor chain of the diagonal.  Without one
    it does what snf does, the same operations in the same order on an
    IntMatrix per pass, so that every result is identical: U and V are empty
    and the diagonal is left as the Hermite passes leave it.
    """
    rows, cols = m.rows, m.cols
    start = identity if certificate else lambda n: IntMatrix(0, n, ())
    a, v, ut = m, start(cols), start(rows)
    while True:
        a, v = reference_column_echelon(a, v)
        at, ut = reference_column_echelon(transpose(a), ut)
        a = transpose(at)
        if not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a.entries)):
            break
    diag = [a.entries[i][i] for i in range(min(rows, cols))]
    urows = [list(c) for c in zip(*ut.entries)] or [[]] * rows
    vcols = [list(c) for c in zip(*v.entries)] or [[]] * cols
    for i in range(len(diag) if certificate else 0):
        if diag[i] < 2:
            continue
        for j in range(i + 1, len(diag)):
            x, y = diag[i], diag[j]
            if not x or not y % x:
                continue
            g = math.gcd(x, y)
            p, q = x // g, y // g
            s = pow(p, -1, q)
            t = (1 - s * p) // q
            ui, uj = urows[i], urows[j]
            urows[i] = [s * e + t * f for e, f in zip(ui, uj)]
            urows[j] = [p * f - q * e for e, f in zip(ui, uj)]
            vi, vj = vcols[i], vcols[j]
            vcols[i] = [e + f for e, f in zip(vi, vj)]
            vcols[j] = [s * p * f - t * q * e for e, f in zip(vi, vj)]
            diag[i], diag[j] = g, x * q
    return SmithDecomposition(
        U=IntMatrix(rows, ut.rows, tuple(tuple(r) for r in urows)),
        diagonal=tuple(diag),
        V=IntMatrix(v.rows, cols, tuple(zip(*vcols))))


def reference_certificate_ok(m: IntMatrix, dec: SmithDecomposition) -> bool:
    """Whether U @ m @ V == S for a certificate dec of m, read off the two dense
    products: row i holds the diagonal entry i, if there is one, and zeros
    elsewhere."""
    diag = dec.diagonal
    for i, row in enumerate((dec.U @ m @ dec.V).entries):
        if any(row[:i]) or any(row[i + 1:]) or (i < len(diag) and row[i] != diag[i]):
            return False
    return True


def smash(x: ChainComplex, y: ChainComplex) -> ChainComplex:
    """The reduced chains of the smash product, C~(x) (x) C~(y).

    The cells of degree n are the pairs (a, b) with |a| + |b| = n, ordered by
    the degree of a, and d(a (x) b) = da (x) b + (-1)^|a| a (x) db.
    """
    basis = defaultdict(list)
    for p, r in sorted(x.ranks.items()):
        for q, s in sorted(y.ranks.items()):
            basis[p + q].extend((p, i, q, j) for i in range(r) for j in range(s))
    boundaries = {}
    for n, cells in basis.items():
        below = {cell: k for k, cell in enumerate(basis.get(n - 1, ()))}
        if not below:
            continue
        rows = [[0] * len(cells) for _ in below]
        for col, (p, i, q, j) in enumerate(cells):
            dx, dy = x.boundaries.get(p), y.boundaries.get(q)
            for i2 in range(dx.rows if dx else 0):
                rows[below[(p - 1, i2, q, j)]][col] += dx.entries[i2][i]
            for j2 in range(dy.rows if dy else 0):
                rows[below[(p, i, q - 1, j2)]][col] += (-1) ** p * dy.entries[j2][j]
        boundaries[n] = IntMatrix.from_rows(rows, cols=len(cells))
    return ChainComplex(f"smash({x.name},{y.name})",
                        {n: len(cells) for n, cells in basis.items()}, boundaries)


def hom_complex(a: ChainComplex, x: ChainComplex) -> ChainComplex:
    """Hom(C~(a), C~(x)) as a complex, its degree k stored at k + dim a + 1
    so that no degree is negative.

    Hom_k is the product over p of Hom(C~_p(a), C~_(p+k)(x)): a basis cell
    (p, i, j) is the map sending p-cell j of a to (p+k)-cell i of x, and
    D f = d_x f - (-1)^k f d_a.  As C~(a) is finite and free, the homology in
    degree k is the sum over j of H^(j-k)(a; H_j(x)), by the Kunneth and
    universal coefficient theorems: for a connected x and k >= 0 that is the
    shaped homology of x, reached without the Hom/Ext formula.
    """
    shift = a.top_degree + 1
    basis = defaultdict(list)
    for p, r in sorted(a.ranks.items()):
        for q, s in sorted(x.ranks.items()):
            basis[q - p + shift].extend((p, i, j) for i in range(s) for j in range(r))
    boundaries = {}
    for n, cells in basis.items():
        below = {cell: m for m, cell in enumerate(basis.get(n - 1, ()))}
        if not below:
            continue
        k = n - shift
        rows = [[0] * len(cells) for _ in below]
        for col, (p, i, j) in enumerate(cells):
            dx, da = x.boundaries.get(p + k), a.boundaries.get(p + 1)
            for i2 in range(dx.rows if dx else 0):
                rows[below[(p, i2, j)]][col] += dx.entries[i2][i]
            for j2 in range(da.cols if da else 0):
                rows[below[(p + 1, i, j2)]][col] -= (-1 if k % 2 else 1) * da.entries[j][j2]
        boundaries[n] = IntMatrix.from_rows(rows, cols=len(cells))
    return ChainComplex(f"hom({a.name},{x.name})",
                        {n: len(cells) for n, cells in basis.items()}, boundaries)


def tensor(g: FgAbGroup, h: FgAbGroup) -> FgAbGroup:
    """g (x) h: Z (x) H = H and Z/a (x) Z/b = Z/gcd(a, b)."""
    orders = list(h.invariant_factors) * g.free_rank + list(g.invariant_factors) * h.free_rank
    orders.extend(math.gcd(a, b) for a in g.invariant_factors for b in h.invariant_factors)
    return FgAbGroup.of(g.free_rank * h.free_rank, orders)


def tor(g: FgAbGroup, h: FgAbGroup) -> FgAbGroup:
    """Tor(g, h): Tor(Z, H) = 0 and Tor(Z/a, Z/b) = Z/gcd(a, b)."""
    return FgAbGroup.of(0, [math.gcd(a, b) for a in g.invariant_factors
                            for b in h.invariant_factors])


def kunneth(x: ChainComplex, y: ChainComplex, n: int) -> FgAbGroup:
    """H_n of x (x) y by the Kunneth formula from the homology of the factors:
    the sum of H_i(x) (x) H_(n-i)(y) and of Tor(H_i(x), H_(n-1-i)(y))."""
    return direct_sum([tensor(homology(x, i), homology(y, n - i)) for i in range(n + 1)]
                      + [tor(homology(x, i), homology(y, n - 1 - i)) for i in range(n)])
