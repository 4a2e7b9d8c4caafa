"""Brute-force oracles and small utilities shared by the test modules.

The oracles here enumerate group elements or cochains, factor orders or
invert over the rationals, and never touch the Smith-form machinery they are
used to check.  The exceptions are the per-entry reference Hermite pass
and the Smith form built on it, the matrix adapter of the library's Hermite
pass, the degree-window sum for shaped homology, the unreduced graded homology,
the Hom complex whose homology is shaped homology, and the smash product
with its Kunneth formula, which reduce through the library on purpose.
"""

import math
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product

from ahom.abelian import (FgAbGroup, IntMatrix, PrimeSet, SmithDecomposition, cokernel,
                          column_echelon, direct_sum)
from ahom.chains import ChainComplex, cohomology_uct, homology
from ahom.federer import TABLE_START, HomotopyTable


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
        d = c.boundary(k + 1)
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


def constant_table(variant: str, group: FgAbGroup, q_max: int,
                   abelian: bool = True) -> HomotopyTable:
    """The table with pi_q = group for every q from the variant's start to q_max."""
    return HomotopyTable(variant, {q: group for q in range(TABLE_START[variant], q_max + 1)},
                         abelian)


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
        transform = IntMatrix.identity(ncols)
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
        transform = IntMatrix.identity(m.cols)
    cols = list(zip(*m.entries)) or [()] * m.cols
    w = list(zip(*transform.entries)) or [()] * transform.cols
    column_echelon(cols, w)
    return (IntMatrix(m.rows, m.cols, tuple(zip(*cols)) or ((),) * m.rows),
            IntMatrix(transform.rows, m.cols, tuple(zip(*w)) or ((),) * transform.rows))


def reference_snf(m: IntMatrix, certificate: bool = True) -> SmithDecomposition:
    """The Smith form by matrix-level passes of :func:`reference_column_echelon`,
    kept as the oracle of :func:`ahom.abelian.snf`: the same operations in
    the same order, on an IntMatrix per pass, so every result is identical.
    """
    rows, cols = m.rows, m.cols
    start = IntMatrix.identity if certificate else lambda n: IntMatrix(0, n, ())
    a, v, ut = m, start(cols), start(rows)
    while True:
        a, v = reference_column_echelon(a, v)
        at, ut = reference_column_echelon(a.transpose(), ut)
        a = at.transpose()
        if not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a.entries)):
            break
    diag = [a.entries[i][i] for i in range(min(rows, cols))]
    urows = [list(c) for c in zip(*ut.entries)] or [[]] * rows
    vcols = [list(c) for c in zip(*v.entries)] or [[]] * cols
    for i in range(len(diag)):
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
        S=IntMatrix.diagonal(diag, rows, cols),
        V=IntMatrix(v.rows, cols, tuple(zip(*vcols))),
        source=m)


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
