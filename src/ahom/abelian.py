"""Exact arithmetic on integer matrices and finitely generated abelian groups.

Everything here works with unbounded Python integers; there is no floating
point and no modular shortcut anywhere.  The packed d*d = 0 test,
:func:`composite_is_zero`, is exact, not modular: its digits, each an entry's
two's complement as an 8-byte `array` item in native order or a wider
`int.to_bytes`, take their width from the entry bounds, and one borrow per row
makes the packing exact.  The two central objects are

* :class:`IntMatrix` -- an immutable integer matrix, the substrate for all
  boundary/relation data, and
* :class:`FgAbGroup` -- a finitely generated abelian group in canonical form
  (free rank plus an invariant-factor divisor chain), so that two groups are
  isomorphic exactly when they compare equal.

On top of those sit the column Hermite form and the lattice utilities built
on it (kernels, exact linear solving), the Smith invariants (:func:`snf`,
without transforms, which no caller needs), and the functor arithmetic
(:func:`hom`, :func:`ext`, :func:`direct_sum`) used by every homology
computation downstream.  :func:`split_pivots`, the one search
for divisor pivots, splits them off a whole chain complex at once; then
:func:`residual_cokernel` ends both :func:`cokernel` and homology in ``chains``.

:class:`IntMatrix` is the type at the boundary; the Hermite and Smith passes
run in place on lists of columns.  :func:`snf` calls :func:`column_echelon`
twice per round, not an inlined pass, because the benchmark's tracer counts
those calls as ``abelian.snf.rounds``.

>>> print(cokernel(IntMatrix.diagonal([2, 3])))
Z/6
>>> print(hom(FgAbGroup.cyclic(4), FgAbGroup.cyclic(6)))
Z/2
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import chain, compress, count, repeat
from operator import itemgetter, mod, mul


class GroupParseError(ValueError):
    """Raised when a group string does not follow the rendering grammar."""


# The most cyclic summands a group text, and so a Moore recipe's degree, or a
# complex file's degree may hold: "Z^N" would otherwise demand N of them.  Hom
# and Ext expand no more than that many either.
MAX_SUMMANDS = 100_000


def within_summand_limit(n: int, error: type[ValueError] = ValueError) -> None:
    """Raise `error` naming the limit when n summands are past MAX_SUMMANDS."""
    if n > MAX_SUMMANDS:
        raise error(f"{n} summands are past the limit of {MAX_SUMMANDS}")


def require_int(x: object, what: str) -> int:
    """x when it is an int; a float, bool or string is a TypeError naming it,
    so that no value changes meaning on the way in."""
    if type(x) is not int:
        raise TypeError(f"{what} {x!r} is a {type(x).__name__}, not an int")
    return x


def canonical_int(text: str, what: str, error: type[ValueError] = ValueError) -> int:
    """The integer `text` writes, which must equal str(int(text)).

    Every integer thus has one spelling: no "+", leading zeros, underscores,
    whitespace or non-ASCII digits.  Otherwise `error` is raised, naming
    `what` and the text; text past the interpreter's digit limit is refused
    without being echoed.

    >>> canonical_int("-12", "degree")
    -12
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(text) > limit:
        raise error(f"bad {what}: integer text of {len(text)} characters "
                    f"exceeds the limit of {limit} digits")
    try:
        if str(int(text)) == text:
            return int(text)
    except ValueError:
        pass
    raise error(f"bad {what}: {text!r} is not a canonical decimal integer")


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------

class IntMatrix(namedtuple("IntMatrix", "rows cols entries")):
    """An immutable rows x cols integer matrix (row-major).

    Empty matrices (zero rows and/or zero columns) are legal and represent
    maps to or from the trivial group.
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows:
            raise ValueError(f"expected {rows} rows, got {len(entries)}")
        for row in entries:
            if len(row) != cols:
                raise ValueError(f"expected {cols} columns, got {len(row)}")
        return tuple.__new__(cls, (rows, cols, entries))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        """Build from a list of rows; `cols` disambiguates the 0-row case.
        An entry that is not an int (a float, bool, string) is a TypeError."""
        data = tuple(map(tuple, rows))
        if not {int}.issuperset(map(type, chain.from_iterable(data))):
            for x in chain.from_iterable(data):
                require_int(x, "matrix entry")
        if data:
            width = len(data[0])
        else:
            width = 0 if cols is None else cols
        return cls(len(data), width, data)

    @classmethod
    def diagonal(cls, diag: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        r = len(diag) if rows is None else rows
        c = len(diag) if cols is None else cols
        zero = (0,) * c  # rows are unpacked: joining slices by + peaks higher at 2,000 rows
        return tuple.__new__(cls, (r, c, tuple((*zero[:i], diag[i], *zero[i + 1:])
                                               if i < min(len(diag), c) else zero
                                               for i in range(r))))

    # -- queries ------------------------------------------------------

    def max_abs(self) -> int:
        return max(map(abs, chain.from_iterable(self.entries)), default=0)

    # -- algebra ------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols_t = list(zip(*other.entries)) if other.rows else []
        zero = (0,) * other.cols
        out = tuple([tuple([sum(map(mul, row, col)) for col in cols_t]) if cols_t else zero
                     for row in self.entries])
        return tuple.__new__(IntMatrix, (self.rows, other.cols, out))  # its shape holds by construction


def composite_is_zero(a: IntMatrix, b: IntMatrix, bound: int | None = None) -> bool:
    """Whether a @ b is the zero matrix, decided without forming it.

    Each row of b is packed into one integer, a base-2^w digit per column
    (Kronecker substitution); a row of a times the packed rows is then the
    matching row of a @ b, packed the same way.  Every entry of a @ b is at
    most a.cols * max|a| * max|b| < 2^(w-1) in absolute value, so a packed
    row is zero exactly when each of its digits is: the test is exact.
    A digit is the entry in w-bit two's complement, w a multiple of 64: a
    signed 8-byte `array` item in native byte order, whose digits a big-endian
    host reverses without harm, or a wider little-endian `int.to_bytes`.  The
    row's bytes, read as one unsigned integer, less 2^w at the digit above
    each negative digit, are its exact packing.  `bound`, if given, is max|a| * max|b|.
    """
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    bound = a.cols * (a.max_abs() * b.max_abs() if bound is None else bound)
    if not bound:
        return True
    limbs = bound.bit_length() // 64 + 1
    w = 64 * limbs  # so 2^(w-1) > bound
    ones = int.from_bytes((b"\1" + bytes(8 * limbs - 1)) * b.cols, "little")  # 1 in each digit
    packed = []
    for row in b.entries:
        if limbs == 1:
            u = int.from_bytes(array("q", row), sys.byteorder)
        else:
            u = int.from_bytes(b"".join(x.to_bytes(w // 8, "little", signed=True) for x in row), "little")
        packed.append(u - ((u >> (w - 1) & ones) << w))  # the borrow of each negative digit
    return not any(sum(map(mul, compress(row, row), compress(packed, row))) for row in a.entries)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class SmithDecomposition(namedtuple("SmithDecomposition", "U diagonal V")):
    """A Smith form of a matrix m: U @ m @ V == S when U and V are unimodular
    transforms.  It builds S (U.rows x V.cols) from the diagonal on each read.
    :func:`snf` leaves U and V empty (rows x 0 and 0 x cols); its diagonal is
    nonnegative with zeros trailing, but need not be a divisor chain."""

    __slots__ = ()

    @property
    def S(self) -> IntMatrix:
        return IntMatrix.diagonal(self.diagonal, self.U.rows, self.V.cols)

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def snf(m: IntMatrix) -> SmithDecomposition:
    """A Smith form of m, without transforms: column and row Hermite passes
    alternate until the matrix is diagonal (the Kannan-Bachem scheme), with no
    round cap.  The matrix is converted once, and one transpose per pass turns
    its columns into the rows the row pass works on, and back.  Both passes
    sort zeros to the back and make pivots positive, so the diagonal is
    nonnegative with zeros trailing, but it need not be a divisor chain:
    :meth:`FgAbGroup.of` makes one of it.  U and V come back empty.
    """
    rows, cols = m.rows, m.cols
    a = _transpose(m.entries, cols)
    while True:
        column_echelon(a)
        a = _transpose(a, rows)
        column_echelon(a)
        if not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a)):
            break
        a = _transpose(a, cols)
    u = tuple.__new__(IntMatrix, (rows, 0, ((),) * rows))  # shaped as built
    v = tuple.__new__(IntMatrix, (0, cols, ()))
    return SmithDecomposition(U=u, diagonal=tuple(a[i][i] for i in range(min(rows, cols))), V=v)


def column_echelon(cols: list[Sequence[int]],
                   w: list[Sequence[int]] | None = None) -> list[int]:
    """Column Hermite form, in place: the columns `cols` of a matrix m become
    those of H = m @ W with W unimodular, and the leading row of each nonzero
    column of H is returned, in order.

    Nonzero columns of H have strictly increasing leading rows and positive
    leading entries, entries to the left of a leading entry are reduced
    modulo it, and zero columns trail.  Unlike the Smith transforms, the
    nonzero part of H is a basis of the column lattice of m with entries of
    moderate size, which is what the homology pipeline builds on.

    The columns of W over the zero columns of H are a lattice basis of
    ker(m).  When `w` (one column per column of m) is given, the column
    operations are applied to it too, so it becomes w @ W; start it at the
    identity to read off W.  For the pass, each column of m and its column
    of `w` are one list, so one comprehension does both; zero-length columns
    of `w` are left as they are.  A column is replaced, never changed in
    place, so tuples serve as well as lists.
    """
    ncols = len(cols)
    rows = len(cols[0]) if cols else 0
    if w and w[0]:
        cols[:] = [[*c, *t] for c, t in zip(cols, w)]
    leads: list[int] = []
    for row in range(rows):
        p = len(leads)
        if p >= ncols:
            break
        # Euclid steps on the columns nonzero in this row, in index order:
        # only a reduced column changes, and one reduced to zero stays zero
        nz = [j for j in range(p, ncols) if cols[j][row]]
        while len(nz) > 1:
            j0 = nz[0]  # the first column of least absolute entry in this row
            for j in nz:
                if abs(cols[j][row]) < abs(cols[j0][row]):
                    j0 = j
            c0, keep = cols[j0], []
            for j in nz:
                c = cols[j]
                q = c[row] // c0[row] if j != j0 else 0
                if q:
                    cols[j] = c = [x - q * y for x, y in zip(c, c0)]
                if c[row]:
                    keep.append(j)
            nz = keep
        if not nz:
            continue
        c0 = cols[nz[0]]  # the pivot goes to column p, made positive
        cols[nz[0]] = cols[p]
        cols[p] = c0 = c0 if c0[row] > 0 else [-x for x in c0]
        for j in range(p):
            q = cols[j][row] // c0[row]
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], c0)]
        leads.append(row)
    if w and w[0]:
        w[:] = [c[rows:] for c in cols]
        cols[:] = [c[:rows] for c in cols]
    return leads


def _transpose(lists: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """The n tuples that hold the i-th entries of `lists` (all of length n):
    the columns of a matrix from its rows, or back."""
    return list(zip(*lists)) or [()] * n


def _unit_vectors(n: int) -> list[tuple[int, ...]]:
    """The rows, or equally the columns, of the n x n identity matrix."""
    return [(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)]


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """A lattice basis of ker(m), returned as the columns of a matrix.

    The integer kernel of m is spanned exactly by the columns of the
    column-Hermite transform W over the zero columns of H; that raw basis
    is then Hermite-reduced, which makes the result the unique Hermite
    basis of the kernel lattice, with small entries.
    """
    w = _unit_vectors(m.cols)
    raw = w[len(column_echelon(_transpose(m.entries, m.cols), w)):]
    column_echelon(raw)  # raw has independent columns, so H has no zero column
    return tuple.__new__(IntMatrix, (m.cols, len(raw), tuple(_transpose(raw, m.cols))))


def solve(m: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """An integer solution X of m @ X == b, or None when none exists."""
    if b.rows != m.rows:
        raise ValueError("right-hand side has wrong height")
    h, w = _transpose(m.entries, m.cols), _unit_vectors(m.cols)
    leads = column_echelon(h, w)
    x_cols = []
    for res in map(list, _transpose(b.entries, b.cols)):
        x = [0] * m.cols  # W @ z, z the coefficients of the columns of H
        for j, row in enumerate(leads):
            p = h[j][row]
            if res[row] % p:
                return None
            q = res[row] // p
            if q:
                for i in range(row, m.rows):
                    res[i] -= q * h[j][i]
                x = [e + q * f for e, f in zip(x, w[j])]
        if any(res):
            return None
        x_cols.append(x)
    return IntMatrix(m.cols, b.cols, tuple(_transpose(x_cols, m.cols)))


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------

class FgAbGroup(namedtuple("FgAbGroup", "free_rank invariant_factors")):
    """Canonical form: Z^free_rank + Z/d1 + ... + Z/dk with d1 | d2 | ... | dk.

    Every factor is >= 2 and the divisor chain makes the representation
    unique, so isomorphism is plain equality.

    >>> FgAbGroup.of(0, [2, 3]) == FgAbGroup.cyclic(6)
    True
    >>> print(FgAbGroup.of(2, [2, 6]))
    Z^2 + Z/2 + Z/6
    """

    __slots__ = ()

    def __new__(cls, free_rank: int = 0, invariant_factors: tuple[int, ...] = ()):
        if require_int(free_rank, "free rank") < 0:
            raise ValueError("free rank must be nonnegative")
        prev = None
        for d in invariant_factors:
            if require_int(d, "invariant factor") < 2:
                raise ValueError(f"invariant factor {d} is not >= 2")
            if prev is not None and d % prev:
                raise ValueError(f"broken divisor chain: {prev} does not divide {d}")
            prev = d
        return tuple.__new__(cls, (free_rank, invariant_factors))

    # -- constructors -------------------------------------------------

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return _TRIVIAL

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, d: int) -> "FgAbGroup":
        """Z/d; by the usual conventions Z/0 = Z and Z/1 = 0."""
        if d < 0:
            raise ValueError("cyclic order must be nonnegative")
        if d == 0:
            return cls(1, ())
        if d == 1:
            return cls(0, ())
        return cls(0, (d,))

    @classmethod
    def of(cls, free_rank: int, orders: Iterable[int]) -> "FgAbGroup":
        """Canonicalize an arbitrary cyclic decomposition.

        `orders` are the orders of cyclic torsion summands, in any order and
        not necessarily a divisor chain; unit factors are dropped.  The chain
        is recovered without any matrix: each order x joins the chain from
        the top, where Z/c + Z/x = Z/gcd(c, x) + Z/lcm(c, x) keeps the group
        and the chain, and gcd(c, x) goes on down past the other copies of c,
        so the cost is the orders times the distinct values in the chain.
        Orders that are sorted into a divisor chain already need no pass.
        """
        torsion = sorted(d for d in orders if require_int(d, "cyclic order") != 1)
        if torsion and torsion[0] < 1:
            raise ValueError(f"cyclic order {torsion[0]} must be positive")
        if any(map(mod, torsion[1:], torsion)):
            orders, torsion = torsion, []
            for x in orders:
                i = len(torsion)
                while x > 1 and i:
                    c = torsion[i - 1]
                    g = math.gcd(c, x)
                    torsion[i - 1] = c // g * x
                    x, i = g, bisect_left(torsion, c, 0, i - 1)
                if x > 1:
                    torsion.insert(0, x)
        if require_int(free_rank, "free rank") < 0:
            raise ValueError("free rank must be nonnegative")
        return tuple.__new__(cls, (free_rank, tuple(torsion)))  # a divisor chain of orders >= 2

    # -- queries ------------------------------------------------------

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | float:
        """Number of elements; math.inf when the free rank is positive."""
        if self.free_rank:
            return math.inf
        return math.prod(self.invariant_factors)

    def __str__(self) -> str:
        if self.is_trivial():
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts)


_TRIVIAL = FgAbGroup()  # what trivial() returns: a group is immutable, so one serves


def parse_group(text: str) -> FgAbGroup:
    """Parse the canonical rendering grammar back into a group.

    Accepts "0", "Z", "Z^r", "Z/d" joined by "+", with whitespace allowed
    around each summand; r and d must be canonical decimal integers.
    The summands may appear in any order; the result is canonicalized.
    """
    if not text.strip():
        raise GroupParseError("empty group string")
    if text.strip() == "0":
        return FgAbGroup.trivial()
    rank = 0
    orders = []
    for token in (t.strip() for t in text.split("+")):
        if token == "Z":
            rank += 1
        elif token.startswith("Z^"):
            rank += _summand_int(token, "free part", 1)
        elif token.startswith("Z/"):
            orders.append(_summand_int(token, "cyclic factor", 2))
        else:
            raise GroupParseError(f"unrecognized summand {token!r}")
    g = FgAbGroup.of(rank, orders)
    within_summand_limit(g.free_rank + len(g.invariant_factors), GroupParseError)
    return g


def _summand_int(token: str, what: str, least: int) -> int:
    """The integer after "Z^" or "Z/" in a summand; it must be >= least."""
    k = canonical_int(token[2:], what, GroupParseError)
    if k < least:
        raise GroupParseError(f"bad {what} {token!r}")
    return k


# ---------------------------------------------------------------------------
# Group-level operations
# ---------------------------------------------------------------------------

def split_pivots(d: dict[int, list[list[int]]]) -> dict[int, list[int]]:
    """Split every divisor pivot p = d[n][t][s], which divides its row and its
    column, off the matrices `d` (lists of rows by degree n, with d[n-1] @ d[n]
    = 0; one matrix is a one-entry dict) in place, and return the |p| by n.
    After a unimodular change of basis d[n] is p + the Schur complement of p,
    which replaces its rows (row t and column s go, row k -= d[n][k][s]/p *
    row t), so coker(d[n]) gains Z/|p|; d[n+1] loses row s and d[n-1] column
    t, which d*d = 0 makes zero in the new bases.  Degrees go up, and in each
    the search goes on from the row of the last pivot until a full pass finds
    none; entries left are minors of the input over the pivots' determinant."""
    split = {}
    for n, rows in sorted(d.items()):
        orders = split[n] = []
        t = misses = 0
        while misses < len(rows):
            t %= len(rows)
            s = _pivot(rows[t], rows)
            if s is None:
                t, misses = t + 1, misses + 1
                continue
            top = rows.pop(t)
            p = top.pop(s)
            support = list(compress(count(), top))
            for row in rows:
                f = row.pop(s) // p
                if f:
                    for j in support:
                        row[j] -= f * top[j]
            for row in d.get(n - 1, ()):
                del row[t]
            if n + 1 in d:
                del d[n + 1][s]
            orders.append(abs(p))
            misses = 0
    return split


def _pivot(row: list[int], rows: list[list[int]]) -> int | None:
    """A column s where `row` holds a divisor pivot of `rows`, or None: the
    pivot is +-gcd(row), and unless a unit it must divide its column."""
    p = math.gcd(*row)
    if not p:
        return None
    if p == 1:
        return row.index(1) if 1 in row else row.index(-1) if -1 in row else None
    return next((s for s in compress(count(), map(p.__eq__, map(abs, row)))
                 if not any(map(mod, map(itemgetter(s), rows), repeat(p)))), None)


def residual_cokernel(rows: list[list[int]], orders: list[int]) -> FgAbGroup:
    """The cokernel of a matrix, from the |p| of the divisor pivots split off
    it (:func:`split_pivots`) and the rows left, which take one :func:`snf`
    unless zero; :meth:`FgAbGroup.of` makes one divisor chain of the orders
    and the Smith diagonal."""
    if not any(map(any, rows)):
        return FgAbGroup.of(len(rows), orders)
    residual = tuple.__new__(IntMatrix, (len(rows), len(rows[0]), tuple(map(tuple, rows))))
    dec = snf(residual)
    return FgAbGroup.of(len(rows) - dec.rank, [*orders, *dec.diagonal[:dec.rank]])


def cokernel(m: IntMatrix) -> FgAbGroup:
    """Z^rows / (column span of m), in canonical form: the divisor pivots
    split off (:func:`split_pivots`), then :func:`residual_cokernel`."""
    rows = [list(row) for row in m.entries]
    return residual_cokernel(rows, split_pivots({0: rows})[0])


def hom(g: FgAbGroup, h: FgAbGroup) -> FgAbGroup:
    """Hom(g, h): Hom(Z, H) = H, Hom(Z/a, Z) = 0 and Hom(Z/a, Z/b) = Z/gcd(a, b)."""
    return FgAbGroup.of(g.free_rank * h.free_rank, hom_orders(g, h))


def hom_orders(g: FgAbGroup, h: FgAbGroup) -> list[int]:
    """The orders of the cyclic torsion summands of :func:`hom`, not canonicalized;
    past MAX_SUMMANDS of them is a ValueError, raised before any is listed."""
    within_summand_limit(len(h.invariant_factors) * (g.free_rank + len(g.invariant_factors)))
    orders = list(h.invariant_factors) * g.free_rank
    return orders + [math.gcd(a, b) for a in g.invariant_factors for b in h.invariant_factors]


def ext(g: FgAbGroup, h: FgAbGroup) -> FgAbGroup:
    """Ext(g, h): Ext(Z, H) = 0 and Ext(Z/a, H) = H/aH."""
    return FgAbGroup.of(0, ext_orders(g, h))


def ext_orders(g: FgAbGroup, h: FgAbGroup) -> list[int]:
    """The orders of the cyclic summands of :func:`ext`, all finite, not canonicalized;
    past MAX_SUMMANDS of them is a ValueError, raised before any is listed."""
    within_summand_limit(len(g.invariant_factors) * (h.free_rank + len(h.invariant_factors)))
    return [c for a in g.invariant_factors
            for c in [a] * h.free_rank + [math.gcd(a, b) for b in h.invariant_factors]]


def direct_sum(groups: Iterable[FgAbGroup]) -> FgAbGroup:
    """Direct sum, re-normalized into a single divisor chain."""
    rank = 0
    orders: list[int] = []
    for g in groups:
        rank += g.free_rank
        orders.extend(g.invariant_factors)
    return FgAbGroup.of(rank, orders)


def exponent(g: FgAbGroup) -> int | float:
    """Smallest e >= 1 with e*g = 0: 1 for the trivial group, math.inf when
    the free rank is positive, otherwise the largest invariant factor."""
    if g.free_rank:
        return math.inf
    if not g.invariant_factors:
        return 1
    return g.invariant_factors[-1]


PRIME_LIMIT = 2 ** 64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, exact for n < 2^64."""
    if n < 2 or any(n % p == 0 for p in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in _WITNESSES)


class PrimeSet(namedtuple("PrimeSet", "primes")):
    """A finite set of primes below 2^64; membership is validated at construction."""

    __slots__ = ()

    def __new__(cls, primes: frozenset[int]):
        for p in primes:
            if p >= PRIME_LIMIT:
                raise ValueError(f"prime of {len(str(p))} digits is past the limit 2^64")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        return tuple.__new__(cls, (primes,))

    @classmethod
    def of(cls, *primes: int) -> "PrimeSet":
        return cls(frozenset(primes))

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in sorted(self.primes)) + "}"


def in_class(g: FgAbGroup, p: PrimeSet) -> bool:
    """True when g is torsion and all its torsion primes lie in p.

    Dividing each invariant factor by the primes of p while they divide it
    reaches 1 exactly in the class; nothing is factored.
    """
    if g.free_rank:
        return False
    for d in g.invariant_factors:
        for q in p.primes:
            while d % q == 0:
                d //= q
        if d != 1:
            return False
    return True
