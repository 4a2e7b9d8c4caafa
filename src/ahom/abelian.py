"""Exact arithmetic on integer matrices and finitely generated abelian groups.

Everything here works with unbounded Python integers; there is no floating
point and no modular shortcut anywhere.  The one packed computation,
:func:`composite_is_zero`, takes its digit width from the entry bounds, so it
is exact, not modular.  The two central objects are

* :class:`IntMatrix` -- an immutable integer matrix, the substrate for all
  boundary/relation data, and
* :class:`FgAbGroup` -- a finitely generated abelian group in canonical form
  (free rank plus an invariant-factor divisor chain), so that two groups are
  isomorphic exactly when they compare equal.

On top of those sit the column Hermite form and the lattice utilities built
on it (kernels, exact linear solving), the Smith normal form
(:func:`snf`, certified or transform-free for :func:`cokernel`), and
the functor arithmetic (:func:`hom`, :func:`ext`, :func:`direct_sum`) used by
every homology computation downstream.

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
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import add, and_, mod, mul, rshift
from typing import Iterable, Sequence


class GroupParseError(ValueError):
    """Raised when a group string does not follow the rendering grammar."""


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

@dataclass(frozen=True)
class IntMatrix:
    """An immutable rows x cols integer matrix (row-major).

    Empty matrices (zero rows and/or zero columns) are legal and represent
    maps to or from the trivial group.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError(f"expected {self.cols} columns, got {len(row)}")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        """Build from a list of rows; `cols` disambiguates the 0-row case.
        An entry that is not an int (a float, bool, string) is a TypeError."""
        data = tuple(map(tuple, rows))
        if not {int}.issuperset(map(type, chain.from_iterable(data))):
            x = next(x for x in chain.from_iterable(data) if type(x) is not int)
            raise TypeError(f"matrix entry {x!r} is a {type(x).__name__}, not an int")
        if data:
            width = len(data[0])
        else:
            width = 0 if cols is None else cols
        return cls(len(data), width, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.diagonal((1,) * n)

    @classmethod
    def diagonal(cls, diag: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        r = len(diag) if rows is None else rows
        c = len(diag) if cols is None else cols
        zero = (0,) * c
        return cls(r, c, tuple(zero[:i] + (diag[i],) + zero[i + 1:] if i < min(len(diag), c)
                               else zero for i in range(r)))

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def columns(self, indices: Iterable[int]) -> "IntMatrix":
        """The submatrix formed by the given columns, in the given order."""
        idx = list(indices)
        return IntMatrix(self.rows, len(idx),
                         tuple(tuple(row[j] for j in idx) for row in self.entries))

    def max_abs(self) -> int:
        return max(map(abs, chain.from_iterable(self.entries)), default=0)

    # -- algebra ------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols_t = list(zip(*other.entries)) if other.rows and other.cols else []
        out = tuple(
            tuple(sum(map(mul, row, col)) for col in cols_t)
            if cols_t else (0,) * other.cols
            for row in self.entries)
        return IntMatrix(self.rows, other.cols, out)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(zip(*self.entries)) if self.rows else ((),) * self.cols)

    @classmethod
    def block_diagonal(cls, blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = [[0] * cols for _ in range(rows)]
        i0 = j0 = 0
        for b in blocks:
            for i in range(b.rows):
                row = out[i0 + i]
                for j in range(b.cols):
                    row[j0 + j] = b.entries[i][j]
            i0 += b.rows
            j0 += b.cols
        return cls(rows, cols, tuple(tuple(r) for r in out))

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.entries]
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
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def composite_is_zero(a: IntMatrix, b: IntMatrix, bound: int | None = None) -> bool:
    """Whether a @ b is the zero matrix, decided without forming it.

    Each row of b is packed into one integer, a base-2^w digit per column
    (Kronecker substitution); a row of a times the packed rows is then the
    matching row of a @ b, packed the same way.  Every entry of a @ b is at
    most a.cols * max|a| * max|b| < 2^(w-1) in absolute value, so a packed
    row is zero exactly when each of its digits is: the test is exact.
    A digit is one item of an `array` of 1, 2, 4 or 8 bytes, sized from that
    bound, or as many 8-byte limbs as a wider one needs.  `bound`, when
    given, is max|a| * max|b|.
    """
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    bound = a.cols * (a.max_abs() * b.max_abs() if bound is None else bound)
    if not bound:
        return True
    nbytes = bound.bit_length() // 8 + 1  # so 2^(8*nbytes-1) > bound
    size = min(8, 1 << (nbytes - 1).bit_length())  # bytes per array item
    limbs, code, bits = -(-nbytes // size), _ITEM_CODES[size], 8 * size
    half = 1 << (bits * limbs - 1)  # shifts every digit of b into [0, 2^w)
    digits = array(code, bytes(size * limbs * b.cols))
    packed = []
    for row in (*b.entries, (1 - half,) * b.cols):  # the last packs to the sum of 2^(w*j)
        values = map(add, row, repeat(half))
        for limb in range(limbs - 1):  # low limbs first
            values = list(values)
            digits[limb::limbs] = array(code, map(and_, values, repeat((1 << bits) - 1)))
            values = map(rshift, values, repeat(bits))
        digits[limbs - 1::limbs] = array(code, values)
        if sys.byteorder == "big":  # items are native-endian; each row rewrites them all
            digits.byteswap()
        packed.append(int.from_bytes(digits, "little"))
    shift = half * packed.pop()
    return not any(sum(map(mul, compress(row, row), compress(packed, row))) - shift * sum(row)
                   for row in a.entries)


_ITEM_CODES = {array(code).itemsize: code for code in "BHILQ"}  # array typecodes by size


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithDecomposition:
    """Certificate U @ source @ V == S with U, V unimodular and S diagonal.

    The diagonal of S is nonnegative, each entry divides the next, and all
    zero entries trail the nonzero ones.  U and V are empty (rows x 0 and
    0 x cols) when :func:`snf` ran without a certificate.
    """

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    source: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.S.rows, self.S.cols)
        return tuple(self.S.entries[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def snf(m: IntMatrix, certificate: bool = True) -> SmithDecomposition:
    """Smith normal form, with its certificate unless `certificate` is False.

    Alternates column and row Hermite passes until the matrix is diagonal
    (the Kannan-Bachem scheme).  The matrix is converted once: its columns,
    the columns of V and the rows of U stay lists through every round, and
    one transpose turns the columns into the rows the row pass works on.
    Column operations go straight to V, row operations to the rows of U, so
    no transform product is formed; Hermite steps keep the entries
    determinant-bounded.  Without a certificate no transform is tracked and
    U and V come back empty (rows x 0 and 0 x cols); :func:`cokernel` runs so.

    The divisor chain is then closed in one pass: each pair (a, b) with a
    not dividing b becomes (gcd, lcm) by one 2x2 unimodular transform on U
    and V.  There is no round cap.
    """
    rows, cols = m.rows, m.cols
    a = _transpose(m.entries, cols)
    vcols = list(IntMatrix.identity(cols).entries) if certificate else None
    urows = list(IntMatrix.identity(rows).entries) if certificate else None
    while True:
        column_echelon(a, vcols)
        a = _transpose(a, rows)
        column_echelon(a, urows)
        if not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a)):
            break
        a = _transpose(a, cols)
    # both echelon passes sort zero columns/rows to the back and make pivots
    # positive, so the diagonal is a positive prefix followed by zeros
    diag = [a[i][i] for i in range(min(rows, cols))]
    if not certificate:
        urows, vcols = [()] * rows, [()] * cols
    for i in range(len(diag)):
        if diag[i] < 2:  # 0 and 1 are never changed by a pair
            continue
        for j in range(i + 1, len(diag)):
            x, y = diag[i], diag[j]
            if not x or not y % x:
                continue
            # with g = s*x + t*y: [[s, t], [-y/g, x/g]] on rows i, j of U and
            # [[1, -t*y/g], [1, s*x/g]] on columns i, j of V turn
            # diag(x, y) into diag(g, x*y/g)
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
    n, k = (rows, cols) if certificate else (0, 0)  # U is rows x n, V is k x cols
    return SmithDecomposition(U=IntMatrix(rows, n, tuple(map(tuple, urows))),
                              S=IntMatrix.diagonal(diag, rows, cols),
                              V=IntMatrix(k, cols, tuple(_transpose(vcols, k))), source=m)


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
    identity to read off W.  A column is replaced, never changed in place,
    so tuples serve as well as lists.
    """
    ncols = len(cols)
    rows = len(cols[0]) if cols else 0
    track = w is not None
    if not track:
        w = [()] * ncols
    leads: list[int] = []

    def eliminate(targets, j0):
        # column j -= q * column j0 for each target j, q the quotient in this row
        c0, w0 = cols[j0], w[j0]
        for j in targets:
            if j != j0:
                q = cols[j][row] // c0[row]
                if q:
                    cols[j] = [x - q * y for x, y in zip(cols[j], c0)]
                    if track:
                        w[j] = [x - q * y for x, y in zip(w[j], w0)]

    for row in range(rows):
        next_pivot = len(leads)
        if next_pivot >= ncols:
            break
        while True:
            nz = [j for j in range(next_pivot, ncols) if cols[j][row]]
            if len(nz) <= 1:
                break
            eliminate(nz, min(nz, key=lambda j: abs(cols[j][row])))
        if not nz:
            continue
        j0 = nz[0]
        if j0 != next_pivot:
            cols[j0], cols[next_pivot] = cols[next_pivot], cols[j0]
            w[j0], w[next_pivot] = w[next_pivot], w[j0]
        if cols[next_pivot][row] < 0:
            cols[next_pivot] = [-x for x in cols[next_pivot]]
            w[next_pivot] = [-x for x in w[next_pivot]]
        eliminate(range(next_pivot), next_pivot)
        leads.append(row)
    return leads


def _transpose(lists: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """The n tuples that hold the i-th entries of `lists` (all of length n):
    the columns of a matrix from its rows, or back."""
    return list(zip(*lists)) or [()] * n


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """A lattice basis of ker(m), returned as the columns of a matrix.

    The integer kernel of m is spanned exactly by the columns of the
    column-Hermite transform W over the zero columns of H; that raw basis
    is then Hermite-reduced, which makes the result the unique Hermite
    basis of the kernel lattice, with small entries.
    """
    w = list(IntMatrix.identity(m.cols).entries)
    raw = w[len(column_echelon(_transpose(m.entries, m.cols), w)):]
    column_echelon(raw)  # raw has independent columns, so H has no zero column
    return IntMatrix(m.cols, len(raw), tuple(_transpose(raw, m.cols)))


def solve(m: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """An integer solution X of m @ X == b, or None when none exists."""
    if b.rows != m.rows:
        raise ValueError("right-hand side has wrong height")
    h, w = _transpose(m.entries, m.cols), list(IntMatrix.identity(m.cols).entries)
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

@dataclass(frozen=True)
class FgAbGroup:
    """Canonical form: Z^free_rank + Z/d1 + ... + Z/dk with d1 | d2 | ... | dk.

    Every factor is >= 2 and the divisor chain makes the representation
    unique, so isomorphism is plain equality.

    >>> FgAbGroup.of(0, [2, 3]) == FgAbGroup.cyclic(6)
    True
    >>> print(FgAbGroup.of(2, [2, 6]))
    Z^2 + Z/2 + Z/6
    """

    free_rank: int = 0
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        prev = None
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} is not >= 2")
            if prev is not None and d % prev:
                raise ValueError(f"broken divisor chain: {prev} does not divide {d}")
            prev = d

    # -- constructors -------------------------------------------------

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls(0, ())

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
        torsion = sorted(int(d) for d in orders if d != 1)
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
        return cls(free_rank, tuple(torsion))

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
    return FgAbGroup.of(rank, orders)


def _summand_int(token: str, what: str, least: int) -> int:
    """The integer after "Z^" or "Z/" in a summand; it must be >= least."""
    k = canonical_int(token[2:], what, GroupParseError)
    if k < least:
        raise GroupParseError(f"bad {what} {token!r}")
    return k


# ---------------------------------------------------------------------------
# Group-level operations
# ---------------------------------------------------------------------------

def cokernel(m: IntMatrix) -> FgAbGroup:
    """Z^rows / (column span of m), in canonical form: one :func:`snf`
    without a certificate, so no transform work is done.  Its diagonal is
    already a divisor chain, so no :meth:`FgAbGroup.of` pass follows."""
    dec = snf(m, certificate=False)
    return FgAbGroup(m.rows - dec.rank, tuple(d for d in dec.diagonal if d > 1))


def hom(g: FgAbGroup, h: FgAbGroup) -> FgAbGroup:
    """Hom(g, h), assembled from the cyclic pieces.

    Hom(Z, H) = H, Hom(Z/a, Z) = 0 and Hom(Z/a, Z/b) = Z/gcd(a, b).
    """
    orders = list(h.invariant_factors) * g.free_rank
    orders.extend(math.gcd(a, b)
                  for a in g.invariant_factors
                  for b in h.invariant_factors)
    return FgAbGroup.of(g.free_rank * h.free_rank, orders)


def ext(g: FgAbGroup, h: FgAbGroup) -> FgAbGroup:
    """Ext(g, h): Ext(Z, H) = 0 and Ext(Z/a, H) = H/aH."""
    orders = []
    for a in g.invariant_factors:
        orders.extend([a] * h.free_rank)
        orders.extend(math.gcd(a, b) for b in h.invariant_factors)
    return FgAbGroup.of(0, orders)


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


@dataclass(frozen=True)
class PrimeSet:
    """A finite set of primes below 2^64; membership is validated at construction."""

    primes: frozenset[int]

    def __post_init__(self):
        for p in self.primes:
            if p >= PRIME_LIMIT:
                raise ValueError(f"prime of {len(str(p))} digits is past the limit 2^64")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")

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
