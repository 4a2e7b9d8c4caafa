"""Reduced cellular chain complexes of based CW-complexes.

A complex is stored as per-degree cell counts (the basepoint 0-cell is
structurally excluded, so a path-connected complex with one 0-cell has no
entry at degree 0) together with integer boundary matrices whose entries are
the degrees of the attaching-map composites.  Degrees without cells are
simply absent and mean rank 0.

Integral homology first splits off each cell pair joined by a divisor
pivot, an entry p that divides its row and column: the pair is a summand
Z -p-> Z and adds Z/|p|.  Then it takes one invariants-only Smith
reduction per boundary matrix left: H_n is coker(d_(n+1)) less rank(d_n)
free summands.  A complex reduces once, on first use, and keeps the
nonzero groups as the dict :attr:`ChainComplex.graded_homology`;
:func:`homology` and everything built on it read that value, and shaped
homology sums over its degrees only.  Cohomology with coefficients in a finitely
generated group is available through two independent routes that must agree:
:func:`cohomology_uct` assembles Hom/Ext pieces of the integral homology,
while :func:`cohomology_direct` reduces the actual cochain complex and never
looks at the integral answer.  It takes the coefficients one cyclic summand
at a time, with one invariants-only Smith reduction each.  For Z/d it uses
the mapping cone of multiplication by d on the integral cochains, which is
quasi-isomorphic to the mod-d cochains: H^n(c; Z/d) is finite, so it is the
whole torsion of one cokernel.  Row signs do not change that cokernel and
zero rows or columns change only its free part, so absent boundaries build
nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import itemgetter, mod
from typing import Sequence

from .abelian import (FgAbGroup, IntMatrix, canonical_int, cokernel, composite_is_zero,
                      direct_sum, ext, hom)
# not called here: the benchmark's tracer rebinds chains.kernel_basis and its tests check that
from .abelian import kernel_basis  # noqa: F401


# The highest cell degree an input may ask for: a few characters of recipe
# would otherwise demand an output line, and for `axioms` a reduction, per degree.
MAX_DEGREE = 64


def parse_degree(text: str, what: str, error: type[ValueError], top: int = 0) -> int:
    """The degree `text` writes (see :func:`canonical_int`); `error` names the
    limit when it, or a cell `top` degrees above it, is past MAX_DEGREE."""
    n = canonical_int(text, what, error)
    if n + top > MAX_DEGREE:
        raise error(f"{what} {n} puts a cell past the limit of {MAX_DEGREE} on cell degrees")
    return n


class InvalidComplexError(ValueError):
    """Base class for chain-complex validation failures."""


class ShapeMismatchError(InvalidComplexError):
    """A boundary matrix does not match the adjacent cell counts."""


class DSquaredError(InvalidComplexError):
    """Some composite of consecutive boundary maps is nonzero."""


@dataclass(frozen=True)
class ChainComplex:
    """Reduced cellular chain data: cell counts and boundary degree matrices.

    `boundaries[n]` is the map from n-chains to (n-1)-chains, with
    ranks(n-1) rows and ranks(n) columns.  All invariants (matching shapes
    and the d*d = 0 law) are checked at construction; zero ranks and zero
    matrices are normalized away.  The d*d = 0 test packs each row of the
    upper boundary into one integer (:func:`~ahom.abelian.composite_is_zero`),
    which is exact and forms no product matrix; the product is formed only
    when the test fails, to name the first nonzero entry.  Each boundary's
    largest |entry| is found once and serves both tests it takes part in.
    """

    name: str
    ranks: dict[int, int]
    boundaries: dict[int, IntMatrix]

    def __post_init__(self):
        ranks: dict[int, int] = {}
        for n, r in self.ranks.items():
            n, r = int(n), int(r)
            if n < 0:
                raise InvalidComplexError(f"cells in negative degree {n}")
            if r < 0:
                raise InvalidComplexError(f"negative cell count at degree {n}")
            if r:
                ranks[n] = r
        boundaries: dict[int, IntMatrix] = {}
        bounds: dict[int, int] = {}  # max |entry| of each nonzero boundary
        for n, mat in self.boundaries.items():
            n = int(n)
            want = (ranks.get(n - 1, 0), ranks.get(n, 0))
            if (mat.rows, mat.cols) != want:
                raise ShapeMismatchError(
                    f"boundary at degree {n} is {mat.rows}x{mat.cols}, "
                    f"expected {want[0]}x{want[1]}")
            bound = mat.max_abs()
            if bound:
                boundaries[n], bounds[n] = mat, bound
        for n in sorted(boundaries):
            upper = boundaries.get(n + 1)
            if upper is None:
                continue
            if composite_is_zero(boundaries[n], upper, bounds[n] * bounds[n + 1]):
                continue
            comp = boundaries[n] @ upper  # formed only to name the first bad entry
            i, j, x = next((i, j, x) for i, row in enumerate(comp.entries)
                           for j, x in enumerate(row) if x)
            raise DSquaredError(f"boundary composite at degree {n + 1} is nonzero: "
                                f"entry ({i},{j}) = {x}")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "boundaries", boundaries)

    @property
    def top_degree(self) -> int:
        return max(self.ranks) if self.ranks else 0

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def boundary(self, n: int) -> IntMatrix:
        """The degree-n boundary matrix, materialized as zero when absent."""
        mat = self.boundaries.get(n)
        if mat is None:
            return IntMatrix.zeros(self.rank(n - 1), self.rank(n))
        return mat

    @cached_property
    def graded_homology(self) -> dict[int, FgAbGroup]:
        """The nonzero reduced homology groups by degree, from one reduction
        of each boundary left once the cell pairs joined by a divisor pivot
        are split off, plus the Z/|p| of those pairs; a degree absent from
        the dict has trivial homology.

        Since im(d_n) is free, ker(d_n) is a direct summand of C_n holding
        im(d_(n+1)), so coker(d_(n+1)) = H_n + Z^(rank d_n): H_n keeps the
        torsion of that cokernel and rank d_n fewer free summands, where
        rank d_n = c_(n-1) - free rank of coker(d_n).  Computed on first
        use and kept on the instance; it is derived from the fields, so
        equality and the file form ignore it.
        """
        ranks, boundaries, torsion = _unit_reduced(self.ranks, self.boundaries)
        cokernels = {n: cokernel(boundaries[n + 1]) if n + 1 in boundaries
                     else FgAbGroup.free(r) for n, r in ranks.items()}
        none = FgAbGroup.trivial()
        groups = {}
        for n in {*cokernels, *torsion}:
            g = cokernels.get(n, none)
            free = g.free_rank - ranks.get(n - 1, 0) + cokernels.get(n - 1, none).free_rank
            groups[n] = (FgAbGroup.of(free, g.invariant_factors + tuple(torsion[n]))
                         if n in torsion else FgAbGroup(free, g.invariant_factors))
        return {n: h for n, h in groups.items() if not h.is_trivial()}


def _unit_reduced(ranks: dict[int, int], boundaries: dict[int, IntMatrix]
                  ) -> tuple[dict[int, int], dict[int, IntMatrix], dict[int, list[int]]]:
    """Nonzero ranks and boundaries of a complex with no divisor pivot left,
    and the orders >= 2 of the cyclic summands split off, by degree.

    A divisor pivot p = d_n[t][s] divides all of row t and column s, so cells
    s and t span a summand Z -p-> Z after a unimodular change of basis: d_n
    becomes the Schur complement of p (row k -= d_n[k][s]/p * row t), d_(n+1)
    loses row s and d_(n-1) column t (d*d = 0 over Z makes both zero in the
    new bases), and H_(n-1) gains Z/|p|.  Entries left are minors of the input
    over the pivots' determinant, within the input's Hadamard bound.  The
    search goes on from the row of the last pivot until a full pass over the
    nonzero rows finds none; a row found zero stays zero and is passed by.
    """
    ranks = dict(ranks)
    torsion: dict[int, list[int]] = {}
    d = {n: [list(row) for row in m.entries] for n, m in boundaries.items()}
    for n, rows in sorted(d.items()):
        live = [True] * len(rows)  # a row found zero stays zero: the search passes it by
        t, misses, alive = 0, 0, len(rows)
        while misses < alive:
            try:
                t = live.index(True, t)
            except ValueError:
                t = live.index(True)
            if not any(rows[t]):
                live[t], alive = False, alive - 1
                continue
            s = _pivot(rows[t], rows)
            if s is None:
                t, misses = t + 1, misses + 1
                continue
            top = rows.pop(t)
            del live[t]
            alive -= 1
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
            if abs(p) > 1:
                torsion.setdefault(n - 1, []).append(abs(p))
            ranks[n] -= 1
            ranks[n - 1] -= 1
            misses = 0
    ranks = {n: r for n, r in ranks.items() if r}
    return ranks, {n: IntMatrix(ranks[n - 1], ranks[n], tuple(map(tuple, rows)))
                   for n, rows in d.items() if any(map(any, rows))}, torsion


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


TRIVIAL_COMPLEX = ChainComplex("pt", {}, {})


# ---------------------------------------------------------------------------
# Homology and cohomology
# ---------------------------------------------------------------------------

def homology(c: ChainComplex, n: int) -> FgAbGroup:
    """ker(d_n) / im(d_{n+1}) in canonical form; reduced by convention.

    Read off ``c.graded_homology``: the first call on a complex reduces
    every boundary matrix, later calls reduce nothing.  A degree without
    homology, including any outside [0, top_degree], yields the trivial group.
    """
    return c.graded_homology.get(n, FgAbGroup.trivial())


def cohomology_uct(c: ChainComplex, n: int, g: FgAbGroup) -> FgAbGroup:
    """H^n(c; g) assembled as Hom(H_n, g) + Ext(H_{n-1}, g)."""
    return direct_sum([hom(homology(c, n), g), ext(homology(c, n - 1), g)])


def cohomology_direct(c: ChainComplex, n: int, g: FgAbGroup) -> FgAbGroup:
    """H^n(c; g) computed from the honest cochain complex of g-valued cochains.

    Hom(C_k, -) is additive, so the complex splits over the cyclic summands
    of g; each costs one transform-free :func:`cokernel`.  With
    alpha = d_n^T and beta = d_(n+1)^T the coboundaries into and out of
    the n-cochains C^n:

    * Z: im(beta) is free, so ker(beta) is a direct summand of C^n and
      coker(alpha) is H^n(c; Z) plus rank(beta) free summands.  That pair
      of reductions serves every Z summand of g.
    * Z/d: the mod-d cochains are the quotient of C^* by the injective
      map d, so they are quasi-isomorphic to its mapping cone, whose
      n-cochains C^(n+1) + C^n are hit by [[-beta, 0], [d*I, alpha]].  The
      cokernel of that matrix is H^n(c; Z/d) plus a free group (the image
      of the next cone differential), and H^n(c; Z/d), being killed by d,
      is finite: it is exactly the torsion of the cokernel.  A row sign
      does not change a cokernel, a zero column does not either, and a zero
      row only adds a free summand, so an absent boundary adds no block.

    The Hom/Ext shortcut is never used.

    >>> rp2 = ChainComplex("rp2", {1: 1, 2: 1}, {2: IntMatrix.from_rows([[2]])})
    >>> print(cohomology_direct(rp2, 2, FgAbGroup.free(1)))
    Z/2
    >>> print(cohomology_direct(rp2, 1, FgAbGroup.of(1, [2])))
    Z/2
    """
    r = c.rank(n)
    if r == 0 or g.is_trivial():
        return FgAbGroup.trivial()
    lower, upper = c.boundaries.get(n), c.boundaries.get(n + 1)
    alpha = lower.transpose().entries if lower is not None else ((),) * r
    beta = upper.transpose().entries if upper is not None else ()
    zero = (0,) * len(alpha[0])
    parts = []
    if g.free_rank:
        coker = cokernel(IntMatrix(r, len(zero), alpha))
        rank_beta = r - cokernel(upper).free_rank if upper is not None else 0
        parts += [FgAbGroup(coker.free_rank - rank_beta, coker.invariant_factors)] * g.free_rank
    for d in g.invariant_factors:
        cone = tuple(row + zero for row in beta) + tuple(
            e + a for e, a in zip(IntMatrix.diagonal([d] * r).entries, alpha))
        parts.append(FgAbGroup(0, cokernel(IntMatrix(len(cone), r + len(zero), cone))
                               .invariant_factors))
    return direct_sum(parts)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def suspension(c: ChainComplex) -> ChainComplex:
    """Degree shift of the reduced complex.

    Boundary matrices are carried over unchanged: homology is insensitive
    to the global sign a geometric suspension would introduce.
    """
    return ChainComplex(
        f"susp({c.name})",
        {n + 1: r for n, r in c.ranks.items()},
        {n + 1: m for n, m in c.boundaries.items()})


def wedge(cs: Sequence[ChainComplex]) -> ChainComplex:
    """One-point union: ranks add and boundaries become block-diagonal."""
    if not cs:
        return TRIVIAL_COMPLEX
    ranks = {n: sum(c.rank(n) for c in cs) for n in sorted({n for c in cs for n in c.ranks})}
    # a degree where no piece has a boundary stays absent, that is, zero
    boundaries = {n: IntMatrix.block_diagonal([c.boundary(n) for c in cs])
                  for n in sorted({n for c in cs for n in c.boundaries})}
    name = "wedge(" + ",".join(c.name for c in cs) + ")"
    return ChainComplex(name, ranks, boundaries)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def _json_ints(values, what: str) -> None:
    """Refuse any value that is not a JSON integer: floats, strings, booleans."""
    for x in values:
        if type(x) is not int:
            raise InvalidComplexError(f"{what} must be JSON integers, got {json.dumps(x)}")


def complex_from_json(data: object) -> ChainComplex:
    """Parse and fully validate the JSON interchange form."""
    if not isinstance(data, dict):
        raise InvalidComplexError("complex file must hold a JSON object")
    if data.get("reduced") is not True:
        raise InvalidComplexError('complex file must declare "reduced": true')
    name = data.get("name", "file")
    if not isinstance(name, str):
        raise InvalidComplexError('"name" must be a string')
    raw_ranks = data.get("ranks", {})
    raw_bnd = data.get("boundaries", {})
    if not isinstance(raw_ranks, dict) or not isinstance(raw_bnd, dict):
        raise InvalidComplexError('"ranks" and "boundaries" must be objects')
    _json_ints(raw_ranks.values(), "ranks")
    ranks = {parse_degree(k, "degree", InvalidComplexError): v for k, v in raw_ranks.items()}
    boundaries = {}
    for k, rows in raw_bnd.items():
        n = parse_degree(k, "degree", InvalidComplexError)
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise InvalidComplexError(f"boundary {k!r} must be a list of rows")
        try:  # from_rows checks every entry type in one pass
            mat = IntMatrix.from_rows(rows, cols=ranks.get(n, 0))
        except TypeError:  # raises again, naming the entry as the JSON text wrote it
            _json_ints(chain.from_iterable(rows), f"boundary {k!r} entries")
        except ValueError as exc:
            raise InvalidComplexError(f"boundary {k!r}: {exc}") from None
        boundaries[n] = mat
    return ChainComplex(name, ranks, boundaries)


def read_json(path: str, error: type[ValueError] = ValueError) -> object:
    """The JSON value in the file at `path`; text that is not JSON, or is
    nested too deeply to read, raises `error` naming the cause."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"not valid JSON: {exc}") from None
        except RecursionError:
            raise error("JSON nested too deeply to read") from None


def load_complex(path: str) -> ChainComplex:
    return complex_from_json(read_json(path, InvalidComplexError))
