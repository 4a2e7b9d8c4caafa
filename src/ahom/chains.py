"""Reduced cellular chain complexes of based CW-complexes.

A complex is stored as per-degree cell counts (the basepoint 0-cell is
structurally excluded, so a path-connected complex with one 0-cell has no
entry at degree 0) together with integer boundary matrices whose entries are
the degrees of the attaching-map composites.  Degrees without cells are
simply absent and mean rank 0.

Integral homology first splits off every cell pair joined by a divisor
pivot, an entry p that divides its row and column, in one pass over all
boundaries (:func:`~ahom.abelian.split_pivots`): the pair is a summand
Z -p-> Z and adds Z/|p|.  Then one :func:`~ahom.abelian.residual_cokernel`
per boundary gives H_n as coker(d_(n+1)) less rank(d_n) free summands.
A complex reduces once, on first use, and keeps the
nonzero groups as the dict :attr:`ChainComplex.graded_homology`;
:func:`homology` and everything built on it read that value, and shaped
homology sums over its degrees only.  Cohomology with coefficients in a finitely
generated group is available through two independent routes that must agree:
:func:`cohomology_uct` assembles Hom/Ext pieces of the integral homology and
keeps each H^n(c; g) on the complex by (n, g), so a page, shaped homology and
the axiom checks share one assembly per group without knowing of it, while
:func:`cohomology_direct` reduces the actual cochain complex and never
looks at the integral answer.  It too splits the divisor pivots off all
coboundaries once per complex, and keeps what is left: a summand Z -p-> Z
from C^k to C^(k+1) adds Z/|p| to H^(k+1)(c; Z) and Z/gcd(p, d) to both
H^k and H^(k+1)(c; Z/d).  A cell left that no coboundary touches is a
summand Z -> 0 and adds one g with no matrix; the touched cells take the
coefficients one cyclic summand at a time, one cokernel each.  For Z/d it
uses the mapping cone of multiplication by d on the integral cochains,
which is quasi-isomorphic to the mod-d cochains: H^n(c; Z/d) is finite, so
it is the whole torsion of one cokernel.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property
from itertools import chain

from .abelian import (MAX_SUMMANDS, FgAbGroup, IntMatrix, canonical_int, cokernel,
                      column_echelon, composite_is_zero, ext_orders, hom_orders,
                      require_int, residual_cokernel, split_pivots)
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


class ChainComplex(namedtuple("ChainComplex", "name ranks boundaries")):
    """Reduced cellular chain data: cell counts and boundary degree matrices.

    `boundaries[n]` is the map from n-chains to (n-1)-chains, with
    ranks(n-1) rows and ranks(n) columns.  A degree or cell count that is
    not an int is a TypeError, and all invariants (matching shapes
    and the d*d = 0 law) are checked at construction; zero ranks and zero
    matrices are normalized away.  The d*d = 0 test packs each row of the
    upper boundary into one integer of two's-complement digits, 64k bits each
    (:func:`~ahom.abelian.composite_is_zero`), exact and with no product
    matrix; the product is formed only when the test fails, to name the
    first nonzero entry.  Each boundary's largest |entry| is found once and
    serves both tests it takes part in.
    """

    def __new__(cls, name: str, ranks: dict[int, int], boundaries: dict[int, IntMatrix]):
        for n, r in ranks.items():
            if require_int(n, "degree") < 0:
                raise InvalidComplexError(f"cells in negative degree {n}")
            if require_int(r, "cell count") < 0:
                raise InvalidComplexError(f"negative cell count at degree {n}")
        ranks = {n: r for n, r in ranks.items() if r}
        bounds: dict[int, int] = {}  # max |entry| of each nonzero boundary
        for n, mat in boundaries.items():
            require_int(n, "boundary degree")
            want = (ranks.get(n - 1, 0), ranks.get(n, 0))
            if (mat.rows, mat.cols) != want:
                raise ShapeMismatchError(
                    f"boundary at degree {n} is {mat.rows}x{mat.cols}, "
                    f"expected {want[0]}x{want[1]}")
            bound = mat.max_abs()
            if bound:
                bounds[n] = bound
        boundaries = {n: boundaries[n] for n in bounds}
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
        return tuple.__new__(cls, (name, ranks, boundaries))

    @property
    def top_degree(self) -> int:
        return max(self.ranks) if self.ranks else 0

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    @cached_property
    def graded_homology(self) -> dict[int, FgAbGroup]:
        """The nonzero reduced homology groups by degree; a degree absent from
        the dict has trivial homology.

        One :func:`~ahom.abelian.split_pivots` pass over all boundaries leaves
        a complex whose homology lacks only a Z/|p| in degree n-1 per pivot p
        of d_n, which :func:`~ahom.abelian.residual_cokernel` adds back to
        coker(d_n).  Since im(d_n) is free, ker(d_n) is a direct summand of
        C_n holding im(d_(n+1)), so coker(d_(n+1)) = H_n + Z^(rank d_n), where
        rank d_n = c_(n-1) - free rank of coker(d_n), all on what is left.
        Computed on first use and kept on the instance; it is derived from
        the fields, so equality and the file form ignore it.
        """
        d = {n: [list(row) for row in m.entries] for n, m in self.boundaries.items()}
        split = split_pivots(d)
        ranks = {n: r - len(split.get(n, ())) - len(split.get(n + 1, ()))
                 for n, r in self.ranks.items()}
        cokernels = {n: residual_cokernel(d[n + 1], split[n + 1]) if n + 1 in d
                     else FgAbGroup.free(r) for n, r in ranks.items()}
        none = FgAbGroup.trivial()
        groups = ((n, FgAbGroup(g.free_rank - ranks.get(n - 1, 0)
                                + cokernels.get(n - 1, none).free_rank, g.invariant_factors))
                  for n, g in cokernels.items())
        return {n: h for n, h in groups if not h.is_trivial()}

    @cached_property
    def _cochains(self) -> tuple[dict[int, int], dict[int, tuple], dict[int, list[int]]]:
        """The cochain complex after one split, kept like _cohomology: the cells
        of each C^k left, and of each coboundary delta_k = d_(k+1)^T the rows
        left, the indices of its nonzero rows and columns and the |p| split off
        it, keyed at -k so the keys go up as :func:`~ahom.abelian.split_pivots` expects."""
        dual = {1 - n: [list(col) for col in zip(*m.entries)] for n, m in self.boundaries.items()}
        split = split_pivots(dual)
        ranks = {k: r - len(split.get(-k, ())) - len(split.get(1 - k, ()))
                 for k, r in self.ranks.items()}
        delta = {k: (tuple(map(tuple, rows)), [i for i, row in enumerate(rows) if any(row)],
                     [j for j, col in enumerate(zip(*rows)) if any(col)])
                 for k, rows in dual.items()}
        return ranks, delta, split

    @cached_property
    def _cohomology(self) -> dict[tuple[int, FgAbGroup], FgAbGroup]:
        """H^n(c; g) by (n, g), as :func:`cohomology_uct` is asked for it;
        ignored, like graded_homology, by equality, repr and the file form."""
        return {}


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
    """H^n(c; g) = Hom(H_n, g) + Ext(H_{n-1}, g), canonicalized once per distinct
    (n, g) and kept on c; threads racing on one pair keep equal groups."""
    h = c._cohomology.get((n, g))
    if h is None:
        hn = homology(c, n)
        h = c._cohomology[n, g] = FgAbGroup.of(
            hn.free_rank * g.free_rank, hom_orders(hn, g) + ext_orders(homology(c, n - 1), g))
    return h


def cohomology_direct(c: ChainComplex, n: int, g: FgAbGroup) -> FgAbGroup:
    """H^n(c; g) computed from the honest cochain complex of g-valued cochains.

    The complex is reduced once (``c._cochains``): every divisor pivot p of a
    coboundary, from C^k to C^(k+1), splits off a summand Z -p-> Z, which
    adds Z/|p| to H^(k+1)(c; Z) and Z/gcd(p, d) to both H^k and
    H^(k+1)(c; Z/d).  A cell of C^n left with a zero row in the coboundary
    into it and a zero column in the one out is untouched, a summand Z -> 0
    that adds one g and no matrix.  Hom(C_k, -) is additive, so the touched
    cells split over the cyclic summands of g, each at most one transform-free
    :func:`cokernel`.  With alpha and beta the coboundaries left into and out
    of them, less the zero columns of alpha and the zero rows of beta:

    * Z: im(beta) is free, so ker(beta) is a direct summand of C^n and
      coker(alpha) is H^n(c; Z) plus rank(beta) free summands: one Smith
      reduction of alpha, if it has columns, and one Hermite pass over the
      rows of beta, whose pivots count its rank, serve every Z in g.
    * Z/d: the mod-d cochains are the quotient of C^* by the injective
      map d, so they are quasi-isomorphic to its mapping cone, whose
      n-cochains C^(n+1) + C^n are hit by [[-beta, 0], [d*I, alpha]].  The
      cokernel of that matrix is H^n(c; Z/d) plus a free group (the image
      of the next cone differential), and H^n(c; Z/d), being killed by d,
      is finite: it is exactly the torsion of the cokernel.  A row sign
      or a zero column does not change a cokernel, and a zero row only
      adds a free summand, so the dropped rows and columns change nothing.

    The Hom/Ext shortcut is never used.

    >>> rp2 = ChainComplex("rp2", {1: 1, 2: 1}, {2: IntMatrix.from_rows([[2]])})
    >>> print(cohomology_direct(rp2, 2, FgAbGroup.free(1)))
    Z/2
    >>> print(cohomology_direct(rp2, 1, FgAbGroup.of(1, [2])))
    Z/2
    """
    if c.rank(n) == 0 or g.is_trivial():
        return FgAbGroup.trivial()
    ranks, delta, split = c._cochains
    r, into, out = ranks.get(n, 0), split.get(1 - n, []), split.get(-n, [])
    (a, a_rows, a_cols), (b, b_rows, b_cols) = delta.get(1 - n, ((),) * 3), delta.get(-n, ((),) * 3)
    touched = sorted({*a_rows, *b_cols})
    alpha = tuple(tuple(a[i][j] for j in a_cols) for i in touched)
    beta = tuple(tuple(b[i][j] for j in touched) for i in b_rows)
    t, zero = len(touched), (0,) * len(a_cols)
    rank, orders = (r - t) * g.free_rank, into * g.free_rank + list(g.invariant_factors) * (r - t)
    orders += [math.gcd(p, d) for d in g.invariant_factors for p in chain(into, out)]
    if t and g.free_rank:
        coker = cokernel(tuple.__new__(IntMatrix, (t, len(zero), alpha))) if zero else FgAbGroup.free(t)
        rank += (coker.free_rank - len(column_echelon(list(beta)))) * g.free_rank
        orders += list(coker.invariant_factors) * g.free_rank
    for d in g.invariant_factors if t else ():
        cone = tuple(row + zero for row in beta) + tuple(
            (0,) * i + (d,) + (0,) * (t - i - 1) + x for i, x in enumerate(alpha))
        cone = tuple.__new__(IntMatrix, (len(cone), t + len(zero), cone))
        orders += cokernel(cone).invariant_factors
    return FgAbGroup.of(rank, orders)


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

    def block_diagonal(n: int) -> IntMatrix:
        rows, left, cols = [], 0, ranks.get(n, 0)
        for c in cs:  # each piece's rows, padded with zeros left and right
            mat, pads = c.boundaries.get(n), ((0,) * left, (0,) * (cols - left - c.rank(n)))
            rows += ([pads[0] + row + pads[1] for row in mat.entries] if mat is not None
                     else [(0,) * cols] * c.rank(n - 1))  # absent: one zero row, shared
            left += c.rank(n)
        return IntMatrix(len(rows), cols, tuple(rows))

    # a degree where no piece has a boundary stays absent, that is, zero
    boundaries = {n: block_diagonal(n) for n in sorted({n for c in cs for n in c.boundaries})}
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
    if max(ranks.values(), default=0) > MAX_SUMMANDS:
        raise InvalidComplexError(f"a rank is past the limit of {MAX_SUMMANDS} cells in one degree")
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
    """The JSON value in the file at `path`; text that is not JSON, is
    nested too deeply to read or repeats a key in one object raises `error`
    naming the cause."""
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set[str] = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise error(f"JSON object repeats the key {json.dumps(key)}")
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as exc:
            raise error(f"not valid JSON: {exc}") from None
        except RecursionError:
            raise error("JSON nested too deeply to read") from None


def load_complex(path: str) -> ChainComplex:
    return complex_from_json(read_json(path, InvalidComplexError))
