"""Reduced cellular chain complexes of based CW-complexes.

A complex is stored as per-degree cell counts (the basepoint 0-cell is
structurally excluded, so a path-connected complex with one 0-cell has no
entry at degree 0) together with integer boundary matrices whose entries are
the degrees of the attaching-map composites.  Degrees without cells are
simply absent and mean rank 0.

Integral homology takes Hermite reductions (kernel basis) and one Smith
reduction (quotient presentation) per degree.  A complex reduces all its
degrees once, on first use, and keeps the result as
:attr:`ChainComplex.graded_homology`; :func:`homology` and everything built
on it read that value.  Cohomology with coefficients in a finitely
generated group is available through two independent routes that must agree:
:func:`cohomology_uct` assembles Hom/Ext pieces of the integral homology,
while :func:`cohomology_direct` reduces the actual cochain complex of
finitely presented groups and never looks at the integral answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .abelian import (
    FgAbGroup,
    IntMatrix,
    canonical_int,
    cokernel,
    column_space_basis,
    direct_sum,
    ext,
    hom,
    kernel_basis,
    solve,
)


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
    matrices are normalized away.
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
        for n, mat in self.boundaries.items():
            n = int(n)
            want = (ranks.get(n - 1, 0), ranks.get(n, 0))
            if (mat.rows, mat.cols) != want:
                raise ShapeMismatchError(
                    f"boundary at degree {n} is {mat.rows}x{mat.cols}, "
                    f"expected {want[0]}x{want[1]}")
            if not mat.is_zero():
                boundaries[n] = mat
        for n in sorted(boundaries):
            upper = boundaries.get(n + 1)
            if upper is None:
                continue
            comp = boundaries[n] @ upper
            for i in range(comp.rows):
                for j in range(comp.cols):
                    if comp.entries[i][j]:
                        raise DSquaredError(
                            f"boundary composite at degree {n + 1} is nonzero: "
                            f"entry ({i},{j}) = {comp.entries[i][j]}")
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
    def graded_homology(self) -> GradedGroups:
        """All reduced homology groups, from one reduction of each degree.

        Computed on first use and kept on the instance; it is derived from
        the fields, so equality and the file form ignore it.
        """
        return GradedGroups.of(0, self.top_degree, {n: _reduce(self, n) for n in self.ranks})


TRIVIAL_COMPLEX = ChainComplex("pt", {}, {})


@dataclass(frozen=True)
class GradedGroups:
    """A finite family of groups indexed by degree; absent degrees are trivial."""

    lo: int
    hi: int
    entries: dict[int, FgAbGroup]

    def __post_init__(self):
        for n, g in self.entries.items():
            if not self.lo <= n <= self.hi:
                raise ValueError(f"degree {n} outside range [{self.lo}, {self.hi}]")
            if g.is_trivial():
                raise ValueError("trivial entries must be omitted")

    @classmethod
    def of(cls, lo: int, hi: int, groups: Mapping[int, FgAbGroup]) -> "GradedGroups":
        return cls(lo, hi, {n: g for n, g in groups.items() if not g.is_trivial()})

    def group_at(self, n: int) -> FgAbGroup:
        return self.entries.get(n, FgAbGroup.trivial())


# ---------------------------------------------------------------------------
# Homology and cohomology
# ---------------------------------------------------------------------------

def _reduce(c: ChainComplex, n: int) -> FgAbGroup:
    """ker(d_n) / im(d_{n+1}) in canonical form, for a degree n with cells."""
    kernel = kernel_basis(c.boundary(n))
    if kernel.cols == 0:
        return FgAbGroup.trivial()
    presentation = solve(kernel, c.boundary(n + 1))
    if presentation is None:  # impossible once d*d = 0 holds
        raise InvalidComplexError(f"image at degree {n + 1} escapes the kernel")
    return cokernel(presentation)


def homology(c: ChainComplex, n: int) -> FgAbGroup:
    """ker(d_n) / im(d_{n+1}) in canonical form; reduced by convention.

    Read off ``c.graded_homology``: the first call on a complex reduces
    every degree, later calls reduce nothing.  Degrees outside
    [0, top_degree] yield the trivial group.
    """
    return c.graded_homology.group_at(n)


def cohomology_uct(c: ChainComplex, n: int, g: FgAbGroup) -> FgAbGroup:
    """H^n(c; g) assembled as Hom(H_n, g) + Ext(H_{n-1}, g)."""
    return direct_sum([hom(homology(c, n), g), ext(homology(c, n - 1), g)])


def _group_relations(g: FgAbGroup) -> IntMatrix:
    """Relation matrix of the free presentation Z^s -> g (s generators)."""
    s = g.free_rank + len(g.invariant_factors)
    t = len(g.invariant_factors)
    return IntMatrix.from_rows(
        [[g.invariant_factors[j] if i == g.free_rank + j else 0 for j in range(t)]
         for i in range(s)],
        cols=t)


def _presented_subquotient(alpha: IntMatrix, beta: IntMatrix,
                           rel_prev: IntMatrix, rel_mid: IntMatrix,
                           rel_next: IntMatrix) -> FgAbGroup:
    """Homology at the middle of a three-term complex of presented groups.

    The three groups are cokernels of the relation matrices; `alpha` and
    `beta` act on generators and must carry relations into relations, with
    beta @ alpha == 0 on the nose.
    """
    if solve(rel_mid, alpha @ rel_prev) is None:
        raise ValueError("incoming map does not preserve relations")
    if solve(rel_next, beta @ rel_mid) is None:
        raise ValueError("outgoing map does not preserve relations")
    if not (beta @ alpha).is_zero():
        raise ValueError("composite of the two maps is nonzero")
    # generators of the kernel of the induced map into coker(rel_next):
    # project ker [beta | rel_next] onto the generator block
    paired = kernel_basis(beta.hstack(rel_next))
    gens = IntMatrix(alpha.rows, paired.cols,
                     tuple(paired.entries[i] for i in range(alpha.rows)))
    lattice = column_space_basis(gens)
    killed = alpha.hstack(rel_mid)
    coords = solve(lattice, killed)
    if coords is None:  # the checks above make this unreachable
        raise ValueError("kernel lattice does not contain the killed part")
    return cokernel(coords)


def cohomology_direct(c: ChainComplex, n: int, g: FgAbGroup) -> FgAbGroup:
    """H^n(c; g) computed from the honest cochain complex of g-valued cochains.

    Cochains in degree k form g^(ranks k); the coboundary is the transpose
    of the boundary acting coordinate-wise.  Everything is lifted to free
    presentations and reduced exactly, with no use of the Hom/Ext shortcut.
    """
    m_mid = c.rank(n)
    if m_mid == 0 or g.is_trivial():
        return FgAbGroup.trivial()
    s = g.free_rank + len(g.invariant_factors)
    rel = _group_relations(g)
    m_prev = c.rank(n - 1)
    m_next = c.rank(n + 1)
    alpha = c.boundary(n).transpose().kron(IntMatrix.identity(s))
    beta = c.boundary(n + 1).transpose().kron(IntMatrix.identity(s))
    return _presented_subquotient(
        alpha, beta,
        IntMatrix.identity(m_prev).kron(rel),
        IntMatrix.identity(m_mid).kron(rel),
        IntMatrix.identity(m_next).kron(rel))


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
    degrees = sorted({n for c in cs for n in c.ranks})
    ranks = {n: sum(c.rank(n) for c in cs) for n in degrees}
    boundaries = {}
    for n in degrees:
        block = IntMatrix.block_diagonal([c.boundary(n) for c in cs])
        boundaries[n] = block
    name = "wedge(" + ",".join(c.name for c in cs) + ")"
    return ChainComplex(name, ranks, boundaries)


def connectivity_bounds(c: ChainComplex) -> tuple[int | None, int]:
    """(lowest degree with nonzero homology or None, top cell degree).

    This is the homological stand-in for connectivity and dimension; it
    cannot certify simple connectivity, which callers must assert.
    """
    degrees = c.graded_homology.entries
    return (min(degrees) if degrees else None), c.top_degree


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def complex_to_json(c: ChainComplex) -> dict:
    """The interchange form: degree-keyed ranks and row-major boundaries."""
    return {
        "name": c.name,
        "reduced": True,
        "ranks": {str(n): c.ranks[n] for n in sorted(c.ranks)},
        "boundaries": {str(n): [list(row) for row in c.boundaries[n].entries]
                       for n in sorted(c.boundaries)},
    }


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
    ranks = {canonical_int(k, "degree", InvalidComplexError): v for k, v in raw_ranks.items()}
    boundaries = {}
    for k, rows in raw_bnd.items():
        n = canonical_int(k, "degree", InvalidComplexError)
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise InvalidComplexError(f"boundary {k!r} must be a list of rows")
        _json_ints((x for row in rows for x in row), f"boundary {k!r} entries")
        try:
            mat = IntMatrix.from_rows(rows, cols=ranks.get(n, 0))
        except ValueError as exc:
            raise InvalidComplexError(f"boundary {k!r}: {exc}") from None
        boundaries[n] = mat
    return ChainComplex(name, ranks, boundaries)


def load_complex(path: str) -> ChainComplex:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidComplexError(f"not valid JSON: {exc}") from None
    return complex_from_json(data)
