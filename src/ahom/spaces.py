"""Constructors for the standard complexes: spheres, Moore spaces, real
projective spaces, and ingestion of complexes from files.

A recipe is a deferred constructor call.  The command line writes one as
"sphere:N", "moore:GROUP:M" (GROUP in the canonical group grammar, e.g.
"Z/2+Z/4"), "rp:N" or "file:PATH"; :func:`parse_recipe` checks the text
and binds the arguments to :func:`sphere`, :func:`moore`, :func:`projective`
or :func:`~ahom.chains.load_complex`, and :func:`build` makes the call.
"""

from __future__ import annotations

from functools import partial

from .abelian import FgAbGroup, GroupParseError, IntMatrix, parse_group
from .chains import ChainComplex, load_complex, parse_degree


class RecipeError(ValueError):
    """Raised for unparseable or out-of-range space recipes."""


# The most entries of the dense (r + t) x t boundary of a Moore space with r
# free and t torsion summands: 2,048 copies of Z/2 reach it exactly.
MAX_MOORE_ENTRIES = 1 << 22


def parse_recipe(text: str) -> partial:
    """Parse the CLI recipe syntax into a deferred constructor call.

    Every argument is checked here, without building anything or reading a
    file; no recipe may ask for a cell in a degree past
    ``chains.MAX_DEGREE``, for more than ``abelian.MAX_SUMMANDS`` in one, or
    for a Moore boundary of more than MAX_MOORE_ENTRIES entries.
    """
    kind, sep, rest = text.partition(":")
    if not sep:
        raise RecipeError(f"recipe {text!r} needs a ':'")
    if kind in ("sphere", "rp"):
        constructor = sphere if kind == "sphere" else projective
        n = parse_degree(rest, f"{kind} dimension", RecipeError)
        if n < 1:  # named after the constructor: "projective" for rp
            raise RecipeError(f"{constructor.__name__} requires a dimension >= 1")
        return partial(constructor, n)
    if kind == "moore":
        group_text, sep2, m_text = rest.rpartition(":")
        if not sep2:
            raise RecipeError(f"recipe {text!r} needs moore:GROUP:M")
        try:
            group = parse_group(group_text)
        except GroupParseError as exc:
            raise RecipeError(f"moore recipe: {exc}") from None
        t = len(group.invariant_factors)
        if (entries := (group.free_rank + t) * t) > MAX_MOORE_ENTRIES:
            raise RecipeError(f"moore recipe: a boundary of {entries} entries is past "
                              f"the limit of {MAX_MOORE_ENTRIES}")
        # each torsion factor adds a cell in degree m + 1
        m = parse_degree(m_text, "moore degree", RecipeError, bool(t))
        if m < 1:
            raise RecipeError("moore requires a group and a degree m >= 1")
        return partial(moore, group, m)
    if kind == "file":
        if not rest:
            raise RecipeError("file recipe requires a path")
        return partial(load_complex, rest)
    raise RecipeError(f"unknown recipe kind {kind!r}")


def build(recipe: partial) -> ChainComplex:
    """Realize a parsed recipe as a validated chain complex."""
    return recipe()


def sphere(n: int) -> ChainComplex:
    """S^n as a single cell in degree n (n = 0 gives the based two-point space)."""
    if n < 0:
        raise RecipeError("sphere dimension must be nonnegative")
    return ChainComplex(f"sphere:{n}", {n: 1}, {})


def moore(group: FgAbGroup, m: int) -> ChainComplex:
    """The Moore space with homology `group` in degree m, in the minimal cell
    structure: one m-cell per free generator, and an (m-cell, (m+1)-cell)
    pair with boundary d for each torsion factor Z/d."""
    if m < 1:
        raise RecipeError("moore degree must be >= 1")
    r, torsion = group.free_rank, group.invariant_factors
    t = len(torsion)
    name = f"moore:{group}:{m}".replace(" ", "")
    zeros = ((0,) * t,) * r  # the rows of the free m-cells
    boundary = {m + 1: IntMatrix(r + t, t, zeros + IntMatrix.diagonal(torsion).entries)} if t else {}
    return ChainComplex(name, {m: r + t, m + 1: t}, boundary)


def projective(n: int) -> ChainComplex:
    """Real projective n-space: one cell in each degree 1..n, boundaries
    alternating multiplication by 2 and by 0."""
    if n < 1:
        raise RecipeError("projective dimension must be >= 1")
    ranks = {k: 1 for k in range(1, n + 1)}
    boundaries = {k: IntMatrix.from_rows([[1 + (-1) ** k]])
                  for k in range(2, n + 1)}
    return ChainComplex(f"rp:{n}", ranks, boundaries)


def is_suspension_shaped(c: ChainComplex) -> bool:
    """Structural proxy for "is a suspension": no cells in degrees 0 or 1.

    Every complex this package constructs with that property is realized by
    the suspension of a path-connected complex, but the test is syntactic,
    not a homotopy-theoretic certificate.
    """
    return c.rank(0) == 0 and c.rank(1) == 0
