"""Constructors for the standard complexes: spheres, Moore spaces, real
projective spaces, and ingestion of complexes from files.

Recipes have a small textual syntax used by the command line:
"sphere:N", "moore:GROUP:M" (GROUP in the canonical group grammar, e.g.
"Z/2+Z/4"), "rp:N" and "file:PATH".
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FgAbGroup, GroupParseError, IntMatrix, parse_group
from .chains import ChainComplex, load_complex, parse_degree

SPHERE = "sphere"
MOORE = "moore"
PROJECTIVE = "projective"
FILE = "file"


class RecipeError(ValueError):
    """Raised for unparseable or out-of-range space recipes."""


@dataclass(frozen=True)
class SpaceRecipe:
    kind: str
    n: int | None = None
    group: FgAbGroup | None = None
    m: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind in (SPHERE, PROJECTIVE):
            if self.n is None or self.n < 1:
                raise RecipeError(f"{self.kind} requires a dimension >= 1")
        elif self.kind == MOORE:
            if self.group is None or self.m is None or self.m < 1:
                raise RecipeError("moore requires a group and a degree m >= 1")
        elif self.kind == FILE:
            if not self.path:
                raise RecipeError("file recipe requires a path")
        else:
            raise RecipeError(f"unknown recipe kind {self.kind!r}")

    @classmethod
    def sphere(cls, n: int) -> "SpaceRecipe":
        return cls(SPHERE, n=n)

    @classmethod
    def moore(cls, group: FgAbGroup, m: int) -> "SpaceRecipe":
        return cls(MOORE, group=group, m=m)

    @classmethod
    def projective(cls, n: int) -> "SpaceRecipe":
        return cls(PROJECTIVE, n=n)

    @classmethod
    def file(cls, path: str) -> "SpaceRecipe":
        return cls(FILE, path=path)


def parse_recipe(text: str) -> SpaceRecipe:
    """Parse the CLI recipe syntax; no recipe may ask for a cell in a degree
    past ``chains.MAX_DEGREE``."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise RecipeError(f"recipe {text!r} needs a ':'")
    if kind == "sphere":
        return SpaceRecipe.sphere(parse_degree(rest, "sphere dimension", RecipeError))
    if kind == "rp":
        return SpaceRecipe.projective(parse_degree(rest, "rp dimension", RecipeError))
    if kind == "moore":
        group_text, sep2, m_text = rest.rpartition(":")
        if not sep2:
            raise RecipeError(f"recipe {text!r} needs moore:GROUP:M")
        try:
            group = parse_group(group_text)
        except GroupParseError as exc:
            raise RecipeError(f"moore recipe: {exc}") from None
        # each torsion factor adds a cell in degree m + 1
        m = parse_degree(m_text, "moore degree", RecipeError, bool(group.invariant_factors))
        return SpaceRecipe.moore(group, m)
    if kind == "file":
        return SpaceRecipe.file(rest)
    raise RecipeError(f"unknown recipe kind {kind!r}")


def build(recipe: SpaceRecipe) -> ChainComplex:
    """Realize a recipe as a validated chain complex.

    Moore spaces use the minimal cell structure: one m-cell per free
    generator, and an (m-cell, (m+1)-cell) pair with boundary d for each
    torsion factor Z/d.
    """
    if recipe.kind == SPHERE:
        return sphere(recipe.n)
    if recipe.kind == PROJECTIVE:
        return projective(recipe.n)
    if recipe.kind == MOORE:
        return moore(recipe.group, recipe.m)
    return load_complex(recipe.path)


def sphere(n: int) -> ChainComplex:
    """S^n as a single cell in degree n (n = 0 gives the based two-point space)."""
    if n < 0:
        raise RecipeError("sphere dimension must be nonnegative")
    return ChainComplex(f"sphere:{n}", {n: 1}, {})


def s_zero() -> ChainComplex:
    """The based 0-sphere: one cell beyond the basepoint in degree 0."""
    return sphere(0)


def moore(group: FgAbGroup, m: int) -> ChainComplex:
    if m < 1:
        raise RecipeError("moore degree must be >= 1")
    r = group.free_rank
    torsion = group.invariant_factors
    t = len(torsion)
    name = f"moore:{group}:{m}".replace(" ", "")
    if r + t == 0:
        return ChainComplex(name, {}, {})
    ranks = {m: r + t}
    boundaries = {}
    if t:
        ranks[m + 1] = t
        boundaries[m + 1] = IntMatrix.from_rows(
            [[torsion[j] if i == r + j else 0 for j in range(t)]
             for i in range(r + t)],
            cols=t)
    return ChainComplex(name, ranks, boundaries)


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
