"""Spaces whose homology is known by construction, and the oracles built on it.

A :class:`Known` pairs a recipe the program can read with the homology the
benchmark expects for it.  Recipes (``sphere``, ``rp``, ``moore``) have their
textbook homology; ``file:`` complexes are generated here as a direct sum of
pieces with planted homology, then hidden behind seeded unimodular basis
changes.  Every derived answer (cohomology, shaped homology, page cells) comes
from the universal-coefficient formulas in :mod:`groups`, never from ahom.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from groups import TRIVIAL, Z, Group, ext, group, hom, total


@dataclass(frozen=True)
class Known:
    recipe: str
    ranks: dict[int, int]
    homology: dict[int, Group] = field(default_factory=dict)

    @property
    def top(self) -> int:
        return max(self.ranks, default=0)

    def h(self, n: int) -> Group:
        return self.homology.get(n, TRIVIAL)

    def suspension_shaped(self) -> bool:
        return not self.ranks.get(0) and not self.ranks.get(1)


def sphere(n: int) -> Known:
    return Known(f"sphere:{n}", {n: 1}, {n: Z})


def rp(n: int) -> Known:
    hs = {k: group(0, [2]) for k in range(1, n, 2)}
    if n % 2:
        hs[n] = Z
    return Known(f"rp:{n}", {k: 1 for k in range(1, n + 1)}, hs)


def moore(g: Group, m: int, text: str | None = None) -> Known:
    """Minimal Moore space; `text` is how the group is spelled in the recipe."""
    t = len(g.invariant_factors())
    ranks = {m: g.free + t} if g.free + t else {}
    if t:
        ranks[m + 1] = t
    return Known(f"moore:{text or g.render().replace(' ', '')}:{m}", ranks,
                 {} if g.is_trivial() else {m: g})


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def cohomology(c: Known, n: int, g: Group) -> Group:
    """H^n(c; g) = Hom(H_n, g) + Ext(H_(n-1), g)."""
    if n < 0:
        return TRIVIAL
    return hom(c.h(n), g) + ext(c.h(n - 1), g)


def a_homology(a: Known, x: Known, n: int) -> Group:
    """Shaped homology: the sum over j of H^(j-n)(a; H_j(x))."""
    if n < 0:
        return TRIVIAL
    return total(cohomology(a, j - n, x.h(j)) for j in range(max(1, n), x.top + 1))


def lowest_homology(c: Known) -> int | None:
    degrees = [n for n, g in c.homology.items() if not g.is_trivial()]
    return min(degrees) if degrees else None


def a_homology_degrees(a: Known, x: Known) -> range:
    """The degrees an `ahomology` report prints: 0 through the scan bound."""
    lo_a, lo_x = lowest_homology(a), lowest_homology(x)
    hi = -1 if lo_a is None or lo_x is None else x.top - lo_a
    return range(0, max(x.top + 1, hi + 1, 0) + 1)


def page(a: Known, variant: str, pi: dict[int, Group]) -> dict[tuple[int, int], tuple]:
    """Second-page cells (p, q) -> (group, status, must_die)."""
    support = 1 if variant == "absolute" else 2
    cells = {}
    for p in range(-a.top, 0):
        for q in sorted(pi):
            t = p + q
            if t < support - 1:
                cells[(p, q)] = (TRIVIAL, "zero", False)
            elif t >= support:
                cells[(p, q)] = (cohomology(a, -p, pi[q]), "exact", False)
            else:
                cells[(p, q)] = (cohomology(a, -p, pi[q]), "subgroup_upper_bound",
                                 variant == "relative")
    return cells


# ---------------------------------------------------------------------------
# Generated complexes
# ---------------------------------------------------------------------------

def planted_complex(rng: random.Random, cells: int, top: int, mixes: int,
                    name: str) -> tuple[dict, Known]:
    """A complex of about `cells` cells in degrees 1..top with planted homology.

    It is a direct sum of free cells, Z/d pairs and contractible +-1 pairs,
    with cells shuffled in each degree.  Then `mixes` x rank(n) seeded
    elementary column operations on d_n, each with the inverse row operation
    on d_(n+1), make the matrices dense while keeping d*d = 0 and the
    homology.  Returns the JSON interchange object and its Known twin.
    """
    pieces = []  # (degree, kind, value), in a fixed proportion per size
    for i in range(cells // 2):
        n = 1 + i % (top - 1)
        if i % 10 < 2:
            pieces.append((n, "torsion", rng.randint(2, 12)))
        elif i % 10 < 3:
            pieces.append((n + rng.randint(0, 1), "free", 1))
        else:
            pieces.append((n, "unit", rng.choice((1, -1))))
    ranks = {n: 0 for n in range(1, top + 1)}
    for n, kind, _ in pieces:
        ranks[n] += 1
        if kind != "free":
            ranks[n + 1] += 1
    order = {n: rng.sample(range(r), r) for n, r in ranks.items()}
    nxt = {n: 0 for n in ranks}
    d = {n: [[0] * ranks[n] for _ in range(ranks.get(n - 1, 0))] for n in range(2, top + 1)}
    hs: dict[int, Group] = {}
    for n, kind, value in pieces:
        i = order[n][nxt[n]]
        nxt[n] += 1
        if kind == "free":
            hs[n] = hs.get(n, TRIVIAL) + Z
            continue
        j = order[n + 1][nxt[n + 1]]
        nxt[n + 1] += 1
        d[n + 1][i][j] = value
        if kind == "torsion":
            hs[n] = hs.get(n, TRIVIAL) + group(0, [value])
    for n in range(1, top + 1):
        r = ranks[n]
        if r < 2:
            continue
        low, high = d.get(n), d.get(n + 1)
        for _ in range(mixes * r):
            i, j = rng.sample(range(r), 2)
            k = rng.choice((-2, -1, 1, 2))
            if low is not None:  # column j of d_n += k * column i
                for row in low:
                    row[j] += k * row[i]
            if high is not None:  # row i of d_(n+1) -= k * row j
                high[i] = [a - k * b for a, b in zip(high[i], high[j])]
    data = {
        "name": name,
        "reduced": True,
        "ranks": {str(n): r for n, r in ranks.items() if r},
        "boundaries": {str(n): m for n, m in d.items() if ranks[n] and ranks[n - 1]},
    }
    known = Known("", {n: r for n, r in ranks.items() if r},
                  {n: g for n, g in hs.items() if not g.is_trivial()})
    return data, known


def write_complex(path: str, data: dict, known: Known) -> Known:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
    return Known(f"file:{path}", known.ranks, known.homology)
