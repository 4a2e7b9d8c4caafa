"""Finitely generated abelian groups as prime-power multisets.

This is the benchmark's own arithmetic, independent of ``ahom.abelian``:
a group is ``(free_rank, primary)`` where ``primary`` is the sorted tuple of
prime powers of its primary decomposition.  Two groups are isomorphic exactly
when these tuples are equal, so answers are compared without trusting the
program's Smith-form code or its invariant-factor rendering.
"""

from __future__ import annotations

import math
from collections import defaultdict


def _factor(n: int) -> list[int]:
    """The prime-power factors of n >= 1, e.g. 12 -> [3, 4]."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


def _prime_of(q: int) -> int:
    p = 2
    while q % p:
        p += 1
    return p


class Group(tuple):
    """(free_rank, sorted prime powers); build with :func:`group`."""

    @property
    def free(self) -> int:
        return self[0]

    @property
    def primary(self) -> tuple[int, ...]:
        return self[1]

    def is_trivial(self) -> bool:
        return self.free == 0 and not self.primary

    def __add__(self, other):  # direct sum
        return Group((self.free + other.free, tuple(sorted(self.primary + other.primary))))

    def __mul__(self, k: int):  # k-fold direct sum
        return Group((self.free * k, tuple(sorted(self.primary * k))))

    def order(self):
        return math.inf if self.free else math.prod(self.primary)

    def exponent(self):
        """Smallest e >= 1 with e*g = 0 (infinite when free)."""
        if self.free:
            return math.inf
        return math.lcm(*self.primary) if self.primary else 1

    def primes(self) -> set[int]:
        return {_prime_of(q) for q in self.primary}

    def invariant_factors(self) -> list[int]:
        by_prime = defaultdict(list)
        for q in self.primary:
            by_prime[_prime_of(q)].append(q)
        width = max((len(v) for v in by_prime.values()), default=0)
        factors = [1] * width
        for powers in by_prime.values():
            powers.sort(reverse=True)
            for i, q in enumerate(powers):
                factors[width - 1 - i] *= q
        return factors

    def render(self) -> str:
        """The group in the program's input grammar (canonical order)."""
        parts = []
        if self.free == 1:
            parts.append("Z")
        elif self.free > 1:
            parts.append(f"Z^{self.free}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors())
        return " + ".join(parts) or "0"


def group(free: int = 0, orders=()) -> Group:
    """Z^free plus the cyclic groups Z/d for d in orders (d >= 1)."""
    primary = []
    for d in orders:
        primary.extend(_factor(d))
    return Group((free, tuple(sorted(primary))))


TRIVIAL = group()
Z = group(1)


def parse(text: str) -> Group:
    """Read the program's rendering ("0", "Z", "Z^r", "Z/d" joined by "+")."""
    s = "".join(text.split())
    if s == "0":
        return TRIVIAL
    free, orders = 0, []
    for token in s.split("+"):
        if token == "Z":
            free += 1
        elif token.startswith("Z^") and token[2:].isdigit():
            free += int(token[2:])
        elif token.startswith("Z/") and token[2:].isdigit() and int(token[2:]) >= 2:
            orders.append(int(token[2:]))
        else:
            raise ValueError(f"not a group rendering: {text!r}")
    return group(free, orders)


def hom(g: Group, h: Group) -> Group:
    """Hom(Z, H) = H, Hom(Z/p^a, Z) = 0, Hom(Z/p^a, Z/p^b) = Z/p^min(a,b)."""
    out = h * g.free
    extra = [min(a, b) for a in g.primary for b in h.primary
             if _prime_of(a) == _prime_of(b)]
    return out + Group((0, tuple(sorted(extra))))


def ext(g: Group, h: Group) -> Group:
    """Ext(Z, H) = 0, Ext(Z/p^a, Z) = Z/p^a, Ext(Z/p^a, Z/p^b) = Z/p^min(a,b)."""
    orders = [a for a in g.primary for _ in range(h.free)]
    orders += [min(a, b) for a in g.primary for b in h.primary
               if _prime_of(a) == _prime_of(b)]
    return Group((0, tuple(sorted(orders))))


def total(groups) -> Group:
    out = TRIVIAL
    for g in groups:
        out = out + g
    return out
