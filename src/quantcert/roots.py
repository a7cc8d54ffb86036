"""Exact arithmetic with roots of unity, and the twist eigenvalues.

A root of unity zeta_N^e is stored as the pair (order N, exponent e mod N);
products, powers, orders and equality tests are modular arithmetic on the
exponents and never touch floating point.  Equality across different orders
is decided at the least common multiple of the orders; the stored pair is
deliberately not reduced, so exponent identities stay transparent.

The sign of sin(2*pi*m/p) is decided exactly by the position of the residue
m mod p in (0, p) (``_sin_sign``); ``hermitian`` takes every factor sign of
its Gram ratios from that rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .blocks import in_palette
from .errors import InvalidColor, NonPrimitiveRoot


@dataclass(frozen=True, eq=False)
class RootOfUnity:
    order: int
    exponent: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        object.__setattr__(self, "exponent", self.exponent % self.order)

    def _canonical(self) -> tuple[int, int]:
        g = math.gcd(self.exponent, self.order)
        return (self.order // g, (self.exponent // g) % (self.order // g))

    def __eq__(self, other):
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        l = math.lcm(self.order, other.order)
        return (self.exponent * (l // self.order)) % l == (
            other.exponent * (l // other.order)
        ) % l

    def __hash__(self):
        return hash(self._canonical())

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        l = math.lcm(self.order, other.order)
        return RootOfUnity(
            l, self.exponent * (l // self.order) + other.exponent * (l // other.order)
        )

    def __pow__(self, m: int) -> "RootOfUnity":
        """zeta_N^(e*m mod N); m may be negative."""
        return RootOfUnity(self.order, (self.exponent * m) % self.order)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(self.order, -self.exponent)

    def multiplicative_order(self) -> int:
        return self.order // math.gcd(self.order, self.exponent)

    def __str__(self) -> str:
        if self.exponent == 0:
            return "1"
        return f"zeta_{self.order}^{self.exponent}"

    @classmethod
    def minus_one(cls, order: int) -> "RootOfUnity":
        if order % 2:
            raise ValueError("-1 needs an even order")
        return cls(order, order // 2)


def _sin_sign(m: int, p: int) -> int:
    """Sign of sin(2*pi*m/p), decided from the residue m mod p."""
    r = m % p
    if r == 0 or 2 * r == p:
        return 0
    return 1 if 2 * r < p else -1


def _check_selector(ell: int, p: int) -> None:
    """Raise NonPrimitiveRoot unless A = zeta_2p^ell is a primitive 2p-th root."""
    if math.gcd(ell, 2 * p) != 1:
        raise NonPrimitiveRoot(f"gcd({ell}, {2 * p}) != 1: selector is not primitive")


def twist_eigenvalue(a: int, p: int, ell: int = 1) -> RootOfUnity:
    """Eigenvalue (-1)^a A^(a(a+2)) of a twist on a color-a edge, A = zeta_2p^ell.

    The sign is folded in as an exponent shift by p, so the whole eigenvalue
    lives in one root of unity of order 2p.
    """
    if not in_palette(a, p):
        raise InvalidColor(f"color {a} is not in the level-{p} palette")
    _check_selector(ell, p)
    shift = p if a % 2 else 0
    return RootOfUnity(2 * p, ell * a * (a + 2) + shift)
