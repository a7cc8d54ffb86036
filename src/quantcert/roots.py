"""Twist eigenvalues as exponents of one root of unity, and the residue-sign rule.

At level p every twist eigenvalue is a power of zeta_2p, so the package
holds it as its exponent mod 2p (``twist_exponent``): products are sums,
quotients differences, and the multiplicative order of zeta_2p^e is
2p / gcd(2p, e).  ``RootOfUnity`` is the (order, exponent) pair that names
the closure probe's parameter q = zeta_N^e.

The sign of sin(2*pi*m/p) is decided exactly by the position of the residue
m mod p in (0, p) (``_sin_sign``); ``hermitian`` takes every factor sign of
its Gram ratios from that rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .blocks import in_palette
from .errors import InvalidColor, NonPrimitiveRoot


@dataclass(frozen=True)
class RootOfUnity:
    """zeta_order^exponent, with the exponent reduced mod the order."""

    order: int
    exponent: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        object.__setattr__(self, "exponent", self.exponent % self.order)


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


def twist_exponent(a: int, p: int, ell: int = 1) -> int:
    """Exponent e in 0..2p-1 of zeta_2p for the twist eigenvalue (-1)^a A^(a(a+2))
    on a color-a edge, A = zeta_2p^ell.

    The sign is folded in as an exponent shift by p, so the whole eigenvalue
    lives in the one root of unity of order 2p.
    """
    if not in_palette(a, p):
        raise InvalidColor(f"color {a} is not in the level-{p} palette")
    _check_selector(ell, p)
    shift = p if a % 2 else 0
    return (ell * a * (a + 2) + shift) % (2 * p)
