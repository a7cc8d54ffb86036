"""Exact arithmetic with roots of unity and quantum-integer signs.

A root of unity zeta_N^e is stored as the pair (order N, exponent e mod N);
products, powers, orders and equality tests are modular arithmetic on the
exponents and never touch floating point.  Equality across different orders
is decided at the least common multiple of the orders; the stored pair is
deliberately not reduced, so exponent identities stay transparent.

The quantum integer [n] = (A^{2n} - A^{-2n})/(A^2 - A^{-2}) with
A = exp(2*pi*i*ell/(2p)) equals sin(n*beta)/sin(beta) for beta = 2*pi*ell/p.
Its sign is decided exactly by the position of the residue n*ell mod p in
(0, p); floats appear only as informational hints and cross-check oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .blocks import in_palette
from .errors import DegenerateDenominator, InvalidColor, NonPrimitiveRoot


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
        return root_pow(self, m)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(self.order, -self.exponent)

    def multiplicative_order(self) -> int:
        return self.order // math.gcd(self.order, self.exponent)

    def as_complex(self) -> complex:
        return cmath.exp(2j * math.pi * self.exponent / self.order)

    def __str__(self) -> str:
        if self.exponent == 0:
            return "1"
        return f"zeta_{self.order}^{self.exponent}"

    @classmethod
    def one(cls, order: int = 1) -> "RootOfUnity":
        return cls(order, 0)

    @classmethod
    def minus_one(cls, order: int) -> "RootOfUnity":
        if order % 2:
            raise ValueError("-1 needs an even order")
        return cls(order, order // 2)


def root_pow(z: RootOfUnity, m: int) -> RootOfUnity:
    """z^m, i.e. zeta_N^(e*m mod N); m may be negative."""
    return RootOfUnity(z.order, (z.exponent * m) % z.order)


def is_one(z: RootOfUnity) -> bool:
    return z.exponent == 0


def _sin_sign(m: int, p: int) -> int:
    """Sign of sin(2*pi*m/p), decided from the residue m mod p."""
    r = m % p
    if r == 0 or 2 * r == p:
        return 0
    return 1 if 2 * r < p else -1


def quantum_integer_sign(n: int, p: int, ell: int) -> int:
    """Exact sign of [n] at level p with root selector ell.

    [n] = sin(n*beta)/sin(beta) for beta = 2*pi*ell/p; the answer is the
    product of the residue-position signs of numerator and denominator.
    """
    if p < 1:
        raise ValueError(f"level must be positive, got {p}")
    if math.gcd(ell, 2 * p) != 1:
        raise NonPrimitiveRoot(f"gcd({ell}, {2 * p}) != 1: selector is not primitive")
    den = _sin_sign(ell, p)
    if den == 0:
        raise DegenerateDenominator(f"sin(2*pi*{ell}/{p}) = 0")
    return _sin_sign(n * ell, p) * den


@dataclass(frozen=True)
class QuantumIntegerValue:
    n: int
    p: int
    ell: int
    sign: int
    magnitude_hint: float  # informational only; the sign field is the contract


def quantum_integer(n: int, p: int, ell: int) -> QuantumIntegerValue:
    sign = quantum_integer_sign(n, p, ell)
    beta = 2 * math.pi * ell / p
    hint = math.sin(n * beta) / math.sin(beta)
    return QuantumIntegerValue(n=n, p=p, ell=ell, sign=sign, magnitude_hint=hint)


class TwistEigenvalue(NamedTuple):
    value: RootOfUnity  # (-1)^a * A^(a(a+2)) with the sign folded into the exponent
    parity_sign: int  # (-1)^a, recorded separately for reporting


def twist_eigenvalue(a: int, p: int, ell: int = 1) -> TwistEigenvalue:
    """Eigenvalue (-1)^a A^(a(a+2)) of a twist on a color-a edge, A = zeta_2p^ell.

    The sign is folded in as an exponent shift by p, so the whole eigenvalue
    lives in one root of unity of order 2p.
    """
    if not in_palette(a, p):
        raise InvalidColor(f"color {a} is not in the level-{p} palette")
    if math.gcd(ell, 2 * p) != 1:
        raise NonPrimitiveRoot(f"gcd({ell}, {2 * p}) != 1: selector is not primitive")
    shift = p if a % 2 else 0
    value = RootOfUnity(2 * p, ell * a * (a + 2) + shift)
    return TwistEigenvalue(value=value, parity_sign=-1 if a % 2 else 1)


def twist_order(a: int, p: int) -> int:
    """Multiplicative order of the twist eigenvalue at selector 1; divides 2p."""
    return twist_eigenvalue(a, p, 1).value.multiplicative_order()
