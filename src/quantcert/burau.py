"""Reduced 2x2 braid-generator matrices over exact cyclotomic integers.

The two generators of the three-strand braid group act on a 2-dimensional
space; at parameter q (a root of unity) we take

    sigma_1 = [[-q, 1], [0, 1]],      sigma_2 = [[1, 0], [q, -q]].

Both have characteristic polynomial (x - 1)(x + q) and they satisfy the
braid relation; any other matrix model with those two properties generates
the same group up to conjugacy.  Matrix entries live in Z[zeta_N] with
N = order(q), represented by integer coefficient vectors reduced modulo the
N-th cyclotomic polynomial, so equality of matrices is exact and hashable.

The closure probe runs a breadth-first multiplication closure of the two
generators and their inverses; it either exhausts the group (finite image)
or overruns a caller-supplied cap.  The image is finite precisely when -q
has multiplicative order 2, 3, 4 or 5 (Coxeter's finite quotients of the
three-strand braid group).  At q = -1 both generators are unipotent and
generate SL_2(Z), which is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantViolation
from .roots import RootOfUnity

FINITE_MINUS_Q_ORDERS = frozenset({2, 3, 4, 5})


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the ring Z[zeta_N]

def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic up to sign)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % lead:
            raise InvariantViolation("non-exact polynomial division")
        c //= lead
        out[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num[: len(den) - 1]):
        raise InvariantViolation("non-zero remainder in exact division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row j holds the coefficients of x^(deg+j) reduced mod Phi_n.

    Enough rows are provided to reduce any product of two reduced elements
    and any monomial x^e with e < n.
    """
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    top = max(2 * deg - 2, n - 1)
    rows: list[tuple[int, ...]] = []
    # x^deg = -(phi[0] + phi[1] x + ...)/phi[deg]; Phi_n is monic
    current = [-c for c in phi[:deg]]
    rows.append(tuple(current))
    for _ in range(deg + 1, top + 1):
        shifted = [0] + current[:-1]
        overflow = current[-1]
        if overflow:
            shifted = [s + overflow * r for s, r in zip(shifted, rows[0])]
        current = shifted
        rows.append(tuple(current))
    return tuple(rows)


def _reduce(coeffs: list[int], n: int, deg: int) -> tuple[int, ...]:
    rows = None
    for j in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[j]
        if c:
            if rows is None:
                rows = _reduction_rows(n)
            row = rows[j - deg]
            for i, r in enumerate(row):
                coeffs[i] += c * r
            coeffs[j] = 0
    out = coeffs[:deg]
    out += [0] * (deg - len(out))
    return tuple(out)


@dataclass(frozen=True)
class CyclotomicInt:
    """An element of Z[zeta_order], reduced modulo the cyclotomic polynomial."""

    order: int
    coeffs: tuple[int, ...]

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        return CyclotomicInt(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        return CyclotomicInt(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        a, b = self.coeffs, other.coeffs
        deg = len(a)
        conv = [0] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return CyclotomicInt(self.order, _reduce(conv, self.order, deg))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @classmethod
    def zero(cls, order: int) -> "CyclotomicInt":
        deg = len(cyclotomic_polynomial(order)) - 1
        return cls(order, (0,) * deg)

    @classmethod
    def integer(cls, order: int, value: int) -> "CyclotomicInt":
        deg = len(cyclotomic_polynomial(order)) - 1
        return cls(order, (value,) + (0,) * (deg - 1))

    @classmethod
    def root(cls, order: int, exponent: int) -> "CyclotomicInt":
        """The monomial zeta_order^exponent, reduced."""
        deg = len(cyclotomic_polynomial(order)) - 1
        e = exponent % order
        coeffs = [0] * (e + 1)
        coeffs[e] = 1
        return cls(order, _reduce(coeffs, order, deg))

    @classmethod
    def from_root_of_unity(cls, z: RootOfUnity) -> "CyclotomicInt":
        return cls.root(z.order, z.exponent)


Mat2 = tuple[CyclotomicInt, CyclotomicInt, CyclotomicInt, CyclotomicInt]


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def mat_identity(order: int) -> Mat2:
    one = CyclotomicInt.integer(order, 1)
    zero = CyclotomicInt.zero(order)
    return (one, zero, zero, one)


# ---------------------------------------------------------------------------
# the generator images

@dataclass(frozen=True)
class BurauImage:
    """Images of the two braid generators at parameter q, with inverses.

    ``degenerate`` flags -q = 1 (that is q = -1), where both generators are
    unipotent with eigenvalues {1, 1} instead of {1, -q}.
    """

    parameter: RootOfUnity
    sigma1: Mat2
    sigma2: Mat2
    sigma1_inv: Mat2
    sigma2_inv: Mat2
    degenerate: bool


def burau_matrices(q: RootOfUnity) -> BurauImage:
    """Build the generator images at parameter q and verify their contract.

    Each generator must have trace 1 - q and determinant -q (equivalently
    eigenvalues 1 and -q), and the braid relation must hold exactly.
    """
    n = q.order
    one = CyclotomicInt.integer(n, 1)
    zero = CyclotomicInt.zero(n)
    qc = CyclotomicInt.from_root_of_unity(q)
    qinv = CyclotomicInt.root(n, -q.exponent)

    sigma1: Mat2 = (-qc, one, zero, one)
    sigma2: Mat2 = (one, zero, qc, -qc)
    sigma1_inv: Mat2 = (-qinv, qinv, zero, one)
    sigma2_inv: Mat2 = (one, zero, one, -qinv)

    ident = mat_identity(n)
    for m, m_inv in ((sigma1, sigma1_inv), (sigma2, sigma2_inv)):
        trace = m[0] + m[3]
        det = m[0] * m[3] - m[1] * m[2]
        if not (trace - (one - qc)).is_zero() or not (det + qc).is_zero():
            raise InvariantViolation("generator eigenvalues are not {1, -q}")
        if mat_mul(m, m_inv) != ident:
            raise InvariantViolation("generator inverse is wrong")
    lhs = mat_mul(mat_mul(sigma1, sigma2), sigma1)
    rhs = mat_mul(mat_mul(sigma2, sigma1), sigma2)
    if lhs != rhs:
        raise InvariantViolation("braid relation fails")

    return BurauImage(
        parameter=q,
        sigma1=sigma1,
        sigma2=sigma2,
        sigma1_inv=sigma1_inv,
        sigma2_inv=sigma2_inv,
        degenerate=minus_q_order(q) == 1,
    )


def minus_q_order(q: RootOfUnity) -> int:
    """Multiplicative order of -q."""
    minus_one = RootOfUnity(2, 1)
    return (minus_one * q).multiplicative_order()


def burau_is_finite(order_of_minus_q: int) -> bool:
    """Whether the generated matrix group is finite, by the order of -q."""
    if order_of_minus_q < 1:
        raise ValueError("order must be positive")
    return order_of_minus_q in FINITE_MINUS_Q_ORDERS


@dataclass(frozen=True)
class FiniteOfOrder:
    order: int


@dataclass(frozen=True)
class ExceedsCap:
    cap: int
    explored: int


def burau_closure_oracle(q: RootOfUnity, cap: int) -> FiniteOfOrder | ExceedsCap:
    """Breadth-first closure of the generator matrices and their inverses.

    Multiplies outward from the identity with exact cyclotomic entries.
    Returns the exact group order when the closure stabilizes within
    ``cap`` elements, and ExceedsCap otherwise (which for an infinite
    image is the only possible answer).
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    image = burau_matrices(q)
    gens = (image.sigma1, image.sigma2, image.sigma1_inv, image.sigma2_inv)
    ident = mat_identity(q.order)
    seen: set[Mat2] = {ident}
    frontier: list[Mat2] = [ident]
    while frontier:
        new: list[Mat2] = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(m, g)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
                    if len(seen) > cap:
                        return ExceedsCap(cap=cap, explored=len(seen))
        frontier = new
    return FiniteOfOrder(order=len(seen))
