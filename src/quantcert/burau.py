"""Reduced 2x2 braid-generator matrices over exact cyclotomic integers.

The two generators of the three-strand braid group act on a 2-dimensional
space; at parameter q (a root of unity) we take

    sigma_1 = [[-q, 1], [0, 1]],      sigma_2 = [[1, 0], [q, -q]].

Both have characteristic polynomial (x - 1)(x + q), they satisfy the
braid relation and they do not commute; any other matrix pair with those
three properties generates the same group up to conjugacy.  Matrix entries
live in Z[zeta_N] with N = order(q).  Their one representation is an
integer coefficient row of length phi(N), reduced modulo the N-th
cyclotomic polynomial, so equality of matrices is exact and hashable.

The closure probe runs a breadth-first multiplication closure of the two
generators; it either exhausts the group (finite image) or overruns a
caller-supplied cap.  The image is finite precisely when -q has
multiplicative order 2, 3, 4 or 5 (Coxeter's finite quotients of the
three-strand braid group).  At q = -1 both generators are unipotent and
generate SL_2(Z), which is infinite.

The closure works a whole BFS layer at a time on int32 coefficient arrays.
Every generator entry is 0, 1 or +-q, so a product with a generator is one
matmul by the fixed "times q" matrix on one column plus an add on the
other.  The matmul runs in float64 so that it reaches BLAS; ``_step`` gives
the bound that keeps it exact.  The generators' contract (eigenvalues
{1, -q}, not commuting, braid relation) is proved once, at import, over
Z[x]/(x^4) through the same step function the layers use; its identities
have degree at most 3 in q, so they hold on every ring.  Elements are
deduplicated by their exact int32 bytes, and a guard checked on Python
ints before each layer raises InvariantViolation where the next layer
could reach ``INT32_BOUND``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvariantViolation
from .roots import RootOfUnity

FINITE_MINUS_Q_ORDERS = frozenset({2, 3, 4, 5})

#: closure layers are int32; every partial sum must stay below this in size
INT32_BOUND = 2**31


# ---------------------------------------------------------------------------
# cyclotomic polynomials and coefficient rows of Z[zeta_N]

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
def _powers(n: int) -> np.ndarray:
    """Row k holds x^k reduced modulo Phi_n, for k < n, as read-only float64.

    Built in Python ints; the int32 pass refuses an entry past int32.
    """
    phi = cyclotomic_polynomial(n)
    row = [1] + [0] * (len(phi) - 2)
    rows = []
    for _ in range(n):
        rows.append(row)
        # x * row, with x^deg = -(phi[0] + phi[1] x + ...) since Phi_n is monic
        top, row = row[-1], [0] + row[:-1]
        row = [r - top * c for r, c in zip(row, phi)]
    table = np.array(rows, dtype=np.int32).astype(np.float64)
    table.flags.writeable = False
    return table


def minus_q_order(q: RootOfUnity) -> int:
    """Multiplicative order of -q: with q = zeta_n^e, -q = zeta_2n^(n + 2e)."""
    n = q.order
    return 2 * n // math.gcd(2 * n, n + 2 * q.exponent)


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


def _times_root(n: int, exponent: int) -> np.ndarray:
    """The float64 matrix of "multiply by zeta_n^exponent" on coefficient rows.

    Row i holds zeta_n^(i + exponent) reduced modulo Phi_n, so a coefficient
    row c maps to c @ Z.  The matrix is a fresh copy of rows of _powers(n).
    """
    table = _powers(n)
    return table[(np.arange(table.shape[1]) + exponent) % n]


def _row_keys(block: np.ndarray) -> list[bytes]:
    """The bytes of each (4, deg) element of ``block``, as hashable keys."""
    flat = block.reshape(len(block), -1)
    return flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel().tolist()


#: Right multiplication of [[a, b], [c, d]] by each generator, as
#: (source column, twisted).  The source column becomes new = -(source @ Z)
#: for the "times q" matrix Z; the other column becomes other - new when
#: twisted and other + source otherwise.  In order: sigma1, sigma2.
_GENERATORS = ((0, False), (1, True))


def _step(block: np.ndarray, g: int, times, out: np.ndarray | None = None) -> np.ndarray:
    """Right-multiply every element of a (F, 4, deg) block by generator ``g``.

    ``g`` indexes _GENERATORS and ``times`` is the "times q" matrix in
    float64.  The products are written to ``out`` (a new array by default),
    which is returned.

    The product with ``times`` is a float64 matmul, cast back to int32, and
    it is exact.  With block entries at most ``largest`` in size and growth
    = 1 + the largest column sum of |times|, every term and every partial
    sum of a product entry is an integer of size at most largest * (growth
    - 1), and the closure's guard keeps largest * growth below 2^31.
    float64 holds every integer below 2^53 exactly, so any summation order,
    with or without FMA, gives the exact integer.
    """
    source, twisted = _GENERATORS[g]
    if out is None:
        out = np.empty_like(block)
    col, new_col = block[:, source::2], out[:, source::2]
    other, new_other = block[:, 1 - source::2], out[:, 1 - source::2]
    rows = col.astype(np.float64).reshape(-1, col.shape[-1])
    new_col[...] = (rows @ times).reshape(col.shape)
    np.negative(new_col, out=new_col)
    if twisted:
        np.subtract(other, new_col, out=new_other)
    else:
        np.add(other, col, out=new_other)
    return out


def _check_generators() -> None:
    """The contract of _GENERATORS, proved once, through ``_step``.

    Each generator has trace 1 - q and satisfies sigma^2 = (1 - q) sigma + q,
    so by Cayley-Hamilton its determinant is -q and its eigenvalues are
    {1, -q}; sigma1 sigma2 != sigma2 sigma1; and the braid relation
    sigma1 sigma2 sigma1 = sigma2 sigma1 sigma2 holds.  Two equal rules pass
    the other two checks.

    The check runs over Z[x]/(x^4) with q = x, where "times q" shifts the 4
    coefficients up by one.  ``_step`` reads q only through that matrix, and
    linearly, so every product is the product in Z[q] cut at x^4.  The
    trace, the quadratic and the commutator have degree at most 2 in q and
    the braid words degree at most 3, so the cut loses nothing: an identity
    that holds here holds in Z[q], and so on every ring Z[zeta_n] at every
    exponent.  For the true rules sigma1 sigma2 - sigma2 sigma1 has the
    entry q, which is nonzero at every root of unity, so they do not commute
    on any ring.
    """
    ident = np.zeros((1, 4, 4), dtype=np.int32)
    ident[0, 0, 0] = ident[0, 3, 0] = 1
    times = np.eye(4, k=1)
    s1, s2 = (_step(ident, g, times) for g in (0, 1))
    q_ident = ident @ times
    for g, m in enumerate((s1, s2)):
        if not (
            np.array_equal(m[:, 0] + m[:, 3], ident[:, 0] - q_ident[:, 0])
            and np.array_equal(_step(m, g, times), m - m @ times + q_ident)
        ):
            raise InvariantViolation("generator eigenvalues are not {1, -q}")
    s12, s21 = _step(s1, 1, times), _step(s2, 0, times)
    if np.array_equal(s12, s21):
        raise InvariantViolation("generators commute")
    if not np.array_equal(_step(s12, 0, times), _step(s21, 1, times)):
        raise InvariantViolation("braid relation fails")


_check_generators()


def burau_closure_oracle(q: RootOfUnity, cap: int) -> FiniteOfOrder | ExceedsCap:
    """Breadth-first closure of the generator matrices under right products.

    Multiplies outward from the identity with exact cyclotomic entries, one
    whole BFS layer at a time.  Returns the exact group order when the
    closure stabilizes within ``cap`` elements, and ExceedsCap at the first
    element past the cap otherwise (which for an infinite image is the only
    possible answer).

    It multiplies by sigma1 and sigma2 only, and still answers for the group.
    Let M be the set of their products, the identity included.  If M is
    finite, each g in M has g^a = g^b for some a < b, so g^(b - a) = 1 and
    g^-1 = g^(b - a - 1) lies in M: M is the whole group.  So M is infinite
    exactly when the group is, and a BFS over M returns what a BFS over the
    group would; only the order of visits differs.

    A layer of F matrices [[a, b], [c, d]] is an int32 array of shape
    (F, 4, deg) holding the coefficient rows of a, b, c, d.  Raises
    InvariantViolation where the next layer could reach ``INT32_BOUND``.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    times = _times_root(q.order, q.exponent)
    growth = 1 + int(np.abs(times).sum(axis=0).max())
    frontier = np.zeros((1, 4, len(times)), dtype=np.int32)
    frontier[0, 0, 0] = frontier[0, 3, 0] = 1
    seen: set[bytes] = set(_row_keys(frontier))
    while len(frontier):
        largest = max(int(frontier.max()), -int(frontier.min()))
        if largest * growth >= INT32_BOUND:
            raise InvariantViolation(
                f"closure entries reach {largest}; the next layer could pass int32"
            )
        block = np.empty_like(frontier)
        layer: list[np.ndarray] = []
        for g in range(len(_GENERATORS)):
            _step(frontier, g, times, out=block)
            fresh: list[int] = []
            for i, key in enumerate(_row_keys(block)):
                if key not in seen:
                    seen.add(key)
                    fresh.append(i)
                    if len(seen) > cap:
                        return ExceedsCap(cap=cap, explored=len(seen))
            layer.append(block[fresh])
        frontier = np.concatenate(layer)
    return FiniteOfOrder(order=len(seen))
