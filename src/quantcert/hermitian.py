"""Signs and signature of the invariant Hermitian form on the 5-dimensional block.

At level p = 4k (k >= 4) the block with boundary color 2k-6 has a basis
u_0, ..., u_4 of colored tadpoles.  The successive norm ratios
<u_{s+1}, u_{s+1}> / <u_s, u_s> have closed product forms:

    s = 0, 3:   positive for every admissible selector ell,
    s = 1:      4 sin(3*pi*ell/2k) cos(pi*ell/2k) sin(pi*ell/4k),
    s = 2:      2 sin(3*pi*ell/2k) cos(pi*ell/2k).

Each factor is a sine evaluated at a rational multiple of pi on the grid
pi/(4k), so its sign is decided exactly by the residue rule of ``roots``;
no floating point enters the signature.  For k >= 4 and a primitive
selector no factor vanishes.  On the window 4k/3 < ell < 2k both middle
ratios are negative, the diagonal signs come out (+, +, -, +, +), and the
form is indefinite with signature (4, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .roots import _check_selector, _sin_sign

RATIO_COUNT = 4


def _check_level(p: int, ell: int) -> int:
    if p % 4:
        raise ValueError(f"level must be divisible by 4, got {p}")
    k = p // 4
    if k < 4:
        raise ValueError(f"the 5-dimensional block needs k = p/4 >= 4, got k = {k}")
    _check_selector(ell, p)
    return k


def gram_ratio_sign(s: int, p: int, ell: int) -> int:
    """Exact sign of <u_{s+1}, u_{s+1}> / <u_s, u_s> at level p = 4k."""
    if s not in range(RATIO_COUNT):
        raise ValueError(f"s must be one of 0..3, got {s}")
    _check_level(p, ell)
    if s in (0, 3):
        return 1
    # Each factor is sin(pi*a/4k) = sin(2*pi*a/2p).  ell is odd and prime to
    # k >= 4, so none vanishes: that would need 2k | 3*ell, 4k | ell or
    # ell = k mod 2k.
    sin3 = _sin_sign(6 * ell, 2 * p)           # sin(3*pi*ell/2k)
    cos1 = _sin_sign(2 * ell + p // 2, 2 * p)  # cos(pi*ell/2k)
    if s == 2:
        return sin3 * cos1
    return sin3 * cos1 * _sin_sign(ell, 2 * p)  # times sin(pi*ell/4k)


@dataclass(frozen=True)
class GramProfile:
    p: int
    ell: int
    ratios: tuple[int, int, int, int]
    diagonal_signs: tuple[int, int, int, int, int]
    signature: tuple[int, int]

    @property
    def indefinite(self) -> bool:
        return self.signature[0] > 0 and self.signature[1] > 0


def gram_profile(p: int, ell: int) -> GramProfile:
    """Full diagonal sign sequence and signature at (p, ell).

    <u_0, u_0> is normalized to +1; each later diagonal sign is the running
    product of the ratio signs.
    """
    ratios = tuple(gram_ratio_sign(s, p, ell) for s in range(RATIO_COUNT))
    diagonal = [1]
    for r in ratios:
        diagonal.append(diagonal[-1] * r)
    n_plus = sum(1 for d in diagonal if d > 0)
    n_minus = sum(1 for d in diagonal if d < 0)
    return GramProfile(
        p=p,
        ell=ell,
        ratios=ratios,
        diagonal_signs=tuple(diagonal),
        signature=(n_plus, n_minus),
    )


def find_indefinite_ell(p: int) -> int:
    """The first window selector: the least ell > 4k/3 coprime to 2p.

    The scan runs upward from floor(4k/3) + 1 and ends by ell = 2k - 1,
    since gcd(2k - 1, 8k) = gcd(2k - 1, 4) = 1.  On the window
    sin(3*pi*ell/2k) > 0, cos(pi*ell/2k) < 0 and sin(pi*ell/4k) > 0, so
    every window selector gives the diagonal signs (+, +, -, +, +).  Raises
    ValueError unless p = 4k with k >= 4.
    """
    ell = 4 * (p // 4) // 3 + 1
    while math.gcd(ell, 2 * p) != 1:
        ell += 1
    _check_level(p, ell)
    return ell
