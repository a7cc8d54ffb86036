"""Signs and signature of the invariant Hermitian form on the 5-dimensional block.

At level p = 4k (k >= 4) the block with boundary color 2k-6 has a basis
u_0, ..., u_4 of colored tadpoles.  The successive norm ratios
<u_{s+1}, u_{s+1}> / <u_s, u_s> have closed product forms:

    s = 0, 3:   positive for every admissible selector ell,
    s = 1:      4 sin(3*pi*ell/2k) cos(pi*ell/2k) sin(pi*ell/4k),
    s = 2:      2 sin(3*pi*ell/2k) cos(pi*ell/2k).

Each factor is a sine evaluated at a rational multiple of pi on the grid
pi/(4k), so its sign is decided exactly by residue position; no floating
point enters the signature.  On the window 4k/3 < ell < 2k both middle
ratios are negative, the diagonal signs come out (+, +, -, +, +), and the
form is indefinite with signature (4, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateDenominator, InvariantViolation, NonPrimitiveRoot

RATIO_COUNT = 4
BASIS_SIZE = 5


def _sin_sign_pi(a: int, m: int) -> int:
    """Sign of sin(pi * a / m), decided from the residue a mod 2m."""
    r = a % (2 * m)
    if r == 0 or r == m:
        return 0
    return 1 if r < m else -1


def _check_level(p: int, ell: int) -> int:
    if p % 4:
        raise ValueError(f"level must be divisible by 4, got {p}")
    k = p // 4
    if k < 4:
        raise ValueError(f"the 5-dimensional block needs k = p/4 >= 4, got k = {k}")
    if math.gcd(ell, 2 * p) != 1:
        raise NonPrimitiveRoot(f"gcd({ell}, {2 * p}) != 1: selector is not primitive")
    return k


def gram_ratio_sign(s: int, p: int, ell: int) -> int:
    """Exact sign of <u_{s+1}, u_{s+1}> / <u_s, u_s> at level p = 4k."""
    if s not in range(RATIO_COUNT):
        raise ValueError(f"s must be one of 0..3, got {s}")
    k = _check_level(p, ell)
    if _sin_sign_pi(2 * ell, 4 * k) == 0:
        raise DegenerateDenominator(f"sin(pi*{ell}/{2 * k}) = 0")
    if s in (0, 3):
        return 1
    sin3 = _sin_sign_pi(6 * ell, 4 * k)       # sin(3*pi*ell/2k)
    cos1 = _sin_sign_pi(2 * ell + 2 * k, 4 * k)  # cos(pi*ell/2k)
    if sin3 == 0 or cos1 == 0:
        raise DegenerateDenominator(
            f"a ratio factor vanishes at (s={s}, p={p}, ell={ell})"
        )
    if s == 2:
        return sin3 * cos1
    half = _sin_sign_pi(ell, 4 * k)           # sin(pi*ell/4k)
    if half == 0:
        raise DegenerateDenominator(f"sin(pi*{ell}/{4 * k}) = 0")
    return sin3 * cos1 * half


def gram_ratio_float(s: int, p: int, ell: int) -> float | None:
    """Float evaluation of the closed product forms; None for s in {0, 3}.

    Cross-check oracle only: sign decisions always use gram_ratio_sign.
    """
    k = p // 4
    if s == 1:
        return (
            4.0
            * math.sin(3 * math.pi * ell / (2 * k))
            * math.cos(math.pi * ell / (2 * k))
            * math.sin(math.pi * ell / (4 * k))
        )
    if s == 2:
        return 2.0 * math.sin(3 * math.pi * ell / (2 * k)) * math.cos(
            math.pi * ell / (2 * k)
        )
    return None


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


def selector_window(p: int) -> tuple[int, ...]:
    """Odd selectors coprime to 2p in the open window (4k/3, 2k), ascending."""
    k = p // 4
    out = []
    for ell in range(1, 2 * k, 2):
        if 3 * ell > 4 * k and math.gcd(ell, 2 * p) == 1:
            out.append(ell)
    return tuple(out)


def find_indefinite_ell(p: int) -> int | None:
    """Smallest odd coprime selector in the window with an indefinite profile.

    Returns None when k = p/4 < 4 (no 5-dimensional block with positive
    boundary color exists there).  For k >= 4 the window is never empty
    (ell = 2k - 1 lies in it), and on it sin(3*pi*ell/2k) > 0,
    cos(pi*ell/2k) < 0 and sin(pi*ell/4k) > 0, so every window selector
    gives the diagonal signs (+, +, -, +, +); a window without an
    indefinite profile raises InvariantViolation.
    """
    if p % 4:
        raise ValueError(f"level must be divisible by 4, got {p}")
    if p // 4 < 4:
        return None
    for ell in selector_window(p):
        if gram_profile(p, ell).indefinite:
            return ell
    raise InvariantViolation(f"no selector in the window is indefinite at level {p}")
