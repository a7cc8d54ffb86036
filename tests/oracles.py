"""Float cross-check oracles that only the tests read.

The package decides every sign and class exactly; these float evaluations
are the independent references the exact code is compared against.
"""

import math

import numpy as np


def spectral_radius(adj) -> float:
    """Float spectral radius; the cross-check oracle for ``veech.classify_graph``."""
    mat = np.asarray(adj, dtype=float)
    if np.allclose(mat, mat.T):
        return float(np.max(np.abs(np.linalg.eigvalsh(mat))))
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def gram_ratio_float(s: int, p: int, ell: int) -> float | None:
    """Float evaluation of the closed product forms; None for s in {0, 3}.

    The oracle for ``hermitian.gram_ratio_sign``, which decides every sign.
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
