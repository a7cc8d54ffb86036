"""Cross-check oracles that only the tests read.

The package decides every sign and class exactly, finds its selectors by a
short scan and holds a configuration graph only as its m-by-k intersection
block; these float evaluations, whole-window enumerations and dense
(m + k)-square matrices are the independent references the package code is
compared against.
"""

import math

import numpy as np


def spectral_radius(adj) -> float:
    """Float spectral radius; the cross-check oracle for ``veech.classify_graph``."""
    mat = np.asarray(adj, dtype=float)
    if np.allclose(mat, mat.T):
        return float(np.max(np.abs(np.linalg.eigvalsh(mat))))
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def adjacency(g) -> np.ndarray:
    """Dense multigraph adjacency of a configuration graph, size m + k."""
    m, size = g.m, g.size
    adj = np.zeros((size, size), dtype=np.int64)
    adj[:m, m:] = g.intersections
    adj[m:, :m] = adj[:m, m:].T
    return adj


def intersection_matrix(g) -> np.ndarray:
    """The weighted matrix N = DA, with N[i][j] = d_i * i(gamma_i, gamma_j).

    Zero on the two diagonal blocks; not symmetric in general, since each
    row is scaled by its own multiplicity.  The oracle for ``veech.perron``.
    """
    return np.asarray(g.multiplicities, dtype=np.int64)[:, None] * adjacency(g)


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


def selector_window(p: int) -> tuple[int, ...]:
    """Odd selectors coprime to 2p in the open window (4k/3, 2k), ascending.

    The oracle for ``hermitian.find_indefinite_ell``, which takes the first.
    """
    k = p // 4
    return tuple(
        ell for ell in range(1, 2 * k, 2) if 3 * ell > 4 * k and math.gcd(ell, 2 * p) == 1
    )
