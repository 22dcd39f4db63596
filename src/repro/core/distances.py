"""Point-to-centroid distances in feature space (paper Sec. 3.1).

The matrix-centric identity is Eq. 10::

    D = -2 K V^T + P~ + C~

with ``P~`` the broadcast of ``diag(K)`` and ``C~`` the broadcast of the
centroid norms.  Two reference implementations live here:

* :func:`distance_matrix_reference` — dense brute force (tests);
* :func:`popcorn_distances_host` — the SpMM + SpMV pipeline of Alg. 2
  lines 7-10 on plain NumPy/CSR, materialising the full ``n x k`` block
  (property tests and the bitwise contract of the fused engine).

What the estimators iterate is the chunked fused reduction,
:func:`repro.engine.reduction.fused_popcorn_argmin`, bitwise equal to
:func:`popcorn_distances_host` plus a row argmin; the device backend
charges its modeled launches from
:func:`repro.modeling.popcorn_step_launches`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .._typing import check_labels
from ..errors import ShapeError
from ..sparse import CSRMatrix, spmm, spmv
from .selection import build_selection

__all__ = [
    "distance_matrix_reference",
    "popcorn_distances_host",
]


def distance_matrix_reference(k_mat: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Brute-force ``D[i, j] = ||phi(p_i) - c_j||^2`` from the kernel matrix.

    Uses dense one-hot arithmetic in float64; the gold standard the sparse
    pipeline is tested against.
    """
    n = k_mat.shape[0]
    if k_mat.shape != (n, n):
        raise ShapeError("kernel matrix must be square")
    lab = check_labels(labels, n, k)
    kf = k_mat.astype(np.float64)  # repro-lint: disable=RPR101 -- reference dense baseline
    counts = np.bincount(lab, minlength=k).astype(np.float64)
    onehot = np.zeros((n, k))  # repro-lint: disable=RPR101 -- reference dense baseline
    onehot[np.arange(n), lab] = 1.0
    inv = np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)
    kvt = kf @ onehot * inv[None, :]  # (K V^T)_{ij} = mean of K[i, L_j]
    block = onehot.T @ kf @ onehot  # k x k cluster-pair sums
    cnorm = np.where(counts > 0, np.diagonal(block) * inv**2, 0.0)
    return np.diagonal(kf)[:, None] - 2.0 * kvt + cnorm[None, :]


def popcorn_distances_host(
    k_mat: np.ndarray, labels: np.ndarray, k: int, *, dtype=None
) -> Tuple[np.ndarray, CSRMatrix]:
    """The SpMM/SpMV formulation on host arrays (no device bookkeeping).

    Returns the distances matrix ``D`` and the selection matrix ``V`` used
    to build it.  Mirrors Alg. 2 lines 7-10 exactly, including the
    ``-2`` / ``-0.5`` scaling dance.
    """
    n = k_mat.shape[0]
    lab = check_labels(labels, n, k)
    dt = np.dtype(dtype) if dtype is not None else k_mat.dtype
    v = build_selection(lab, k, dtype=dt)
    # E = -2 K V^T, computed in the sparse-times-dense orientation
    e = np.ascontiguousarray(spmm(v, k_mat.astype(dt, copy=False), alpha=-2.0).T)
    # centroid norms via the z-gather SpMV.  E is scaled by -2, so the
    # SpMV folds in -0.5 to cancel it: gathering the length-n label
    # column first and scaling inside the SpMV avoids the second n x k
    # temporary that ``-0.5 * e`` used to allocate (the -0.5 is an exact
    # power-of-two scaling, so the result is bitwise unchanged).
    z = np.ascontiguousarray(e[np.arange(n), lab])
    c_norms = spmv(v, z, alpha=-0.5)
    d = e
    d += np.diagonal(k_mat).astype(dt)[:, None]
    d += c_norms[None, :].astype(dt)
    return d, v
