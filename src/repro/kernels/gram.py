"""Kernel-matrix computation (paper Sec. 3.2 / 4.2, Alg. 2 lines 1-2).

* :func:`gram_matrix` / :func:`kernel_matrix` — the host/NumPy reference
  path used by the CPU comparator and the tests.

The estimators' kernel stage (GEMM or SYRK dispatch, elementwise kernel,
``P~`` extraction) is :func:`repro.engine.backends._host_kernel_matrix`,
which every backend executes; the device backend charges its launches
from :func:`repro.modeling.kernel_stage_launches`.
"""

from __future__ import annotations

import numpy as np

from .._typing import as_matrix
from .base import Kernel

__all__ = ["gram_matrix", "kernel_matrix"]


def gram_matrix(x: np.ndarray) -> np.ndarray:
    """Host-side Gram matrix ``B = X X^T``."""
    xm = as_matrix(x, name="x")
    return xm @ xm.T


def kernel_matrix(x: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Host-side kernel matrix ``K[i, j] = kappa(x_i, x_j)``."""
    return kernel.pairwise(x)
