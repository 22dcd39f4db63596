"""Laplacian kernel: ``kappa(x, y) = exp(-gamma ||x - y||_1)``.

Included as a *non-Gram-expressible* kernel: the L1 distance cannot be
recovered from inner products, so this kernel only supports the direct
pairwise path.  Popcorn accepts it through the precomputed-kernel entry
point; requesting the Gram path raises, which the tests verify.
"""

from __future__ import annotations

import numpy as np

from .._typing import as_matrix
from ..errors import ShapeError
from ..params import ParamSpec
from .base import Kernel, positive_float

__all__ = ["LaplacianKernel"]


class LaplacianKernel(Kernel):
    """``exp(-gamma * ||x - y||_1)`` — direct evaluation only."""

    gram_expressible = False
    flops_per_entry = 8.0

    _params = (ParamSpec("gamma", default=1.0, convert=positive_float("gamma")),)

    def __init__(self, gamma: float = 1.0) -> None:
        self._init_params(gamma=gamma)

    def from_gram(
        self, b: np.ndarray, diag: np.ndarray | None = None, row_diag: np.ndarray | None = None
    ) -> np.ndarray:
        raise ShapeError(
            "LaplacianKernel cannot be computed from a Gram matrix; "
            "use pairwise() or pass a precomputed kernel matrix"
        )

    def pairwise(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        xm = as_matrix(x, name="x")
        ym = xm if y is None else as_matrix(y, dtype=xm.dtype, name="y")
        if xm.shape[1] != ym.shape[1]:
            raise ShapeError(
                f"feature dimension mismatch: {xm.shape[1]} vs {ym.shape[1]}"
            )
        # blocked L1 distances to bound the (n, m, d) broadcast temporary
        n = xm.shape[0]
        out = np.empty((n, ym.shape[0]), dtype=xm.dtype)
        block = max(1, int(2**22 // max(1, ym.shape[0] * xm.shape[1])))
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            l1 = np.abs(xm[lo:hi, None, :] - ym[None, :, :]).sum(axis=2)
            out[lo:hi] = np.exp(-self.gamma * l1)
        return out
