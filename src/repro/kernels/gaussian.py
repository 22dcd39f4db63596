"""Gaussian (RBF) kernel: ``kappa(x, y) = exp(-gamma ||x - y||^2 / sigma^2)``.

This matches the paper's parameterisation (Sec. 3.2), which carries both a
``gamma`` and a ``sigma^2``; conventional RBF usage sets ``sigma = 1`` and
folds everything into gamma.  Computed from the Gram matrix via the
expansion ``||x - y||^2 = x.x - 2 x.y + y.y`` (paper Eq. 12).
"""

from __future__ import annotations

import numpy as np

from ..params import ParamSpec
from .base import Kernel, positive_float

__all__ = ["GaussianKernel"]


class GaussianKernel(Kernel):
    """The radial basis function kernel of paper Eq. 12."""

    flops_per_entry = 8.0

    _params = (
        ParamSpec("gamma", default=1.0, convert=positive_float("gamma")),
        ParamSpec("sigma2", default=1.0, convert=positive_float("sigma2")),
    )

    def __init__(self, gamma: float = 1.0, sigma2: float = 1.0) -> None:
        self._init_params(gamma=gamma, sigma2=sigma2)

    def needs_diag(self) -> bool:
        return True

    @property
    def _scale(self) -> float:
        return self.gamma / self.sigma2

    def from_gram(
        self, b: np.ndarray, diag: np.ndarray | None = None, row_diag: np.ndarray | None = None
    ) -> np.ndarray:
        if diag is None:
            diag = np.diagonal(b).copy()
        if row_diag is None:
            row_diag = diag
        # ||x_i - x_j||^2 = B_ii - 2 B_ij + B_jj (Eq. 12), fused in place
        s = b.dtype.type(self._scale)
        b *= b.dtype.type(-2.0)
        b += row_diag[:, None]
        b += diag[None, :]
        b *= -s
        np.exp(b, out=b)
        return b

    def _from_cross_gram(
        self, b: np.ndarray, row_sq: np.ndarray, col_sq: np.ndarray
    ) -> np.ndarray:
        s = b.dtype.type(self._scale)
        b *= b.dtype.type(-2.0)
        b += row_sq[:, None].astype(b.dtype)
        b += col_sq[None, :].astype(b.dtype)
        # guard tiny negative round-off before scaling
        np.maximum(b, 0, out=b)
        b *= -s
        np.exp(b, out=b)
        return b
