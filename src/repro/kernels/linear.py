"""Linear kernel: ``kappa(x, y) = x . y``.

With the linear kernel, Kernel K-means degenerates to classical K-means
(the feature map is the identity), which makes it the exactness anchor for
tests: Popcorn with a linear kernel must match Lloyd's algorithm.
"""

from __future__ import annotations

import numpy as np

from .base import Kernel

__all__ = ["LinearKernel"]


class LinearKernel(Kernel):
    """The identity-feature-map kernel."""

    flops_per_entry = 1.0

    def from_gram(
        self, b: np.ndarray, diag: np.ndarray | None = None, row_diag: np.ndarray | None = None
    ) -> np.ndarray:
        return b
