"""Kernel-function abstraction.

A :class:`Kernel` maps pairs of points to inner products in an implicit
feature space (the "kernel trick", Sec. 2.2).  Two evaluation paths exist:

* :meth:`Kernel.pairwise` — direct evaluation from the points themselves
  (reference path, used by tests and the CPU comparator);
* :meth:`Kernel.from_gram` — evaluation from the Gram matrix
  ``B = P P^T`` (and its diagonal), the path Popcorn uses on the GPU
  (Sec. 3.2) because ``B`` comes straight out of GEMM/SYRK.

Kernels whose value cannot be recovered from inner products alone (e.g.
the Laplacian kernel, which needs L1 distances) set
``gram_expressible = False`` and only support the direct path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .._typing import as_matrix
from ..errors import ConfigError, ShapeError
from ..params import ParamsProtocol
from .gram import panel_kernel_matrix

__all__ = ["Kernel", "positive_float"]


def positive_float(name: str):
    """A :class:`~repro.params.ParamSpec` converter for strictly positive
    floats (the common kernel-hyperparameter constraint)."""

    def convert(value) -> float:
        value = float(value)
        if value <= 0:
            raise ConfigError(f"{name} must be positive, got {value!r}")
        return value

    return convert


class Kernel(ParamsProtocol, ABC):
    """Abstract kernel function ``kappa(x, y)``.

    Attributes
    ----------
    gram_expressible:
        True when ``kappa(x, y)`` is a function of ``x.y``, ``x.x`` and
        ``y.y`` only, i.e. computable from the Gram matrix.
    flops_per_entry:
        Approximate FLOPs the elementwise transform spends per kernel
        matrix entry (charged by the device cost model).
    """

    gram_expressible: bool = True
    flops_per_entry: float = 4.0

    # ------------------------------------------------------------------
    # gram-matrix path (Popcorn's)
    # ------------------------------------------------------------------
    @abstractmethod
    def from_gram(
        self, b: np.ndarray, diag: np.ndarray | None = None, row_diag: np.ndarray | None = None
    ) -> np.ndarray:
        """Kernel matrix from the Gram matrix ``b`` (modified in place).

        ``diag`` must be the diagonal of the *full* Gram matrix when the
        kernel needs squared norms (Gaussian); elementwise kernels ignore
        it.  ``b`` may also be a row panel of the full Gram matrix, with
        ``row_diag`` the panel rows' slice of ``diag`` (it defaults to
        ``diag``): every entry goes through the same operations either
        way, so a panel's result is bitwise the whole matrix's rows.
        Returns the transformed array (same object when in place).
        """

    def needs_diag(self) -> bool:
        """Whether :meth:`from_gram` requires the Gram diagonal."""
        return False

    # ------------------------------------------------------------------
    # direct path (reference)
    # ------------------------------------------------------------------
    def pairwise(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """Dense kernel matrix ``K[i, j] = kappa(x_i, y_j)``.

        Default implementation goes through the Gram matrix; kernels that
        are not Gram-expressible must override.  ``K(x)`` builds its Gram
        in the kernel stage's row panels
        (:func:`repro.kernels.gram.panel_kernel_matrix`), so for a kernel
        that needs no diagonal it is bitwise the K a fit on ``x`` builds.
        """
        xm = as_matrix(x, name="x")
        ym = xm if y is None else as_matrix(y, dtype=xm.dtype, name="y")
        if xm.shape[1] != ym.shape[1]:
            raise ShapeError(
                f"feature dimension mismatch: {xm.shape[1]} vs {ym.shape[1]}"
            )
        if y is None and not self.needs_diag():
            return panel_kernel_matrix(xm, self)[0]
        b = panel_kernel_matrix(xm)[0] if y is None else xm @ ym.T
        if not self.needs_diag():
            return self.from_gram(b)
        dx = np.einsum("ij,ij->i", xm, xm)
        dy = dx if y is None else np.einsum("ij,ij->i", ym, ym)
        return self._from_cross_gram(b, dx, dy)

    def _from_cross_gram(
        self, b: np.ndarray, row_sq: np.ndarray, col_sq: np.ndarray
    ) -> np.ndarray:
        """Hook for diag-dependent kernels on rectangular Gram blocks."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        """Evaluate the kernel on a single pair of vectors."""
        xv = np.atleast_2d(np.asarray(x, dtype=np.float64))
        yv = np.atleast_2d(np.asarray(y, dtype=np.float64))
        return float(self.pairwise(xv, yv)[0, 0])
