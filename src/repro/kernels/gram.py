"""Kernel-matrix computation (paper Sec. 3.2 / 4.2, Alg. 2 lines 1-2).

The paper builds K with one GEMM (or SYRK) and then a separate
elementwise kernel pass.  On a CPU the fresh n x n product has left the
cache long before that pass reads it back, so here K is built in row
panels of about 2 MiB (:func:`row_panels`), with the epilogue fusion a
cuBLASLt/CUTLASS GEMM applies on a GPU:

* each panel is one GEMM, ``x[r0:r1] @ x.T``, written straight into K;
* the kernel's elementwise transform runs on the panel while it is
  still in cache (kernels that need the Gram diagonal run every Gram
  panel first, then transform panel by panel with the diagonal's row
  slice);
* the panel is folded into K's column maxima and minima, so K's column
  max-abs, which the fit's certified GEMM bound reads, costs no second
  pass over K.

K is the only n x n buffer.  Every element goes through the same
operations in the same order as in a whole-matrix transform of the same
panelled Gram, so blocking the transform changes no bit.  A panelled
GEMM is not bitwise a single ``x @ x.T`` on every shape and BLAS build
(it agrees within rounding), so every consumer builds K here: the
estimators' kernel stage on every backend
(:func:`repro.engine.backends._host_kernel_matrix`) and
:meth:`~repro.kernels.base.Kernel.pairwise`.

* :func:`gram_matrix` / :func:`kernel_matrix` — the host reference path
  used by the CPU comparator and the tests.
* :func:`panel_kernel_matrix` — the builder, with K's column max-abs.
* :func:`column_maxabs` — the same statistic of a precomputed K, in one
  blocked pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from .._typing import as_matrix

if TYPE_CHECKING:
    from .base import Kernel

__all__ = [
    "column_maxabs",
    "gram_matrix",
    "kernel_matrix",
    "panel_kernel_matrix",
    "row_panels",
]

#: bytes of K rows per panel: the panel's GEMM output, its transform and
#: its column statistics stay within a 2 MiB L2 (64 rows at n=8000 fp32)
_PANEL_BYTES = 2 << 20

#: panel heights are kept to multiples of a GEMM micro-kernel's row unroll
_ROW_ALIGN = 8


def row_panels(n: int, itemsize: int) -> List[Tuple[int, int]]:
    """Row ranges ``[r0, r1)`` of an ``n x n`` matrix's panels of ``_PANEL_BYTES``.

    A tail shorter than half a panel joins the panel before it, so no
    panel degenerates into a one-row GEMV.
    """
    rows = max(1, _PANEL_BYTES // max(1, n * itemsize))
    if rows > _ROW_ALIGN:
        rows -= rows % _ROW_ALIGN
    bounds = list(range(0, n, rows)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < rows // 2:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _fold_column_range(panel: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Fold a row panel into running column maxima ``hi`` and minima ``lo``."""
    np.maximum(hi, panel.max(axis=0), out=hi)
    np.minimum(lo, panel.min(axis=0), out=lo)


def _column_range(n: int, dtype) -> Tuple[np.ndarray, np.ndarray]:
    return np.full(n, -np.inf, dtype=dtype), np.full(n, np.inf, dtype=dtype)


def column_maxabs(km: np.ndarray) -> np.ndarray:
    """``max_l |K[l, i]|`` per column of a square K, in K's dtype.

    One blocked pass with no ``|K|`` temporary, bitwise
    ``np.maximum(K.max(0), -K.min(0))`` (NaN propagates).
    """
    n = km.shape[0]
    hi, lo = _column_range(n, km.dtype)
    for r0, r1 in row_panels(n, km.itemsize):
        _fold_column_range(km[r0:r1], hi, lo)
    return np.maximum(hi, -lo)


def _epilogue(kernel, panel, hi, lo, diag=None, row_diag=None) -> None:
    """Transform a Gram row panel in place, then fold it into ``hi``/``lo``."""
    if kernel is not None:
        if diag is None:
            out = kernel.from_gram(panel)
        else:
            out = kernel.from_gram(panel, diag, row_diag=row_diag)
        if out is not panel:
            panel[...] = out
    _fold_column_range(panel, hi, lo)


def panel_kernel_matrix(
    x: np.ndarray, kernel: Optional["Kernel"] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """``K = kappa(x, x)`` built in row panels, and its column max-abs.

    ``kernel=None`` builds the Gram matrix ``x x^T`` itself.  Returns
    ``(K, maxabs)``: K C-contiguous in ``x``'s dtype, ``maxabs`` the
    :func:`column_maxabs` of K, folded in while each panel was in cache.
    """
    n = x.shape[0]
    km = np.empty((n, n), dtype=x.dtype)
    hi, lo = _column_range(n, km.dtype)
    panels = row_panels(n, km.itemsize)
    xt = x.T
    two_pass = kernel is not None and kernel.needs_diag()
    for r0, r1 in panels:
        np.matmul(x[r0:r1], xt, out=km[r0:r1])
        if not two_pass:
            _epilogue(kernel, km[r0:r1], hi, lo)
    if two_pass:
        # the transform reads the whole Gram diagonal: every panel first
        diag = np.diagonal(km).copy()
        for r0, r1 in panels:
            _epilogue(kernel, km[r0:r1], hi, lo, diag, diag[r0:r1])
    return km, np.maximum(hi, -lo)


def gram_matrix(x: np.ndarray) -> np.ndarray:
    """Host-side Gram matrix ``B = X X^T``, built in the kernel stage's row panels."""
    return panel_kernel_matrix(as_matrix(x, name="x"))[0]


def kernel_matrix(x: np.ndarray, kernel: "Kernel") -> np.ndarray:
    """Host-side kernel matrix ``K[i, j] = kappa(x_i, x_j)``."""
    return kernel.pairwise(x)
