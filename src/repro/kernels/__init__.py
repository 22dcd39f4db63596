"""Kernel functions and kernel-matrix computation.

Provides the kernels the paper's artifact exposes (linear, polynomial,
sigmoid) plus the Gaussian kernel of Sec. 3.2 and a non-Gram-expressible
Laplacian, and the GEMM/SYRK Gram-matrix pipeline with dynamic dispatch.
"""

from ..errors import ConfigError
from .base import Kernel
from .dispatch import choose_gram_method, model_gram_times, tune_threshold
from .extra import CosineKernel, RationalQuadraticKernel
from .gaussian import GaussianKernel
from .gram import gram_matrix, kernel_matrix
from .laplacian import LaplacianKernel
from .linear import LinearKernel
from .polynomial import PolynomialKernel
from .sigmoid import SigmoidKernel

__all__ = [
    "Kernel",
    "LinearKernel",
    "PolynomialKernel",
    "GaussianKernel",
    "SigmoidKernel",
    "LaplacianKernel",
    "CosineKernel",
    "RationalQuadraticKernel",
    "kernel_by_name",
    "choose_gram_method",
    "model_gram_times",
    "tune_threshold",
    "gram_matrix",
    "kernel_matrix",
]

_BY_NAME = {
    "linear": LinearKernel,
    "polynomial": PolynomialKernel,
    "gaussian": GaussianKernel,
    "rbf": GaussianKernel,
    "sigmoid": SigmoidKernel,
    "laplacian": LaplacianKernel,
    "cosine": CosineKernel,
    "rational-quadratic": RationalQuadraticKernel,
}


def kernel_by_name(name: str, **params) -> Kernel:
    """Instantiate a kernel from its CLI name (artifact ``-f`` flag)."""
    try:
        cls = _BY_NAME[name.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown kernel {name!r}; available: {sorted(_BY_NAME)}"
        ) from None
    return cls(**params)
