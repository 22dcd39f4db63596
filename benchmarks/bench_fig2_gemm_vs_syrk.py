"""Figure 2 — GEMM vs SYRK kernel-matrix computation (registry shim).

The paper sweeps n in {50000, 10000} x d in {100, 1000, 10000, 100000}
and finds GEMM up to 3.2x faster at large n/d, SYRK up to 2.4x faster at
small n/d, with the crossover near n/d = 100.  The registry entry
regenerates the modeled series at the paper's sizes; the shim *executes*
both strategies at a laptop scale to verify they produce identical
kernel matrices.
"""

import numpy as np

from paperfig import run_registered
from repro.engine.backends import _host_kernel_matrix
from repro.kernels import PolynomialKernel


def test_fig2_gemm_vs_syrk(benchmark):
    run_registered("fig2")

    # executing cross-check at laptop scale: identical K from both paths
    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, 32)).astype(np.float64)

    def both():
        k1, _ = _host_kernel_matrix(x, PolynomialKernel(), "gemm")
        k2, _ = _host_kernel_matrix(x, PolynomialKernel(), "syrk")
        return k1, k2

    k1, k2 = benchmark(both)
    assert np.allclose(k1, k2, rtol=1e-10)
