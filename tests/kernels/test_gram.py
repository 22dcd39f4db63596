"""Tests for the Gram/kernel-matrix pipeline (Sec. 3.2 / 4.2)."""

import numpy as np
import pytest

from repro import PopcornKernelKMeans
from repro.engine import get_backend
from repro.engine.backends import _host_kernel_matrix, syrk_mirror
from repro.errors import ConfigError, ShapeError
from repro.kernels import GaussianKernel, LaplacianKernel, gram_matrix, kernel_matrix


class TestHostPath:
    def test_gram_matrix(self, rng):
        x = rng.standard_normal((8, 3))
        assert np.allclose(gram_matrix(x), x @ x.T)

    def test_kernel_matrix_poly(self, rng, poly_kernel):
        x = rng.standard_normal((8, 3))
        assert np.allclose(kernel_matrix(x, poly_kernel), (x @ x.T + 1) ** 2, rtol=1e-5)


def _device_kernel_stage(device, x, kernel, method="auto", threshold=None):
    """Run the device backend's kernel stage; returns its EngineState."""
    backend = get_backend("device")
    state = backend.begin(n_clusters=2, dtype=x.dtype, device=device)
    backend.compute_kernel_matrix(state, x, kernel, method=method, threshold=threshold)
    return state


class TestDevicePath:
    """The device backend's kernel stage: the shared host numerics
    (:func:`repro.engine.backends._host_kernel_matrix`) plus modeled launches."""

    @pytest.mark.parametrize("method", ["gemm", "syrk"])
    def test_matches_host(self, device, rng, poly_kernel, method):
        x = rng.standard_normal((20, 4)).astype(np.float64)
        state = _device_kernel_stage(device, x, poly_kernel, method=method)
        assert state.gram_method == method
        assert np.allclose(state.k_host, kernel_matrix(x, poly_kernel), rtol=1e-6)
        assert np.array_equal(state.p_norms_host, np.diagonal(state.k_host))

    def test_gemm_equals_syrk(self, rng, poly_kernel):
        """Sec. 4.2: both routines produce correct (identical) output."""
        x = rng.standard_normal((15, 6)).astype(np.float64)
        k1, _ = _host_kernel_matrix(x, poly_kernel, "gemm")
        k2, _ = _host_kernel_matrix(x, poly_kernel, "syrk")
        assert np.allclose(k1, k2, rtol=1e-10)

    def test_syrk_mirror_is_exactly_symmetric(self, rng):
        x = rng.standard_normal((12, 5)).astype(np.float64)
        b = x @ x.T
        out = syrk_mirror(b)
        assert np.allclose(out, b)
        assert np.array_equal(out, out.T)
        # the lower triangle (what SYRK writes) is kept bit for bit
        assert np.array_equal(np.tril(out), np.tril(b))

    def test_gaussian_needs_diag_snapshot(self, device, rng):
        """The Gaussian transform must read diag(B) from before the transform."""
        kern = GaussianKernel(gamma=0.7)
        x = rng.standard_normal((12, 3)).astype(np.float64)
        state = _device_kernel_stage(device, x, kern)
        assert np.allclose(state.k_host, kern.pairwise(x), atol=1e-8)
        assert np.allclose(state.p_norms_host, 1.0, atol=1e-8)

    def test_auto_dispatch_large_ratio_uses_gemm(self, device, rng, poly_kernel):
        x = rng.standard_normal((300, 2)).astype(np.float32)  # n/d = 150 > 100
        assert _device_kernel_stage(device, x, poly_kernel).gram_method == "gemm"

    def test_auto_dispatch_small_ratio_uses_syrk(self, device, rng, poly_kernel):
        x = rng.standard_normal((50, 10)).astype(np.float32)  # n/d = 5 < 100
        assert _device_kernel_stage(device, x, poly_kernel).gram_method == "syrk"

    def test_custom_threshold(self, device, rng, poly_kernel):
        x = rng.standard_normal((50, 10)).astype(np.float32)  # ratio 5
        state = _device_kernel_stage(device, x, poly_kernel, threshold=2.0)
        assert state.gram_method == "gemm"

    def test_unknown_method_rejected(self, device, rng, poly_kernel):
        x = rng.standard_normal((10, 3)).astype(np.float32)
        with pytest.raises(ConfigError, match="unknown gram method"):
            _device_kernel_stage(device, x, poly_kernel, method="magic")

    @pytest.mark.parametrize("backend", ["device", "host"])
    def test_auto_dispatch_reaches_the_estimator(self, rng, backend):
        x = rng.standard_normal((300, 2)).astype(np.float32)  # n/d = 150 > 100
        m = PopcornKernelKMeans(2, backend=backend, max_iter=1).fit(x)
        assert m.gram_method_ == "gemm"
        m = PopcornKernelKMeans(2, backend=backend, max_iter=1).fit(x[:50])
        assert m.gram_method_ == "syrk"  # n/d = 25 < 100

    def test_non_gram_kernel_rejected(self, device, rng):
        x = rng.standard_normal((10, 3)).astype(np.float32)
        with pytest.raises(ShapeError, match="Gram-expressible"):
            _device_kernel_stage(device, x, LaplacianKernel())
        with pytest.raises(ShapeError, match="Gram-expressible"):
            PopcornKernelKMeans(2, kernel=LaplacianKernel(), backend="host").fit(x)

    def test_launches_recorded(self, device, rng, poly_kernel):
        x = rng.standard_normal((10, 3)).astype(np.float32)
        _device_kernel_stage(device, x, poly_kernel, method="syrk")
        names = [ln.name for ln in device.profiler.launches if ln.phase == "kernel_matrix"]
        assert names == [
            "cublas.syrk",
            "custom.triangular_mirror",
            "thrust.transform",
            "custom.diag_extract",
        ]
