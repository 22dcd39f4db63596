"""Tests for the Gram/kernel-matrix pipeline (Sec. 3.2 / 4.2)."""

import tracemalloc

import numpy as np
import pytest

from repro import PopcornKernelKMeans
from repro.engine import get_backend
from repro.engine.backends import _host_kernel_matrix, syrk_mirror
from repro.engine.reduction import KernelOperand
from repro.errors import ConfigError, ShapeError
from repro.kernels import (
    CosineKernel,
    GaussianKernel,
    LaplacianKernel,
    LinearKernel,
    PolynomialKernel,
    RationalQuadraticKernel,
    SigmoidKernel,
    gram_matrix,
    kernel_matrix,
)
from repro.kernels.gram import column_maxabs, panel_kernel_matrix, row_panels

#: every Gram-expressible kernel, by id
GRAM_KERNELS = {
    "linear": LinearKernel(),
    "poly2": PolynomialKernel(gamma=0.5, coef0=1.0, degree=2),
    "poly3": PolynomialKernel(gamma=0.5, coef0=1.0, degree=3),
    "sigmoid": SigmoidKernel(gamma=0.1, coef0=0.2),
    "gaussian": GaussianKernel(gamma=0.3),
    "cosine": CosineKernel(),
    "rq": RationalQuadraticKernel(alpha=1.5, length_scale=2.0),
}
NO_DIAG = [name for name, kern in GRAM_KERNELS.items() if not kern.needs_diag()]


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


def _whole_matrix_transform(kernel, gram):
    """The kernel's transform applied to a whole Gram matrix at once."""
    b = gram.copy()
    if kernel.needs_diag():
        return kernel.from_gram(b, np.diagonal(gram).copy())
    return kernel.from_gram(b)


def _folded_reference(km):
    return np.maximum(km.max(axis=0), -km.min(axis=0))


class TestRowPanels:
    def test_cache_budget_height(self):
        """About 2 MiB of K rows: 64 rows at n=8000 fp32, 32 at fp64."""
        assert row_panels(8000, 4) == [(r, r + 64) for r in range(0, 8000, 64)]
        assert {r1 - r0 for r0, r1 in row_panels(8000, 8)} == {32}

    @pytest.mark.parametrize("n", [0, 1, 7, 500, 1000, 8010, 8031, 20000])
    @pytest.mark.parametrize("itemsize", [4, 8])
    def test_panels_tile_the_rows(self, n, itemsize):
        panels = row_panels(n, itemsize)
        flat = [r for r0, r1 in panels for r in range(r0, r1)]
        assert flat == list(range(n))
        heights = [r1 - r0 for r0, r1 in panels]
        if len(heights) > 1:
            # a short tail joins the panel before it: no one-row GEMV
            assert min(heights) >= heights[0] // 2

    def test_short_tail_merges(self):
        panels = row_panels(8010, 4)
        assert panels[-1] == (7936, 8010)
        assert len(panels) == 125


class TestPanelBuilder:
    """K built in row panels with the transform and column max-abs fused in."""

    @pytest.mark.parametrize("n", [1, 37, 1000], ids=["n1", "one-panel", "ragged"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("name", list(GRAM_KERNELS))
    def test_bitwise_the_whole_matrix_transform(self, rng, name, dtype, n):
        """Blocking the transform changes no bit: K equals the whole-matrix
        transform of the same panelled Gram (n=1000 is several panels,
        not a multiple of the panel height, for both dtypes)."""
        kernel = GRAM_KERNELS[name]
        x = rng.standard_normal((n, 6)).astype(dtype)
        if n == 1000:
            assert len(row_panels(n, x.itemsize)) > 1
            assert n % (row_panels(n, x.itemsize)[0][1]) != 0
        km, maxabs = panel_kernel_matrix(x, kernel)
        assert km.dtype == dtype and km.flags.c_contiguous
        ref = _whole_matrix_transform(kernel, gram_matrix(x))
        assert km.tobytes() == ref.tobytes()
        assert maxabs.dtype == dtype
        assert maxabs.tobytes() == _folded_reference(km).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("name", list(GRAM_KERNELS))
    def test_close_to_a_single_gemm(self, rng, name, dtype):
        """Not bitwise a single ``x @ x.T`` on every shape, but within rounding."""
        kernel = GRAM_KERNELS[name]
        x = rng.standard_normal((700, 5)).astype(dtype)
        km, _ = panel_kernel_matrix(x, kernel)
        ref = _whole_matrix_transform(kernel, x @ x.T)
        tol = 1e-4 if dtype == np.float32 else 1e-11
        np.testing.assert_allclose(km, ref, rtol=tol, atol=tol)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("name", ["gaussian", "cosine", "rq"])
    def test_from_gram_snapshots_its_diagonal(self, rng, name, n):
        """Without ``diag``, the transform reads a copy of B's diagonal, also
        for a 1 x 1 Gram, whose diagonal view is contiguous."""
        kernel = GRAM_KERNELS[name]
        x = rng.standard_normal((n, 3))
        gram = x @ x.T
        ref = kernel.from_gram(gram.copy(), np.diagonal(gram).copy())
        assert kernel.from_gram(gram.copy()).tobytes() == ref.tobytes()

    def test_gram_without_kernel(self, rng):
        x = rng.standard_normal((300, 4))
        km, maxabs = panel_kernel_matrix(x)
        np.testing.assert_allclose(km, x @ x.T, rtol=1e-12, atol=1e-12)
        assert km.tobytes() == gram_matrix(x).tobytes()
        assert maxabs.tobytes() == _folded_reference(km).tobytes()

    def test_k_is_the_only_square_buffer(self, rng):
        """No ``x @ x.T`` temporary and no whole-K copy: the peak traced
        allocation stays within K's bytes plus a small slack."""
        x = rng.standard_normal((1200, 8))
        kernel = GRAM_KERNELS["gaussian"]
        k_bytes = 1200 * 1200 * 8
        tracemalloc.start()
        try:
            panel_kernel_matrix(x, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert k_bytes <= peak < 1.25 * k_bytes


class TestColumnMaxAbs:
    """K's column max-abs: folded per panel, bitwise the two-reduction form."""

    @staticmethod
    def _k_with_specials(rng, dtype):
        km = rng.standard_normal((900, 900)).astype(dtype) * 100
        km[5, 3] = np.nan
        km[7, 10] = np.inf
        km[700, 10] = -np.inf
        km[800, 11] = -np.inf
        km[:, 12] = -0.0
        km[:, 13] = 1e30
        return km

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_blocked_pass_equals_max_and_min(self, rng, dtype):
        km = self._k_with_specials(rng, dtype)
        got = column_maxabs(km)
        np.testing.assert_array_equal(got, _folded_reference(km))
        assert np.isnan(got[3]) and got[10] == np.inf and got[11] == np.inf

    def test_operand_narrower_than_k(self, rng):
        """Rounding is monotone: the cast statistic is the cast K's statistic."""
        km = self._k_with_specials(rng, np.float64)
        km[20, 20] = 3.4e38 * 1.5  # overflows to inf in fp32
        with np.errstate(over="ignore"):
            op = KernelOperand(km, np.float32, column_maxabs(km))
            ref = _folded_reference(km.astype(np.float32)).astype(np.float64)
            np.testing.assert_array_equal(op.colmax, ref)
            np.testing.assert_array_equal(KernelOperand(km, np.float32).colmax, ref)

    @pytest.mark.parametrize("name", ["poly2", "gaussian"])
    def test_operand_of_a_built_k(self, rng, name):
        x = rng.standard_normal((500, 4))
        km, maxabs = panel_kernel_matrix(x, GRAM_KERNELS[name])
        for dt in (np.float64, np.float32):
            folded = KernelOperand(km, dt, maxabs).colmax
            assert folded.dtype == np.float64
            np.testing.assert_array_equal(folded, KernelOperand(km, dt).colmax)


def _stage(backend_name, x, kernel, device):
    """One backend's kernel stage on ``x``; returns its EngineState."""
    backend = get_backend(backend_name)
    dev = device if backend_name == "device" else None
    state = backend.begin(n_clusters=2, dtype=x.dtype, device=dev)
    backend.compute_kernel_matrix(state, x, kernel, method="gemm")
    return state


class TestOneBuilder:
    """Every backend and ``Kernel.pairwise`` build K through the same panels."""

    @pytest.mark.parametrize("backend", ["host", "device", "sharded:2"])
    @pytest.mark.parametrize("name", NO_DIAG)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_fit_k_is_pairwise(self, rng, device, backend, name, dtype):
        kernel = GRAM_KERNELS[name]
        x = rng.standard_normal((1000, 6)).astype(dtype)
        state = _stage(backend, x, kernel, device)
        assert state.k_host.tobytes() == kernel.pairwise(x).tobytes()
        # the fused statistics are the ones a precomputed K would get
        np.testing.assert_array_equal(
            state.kernel_operand.colmax, KernelOperand(state.k_host, dtype).colmax
        )

    @pytest.mark.parametrize("name", list(GRAM_KERNELS))
    def test_backends_agree_bitwise(self, rng, device, name):
        kernel = GRAM_KERNELS[name]
        x = rng.standard_normal((1000, 6)).astype(np.float32)
        ks = [_stage(b, x, kernel, device).k_host for b in ("host", "device", "sharded:2")]
        assert ks[0].tobytes() == ks[1].tobytes() == ks[2].tobytes()
        assert ks[0].tobytes() == panel_kernel_matrix(x, kernel)[0].tobytes()
