"""Tests for the cosine and rational-quadratic kernels."""

import numpy as np
import pytest

from repro.core import PopcornKernelKMeans
from repro.engine import get_backend
from repro.errors import ConfigError
from repro.gpu import Device, A100_80GB
from repro.kernels import (
    CosineKernel,
    GaussianKernel,
    RationalQuadraticKernel,
    kernel_by_name,
)


class TestCosine:
    def test_matches_definition(self, rng):
        x = rng.standard_normal((10, 4))
        k = CosineKernel().pairwise(x)
        norms = np.linalg.norm(x, axis=1)
        want = (x @ x.T) / np.outer(norms, norms)
        assert np.allclose(k, want, atol=1e-6)

    def test_diagonal_is_one(self, rng):
        x = rng.standard_normal((8, 3))
        assert np.allclose(np.diagonal(CosineKernel().pairwise(x)), 1.0, atol=1e-6)

    def test_bounded(self, rng):
        x = rng.standard_normal((12, 3)) * 100
        k = CosineKernel().pairwise(x)
        assert np.all(np.abs(k) <= 1.0)

    def test_scale_invariant(self, rng):
        x = rng.standard_normal((8, 3))
        k1 = CosineKernel().pairwise(x)
        k2 = CosineKernel().pairwise(7.5 * x)
        assert np.allclose(k1, k2, atol=1e-6)

    def test_zero_vector_safe(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        k = CosineKernel().pairwise(x)
        assert np.isfinite(k).all()
        assert k[0, 1] == 0.0

    def test_cross_kernel(self, rng):
        x, y = rng.standard_normal((5, 3)), rng.standard_normal((7, 3))
        k = CosineKernel().pairwise(x, y)
        want = (x @ y.T) / np.outer(np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1))
        assert np.allclose(k, want, atol=1e-6)

    def test_device_pipeline(self, rng):
        """Rides the same GEMM/SYRK + transform path unchanged."""
        x = rng.standard_normal((20, 4)).astype(np.float64)
        backend = get_backend("device")
        state = backend.begin(n_clusters=2, dtype=np.float64, device=Device(A100_80GB))
        backend.compute_kernel_matrix(state, x, CosineKernel())
        assert np.allclose(state.k_host, CosineKernel().pairwise(x), atol=1e-8)
        assert np.allclose(state.p_norms_host, 1.0, atol=1e-8)
        backend.finish(state)


class TestRationalQuadratic:
    def test_matches_definition(self, rng):
        x = rng.standard_normal((9, 3))
        kern = RationalQuadraticKernel(alpha=1.5, length_scale=0.8)
        sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        want = (1.0 + sq / (2 * 1.5 * 0.8**2)) ** (-1.5)
        assert np.allclose(kern.pairwise(x), want, atol=1e-6)

    def test_diagonal_is_one(self, rng):
        x = rng.standard_normal((8, 3))
        k = RationalQuadraticKernel().pairwise(x)
        assert np.allclose(np.diagonal(k), 1.0, atol=1e-6)

    def test_psd(self, rng):
        x = rng.standard_normal((15, 3))
        k = RationalQuadraticKernel(alpha=2.0).pairwise(x.astype(np.float64))
        assert np.linalg.eigvalsh(k).min() > -1e-9

    def test_approaches_gaussian_at_large_alpha(self, rng):
        x = rng.standard_normal((10, 3))
        rq = RationalQuadraticKernel(alpha=1e6, length_scale=1.0).pairwise(x)
        # Gaussian with gamma/sigma2 = 1/(2 l^2) = 0.5
        gauss = GaussianKernel(gamma=0.5, sigma2=1.0).pairwise(x)
        assert np.allclose(rq, gauss, atol=1e-4)

    def test_heavier_tail_than_gaussian(self):
        far = np.array([[0.0], [5.0]])
        rq = RationalQuadraticKernel(alpha=1.0, length_scale=1.0).pairwise(far)[0, 1]
        gauss = GaussianKernel(gamma=0.5).pairwise(far)[0, 1]
        assert rq > gauss

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            RationalQuadraticKernel(alpha=0)
        with pytest.raises(ConfigError):
            RationalQuadraticKernel(length_scale=-1)


class TestIntegration:
    def test_by_name(self):
        assert isinstance(kernel_by_name("cosine"), CosineKernel)
        assert isinstance(kernel_by_name("rational-quadratic"), RationalQuadraticKernel)

    @pytest.mark.parametrize("name", ["cosine", "rational-quadratic"])
    def test_popcorn_fit_runs(self, rng, name, blobs):
        x, _, k = blobs
        m = PopcornKernelKMeans(k, kernel=name, seed=0, max_iter=20).fit(x)
        assert m.labels_.shape == (x.shape[0],)
        h = m.objective_history_
        assert all(h[i + 1] <= h[i] + 1e-4 * abs(h[i]) for i in range(len(h) - 1))

    def test_cosine_clusters_by_direction(self, rng):
        """Cosine kernel clusters rays by angle, ignoring magnitude."""
        angles = np.concatenate([rng.uniform(0, 0.3, 40), rng.uniform(1.5, 1.8, 40)])
        radii = rng.uniform(0.5, 5.0, 80)
        x = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        truth = (angles > 1.0).astype(np.int32)
        m = PopcornKernelKMeans(2, kernel="cosine", seed=0, init="k-means++",
                                max_iter=50, dtype=np.float64).fit(x)
        from repro.eval import adjusted_rand_index

        assert adjusted_rand_index(m.labels_, truth) == 1.0
