"""Tests for the matrix-centric distance computation (paper Eq. 10).

The crown-jewel test verifies the *entire* algebraic chain of Sec. 3
against brute force in the explicit feature space: for the degree-2
polynomial kernel the feature map is finite, so
``||phi(p_i) - c_j||^2`` can be computed literally and compared.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import random_labels
from repro.core import distance_matrix_reference, popcorn_distances_host
from repro.engine import get_backend
from repro.errors import ShapeError
from repro.gpu import Device, A100_80GB
from repro.kernels import GaussianKernel, LinearKernel, PolynomialKernel, kernel_matrix


class TestAgainstExplicitFeatureSpace:
    def test_polynomial_kernel_trick_end_to_end(self, rng):
        """Eq. 10 == brute force in the explicit polynomial feature space."""
        n, k, d = 25, 4, 3
        x = rng.standard_normal((n, d))
        kern = PolynomialKernel(gamma=1.0, coef0=1.0, degree=2)
        labels = random_labels(n, k, rng)

        # brute force: map to feature space, form centroids, measure
        phi = kern.explicit_feature_map(x)  # (n, d_hat)
        centroids = np.zeros((k, phi.shape[1]))
        counts = np.bincount(labels, minlength=k)
        np.add.at(centroids, labels, phi)
        centroids /= np.maximum(counts, 1)[:, None]
        brute = ((phi[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)

        # matrix-centric: D = -2 K V^T + P~ + C~
        k_mat = kernel_matrix(x.astype(np.float64), kern)
        d_mat, _ = popcorn_distances_host(k_mat, labels, k)
        assert np.allclose(d_mat, brute, atol=1e-8)

    def test_linear_kernel_equals_input_space(self, rng):
        """Linear kernel: feature space == input space."""
        n, k = 20, 3
        x = rng.standard_normal((n, 4))
        labels = random_labels(n, k, rng)
        counts = np.bincount(labels, minlength=k)
        centroids = np.zeros((k, 4))
        np.add.at(centroids, labels, x)
        centroids /= np.maximum(counts, 1)[:, None]
        brute = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        k_mat = x @ x.T
        d_mat, _ = popcorn_distances_host(k_mat, labels, k)
        assert np.allclose(d_mat, brute, atol=1e-8)


class TestHostPipeline:
    @pytest.mark.parametrize(
        "kern",
        [LinearKernel(), PolynomialKernel(), GaussianKernel(gamma=0.5)],
        ids=["linear", "poly", "gauss"],
    )
    def test_matches_reference(self, rng, kern):
        n, k = 30, 5
        x = rng.standard_normal((n, 4))
        k_mat = kernel_matrix(x.astype(np.float64), kern)
        labels = random_labels(n, k, rng)
        ref = distance_matrix_reference(k_mat, labels, k)
        got, v = popcorn_distances_host(k_mat, labels, k)
        assert np.allclose(got, ref, atol=1e-7)
        assert v.shape == (k, n)

    def test_empty_cluster_distance_is_point_norm(self, rng):
        """With C~_j = 0 for an empty cluster, D_ij = K_ii."""
        n, k = 10, 3
        x = rng.standard_normal((n, 2))
        k_mat = x @ x.T
        labels = np.zeros(n, dtype=np.int32)  # clusters 1, 2 empty
        labels[5:] = 1
        got, _ = popcorn_distances_host(k_mat, labels, k)
        assert np.allclose(got[:, 2], np.diagonal(k_mat), atol=1e-6)

    def test_reference_rejects_nonsquare(self, rng):
        with pytest.raises(ShapeError):
            distance_matrix_reference(rng.standard_normal((3, 4)), np.zeros(3, dtype=np.int32), 2)


class TestDeviceStep:
    """The device backend's Popcorn step: the fused host numerics plus
    the Alg. 2 lines 7-10 launches, with no per-step device allocation."""

    @staticmethod
    def _device(k_mat, k):
        backend = get_backend("device")
        state = backend.begin(n_clusters=k, dtype=k_mat.dtype, device=Device(A100_80GB))
        backend.load_kernel_matrix(state, k_mat)
        return backend, state

    def test_matches_host_pipeline(self, rng):
        n, k = 24, 4
        x = rng.standard_normal((n, 3))
        kern = PolynomialKernel()
        k_mat = kernel_matrix(x.astype(np.float64), kern)
        labels = random_labels(n, k, rng)

        backend, state = self._device(k_mat, k)
        step = backend.popcorn_step(state, labels)
        host_d, _ = popcorn_distances_host(k_mat, labels, k)
        want = np.argmin(host_d, axis=1)
        assert np.array_equal(backend.argmin(state, step), want)
        assert np.array_equal(step.assigned(want), host_d[np.arange(n), want])
        assert np.allclose(step.assigned(labels), host_d[np.arange(n), labels], atol=1e-8)

    def test_launch_sequence(self, rng):
        """The step issues exactly the Alg. 2 lines 7-10 launches."""
        n, k = 16, 2
        x = rng.standard_normal((n, 2))
        backend, state = self._device((x @ x.T).astype(np.float64), k)
        state.device.profiler.reset()
        backend.popcorn_step(state, random_labels(n, k, rng))
        names = [l.name for l in state.device.profiler.launches]
        assert names == [
            "custom.v_build",
            "cusparse.spmm",
            "custom.z_gather",
            "cusparse.spmv",
            "custom.d_add",
        ]

    def test_buffers_freed_cleanly(self, rng):
        n, k = 12, 3
        x = rng.standard_normal((n, 2))
        backend, state = self._device((x @ x.T).astype(np.float64), k)
        dev = state.device
        before = dev.allocated_bytes
        # K and P~ stay held for the fit; a step allocates nothing more
        assert before == (n * n + n) * 8
        backend.popcorn_step(state, random_labels(n, k, rng))
        assert dev.allocated_bytes == before
        backend.finish(state)
        assert dev.allocated_bytes == 0


class TestDistanceProperties:
    @given(st.integers(2, 6), st.integers(10, 40), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_own_centroid_not_farther_than_reference_says(self, k, n, seed):
        """D is a true squared-distance matrix: non-negative up to round-off
        and exactly matching the brute-force reference."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3))
        k_mat = x @ x.T
        labels = rng.integers(0, k, n).astype(np.int32)
        got, _ = popcorn_distances_host(k_mat, labels, k)
        ref = distance_matrix_reference(k_mat, labels, k)
        assert np.allclose(got, ref, atol=1e-7)
        assert got.min() > -1e-7
