"""The library stages the device backend models: shared numerics + launches.

The device backend no longer simulates cuBLAS/cuSPARSE/thrust/RAFT and
the hand-written kernels through shims of its own.  Each library call of
the paper is now one piece of the shared host numerics (the kernel-matrix
stage of :mod:`repro.engine.backends`, the :mod:`repro.sparse` kernels
the fused reduction runs, the baseline's three kernels) plus the modeled
launch :mod:`repro.modeling` charges for it.  These tests pin both halves
per library call.
"""

import numpy as np
import pytest

from repro import PopcornKernelKMeans
from repro.baselines import BaselineCUDAKernelKMeans
from repro.core import distance_matrix_reference, gather_z
from repro.engine import DistanceStep, fused_popcorn_argmin, get_backend
from repro.engine.backends import (
    _host_kernel_matrix,
    _resolve_gram_method,
    baseline_distances,
)
from repro.errors import ConfigError, ShapeError
from repro.gpu import A100_80GB
from repro.kernels import LinearKernel
from repro.modeling import popcorn_step_launches
from repro.sparse import random_csr, selection_matrix, spgemm, spmm, spmv

LINEAR = LinearKernel()


def _device_state(device, k, dtype=np.float64, **kw):
    backend = get_backend("device")
    return backend, backend.begin(n_clusters=k, dtype=dtype, device=device, **kw)


def _step_names(n, k):
    return [ln.name for _, ln in popcorn_step_launches(A100_80GB, n, k)]


class TestBlas:
    def test_gemm_gram_numerics(self, rng):
        x = rng.standard_normal((12, 5)).astype(np.float64)
        km, _ = _host_kernel_matrix(x, LINEAR, "gemm")
        assert np.allclose(km, x @ x.T)

    def test_syrk_gram_numerics(self, rng):
        x = rng.standard_normal((12, 5)).astype(np.float64)
        km, _ = _host_kernel_matrix(x, LINEAR, "syrk")
        assert np.allclose(km, x @ x.T)
        # result must be exactly symmetric (mirror copy)
        assert np.array_equal(km, km.T)

    def test_syrk_records_two_launches(self, device, rng):
        x = rng.standard_normal((8, 3)).astype(np.float32)
        backend, state = _device_state(device, 2, dtype=np.float32)
        backend.compute_kernel_matrix(state, x, LINEAR, method="syrk")
        assert device.profiler.count_of("cublas.syrk") == 1
        assert device.profiler.count_of("custom.triangular_mirror") == 1
        backend.finish(state)

    def test_gram_dispatch_helper(self, rng):
        x = rng.standard_normal((6, 2)).astype(np.float32)
        gemm, _ = _host_kernel_matrix(x, LINEAR, "gemm")
        syrk, _ = _host_kernel_matrix(x, LINEAR, "syrk")
        assert np.allclose(gemm, syrk, rtol=1e-5)

    def test_gram_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown gram method"):
            _resolve_gram_method("magic", None, 4, 2, tiled=False)

    def test_rejects_1d_buffer(self):
        with pytest.raises(ShapeError):
            PopcornKernelKMeans(2).fit(np.ones(5, dtype=np.float32))


class TestCusparseShims:
    def test_spmm_kvt_matches_dense(self, rng):
        n, k = 20, 4
        x = rng.standard_normal((n, 3))
        k_mat = (x @ x.T).astype(np.float64)
        labels = rng.integers(0, k, n)
        v = selection_matrix(labels, k, dtype=np.float64)
        e = spmm(v, k_mat, alpha=-2.0).T
        assert np.allclose(e, -2.0 * k_mat @ v.to_dense().T, atol=1e-10)
        assert _step_names(n, k).count("cusparse.spmm") == 1

    def test_spmm_kvt_shape_check(self, rng):
        v = selection_matrix(rng.integers(0, 2, 10), 2)
        with pytest.raises(ShapeError):
            spmm(v, np.zeros((5, 5), dtype=np.float32))

    def test_spmv_matches_dense(self, rng):
        n, k = 15, 3
        labels = rng.integers(0, k, n)
        v = selection_matrix(labels, k, dtype=np.float64)
        z = rng.standard_normal(n)
        out = spmv(v, z, alpha=-0.5)
        assert np.allclose(out, -0.5 * v.to_dense() @ z)
        assert _step_names(n, k).count("cusparse.spmv") == 1

    def test_spmv_length_check(self, rng):
        v = selection_matrix(rng.integers(0, 2, 10), 2)
        with pytest.raises(ShapeError):
            spmv(v, np.ones(7, dtype=np.float32))

    def test_spgemm_matches_scipy(self, rng):
        a = random_csr(6, 8, 0.4, rng=rng, dtype=np.float64)
        b = random_csr(8, 5, 0.4, rng=rng, dtype=np.float64)
        want = (a.to_scipy() @ b.to_scipy()).toarray()
        assert np.allclose(spgemm(a, b).to_dense(), want)


class TestThrust:
    def test_bincount(self, device, rng):
        x = rng.standard_normal((30, 3)).astype(np.float32)
        m = BaselineCUDAKernelKMeans(
            3, device=device, seed=0, max_iter=2, check_convergence=False
        ).fit(x)
        counts = device.profiler.launches_of("thrust.reduce_counts")
        assert len(counts) == 2
        assert all(ln.phase == "argmin_update" for ln in counts)
        assert all(ln.meta == {"n": 30, "k": 3} for ln in counts)
        assert np.bincount(m.labels_, minlength=3).sum() == 30


class TestRaft:
    def test_argmin_rows(self, device, rng):
        d = rng.standard_normal((10, 4))
        backend, state = _device_state(device, 4)
        state.n = 10
        labels = backend.argmin(state, DistanceStep(d))
        assert np.array_equal(labels, np.argmin(d, axis=1))
        assert labels.dtype == np.int32
        assert device.profiler.count_of("raft.coalesced_reduction_argmin") == 1

    def test_argmin_tie_breaks_low(self, device):
        for backend_name in ("device", "host"):
            # materialised block: exact ties go to the lowest cluster index
            d = np.array([[1.0, 1.0, 2.0], [3.0, 0.5, 0.5]], dtype=np.float32)
            backend = get_backend(backend_name)
            dev = device if backend.needs_device else None
            state = backend.begin(n_clusters=3, dtype=np.float32, device=dev)
            state.n = 2
            assert backend.argmin(state, DistanceStep(d)).tolist() == [0, 1], backend_name
            # fused step on a constant kernel: every distance ties, label 0 wins
            km = np.ones((6, 6), dtype=np.float32)
            backend.load_kernel_matrix(state, km)
            step = backend.popcorn_step(state, np.array([2, 1, 0, 2, 1, 0], dtype=np.int32))
            assert backend.argmin(state, step).tolist() == [0] * 6, backend_name
            backend.finish(state)


class TestCustomKernels:
    def test_v_build(self, rng):
        labels = rng.integers(0, 3, 20).astype(np.int32)
        v = selection_matrix(labels, 3)
        assert v.shape == (3, 20)
        assert v.nnz == 20
        assert _step_names(20, 3).count("custom.v_build") == 1

    def test_z_gather(self, rng):
        e = rng.standard_normal((8, 3))
        labels = rng.integers(0, 3, 8).astype(np.int32)
        assert np.array_equal(gather_z(e, labels), e[np.arange(8), labels])
        assert _step_names(8, 3).count("custom.z_gather") == 1

    def test_d_add_broadcasts(self, rng):
        # D = E + P~ + C~: P~ broadcast over columns, C~ over rows; the
        # fused engine evaluates any entry on demand, bitwise the legacy add
        n, k = 12, 4
        x = rng.standard_normal((n, 3))
        km = x @ x.T
        labels = rng.integers(0, k, n).astype(np.int32)
        v = selection_matrix(labels, k, dtype=np.float64)
        e = spmm(v, km, alpha=-2.0).T
        c = spmv(v, gather_z(e, labels), alpha=-0.5)
        want = e + np.diagonal(km)[:, None] + c[None, :]
        fused = fused_popcorn_argmin(km, labels, k)
        rows = np.repeat(np.arange(n), k)
        cols = np.tile(np.arange(k), n)
        assert np.array_equal(fused.at(rows, cols), want[rows, cols])
        assert _step_names(n, k).count("custom.d_add") == 1

    def test_diag_extract(self, device, rng):
        m = rng.standard_normal((5, 5))
        backend, state = _device_state(device, 2)
        backend.load_kernel_matrix(state, m)
        assert np.array_equal(state.p_norms_host, np.diagonal(m))
        assert device.profiler.count_of("custom.diag_extract") == 1
        backend.finish(state)

    def test_diag_extract_requires_square(self, rng):
        with pytest.raises(ShapeError):
            PopcornKernelKMeans(2).fit(kernel_matrix=rng.standard_normal((3, 4)))


class TestBaselineKernels:
    def test_cluster_reduce(self, rng):
        n, k = 15, 3
        k_mat = rng.standard_normal((n, n))
        labels = rng.integers(0, k, n).astype(np.int32)
        counts = np.bincount(labels, minlength=k)
        r = np.zeros((n, k))
        for j in range(k):
            r[:, j] = k_mat[:, labels == j].sum(axis=1)
        size = np.maximum(counts, 1)
        c_norms = np.array([r[labels == j, j].sum() for j in range(k)]) / size**2
        want = np.diagonal(k_mat)[:, None] - 2.0 * r / size + c_norms
        d = baseline_distances(k_mat, np.diagonal(k_mat).copy(), labels, k)
        assert np.allclose(d, want, atol=1e-8)

    def test_centroid_norms_match_definition(self, rng):
        n, k = 20, 4
        x = rng.standard_normal((n, 3))
        k_mat = x @ x.T
        labels = rng.integers(0, k, n).astype(np.int32)
        counts = np.bincount(labels, minlength=k)
        d = baseline_distances(k_mat, np.diagonal(k_mat).copy(), labels, k)
        # reference: ||x_i - c_j||^2 via explicit centroids (linear kernel)
        for j in range(k):
            if counts[j]:
                c = x[labels == j].mean(axis=0)
                assert np.allclose(d[:, j], ((x - c) ** 2).sum(axis=1), atol=1e-8)

    def test_distance_assemble_matches_reference(self, rng):
        n, k = 18, 3
        x = rng.standard_normal((n, 2))
        k_mat = (x @ x.T).astype(np.float64)
        labels = rng.integers(0, k, n).astype(np.int32)
        d = baseline_distances(k_mat, np.ascontiguousarray(np.diagonal(k_mat)), labels, k)
        want = distance_matrix_reference(k_mat, labels, k)
        assert np.allclose(d, want, atol=1e-8)
