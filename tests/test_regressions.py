"""Cross-cutting regression tests for behaviours not covered elsewhere."""

import numpy as np
import pytest

from repro import PopcornKernelKMeans, DistributedPopcornKernelKMeans
from repro.baselines import random_labels
from repro.core import OnTheFlyKernelKMeans, build_selection
from repro.data import generate, make_blobs
from repro.kernels import PolynomialKernel
from repro.sparse import from_dense, spmm


class TestEstimatorBookkeeping:
    def test_objective_is_last_history_entry(self, blobs):
        x, _, k = blobs
        m = PopcornKernelKMeans(k, seed=0).fit(x)
        assert m.objective_ == m.objective_history_[-1]

    def test_convergence_reason_strings(self, blobs):
        x, _, k = blobs
        m = PopcornKernelKMeans(k, seed=0, max_iter=200).fit(x)
        assert m.convergence_reason_ in ("assignments stable",
                                         "objective improvement below tol")

    def test_timings_sum_equals_device_clock(self, blobs):
        x, _, k = blobs
        m = PopcornKernelKMeans(k, seed=0, max_iter=5, check_convergence=False).fit(x)
        assert sum(m.timings_.values()) == pytest.approx(m.device_.elapsed_s())

    def test_refit_overwrites_results(self, blobs):
        x, _, k = blobs
        m = PopcornKernelKMeans(k, seed=0, max_iter=3, check_convergence=False)
        m.fit(x)
        first = m.labels_.copy()
        m.fit(x[:60])
        assert m.labels_.shape == (60,)
        assert first.shape == (90,)

    def test_n_iter_counts_history(self, blobs):
        x, _, k = blobs
        m = PopcornKernelKMeans(k, seed=0, max_iter=50).fit(x)
        assert len(m.objective_history_) == m.n_iter_


class TestDistributedEdges:
    def test_one_row_per_device(self, rng):
        x = rng.standard_normal((8, 3)).astype(np.float64)
        init = random_labels(8, 2, rng)
        d = DistributedPopcornKernelKMeans(
            2, n_devices=8, dtype=np.float64, max_iter=4, check_convergence=False
        ).fit(x, init_labels=init)
        s = PopcornKernelKMeans(
            2, dtype=np.float64, max_iter=4, check_convergence=False
        ).fit(x, init_labels=init)
        assert np.array_equal(d.labels_, s.labels_)

    def test_n_not_divisible_by_devices(self, rng):
        x = rng.standard_normal((47, 4)).astype(np.float64)
        init = random_labels(47, 3, rng)
        d = DistributedPopcornKernelKMeans(
            3, n_devices=4, dtype=np.float64, max_iter=5, check_convergence=False
        ).fit(x, init_labels=init)
        s = PopcornKernelKMeans(
            3, dtype=np.float64, max_iter=5, check_convergence=False
        ).fit(x, init_labels=init)
        assert np.array_equal(d.labels_, s.labels_)


class TestOnTheFlyEdges:
    def test_block_of_one_row(self, rng):
        x = rng.standard_normal((15, 3)).astype(np.float64)
        init = random_labels(15, 3, rng)
        otf = OnTheFlyKernelKMeans(
            3, block_rows=1, max_iter=4, check_convergence=False
        ).fit(x, init_labels=init)
        std = PopcornKernelKMeans(
            3, dtype=np.float64, max_iter=4, check_convergence=False
        ).fit(x, init_labels=init)
        assert np.array_equal(otf.labels_, std.labels_)


class TestSelectionEdges:
    def test_k_equals_one(self):
        v = build_selection(np.zeros(10, dtype=np.int32), 1)
        assert v.shape == (1, 10)
        assert np.allclose(v.to_dense(), 0.1)

    def test_all_points_same_cluster_of_many(self):
        labels = np.full(8, 2, dtype=np.int32)
        v = build_selection(labels, 5)
        assert v.row_nnz().tolist() == [0, 0, 8, 0, 0]


class TestSparseEdges:
    def test_empty_times_wide(self, rng):
        a = from_dense(np.zeros((4, 6)))
        b = rng.standard_normal((6, 500))
        out = spmm(a, b)
        assert out.shape == (4, 500)
        assert np.allclose(out, 0)

    def test_one_by_one(self):
        a = from_dense(np.array([[3.0]]))
        assert spmm(a, np.array([[2.0]]))[0, 0] == 6.0


class TestDataSuiteFullScale:
    def test_letter_at_full_scale(self):
        """letter is small enough to materialise at the paper's exact size."""
        x, y = generate("letter", scale=1.0, rng=0)
        assert x.shape == (10500, 26)
        assert x.dtype == np.float32

    def test_generate_respects_k(self):
        x, y = generate("letter", scale=0.02, k=7, rng=0)
        assert len(np.unique(y)) == 7


class TestKernelMatrixSymmetryThroughPipeline:
    def test_device_kernel_matrix_is_symmetric_fp32(self, device, rng):
        """FP32 GEMM + in-place transform must keep K exactly symmetric
        (the SpMM-transpose trick relies on it)."""
        from repro.engine import get_backend

        x = rng.standard_normal((40, 6)).astype(np.float32)
        backend = get_backend("device")
        state = backend.begin(n_clusters=2, dtype=np.float32, device=device)
        backend.compute_kernel_matrix(state, x, PolynomialKernel())
        assert np.array_equal(state.k_host, state.k_host.T)


class TestBlobsGroundTruthUsable:
    def test_blob_labels_match_geometry(self):
        """Sanity on our own generator: nearest-centroid of the true
        centers reproduces the labels for tight blobs."""
        x, y = make_blobs(120, 4, 3, rng=0, spread=0.2, center_box=20.0)
        centers = np.stack([x[y == j].mean(axis=0) for j in range(3)])
        d = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmin(d, axis=1), y)
