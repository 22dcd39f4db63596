"""The chunked pairwise-reduction engine: bit-exactness property suite.

The contract under test (repro.engine.reduction): for every dtype, chunk
shape (including non-dividing and degenerate 1x1 schedules), thread
count, and weighted/unweighted selection matrix, the fused argmin
produces labels and min-distances **bit-for-bit identical** to the
legacy materialise-then-argmin pipeline — and argmin-equal to the dense
float64 gold standard (`distance_matrix_reference`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import random_labels
from repro.core import argmin_assign, distance_matrix_reference
from repro.core.distances import popcorn_distances_host
from repro.data import make_blobs
from repro.engine import reduction
from repro.engine.reduction import (
    DEFAULT_CHUNK_COLS,
    DEFAULT_CHUNK_ROWS,
    CrossKernelArgmin,
    SupportOperand,
    WorkStealingPool,
    chunk_ranges,
    csr_row_slice,
    fused_popcorn_argmin,
    validate_chunk_size,
    validate_n_threads,
)
from repro.bench.experiments.reduction import (
    _tiled_popcorn_distances_host as tiled_popcorn_distances_host,
)
from repro.errors import ConfigError, ShapeError
from repro.estimators import available_estimators, filter_params, make_estimator
from repro.obs import metrics, trace
from repro.sparse import CSRMatrix, selection_matrix, spmm, weighted_selection_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _kernel_matrix(n, rng, dtype=np.float64):
    x = rng.standard_normal((n, 6))
    return np.ascontiguousarray((x @ x.T).astype(dtype))


# ----------------------------------------------------------------------
# schedule + validator plumbing
# ----------------------------------------------------------------------


class TestChunkRanges:
    def test_non_dividing(self):
        assert chunk_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_degenerate_one(self):
        assert chunk_ranges(3, 1) == [(0, 1), (1, 2), (2, 3)]

    def test_none_is_single_chunk(self):
        assert chunk_ranges(7, None) == [(0, 7)]

    def test_oversized_is_single_chunk(self):
        assert chunk_ranges(7, 1000) == [(0, 7)]

    def test_empty(self):
        assert chunk_ranges(0, 4) == []

    def test_negative_raises(self):
        with pytest.raises(ShapeError):
            chunk_ranges(-1, 4)


class TestValidators:
    @pytest.mark.parametrize("value", [None, 1, 7, DEFAULT_CHUNK_ROWS])
    def test_chunk_size_accepts(self, value):
        assert validate_chunk_size(value) == value

    @pytest.mark.parametrize("value", [0, -3, 2.5, "8"])
    def test_chunk_size_rejects(self, value):
        with pytest.raises(ConfigError):
            validate_chunk_size(value)

    @pytest.mark.parametrize("value", [None, 1, 8])
    def test_n_threads_accepts(self, value):
        assert validate_n_threads(value) == value

    @pytest.mark.parametrize("value", [0, -1, 1.5])
    def test_n_threads_rejects(self, value):
        with pytest.raises(ConfigError):
            validate_n_threads(value)


class TestCsrRowSlice:
    def test_matches_dense_slice(self, rng):
        lab = random_labels(20, 5, rng)
        v = selection_matrix(lab, 5)
        dense = v.to_dense()
        for r0, r1 in [(0, 5), (2, 4), (0, 0), (4, 5)]:
            part = csr_row_slice(v, r0, r1)
            assert part.shape == (r1 - r0, 20)
            np.testing.assert_array_equal(part.to_dense(), dense[r0:r1])


class TestWorkStealingPool:
    def test_runs_every_task(self):
        out = []
        WorkStealingPool(3).run([lambda i=i: out.append(i) for i in range(20)])
        assert sorted(out) == list(range(20))

    def test_single_thread_inline(self):
        out = []
        WorkStealingPool(1).run([lambda i=i: out.append(i) for i in range(5)])
        assert out == list(range(5))

    def test_exception_propagates(self):
        def boom():
            raise ValueError("task failed")

        with pytest.raises(ValueError, match="task failed"):
            WorkStealingPool(4).run([boom] * 3)

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ConfigError):
            WorkStealingPool(0)


# ----------------------------------------------------------------------
# the bit-exactness property
# ----------------------------------------------------------------------

CHUNK_GRID = [
    (None, None),
    (1, 1),  # degenerate: one entry per panel
    (7, 3),  # non-dividing both axes
    (16, 1),
    (1000, 1000),  # oversized: one chunk
]


class TestFusedBitExact:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("chunk_rows,chunk_cols", CHUNK_GRID)
    @pytest.mark.parametrize("n_threads", [1, 2, 8])
    def test_matches_legacy_pipeline(self, rng, dtype, chunk_rows, chunk_cols, n_threads):
        n, k = 37, 5
        km = _kernel_matrix(n, rng, dtype)
        lab = random_labels(n, k, rng)
        d_legacy, _ = tiled_popcorn_distances_host(km, lab, k, tile_rows=11)
        want = argmin_assign(d_legacy)
        fused = fused_popcorn_argmin(
            km, lab, k, chunk_rows=chunk_rows, chunk_cols=chunk_cols, n_threads=n_threads
        )
        np.testing.assert_array_equal(fused.labels, want)
        assert fused.labels.dtype == np.int32
        np.testing.assert_array_equal(fused.min_d, d_legacy[np.arange(n), want])

    @pytest.mark.parametrize("chunk_rows,chunk_cols", CHUNK_GRID)
    def test_weighted_matches_legacy(self, rng, chunk_rows, chunk_cols):
        n, k = 29, 4
        km = _kernel_matrix(n, rng)
        lab = random_labels(n, k, rng)
        w = rng.uniform(0.5, 2.0, size=n)
        d_legacy, _ = tiled_popcorn_distances_host(km, lab, k, tile_rows=8, weights=w)
        want = argmin_assign(d_legacy)
        fused = fused_popcorn_argmin(
            km, lab, k,
            chunk_rows=chunk_rows, chunk_cols=chunk_cols, n_threads=2, weights=w,
        )
        np.testing.assert_array_equal(fused.labels, want)
        np.testing.assert_array_equal(fused.min_d, d_legacy[np.arange(n), want])

    @given(
        n=st.integers(min_value=3, max_value=48),
        k=st.integers(min_value=1, max_value=7),
        chunk_rows=st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
        chunk_cols=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        n_threads=st.sampled_from([1, 2, 8]),
        f32=st.booleans(),
        weighted=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_bit_exact(
        self, n, k, chunk_rows, chunk_cols, n_threads, f32, weighted, seed
    ):
        if k > n:
            k = n
        rng = np.random.default_rng(seed)
        dtype = np.float32 if f32 else np.float64
        km = _kernel_matrix(n, rng, dtype)
        lab = random_labels(n, k, rng)
        w = rng.uniform(0.5, 2.0, size=n) if weighted else None
        d_legacy, _ = tiled_popcorn_distances_host(km, lab, k, tile_rows=13, weights=w)
        want = argmin_assign(d_legacy)
        fused = fused_popcorn_argmin(
            km, lab, k,
            chunk_rows=chunk_rows, chunk_cols=chunk_cols, n_threads=n_threads, weights=w,
        )
        np.testing.assert_array_equal(fused.labels, want)
        np.testing.assert_array_equal(fused.min_d, d_legacy[np.arange(n), want])

    def test_matches_reference_argmin(self, rng):
        n, k = 40, 6
        km = _kernel_matrix(n, rng)
        lab = random_labels(n, k, rng)
        ref = distance_matrix_reference(km, lab, k)
        fused = fused_popcorn_argmin(km, lab, k, chunk_rows=9, chunk_cols=2, n_threads=2)
        np.testing.assert_array_equal(fused.labels, argmin_assign(ref))

    def test_tie_breaks_to_lowest_index(self):
        # duplicate points in duplicate clusters: distances tie exactly,
        # and the fused sweep must pick the lowest column like argmin_assign
        km = np.ones((8, 8), dtype=np.float64)
        lab = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.int32)
        d_full, _ = popcorn_distances_host(km, lab, 4)
        want = argmin_assign(d_full)
        assert want.max() == 0  # every column ties; all go to cluster 0
        for chunk_cols in (None, 1, 3):
            fused = fused_popcorn_argmin(km, lab, 4, chunk_rows=3, chunk_cols=chunk_cols)
            np.testing.assert_array_equal(fused.labels, want)

    def test_empty_cluster(self, rng):
        n, k = 15, 4
        km = _kernel_matrix(n, rng)
        lab = np.zeros(n, dtype=np.int32)
        lab[7:] = 1  # clusters 2, 3 empty
        d_legacy, _ = tiled_popcorn_distances_host(km, lab, k, tile_rows=4)
        fused = fused_popcorn_argmin(km, lab, k, chunk_rows=4, chunk_cols=1)
        np.testing.assert_array_equal(fused.labels, argmin_assign(d_legacy))

    def test_at_matches_materialised_entries(self, rng):
        n, k = 24, 5
        km = _kernel_matrix(n, rng)
        lab = random_labels(n, k, rng)
        d_full, _ = popcorn_distances_host(km, lab, k)
        fused = fused_popcorn_argmin(km, lab, k, chunk_rows=7, chunk_cols=2)
        rows = np.array([0, 3, 11, 23])
        cols = np.array([4, 0, 2, 1])
        np.testing.assert_array_equal(fused.at(rows, cols), d_full[rows, cols])


# ----------------------------------------------------------------------
# certified GEMM panels vs the exact SpMM path
# ----------------------------------------------------------------------


def _exact(km, lab, k, chunk_cols=None, weights=None):
    """Labels and min_d of the exact path: the legacy distances swept over
    ascending column chunks with strict ``<`` (NaN semantics included)."""
    d, _ = tiled_popcorn_distances_host(km, lab, k, tile_rows=13, weights=weights)
    n = d.shape[0]
    rows = np.arange(n)
    best = np.full(n, np.inf, dtype=d.dtype)
    arg = np.zeros(n, dtype=np.int32)
    for c0, c1 in chunk_ranges(k, chunk_cols):
        local = np.argmin(d[:, c0:c1], axis=1)
        vals = d[rows, c0 + local]
        upd = vals < best
        best[upd] = vals[upd]
        arg[upd] = c0 + local[upd]
    return arg, best


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def fallback_rows():
    """Rows the certified reduction re-ran exactly during the test (tracer on)."""
    counter = metrics.counter("reduction.fallback_rows")
    was_enabled = trace.enabled
    start = counter.value
    trace.enable()
    try:
        yield lambda: counter.value - start
    finally:
        trace.enabled = was_enabled


def _blob_problem(n, k, dtype, rng):
    """Well-separated blobs under their own labels: most rows certify."""
    x, truth = make_blobs(n, 3, k, rng=rng)
    km = np.ascontiguousarray((x @ x.T).astype(dtype))
    lab = np.asarray(truth, dtype=np.int32).copy()
    lab[: n // 6] = rng.integers(0, k, n // 6)  # a few rows to move
    return km, lab


class TestCertifiedMatchesExact:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("chunk_rows,chunk_cols", CHUNK_GRID)
    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_bitwise(
        self, rng, fallback_rows, dtype, chunk_rows, chunk_cols, n_threads, weighted
    ):
        n, k = 90, 4
        km, lab = _blob_problem(n, k, dtype, rng)
        w = rng.uniform(0.5, 2.0, size=n) if weighted else None
        want_lab, want_d = _exact(km, lab, k, chunk_cols, weights=w)
        fused = fused_popcorn_argmin(
            km, lab, k,
            chunk_rows=chunk_rows, chunk_cols=chunk_cols, n_threads=n_threads, weights=w,
        )
        np.testing.assert_array_equal(fused.labels, want_lab)
        _assert_bitwise(fused.min_d, want_d)
        # the GEMM path decided most rows (and some of them moved)
        assert fallback_rows() < n // 2
        assert np.any(fused.labels != lab)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_non_symmetric_kernel_reads_columns(self, rng, fallback_rows, dtype):
        # E = -2 K V^T reads K's columns; its rows would give other labels
        n, k = 60, 4
        km = np.ascontiguousarray(rng.standard_normal((n, n)).astype(dtype))
        lab = random_labels(n, k, rng)
        fused = fused_popcorn_argmin(km, lab, k, chunk_rows=16)
        want_lab, want_d = _exact(km, lab, k)
        rows_lab, _ = _exact(np.ascontiguousarray(km.T), lab, k)
        assert np.any(rows_lab != want_lab)
        np.testing.assert_array_equal(fused.labels, want_lab)
        _assert_bitwise(fused.min_d, want_d)
        assert fallback_rows() < n // 2

    def test_certified_move_into_empty_cluster(self, fallback_rows):
        # cluster 0 sits far from the origin; the point at the origin is
        # nearest the empty cluster 1, whose distance is its own P~ = 0
        rng = np.random.default_rng(3)
        x = np.vstack([10.0 + 0.1 * rng.standard_normal((12, 2)), np.zeros((1, 2))])
        km = x @ x.T
        lab = np.zeros(13, dtype=np.int32)
        want_lab, want_d = _exact(km, lab, 2)
        fused = fused_popcorn_argmin(km, lab, 2)
        assert want_lab[-1] == 1 and want_lab[:-1].max() == 0
        np.testing.assert_array_equal(fused.labels, want_lab)
        _assert_bitwise(fused.min_d, want_d)
        assert fallback_rows() == 0


    @pytest.mark.parametrize("name", ["popcorn", "weighted"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_fit_matches_exact_path_fit(self, monkeypatch, name, dtype):
        """labels_, objective_history_ and _c_norms of a whole fit are
        bitwise those of a fit whose every row runs the exact path."""
        x, _ = make_blobs(150, 3, 4, rng=5)
        kw = dict(n_clusters=4, backend="host", max_iter=5, check_convergence=False, seed=0)
        kw = filter_params(name, {**kw, "dtype": dtype})
        fast = make_estimator(name, **kw).fit(x)

        def exact_rows(self, r0, r1):
            idx = np.arange(r0, r1)
            ctx = (self._km[:, idx], self._p[idx, None])
            self.labels[r0:r1], self.min_d[r0:r1] = self._sweep(ctx, r1 - r0)

        monkeypatch.setattr(reduction._PopcornArgmin, "_process_rows", exact_rows)
        slow = make_estimator(name, **kw).fit(x)
        np.testing.assert_array_equal(fast.labels_, slow.labels_)
        assert fast.objective_history_ == slow.objective_history_
        _assert_bitwise(fast._c_norms, slow._c_norms)


class TestForcedFallback:
    """Inputs the bound cannot certify: every row there takes the exact path."""

    @pytest.mark.parametrize("chunk_cols", [None, 1, 3])
    def test_constant_kernel_ties_to_lowest_index(self, fallback_rows, chunk_cols):
        km = np.full((8, 8), 2.5)
        lab = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.int32)
        fused = fused_popcorn_argmin(km, lab, 4, chunk_rows=3, chunk_cols=chunk_cols)
        want_lab, want_d = _exact(km, lab, 4, chunk_cols)
        assert want_lab.max() == 0
        np.testing.assert_array_equal(fused.labels, want_lab)
        _assert_bitwise(fused.min_d, want_d)
        assert fallback_rows() == 8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_duplicate_points_tie_to_lowest_index(self, rng, fallback_rows, dtype):
        # clusters 1 and 3 hold the same points, so their columns tie exactly
        base = rng.standard_normal((5, 3))
        x = np.vstack([base, base + 4.0, base - 4.0, base + 4.0])
        km = np.ascontiguousarray((x @ x.T).astype(dtype))
        lab = np.repeat(np.arange(4), 5).astype(np.int32)
        fused = fused_popcorn_argmin(km, lab, 4, chunk_cols=2)
        want_lab, want_d = _exact(km, lab, 4, chunk_cols=2)
        assert not np.any(want_lab == 3)
        np.testing.assert_array_equal(fused.labels, want_lab)
        _assert_bitwise(fused.min_d, want_d)
        assert fallback_rows() >= 10  # the rows of clusters 1 and 3

    @pytest.mark.parametrize("chunk_cols", [None, 2])
    @pytest.mark.parametrize("entry", [(3, 5), (6, 6)], ids=["offdiag", "diag"])
    def test_nan_entry(self, rng, fallback_rows, chunk_cols, entry):
        n, k = 20, 4
        km = _kernel_matrix(n, rng)
        km[entry] = np.nan
        lab = random_labels(n, k, rng)
        with np.errstate(invalid="ignore"):
            want_lab, want_d = _exact(km, lab, k, chunk_cols)
            fused = fused_popcorn_argmin(km, lab, k, chunk_rows=7, chunk_cols=chunk_cols)
        np.testing.assert_array_equal(fused.labels, want_lab)
        _assert_bitwise(fused.min_d, want_d)
        assert fallback_rows() >= 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_non_psd_negative_kernel(self, fallback_rows, dtype, seed):
        # every entry negative, not symmetric, and the distance columns a
        # few roundings apart: GEMM and SpMM often order them differently
        rng = np.random.default_rng(seed)
        n, k = 200, 3
        eps = 3 * np.finfo(dtype).eps
        km = np.ascontiguousarray((-1.0 + eps * rng.standard_normal((n, n))).astype(dtype))
        lab = random_labels(n, k, rng)
        # row chunks wider than one exact re-run block
        fused = fused_popcorn_argmin(km, lab, k, chunk_rows=150, n_threads=2)
        want_lab, want_d = _exact(km, lab, k)
        np.testing.assert_array_equal(fused.labels, want_lab)
        _assert_bitwise(fused.min_d, want_d)
        assert fallback_rows() > n // 2

    def test_empty_cluster_ties(self, fallback_rows):
        # a zero kernel: every column, the empty clusters' included, is 0
        km = np.zeros((9, 9))
        lab = np.array([1, 1, 1, 3, 3, 3, 3, 1, 1], dtype=np.int32)
        fused = fused_popcorn_argmin(km, lab, 5, chunk_cols=2)
        want_lab, want_d = _exact(km, lab, 5, chunk_cols=2)
        assert want_lab.max() == 0
        np.testing.assert_array_equal(fused.labels, want_lab)
        _assert_bitwise(fused.min_d, want_d)
        assert fallback_rows() == 9

    def test_counter_silent_when_untraced(self):
        counter = metrics.counter("reduction.fallback_rows")
        was_enabled = trace.enabled
        trace.disable()
        try:
            before = counter.value
            fused_popcorn_argmin(np.ones((6, 6)), np.array([0, 0, 0, 1, 1, 1]), 2)
            assert counter.value == before
        finally:
            trace.enabled = was_enabled


# ----------------------------------------------------------------------
# certified GEMM predict panels vs the exact SpMM path
# ----------------------------------------------------------------------


def _exact_cross(kc, v, c_norms, chunk_cols=None):
    """Labels and min_d of the exact predict path: ``-2 spmm(V, Kc^T)^T +
    C~`` swept over ascending column chunks with strict ``<``."""
    d = -2.0 * spmm(v, np.asarray(kc).T).T
    d += c_norms[None, :]
    m = d.shape[0]
    rows = np.arange(m)
    best = np.full(m, np.inf)
    arg = np.zeros(m, dtype=np.int32)
    for c0, c1 in chunk_ranges(v.nrows, chunk_cols):
        local = np.argmin(d[:, c0:c1], axis=1)
        vals = d[rows, c0 + local]
        upd = vals < best
        best[upd] = vals[upd]
        arg[upd] = c0 + local[upd]
    return arg, best


def _v64(labels, k, weights=None):
    """The float64 support selection matrix the estimators predict with."""
    if weights is None:
        return selection_matrix(np.asarray(labels, dtype=np.int32), k, dtype=np.float64)
    return weighted_selection_matrix(np.asarray(labels, dtype=np.int32), k, weights)


def _cross(kc, v, c_norms, **kw):
    """CrossKernelArgmin over a precomputed cross-kernel: (labels, min_d, labels-only)."""
    kc = np.asarray(kc)

    def make():
        return CrossKernelArgmin(kc.shape[0], lambda r0, r1: kc[r0:r1], v, c_norms, **kw)

    labels, min_d = make().run()
    return labels, min_d, make().run_labels()


@pytest.fixture
def cross_fallback_rows():
    """Predict rows the certified reduction re-ran exactly (tracer on)."""
    counter = metrics.counter("reduction.cross_fallback_rows")
    was_enabled = trace.enabled
    start = counter.value
    trace.enable()
    try:
        yield lambda: counter.value - start
    finally:
        trace.enabled = was_enabled


def _cross_problem(rng, dtype, weighted, n=120, m=70, k=4):
    """Support blobs under their own labels and queries drawn near them;
    the cross-kernel is computed in ``dtype`` as an fp32 model's predict does."""
    x, truth = make_blobs(n + m, 3, k, rng=rng)
    sup, q = x[:n], x[n:]
    lab = np.asarray(truth[:n], dtype=np.int32)
    if weighted:
        v = _v64(lab, k, rng.uniform(0.5, 2.0, size=n))
    else:
        v = _v64(lab, k)
    km = sup @ sup.T
    c_norms = np.einsum("jl,jl->j", v.to_dense() @ km, v.to_dense())
    kc = (q.astype(dtype) @ sup.astype(dtype).T).astype(np.float64)
    return kc, v, c_norms


class TestCrossKernelCertified:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("chunk_rows,chunk_cols", CHUNK_GRID)
    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_bitwise(
        self, rng, cross_fallback_rows, dtype, chunk_rows, chunk_cols, n_threads, weighted
    ):
        kc, v, c_norms = _cross_problem(rng, dtype, weighted)
        want_lab, want_d = _exact_cross(kc, v, c_norms, chunk_cols)
        for support in (v, SupportOperand(v, np.float64)):
            lab, min_d, lab_only = _cross(
                kc,
                support,
                c_norms,
                chunk_rows=chunk_rows,
                chunk_cols=chunk_cols,
                n_threads=n_threads,
            )
            np.testing.assert_array_equal(lab, want_lab)
            np.testing.assert_array_equal(lab_only, want_lab)
            _assert_bitwise(min_d, want_d)
        # the GEMM path decided most rows
        assert cross_fallback_rows() < kc.shape[0]

    @given(
        m=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=6),
        chunk_rows=st.one_of(st.none(), st.integers(min_value=1, max_value=45)),
        chunk_cols=st.one_of(st.none(), st.integers(min_value=1, max_value=7)),
        n_threads=st.sampled_from([1, 2]),
        weighted=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_bit_exact(self, m, k, chunk_rows, chunk_cols, n_threads, weighted, seed):
        rng = np.random.default_rng(seed)
        n = 30
        x = rng.standard_normal((n + m, 4))
        lab = random_labels(n, k, rng)
        w = rng.uniform(0.5, 2.0, size=n)
        v = _v64(lab, k, w if weighted else None)
        kc = x[n:] @ x[:n].T
        c_norms = rng.uniform(0.0, 5.0, size=k)
        want_lab, want_d = _exact_cross(kc, v, c_norms, chunk_cols)
        lab_got, min_d, lab_only = _cross(
            kc, v, c_norms, chunk_rows=chunk_rows, chunk_cols=chunk_cols, n_threads=n_threads
        )
        np.testing.assert_array_equal(lab_got, want_lab)
        np.testing.assert_array_equal(lab_only, want_lab)
        _assert_bitwise(min_d, want_d)

    def test_duplicate_support_columns(self, rng, cross_fallback_rows):
        # a mini-batch support repeats columns inside a cluster; the dense
        # operand sums them, and the bound widens to cover that rounding
        n, m, k = 40, 50, 3
        x = rng.standard_normal((n + m, 4))
        lab = random_labels(n, k, rng)
        base = _v64(lab, k)
        cols = np.concatenate([base.colinds, base.colinds[::3]])
        rows = np.concatenate([base.row_indices(), base.row_indices()[::3]])
        order = np.argsort(rows, kind="stable")
        vals = rng.uniform(0.01, 0.1, size=cols.size)
        rowptrs = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=k))])
        v = CSRMatrix(vals[order], cols[order], rowptrs, (k, n), check=False)
        kc = x[n:] @ x[:n].T
        c_norms = rng.uniform(0.0, 1.0, size=k)
        want_lab, want_d = _exact_cross(kc, v, c_norms)
        lab_got, min_d, _ = _cross(kc, v, c_norms, chunk_rows=16)
        np.testing.assert_array_equal(lab_got, want_lab)
        _assert_bitwise(min_d, want_d)
        assert cross_fallback_rows() < m

    def test_rejects_wrong_chunk_shape(self):
        v = _v64(np.array([0, 1, 1], dtype=np.int32), 2)
        red = CrossKernelArgmin(2, lambda r0, r1: np.ones((r1 - r0, 5)), v, np.zeros(2))
        with pytest.raises(ShapeError):
            red.run_labels()


class TestCrossKernelForcedFallback:
    """Cross-kernels the bound cannot certify: those rows take the exact path."""

    @pytest.mark.parametrize("chunk_cols", [None, 1, 3])
    def test_constant_cross_kernel_ties_to_lowest_index(self, cross_fallback_rows, chunk_cols):
        v = _v64(np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.int32), 4)
        kc = np.full((9, 8), 2.5)
        lab, min_d, lab_only = _cross(kc, v, np.full(4, 5.0), chunk_rows=4, chunk_cols=chunk_cols)
        want_lab, want_d = _exact_cross(kc, v, np.full(4, 5.0), chunk_cols)
        assert want_lab.max() == 0
        np.testing.assert_array_equal(lab, want_lab)
        np.testing.assert_array_equal(lab_only, want_lab)
        _assert_bitwise(min_d, want_d)
        assert cross_fallback_rows() == 2 * 9  # run() and run_labels()

    def test_duplicate_support_points_tie_to_lowest_index(self, rng, cross_fallback_rows):
        # clusters 1 and 3 hold the same points, so their columns tie exactly
        base = rng.standard_normal((5, 3))
        sup = np.vstack([base, base + 4.0, base - 4.0, base + 4.0])
        lab = np.repeat(np.arange(4), 5).astype(np.int32)
        v = _v64(lab, 4)
        q = np.vstack([base + 4.0, base + 4.1, base - 4.0])
        kc = q @ sup.T
        c_norms = np.einsum("jl,jl->j", v.to_dense() @ (sup @ sup.T), v.to_dense())
        lab_got, min_d, _ = _cross(kc, v, c_norms, chunk_cols=2)
        want_lab, want_d = _exact_cross(kc, v, c_norms, chunk_cols=2)
        assert np.any(want_lab == 1) and not np.any(want_lab == 3)
        np.testing.assert_array_equal(lab_got, want_lab)
        _assert_bitwise(min_d, want_d)
        assert cross_fallback_rows() >= np.count_nonzero(want_lab == 1)

    @pytest.mark.parametrize("chunk_cols", [None, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_query_row(self, rng, cross_fallback_rows, chunk_cols, bad):
        kc, v, c_norms = _cross_problem(rng, np.float64, False, m=20)
        kc[3, 7] = bad
        kc[11, :] = bad
        with np.errstate(invalid="ignore"):
            want_lab, want_d = _exact_cross(kc, v, c_norms, chunk_cols)
            lab, min_d, lab_only = _cross(kc, v, c_norms, chunk_rows=7, chunk_cols=chunk_cols)
        np.testing.assert_array_equal(lab, want_lab)
        np.testing.assert_array_equal(lab_only, want_lab)
        _assert_bitwise(min_d, want_d)
        assert cross_fallback_rows() >= 2 * 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_non_psd_negative_cross_kernel(self, cross_fallback_rows, seed):
        # every entry negative and the distance columns a few roundings
        # apart: GEMM and SpMM often order them differently
        rng = np.random.default_rng(seed)
        n, m, k = 150, 200, 3
        v = _v64(random_labels(n, k, rng), k)
        eps = 3 * np.finfo(np.float64).eps
        kc = -1.0 + eps * rng.standard_normal((m, n))
        c_norms = np.zeros(k)
        # row chunks wider than one exact re-run block
        lab, min_d, _ = _cross(kc, v, c_norms, chunk_rows=150, n_threads=2)
        want_lab, want_d = _exact_cross(kc, v, c_norms)
        np.testing.assert_array_equal(lab, want_lab)
        _assert_bitwise(min_d, want_d)
        assert cross_fallback_rows() > m // 2

    def test_empty_cluster_ties(self, cross_fallback_rows):
        # a zero cross-kernel: every column, the empty clusters' included, is 0
        v = _v64(np.array([1, 1, 1, 3, 3, 3, 3, 1, 1], dtype=np.int32), 5)
        kc = np.zeros((6, 9))
        lab, min_d, _ = _cross(kc, v, np.zeros(5), chunk_cols=2)
        want_lab, want_d = _exact_cross(kc, v, np.zeros(5), chunk_cols=2)
        assert want_lab.max() == 0
        np.testing.assert_array_equal(lab, want_lab)
        _assert_bitwise(min_d, want_d)
        assert cross_fallback_rows() == 2 * 6

    def test_certified_move_into_empty_cluster(self, cross_fallback_rows):
        # the empty cluster's distance is its C~ alone, far below the others
        v = _v64(np.array([0, 0, 0, 2, 2], dtype=np.int32), 3)
        kc = np.array([[1.0, 1.1, 0.9, 5.0, 5.2], [5.0, 5.1, 4.9, 1.0, 0.8]])
        c_norms = np.array([3.0, -50.0, 3.0])
        lab, min_d, _ = _cross(kc, v, c_norms)
        want_lab, want_d = _exact_cross(kc, v, c_norms)
        assert want_lab.tolist() == [1, 1]
        np.testing.assert_array_equal(lab, want_lab)
        _assert_bitwise(min_d, want_d)
        assert cross_fallback_rows() == 0

    def test_predict_counts_fallbacks_only_when_traced(self):
        x, _ = make_blobs(30, 3, 3, rng=4)
        est = make_estimator("popcorn", n_clusters=3, backend="host", dtype=np.float64, seed=0)
        est.fit(kernel_matrix=x @ x.T)
        kc = x[:5] @ x.T
        kc[:, 4] = np.nan  # a NaN in every row: all five fall back
        fit_counter = metrics.counter("reduction.fallback_rows")
        counter = metrics.counter("reduction.cross_fallback_rows")
        was_enabled = trace.enabled
        try:
            trace.disable()
            before = counter.value
            silent = est.predict(cross_kernel=kc)
            assert counter.value == before
            trace.enable()
            before, fit_before = counter.value, fit_counter.value
            traced = est.predict(cross_kernel=kc, chunk_rows=2)
            assert counter.value - before == 5
            assert fit_counter.value == fit_before
        finally:
            trace.enabled = was_enabled
        np.testing.assert_array_equal(silent, traced)
        with np.errstate(invalid="ignore"):
            want, _ = _exact_cross(kc, est._support_v, est._c_norms)
        np.testing.assert_array_equal(traced, want)


# ----------------------------------------------------------------------
# every estimator, every backend face of the engine
# ----------------------------------------------------------------------

CHUNK_KW = {"chunk_rows": 11, "chunk_cols": 2, "n_threads": 2}


class TestEstimatorsBitIdentical:
    """All registered estimators keep bit-identical labels through the
    fused reduction engine — host, row-chunked, and sharded backends."""

    @pytest.mark.parametrize("name", available_estimators())
    def test_host_chunked_and_tiled_alias(self, name):
        x, _ = make_blobs(36, 3, 2, rng=0)
        base = make_estimator(name, n_clusters=2, seed=0).fit(x)
        for variant in (
            {"backend": "host", **CHUNK_KW},
            # the row height the retired tile_rows alias used to set
            {"backend": "host", "chunk_rows": 13},
        ):
            kw = filter_params(name, variant)
            est = make_estimator(name, n_clusters=2, seed=0, **kw).fit(x)
            np.testing.assert_array_equal(est.labels_, base.labels_, err_msg=name)
        # the retired alias is declared by no estimator: filtered, never forwarded
        assert filter_params(name, {"tile_rows": 13}) == {}

    @pytest.mark.parametrize("name", ["popcorn", "weighted"])
    def test_sharded_chunked(self, name):
        x, _ = make_blobs(48, 3, 3, rng=1)
        base = make_estimator(name, n_clusters=3, seed=0, backend="host").fit(x)
        est = make_estimator(name, n_clusters=3, seed=0, backend="sharded:3", **CHUNK_KW).fit(x)
        np.testing.assert_array_equal(est.labels_, base.labels_)

    def test_auto_backend_resolves_to_host_when_chunked(self):
        x, _ = make_blobs(30, 3, 2, rng=2)
        est = make_estimator("popcorn", n_clusters=2, seed=0, **CHUNK_KW).fit(x)
        assert est.backend_ == "host"

    def test_device_backend_rejects_chunk_params(self):
        x, _ = make_blobs(30, 3, 2, rng=2)
        est = make_estimator("popcorn", n_clusters=2, seed=0, backend="device", **CHUNK_KW)
        with pytest.raises(ConfigError):
            est.fit(x)


class TestPredictChunked:
    def test_predict_matches_unchunked(self, rng):
        x, _ = make_blobs(40, 4, 3, rng=3)
        est = make_estimator("popcorn", n_clusters=3, seed=0, backend="host").fit(x)
        q = rng.standard_normal((17, 4))
        want = est.predict(q)
        for kw in (
            {"chunk_rows": 5, "chunk_cols": 2, "n_threads": 2},
            {"chunk_rows": 1, "chunk_cols": 1},
            {"chunk_rows": 6},
        ):
            np.testing.assert_array_equal(est.predict(q, **kw), want)

    def test_predict_batch_matches(self, rng):
        x, _ = make_blobs(40, 4, 3, rng=4)
        est = make_estimator("popcorn", n_clusters=3, seed=0, backend="host").fit(x)
        batches = [rng.standard_normal((9, 4)) for _ in range(3)]
        want = est.predict_batch(batches)
        got = est.predict_batch(batches, chunk_rows=4, chunk_cols=1, n_threads=2)
        np.testing.assert_array_equal(got, want)
