"""Online mini-batch ``partial_fit``: cold-start bit-exactness, streaming
updates, early stop, warm starts, the two input modes, and the retired
``tile_rows`` alias."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    NotFittedError,
    PopcornKernelKMeans,
    available_estimators,
    clone,
    make_estimator,
)
from repro.data import make_blobs
from repro.engine import EWA_ALPHA, OnlineState, partial_fit_step
from repro.errors import ConfigError, ShapeError
from repro.estimators import estimator_capabilities, estimator_config
from repro.kernels import kernel_matrix
from repro.params import check_is_fitted


def _data(n=48, d=5, k=4, rng=0):
    return make_blobs(n, d, k, rng=rng)[0].astype(np.float64)


# ----------------------------------------------------------------------
# the acceptance property: one full-data partial_fit call is one
# full-fit iteration, bit for bit
# ----------------------------------------------------------------------


class TestColdStartBitExact:
    @given(
        name=st.sampled_from(["popcorn", "weighted"]),
        dtype=st.sampled_from([np.float32, np.float64]),
        weighted=st.booleans(),
        seed=st.integers(0, 7),
    )
    @settings(max_examples=25, deadline=None)
    def test_full_data_partial_fit_is_one_fit_iteration(
        self, name, dtype, weighted, seed
    ):
        x = _data(rng=seed)
        w = None
        if weighted:
            w = np.random.default_rng(seed).uniform(0.5, 2.0, x.shape[0])

        kw = dict(n_clusters=4, backend="host", seed=seed)
        if name == "popcorn":  # the weighted estimator is float64-only
            kw["dtype"] = dtype
        full = make_estimator(name, max_iter=1, **kw).fit(x, sample_weight=w)
        online = make_estimator(name, **kw).partial_fit(x, sample_weight=w)

        assert np.array_equal(online.labels_, full.labels_)
        assert online.objective_ == full.objective_
        np.testing.assert_array_equal(online._c_norms, full._c_norms)
        np.testing.assert_array_equal(
            online._support_v.values, full._support_v.values
        )
        np.testing.assert_array_equal(
            online._support_v.colinds, full._support_v.colinds
        )
        assert online.n_iter_ == 1
        assert online.n_batches_seen_ == 1
        assert not online.converged_

    def test_precomputed_cold_start_matches_fit(self):
        x = _data()
        est = PopcornKernelKMeans(4, backend="host", dtype=np.float64, seed=3)
        km = kernel_matrix(x, est.kernel)
        full = PopcornKernelKMeans(
            4, backend="host", dtype=np.float64, seed=3, max_iter=1
        ).fit(kernel_matrix=km)
        online = est.partial_fit(kernel_matrix=km)
        assert np.array_equal(online.labels_, full.labels_)
        assert online.objective_ == full.objective_
        assert online.gram_method_ == "precomputed"

    def test_chunked_estimator_cold_start_matches_chunked_fit(self):
        # chunk_rows forces the tiled gram policy (GEMM) identically on
        # the fit and cold-start paths
        x = _data()
        full = PopcornKernelKMeans(
            4, backend="host", dtype=np.float64, seed=1, max_iter=1, chunk_rows=11
        ).fit(x)
        online = PopcornKernelKMeans(
            4, backend="host", dtype=np.float64, seed=1, chunk_rows=11
        ).partial_fit(x)
        assert np.array_equal(online.labels_, full.labels_)
        assert online.objective_ == full.objective_
        assert online.gram_method_ == full.gram_method_ == "gemm"

    def test_too_many_clusters_for_first_batch(self):
        with pytest.raises(ConfigError, match="cold-start"):
            PopcornKernelKMeans(10, backend="host").partial_fit(_data(n=6))


# ----------------------------------------------------------------------
# streaming updates
# ----------------------------------------------------------------------


class TestStreaming:
    def test_support_grows_and_predict_works(self):
        x = _data(n=60)
        est = PopcornKernelKMeans(4, backend="host", dtype=np.float64, seed=0)
        est.partial_fit(x[:30])
        assert est._online.n_support == 30
        for lo in range(30, 60, 10):
            est.partial_fit(x[lo : lo + 10])
        assert est._online.n_support == 60
        assert est.n_batches_seen_ == 4
        assert est.labels_.shape == (10,)  # labels_ covers the last batch
        got = est.predict(x)
        assert got.shape == (60,)
        assert set(np.unique(got)) <= set(range(4))

    def test_batch_size_splits_one_call(self):
        x = _data(n=50)
        est = PopcornKernelKMeans(
            4, backend="host", dtype=np.float64, seed=0, batch_size=20
        )
        est.partial_fit(x)
        # 3 batches: cold start on rows 0..20, then 20..40, 40..50
        assert est.n_batches_seen_ == 3
        assert est.labels_.shape == (50,)  # concatenated per-batch labels
        assert est._online.n_support == 50

    def test_counts_track_sample_weight(self):
        x = _data(n=40)
        w = np.full(40, 2.5)
        # reassignment re-seeds a starved cluster with duplicated batch
        # mass, so conservation only holds with it disabled
        est = PopcornKernelKMeans(
            4, backend="host", dtype=np.float64, seed=0, reassignment_ratio=0.0
        )
        est.partial_fit(x[:25], sample_weight=w[:25])
        est.partial_fit(x[25:], sample_weight=w[25:])
        assert est._online.counts.sum() == pytest.approx(w.sum())

    def test_repeated_passes_reduce_objective(self):
        x = _data(n=80, rng=2)
        est = PopcornKernelKMeans(
            4, backend="host", dtype=np.float64, seed=2, batch_size=20,
            max_no_improvement=None,
        )
        est.partial_fit(x)
        first = est.objective_history_[0]
        for _ in range(6):
            for lo in range(0, 80, 20):
                est.partial_fit(x[lo : lo + 20])
        # per-batch inertia of a 20-row batch vs the 20-row slices of the
        # cold batch: compare like for like via the smoothed average
        assert est._online.ewa_inertia is not None
        assert est.objective_ < first

    def test_reassignment_resets_starved_clusters(self):
        x = _data(n=40, k=2, rng=5)
        est = PopcornKernelKMeans(
            4, backend="host", dtype=np.float64, seed=5,
            reassignment_ratio=0.9,  # aggressively reset light clusters
        )
        est.partial_fit(x[:20])
        before = est._online.counts.copy()
        est.partial_fit(x[20:])
        after = est._online.counts
        assert after.shape == before.shape
        assert (after > 0).all()  # reset clusters re-enter with batch mass
        # a reset cluster holds exactly one support column
        lens = [m.shape[0] for m in est._online.members]
        assert min(lens) >= 1


# ----------------------------------------------------------------------
# early stop on smoothed inertia
# ----------------------------------------------------------------------


class TestEarlyStop:
    def test_converges_after_patience_stale_batches(self):
        # tol is the relative-improvement threshold: with tol=0.5 the
        # small per-batch gains of a repeated batch count as stale
        x = _data(n=30)
        est = PopcornKernelKMeans(
            3, backend="host", dtype=np.float64, seed=0,
            max_no_improvement=3, tol=0.5,
        )
        est.partial_fit(x)
        batch = x[:10]
        seen = []
        for _ in range(12):
            est.partial_fit(batch)
            seen.append(est.converged_)
            if est.converged_:
                break
        assert est.converged_
        assert "online" in est.convergence_reason_
        assert est._online.no_improvement >= 3
        assert len(seen) < 12  # stopped well before the cap

    def test_partial_fit_never_refuses_updates(self):
        x = _data(n=30)
        est = PopcornKernelKMeans(
            3, backend="host", dtype=np.float64, seed=0,
            max_no_improvement=1, tol=0.5,
        )
        est.partial_fit(x)
        for _ in range(8):
            est.partial_fit(x[:10])
        assert est.converged_
        before = est.n_batches_seen_
        est.partial_fit(x[10:20])  # still updates after the flag is set
        assert est.n_batches_seen_ == before + 1

    def test_ewa_alpha_bookkeeping(self):
        x = _data(n=30)
        est = PopcornKernelKMeans(
            3, backend="host", dtype=np.float64, seed=0, max_no_improvement=None
        )
        est.partial_fit(x)
        est.partial_fit(x[:10])
        first = est._online.ewa_inertia
        inertia2 = None
        est.partial_fit(x[10:20])
        inertia2 = est.objective_ / 10.0  # unit weights: per-sample
        want = first * (1.0 - EWA_ALPHA) + inertia2 * EWA_ALPHA
        assert est._online.ewa_inertia == pytest.approx(want)


# ----------------------------------------------------------------------
# warm start + input modes
# ----------------------------------------------------------------------


class TestWarmStartAndModes:
    def test_warm_start_from_full_fit(self):
        x = _data(n=50)
        est = PopcornKernelKMeans(
            4, backend="host", dtype=np.float64, seed=0, max_iter=8
        ).fit(x[:40])
        assert not hasattr(est, "n_batches_seen_")
        est.partial_fit(x[40:])
        assert est.n_batches_seen_ == 1
        assert est._online.n_support == 50
        assert est.predict(x).shape == (50,)

    def test_precomputed_mode_streams_fixed_dataset(self):
        x = _data(n=30)
        est = PopcornKernelKMeans(3, backend="host", dtype=np.float64, seed=0)
        km = kernel_matrix(x, est.kernel)
        est.partial_fit(kernel_matrix=km)
        est.set_params(batch_size=10)
        est.partial_fit(kernel_matrix=km)  # second pass streams 3 batches
        assert est.n_batches_seen_ == 4
        assert est._online.n_support == 30  # support never grows

    def test_precomputed_cold_start_needs_full_matrix(self):
        x = _data(n=30)
        est = PopcornKernelKMeans(
            3, backend="host", dtype=np.float64, seed=0, batch_size=10
        )
        km = kernel_matrix(x, est.kernel)
        with pytest.raises(ConfigError, match="cold start"):
            est.partial_fit(kernel_matrix=km)

    def test_mode_mixing_rejected_both_ways(self):
        x = _data(n=24)
        pts = PopcornKernelKMeans(3, backend="host", seed=0).partial_fit(x)
        km = kernel_matrix(
            np.asarray(x, dtype=np.float32), pts.kernel
        )
        with pytest.raises(ConfigError, match="points mode"):
            pts.partial_fit(kernel_matrix=np.asarray(km, dtype=np.float32))

        pre = PopcornKernelKMeans(3, backend="host", dtype=np.float64, seed=0)
        pre.partial_fit(kernel_matrix=kernel_matrix(x, pre.kernel))
        with pytest.raises(ConfigError, match="precomputed mode"):
            pre.partial_fit(x)

    def test_precomputed_shape_is_pinned(self):
        x = _data(n=24)
        est = PopcornKernelKMeans(3, backend="host", dtype=np.float64, seed=0)
        est.partial_fit(kernel_matrix=kernel_matrix(x, est.kernel))
        small = kernel_matrix(x[:10], est.kernel)
        with pytest.raises(ShapeError, match="fixed dataset"):
            est.partial_fit(kernel_matrix=small)


# ----------------------------------------------------------------------
# input validation
# ----------------------------------------------------------------------


class TestValidation:
    def test_both_inputs_rejected(self):
        x = _data(n=12)
        est = PopcornKernelKMeans(2, backend="host")
        with pytest.raises(ConfigError, match="not both"):
            est.partial_fit(x, kernel_matrix=np.eye(12))

    def test_neither_input_rejected(self):
        with pytest.raises(ShapeError, match="either"):
            PopcornKernelKMeans(2, backend="host").partial_fit()

    def test_sample_weight_length_checked(self):
        x = _data(n=12)
        with pytest.raises(ShapeError, match="sample_weight"):
            PopcornKernelKMeans(2, backend="host").partial_fit(
                x, sample_weight=np.ones(5)
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError, match="at least one sample"):
            PopcornKernelKMeans(2, backend="host").partial_fit(
                np.empty((0, 3))
            )

    def test_partial_fit_step_is_the_engine_entry(self):
        x = _data(n=20)
        est = PopcornKernelKMeans(3, backend="host", dtype=np.float64, seed=0)
        out = partial_fit_step(est, x)
        assert out is est
        assert isinstance(est._online, OnlineState)


# ----------------------------------------------------------------------
# fitted state, clone, capabilities
# ----------------------------------------------------------------------


class TestFittedStateAndClone:
    def test_check_is_fitted_after_partial_fit_only(self):
        x = _data(n=30)
        est = PopcornKernelKMeans(3, backend="host", dtype=np.float64, seed=0)
        with pytest.raises(NotFittedError):
            check_is_fitted(est)
        est.partial_fit(x)
        check_is_fitted(est)
        check_is_fitted(est, ("labels_", "n_iter_", "n_batches_seen_"))

    def test_clone_drops_online_counters(self):
        x = _data(n=30)
        est = PopcornKernelKMeans(
            3, backend="host", dtype=np.float64, seed=0, batch_size=10
        ).partial_fit(x)
        fresh = clone(est)
        assert fresh.batch_size == 10  # params survive
        assert getattr(fresh, "_online", None) is None
        assert not hasattr(fresh, "n_batches_seen_")
        with pytest.raises(NotFittedError):
            fresh.predict(x)

    def test_online_counters_snapshot(self):
        x = _data(n=30)
        est = PopcornKernelKMeans(3, backend="host", dtype=np.float64, seed=0)
        est.partial_fit(x)
        est.partial_fit(x[:10])
        c = est._online.counters()
        assert set(c) == {
            "ewa_inertia", "ewa_inertia_min", "no_improvement", "precomputed",
        }
        assert c["precomputed"] is False


class TestCapabilities:
    def test_tag_queries(self):
        assert set(available_estimators(tag="supports_partial_fit")) == {
            "popcorn", "weighted",
        }
        assert "distributed" in available_estimators(tag="supports_sample_weight")
        assert list(available_estimators(tag="requires_precomputed_kernel")) == []

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigError, match="capability"):
            available_estimators(tag="supports_time_travel")

    def test_estimator_config_lists_capabilities(self):
        est = PopcornKernelKMeans(2)
        cfg = estimator_config(est)
        assert cfg["capabilities"] == [
            "supports_partial_fit", "supports_sample_weight",
        ]
        assert estimator_capabilities("lloyd") == ()

    @pytest.mark.parametrize(
        "name",
        sorted(set(available_estimators()) - {"popcorn", "weighted"}),
    )
    def test_unsupporting_estimators_raise_config_error(self, name):
        est = make_estimator(name, n_clusters=2)
        with pytest.raises(ConfigError, match="supports_partial_fit") as exc:
            est.partial_fit(np.zeros((4, 2)))
        # the message names the estimators that do support it
        assert "popcorn" in str(exc.value)


# ----------------------------------------------------------------------
# the retired tile_rows alias
# ----------------------------------------------------------------------


class TestTileRowsRetired:
    """``tile_rows`` was a deprecated alias of ``chunk_rows``; it is gone."""

    def test_constructor_rejects_it(self):
        with pytest.raises(TypeError, match="tile_rows"):
            PopcornKernelKMeans(2, tile_rows=16)
        with pytest.raises(ConfigError, match="unknown parameter"):
            make_estimator("popcorn", n_clusters=2, tile_rows=16)

    def test_set_params_rejects_it(self):
        with pytest.raises(ConfigError, match="tile_rows"):
            PopcornKernelKMeans(2).set_params(tile_rows=12)

    def test_predict_rejects_it(self):
        est = PopcornKernelKMeans(3, backend="host", dtype=np.float64, seed=0)
        est.partial_fit(_data(n=30))
        with pytest.raises(TypeError, match="tile_rows"):
            est.predict(_data(n=5), tile_rows=7)
        with pytest.raises(TypeError, match="tile_rows"):
            est.predict_batch([_data(n=5)], tile_rows=7)
