"""PredictionService: micro-batching, LRU cache, workers, stats."""

import os
import threading

import numpy as np
import pytest

from repro import LloydKMeans, PopcornKernelKMeans
from repro.data import make_blobs
from repro.errors import ConfigError
from repro.serve import PredictionService


@pytest.fixture(scope="module")
def fitted():
    x = make_blobs(80, 4, 3, rng=5)[0].astype(np.float64)
    model = PopcornKernelKMeans(
        3, dtype=np.float64, backend="host", max_iter=6, seed=0
    ).fit(x)
    q = np.random.default_rng(9).standard_normal((41, 4))
    return model, q


class TestCorrectness:
    def test_served_labels_match_direct_predict(self, fitted):
        model, q = fitted
        expected = model.predict(q)
        with PredictionService(model, batch_size=8, max_delay_ms=1.0) as svc:
            assert np.array_equal(svc.predict_many(q), expected)

    def test_single_predict_and_submit(self, fitted):
        model, q = fitted
        expected = model.predict(q)
        with PredictionService(model, batch_size=4) as svc:
            assert svc.predict(q[0]) == expected[0]
            fut = svc.submit(q[1])
            assert fut.result() == expected[1]

    def test_multiple_workers_match(self, fitted):
        model, q = fitted
        expected = model.predict(q)
        with PredictionService(model, batch_size=4, n_workers=4) as svc:
            assert np.array_equal(svc.predict_many(q), expected)

    def test_concurrent_clients(self, fitted, lockdep):
        model, q = fitted
        expected = model.predict(q)
        results = {}
        with PredictionService(model, batch_size=8, n_workers=2) as svc:
            def client(tag):
                results[tag] = svc.predict_many(q)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for got in results.values():
            assert np.array_equal(got, expected)

    def test_chunk_rows_forwarded(self, fitted):
        model, q = fitted
        expected = model.predict(q)
        with PredictionService(model, batch_size=64, chunk_rows=5) as svc:
            assert np.array_equal(svc.predict_many(q), expected)

    def test_lloyd_model_served(self):
        x = make_blobs(60, 3, 3, rng=1)[0]
        model = LloydKMeans(3, seed=0).fit(x)
        q = np.random.default_rng(2).standard_normal((11, 3))
        with PredictionService(model, batch_size=4) as svc:
            assert np.array_equal(svc.predict_many(q), model.predict(q))


class TestBatchingAndCache:
    def test_batches_fuse_requests(self, fitted):
        model, q = fitted
        with PredictionService(model, batch_size=64, max_delay_ms=50.0) as svc:
            svc.predict_many(q)
            st = svc.stats()
        # all 41 queries arrived before the delay expired: few batches
        assert st["batches"] < q.shape[0]
        assert st["mean_batch_size"] > 1.0

    def test_cache_disabled(self, fitted):
        model, q = fitted
        with PredictionService(model, batch_size=16, cache_size=0) as svc:
            svc.predict_many(q)
            svc.predict_many(q)
            assert svc.stats()["cache_hits"] == 0

    def test_cache_eviction_bounds_memory(self, fitted):
        model, q = fitted
        with PredictionService(model, batch_size=16, cache_size=5) as svc:
            svc.predict_many(q)
            assert len(svc._core.generation.cache) <= 5

    def test_profiler_records_batches(self, fitted):
        model, q = fitted
        with PredictionService(model, batch_size=8) as svc:
            svc.predict_many(q)
            prof = svc.profiler_
        launches = prof.launches_of("serve.predict_batch")
        assert launches
        assert sum(la.meta["batch"] for la in launches) == q.shape[0]
        assert all(la.phase == "serve" for la in launches)


class TestLifecycleAndValidation:
    def test_submit_after_close_raises(self, fitted):
        model, q = fitted
        svc = PredictionService(model)
        svc.close()
        with pytest.raises(ConfigError, match="closed"):
            svc.submit(q[0])

    def test_close_idempotent(self, fitted):
        model, _ = fitted
        svc = PredictionService(model)
        svc.close()
        svc.close()

    def test_unfitted_model_rejected(self):
        with pytest.raises(ConfigError, match="not fitted"):
            PredictionService(PopcornKernelKMeans(3))

    def test_bad_knobs_rejected(self, fitted):
        model, _ = fitted
        with pytest.raises(ConfigError):
            PredictionService(model, batch_size=0)
        with pytest.raises(ConfigError):
            PredictionService(model, n_workers=0)
        with pytest.raises(ConfigError):
            PredictionService(model, cache_size=-1)
        with pytest.raises(ConfigError):
            PredictionService(model, max_delay_ms=-1.0)

    def test_non_vector_query_rejected(self, fitted):
        model, q = fitted
        with PredictionService(model) as svc:
            with pytest.raises(ConfigError, match="1-D"):
                svc.submit(q)  # 2-D block must go through predict_many

    def test_prediction_errors_propagate_to_futures(self, fitted):
        model, _ = fitted
        with PredictionService(model, batch_size=4) as svc:
            fut = svc.submit(np.zeros(9))  # wrong dimensionality for the kernel
            with pytest.raises(Exception):
                fut.result(timeout=5)

    def test_ragged_batch_isolates_the_bad_request(self, fitted):
        """A malformed row must fail alone; batch-mates still get labels
        and the worker thread survives for later requests."""
        model, q = fitted
        expected = model.predict(q[:2])
        with PredictionService(model, batch_size=8, max_delay_ms=20.0) as svc:
            good0 = svc.submit(q[0])
            bad = svc.submit(np.zeros(9))  # ragged: np.stack cannot fuse these
            good1 = svc.submit(q[1])
            assert good0.result(timeout=5) == expected[0]
            assert good1.result(timeout=5) == expected[1]
            with pytest.raises(Exception):
                bad.result(timeout=5)
            # the worker is still alive and serving
            assert svc.predict(q[2]) == model.predict(q[2:3])[0]


class _SlowModel:
    """Wraps a fitted model, charging a fixed sleep per predict batch."""

    def __init__(self, inner, delay_s):
        self._inner = inner
        self._delay_s = delay_s
        self.labels_ = inner.labels_

    def predict(self, rows, **kw):
        import time

        time.sleep(self._delay_s)
        return self._inner.predict(rows, **kw)


class TestAdmissionControl:
    def test_unbounded_queue_never_sheds(self, fitted):
        model, q = fitted
        with PredictionService(model, batch_size=4) as svc:
            svc.predict_many(q)
            stats = svc.stats()
        assert stats["shed"] == 0
        assert "shed" in stats  # the key is part of the stats contract


class TestCloseDrainsDeterministically:
    def test_close_serves_everything_already_queued(self, fitted):
        """Regression: close() must resolve every admitted Future."""
        model, q = fitted
        slow = _SlowModel(model, 0.01)
        expected = model.predict(q)
        svc = PredictionService(
            slow, batch_size=4, max_delay_ms=0.0, n_workers=1, cache_size=0,
        )
        futures = [svc.submit(row) for row in q]
        svc.close()  # drain=True: the queue is served, not abandoned
        assert all(f.done() for f in futures)
        got = np.array([f.result(timeout=0) for f in futures])
        assert np.array_equal(got, expected)

    def test_close_without_drain_cancels_queued(self, fitted):
        model, q = fitted
        slow = _SlowModel(model, 0.05)
        svc = PredictionService(
            slow, batch_size=2, max_delay_ms=0.0, n_workers=1, cache_size=0,
        )
        futures = [svc.submit(row) for row in q[:12]]
        svc.close(drain=False)
        # deterministic: every future resolved one way or the other, now
        assert all(f.done() for f in futures)
        outcomes = []
        for f in futures:
            if f.cancelled():
                outcomes.append("cancelled")
            elif f.exception(timeout=0) is not None:
                outcomes.append("error")
            else:
                outcomes.append("served")
        assert "cancelled" in outcomes  # the queue tail was cut loose
        stats = svc.stats()
        assert stats["served"] == outcomes.count("served")
        assert stats["cancelled"] == outcomes.count("cancelled")
        assert stats["errors"] == outcomes.count("error")
        assert (
            stats["requests"]
            == stats["served"] + stats["shed"] + stats["errors"] + stats["cancelled"]
        )


class _Relabel:
    """Wraps a fitted model, shifting every label by one: the two models
    disagree on every row."""

    def __init__(self, inner, k):
        self._inner = inner
        self._k = k
        self.labels_ = inner.labels_

    def predict(self, rows, **kw):
        return (self._inner.predict(rows, **kw) + 1) % self._k


class TestSwapRace:
    def test_swap_between_any_two_worker_steps_keeps_label_and_version_paired(
        self, fitted
    ):
        """Regression: a swap landing between the worker's read of the
        model and its read of the version answered with old-model labels
        tagged with the new version.  A tracer on the worker thread swaps
        the model before every line the worker runs in ``repro.serve``
        while the service lock is free, so every such window is hit."""
        model, q = fitted
        other = _Relabel(model, 3)
        serve_dir = os.path.dirname(PredictionService.__init__.__code__.co_filename)
        # version v serves ``model`` when v is odd, ``other`` when even
        expected = [other.predict(q), model.predict(q)]
        state = {"svc": None, "version": 1}

        def local(frame, event, arg):
            svc = state["svc"]
            if event == "line" and svc is not None and not svc._lock.locked():
                version = state["version"] + 1
                svc.swap_model(model if version % 2 else other)
                state["version"] = version
            return local

        def tracer(frame, event, arg):
            if frame.f_code.co_filename.startswith(serve_dir):
                return local
            return None

        threading.settrace(tracer)
        try:
            svc = PredictionService(model, batch_size=4, n_workers=1, cache_size=64)
        finally:
            threading.settrace(None)
        try:
            state["svc"] = svc
            results = svc.predict_many(q, details=True)
            results += svc.predict_many(q, details=True)
        finally:
            state["svc"] = None
            svc.close()
        assert state["version"] > 10  # the tracer did swap, many times
        for i, r in enumerate(results):
            row = i % q.shape[0]
            assert int(r) == expected[r.model_version % 2][row], (i, r)
