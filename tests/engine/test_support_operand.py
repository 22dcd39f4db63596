"""The cached predict operand: built once per support, never paired with
another support, and predict stays the exact SpMM path's labels after
every way the support can change (partial_fit, load_model, swap_model,
concurrent first predicts)."""

import threading

import numpy as np
import pytest

from repro import make_estimator
from repro.data import make_blobs
from repro.engine import reduction
from repro.engine.reduction import SupportOperand
from repro.serve import PredictionService, load_model, save_model
from repro.sparse import selection_matrix, spmm


def _oracle(est, q):
    """``argmin(-2 spmm(V, Kc^T)^T + C~)`` straight from repro.sparse."""
    xm = np.asarray(q, dtype=est.dtype)
    kc = est.kernel.pairwise(xm, est._support_x).astype(np.float64)
    d = -2.0 * spmm(est._support_selection(), kc.T).T + est._c_norms[None, :]
    return np.argmin(d, axis=1).astype(np.int32)


def _fit(seed=0, n=90, k=4, dtype=np.float32):
    x, _ = make_blobs(n, 3, k, rng=seed)
    est = make_estimator(
        "popcorn", n_clusters=k, backend="host", seed=seed, dtype=dtype, max_iter=5
    )
    return est.fit(x)


@pytest.fixture
def queries():
    return np.random.default_rng(11).standard_normal((53, 3)) * 3.0


class TestCache:
    def test_built_once_per_support(self, queries):
        est = _fit()
        first = est.predict(queries)
        op = est._support_op
        assert isinstance(op, SupportOperand) and op.v is est._support_v
        np.testing.assert_array_equal(est.predict(queries, chunk_rows=7), first)
        assert est._support_op is op
        np.testing.assert_array_equal(first, _oracle(est, queries))

    def test_refit_replaces_operand(self, queries):
        est = _fit()
        est.predict(queries)
        op = est._support_op
        x2, _ = make_blobs(70, 3, 4, rng=5)
        est.fit(x2)
        np.testing.assert_array_equal(est.predict(queries), _oracle(est, queries))
        assert est._support_op is not op and est._support_op.v is est._support_v

    def test_stale_operand_is_rebuilt(self, queries):
        est = _fit()
        other = selection_matrix(np.arange(est._support_v.ncols) % 4, 4, dtype=np.float64)
        est._support_op = SupportOperand(other, np.float64)
        np.testing.assert_array_equal(est.predict(queries), _oracle(est, queries))
        assert est._support_op.v is est._support_v

    def test_partial_fit_grows_support(self, queries):
        x, _ = make_blobs(120, 3, 4, rng=2)
        est = make_estimator(
            "popcorn", n_clusters=4, backend="host", seed=0, dtype=np.float64, batch_size=40
        )
        est.partial_fit(x[:40])
        np.testing.assert_array_equal(est.predict(queries), _oracle(est, queries))
        op = est._support_op
        est.partial_fit(x[40:])
        assert est._support_v.ncols == 120
        np.testing.assert_array_equal(est.predict(queries), _oracle(est, queries))
        assert est._support_op is not op and est._support_op.v is est._support_v

    def test_precomputed_partial_fit_sums_duplicate_columns(self):
        # repeated passes over one kernel matrix repeat support columns
        x, _ = make_blobs(60, 3, 3, rng=3)
        km = x @ x.T
        est = make_estimator("popcorn", n_clusters=3, backend="host", seed=0, dtype=np.float64)
        est.partial_fit(kernel_matrix=km)
        est.set_params(batch_size=20)
        est.partial_fit(kernel_matrix=km)
        v = est._support_v
        assert v.nnz > v.ncols  # duplicated columns
        kc = km[:25]
        d = -2.0 * spmm(v, kc.T).T + est._c_norms[None, :]
        np.testing.assert_array_equal(
            est.predict(cross_kernel=kc), np.argmin(d, axis=1).astype(np.int32)
        )

    @pytest.mark.parametrize("online", [False, True], ids=["fit", "partial_fit"])
    def test_after_load_model(self, tmp_path, queries, online):
        if online:
            x, _ = make_blobs(80, 3, 4, rng=4)
            est = make_estimator("popcorn", n_clusters=4, backend="host", seed=0)
            est.set_params(batch_size=40).partial_fit(x)
        else:
            est = _fit()
        want = est.predict(queries)
        path = str(tmp_path / "m.npz")
        save_model(est, path)
        loaded = load_model(path)
        assert loaded._support_op is None
        got = loaded.predict(queries)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, _oracle(loaded, queries))
        assert loaded._support_op.v is loaded._support_v


class TestServing:
    def test_after_swap_model(self, queries):
        a, b = _fit(seed=0), _fit(seed=7, k=3)
        with PredictionService(a, batch_size=8, max_delay_ms=1.0, cache_size=0) as svc:
            np.testing.assert_array_equal(svc.predict_many(queries), _oracle(a, queries))
            svc.swap_model(b)
            np.testing.assert_array_equal(svc.predict_many(queries), _oracle(b, queries))
            svc.swap_model(a)
            np.testing.assert_array_equal(svc.predict_many(queries), _oracle(a, queries))

    def test_two_workers_first_predicts(self, tmp_path, queries):
        # a loaded model has no operand yet: two workers build it at once
        path = str(tmp_path / "m.npz")
        save_model(_fit(), path)
        model = load_model(path)
        want = _oracle(model, queries)
        with PredictionService(
            model, n_workers=2, batch_size=4, max_delay_ms=0.5, cache_size=0
        ) as svc:
            np.testing.assert_array_equal(svc.predict_many(queries), want)
        assert model._support_op.v is model._support_v

    def test_concurrent_first_predicts_see_matched_pairs(self, queries, monkeypatch):
        est = _fit()
        want = _oracle(est, queries)
        est._support_op = None
        seen = []
        real = reduction.CrossKernelArgmin.__init__

        def spy(self, n_rows, panel_rows, support, c_norms, **kw):
            seen.append(support)
            real(self, n_rows, panel_rows, support, c_norms, **kw)

        monkeypatch.setattr(reduction.CrossKernelArgmin, "__init__", spy)
        barrier = threading.Barrier(6)
        out = [None] * 6

        def run(i):
            barrier.wait()
            out[i] = est.predict(queries)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got in out:
            np.testing.assert_array_equal(got, want)
        # every predict used an operand of the live support
        assert all(op.v is est._support_v for op in seen)


class TestMiniBatchMinD:
    def test_partial_fit_matches_exact_path(self, monkeypatch):
        """The mini-batch update reads min_d for s_b and the inertia: its
        state is bitwise that of a run whose every row is exact."""
        x, _ = make_blobs(150, 3, 4, rng=6)

        def run():
            est = make_estimator("popcorn", n_clusters=4, backend="host", seed=0, dtype=np.float64)
            est.partial_fit(x[:50])
            est.set_params(batch_size=25)
            est.partial_fit(x[50:])
            return est

        fast = run()

        def exact_rows(self, r0, r1):
            kc = self._row_context(r0, r1)
            self.labels[r0:r1], self.min_d[r0:r1] = self._sweep(kc.T, r1 - r0)

        monkeypatch.setattr(reduction.CrossKernelArgmin, "_process_rows", exact_rows)
        slow = run()
        np.testing.assert_array_equal(fast.labels_, slow.labels_)
        assert fast.objective_history_ == slow.objective_history_
        assert fast._c_norms.tobytes() == slow._c_norms.tobytes()
        assert fast._online.counts.tobytes() == slow._online.counts.tobytes()
