"""Extension — micro-batched out-of-sample serving throughput (shim).

The registry entry fits a Popcorn model, round-trips it through the
``repro.serve`` artifact format, and drives the micro-batching
:class:`~repro.serve.PredictionService` over a repeating query stream,
sweeping the batch size; the tracked ``throughput.serve_qps`` metric is
what ``repro-bench compare`` gates prediction latency on.  The shim
re-runs the full-mode sweep, then times one batched serving pass with
pytest-benchmark and verifies the serving acceptance contract: served
labels are bit-identical to the fitting estimator's in-memory
``predict`` and to an independent oracle, the exact SpMM distances
``argmin(-2 spmm(V, Kc^T)^T + C~)`` built straight from
:func:`repro.sparse.spmm` (``predict`` runs certified GEMM panels, so
comparing it only with itself would not pin them).
"""

import numpy as np

from paperfig import run_registered
from repro.core import PopcornKernelKMeans
from repro.serve import PredictionService
from repro.sparse import spmm


def test_serve_throughput_sweep(benchmark):
    run_registered("serve_throughput")

    # executing serving pass, timed: batched labels == in-memory predict
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 6))
    model = PopcornKernelKMeans(
        4, dtype=np.float64, backend="host", max_iter=5, check_convergence=False, seed=0
    ).fit(x)
    queries = rng.standard_normal((128, 6))
    reference = model.predict(queries)
    kc = model.kernel.pairwise(queries, x)
    oracle = np.argmin(-2.0 * spmm(model._support_selection(), kc.T).T + model._c_norms, axis=1)
    assert np.array_equal(reference, oracle)

    def run():
        with PredictionService(model, batch_size=32, max_delay_ms=1.0) as svc:
            return svc.predict_many(queries)

    served = benchmark(run)
    assert np.array_equal(served, reference)
    assert np.array_equal(served, oracle)
