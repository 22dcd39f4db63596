"""Extension — the modeled cost of the engine's row-tiled pipeline (shim).

The streamed mode (``chunk_rows=`` on the device backend) keeps the
kernel matrix in host memory and streams it over PCIe instead of keeping
it resident, so memory drops from O(n^2) to O(chunk_rows * n) while the
labels stay bit-exact.  The registry entry sweeps the panel height at
fixed n and charts the throughput price of streaming against monolithic
Popcorn; the shim executes streamed-vs-monolithic at small scale and
verifies label equality.

The practitioner's decision rule: use the largest panel height that
fits, and expect the modeled slowdown printed here.
"""

import numpy as np

from paperfig import run_registered
from repro.baselines import random_labels
from repro.core import PopcornKernelKMeans


def test_engine_tiling_sweep(benchmark):
    run_registered("ext_engine_tiling")

    # executing equivalence, timed: tiling must not change the labels
    rng = np.random.default_rng(0)
    x = rng.standard_normal((150, 8)).astype(np.float32)
    init = random_labels(150, 5, rng)

    def run():
        return PopcornKernelKMeans(
            5, chunk_rows=64, max_iter=5, check_convergence=False
        ).fit(x, init_labels=init)

    tiled_est = benchmark(run)
    mono_est = PopcornKernelKMeans(5, max_iter=5, check_convergence=False).fit(
        x, init_labels=init
    )
    assert np.array_equal(tiled_est.labels_, mono_est.labels_)
    assert tiled_est.timings_["transfer"] > mono_est.timings_["transfer"]
