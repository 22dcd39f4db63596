"""Extension — four ways past the kernel-matrix memory wall (shim).

Standard Popcorn stores the full n x n kernel matrix (80 GB caps a single
A100 at n ~ 141k points in FP32).  The registry entry charts the modeled
cost of the strategies this library implements for larger n (resident
Popcorn, the row-tiled engine, on-the-fly panels, distributed) and
asserts the crossover structure; the shim executes the blocked paths at
small scale and verifies they agree bit for bit.
"""

import numpy as np

from paperfig import run_registered
from repro.baselines import random_labels
from repro.core import OnTheFlyKernelKMeans, PopcornKernelKMeans


def test_ext_memory_wall(benchmark):
    run_registered("ext_memory_wall")

    # executing equivalence of the blocked paths, timed
    rng = np.random.default_rng(0)
    x = rng.standard_normal((120, 6)).astype(np.float64)
    init = random_labels(120, 4, rng)

    def run():
        return OnTheFlyKernelKMeans(
            4, block_rows=32, max_iter=5, check_convergence=False
        ).fit(x, init_labels=init)

    otf = benchmark(run)
    std = PopcornKernelKMeans(4, dtype=np.float64, max_iter=5,
                              check_convergence=False).fit(x, init_labels=init)
    tiled_exec = PopcornKernelKMeans(4, dtype=np.float64, chunk_rows=32, max_iter=5,
                                     check_convergence=False).fit(x, init_labels=init)
    assert np.array_equal(otf.labels_, std.labels_)
    assert np.array_equal(tiled_exec.labels_, std.labels_)
