"""The benchmark's metric table: names, units, direction, and what moves what.

``BENCHMARK.json`` carries the same names, units and bounds (its schema
has no field for the per-layer -> end-to-end mapping, so that lives
here and is printed with every traced run).  ``selftest.py`` checks the
two agree.
"""

from __future__ import annotations

#: name -> (unit, better, bound, meaning).  Every workload reports every
#: end-to-end metric, each measured on that workload's own inputs.
END_TO_END = {
    "setup_s": (
        "s",
        "lower",
        0.25,
        "median of the run's set-up repetitions: data, fits, artifact save, server start",
    ),
    "fit_s": ("s", "lower", 0.25, "host-backend fit wall (fastest of the run's host fits)"),
    "fit_device_s": ("s", "lower", 0.25, 'backend="auto" (device path) fit wall, fastest'),
    "fit_peak_mb": (
        "MB",
        "lower",
        0.05,
        "resident-set high-water rise over the first host fit (no instrumentation in the fit)",
    ),
    "latency_p50_ms": (
        "ms",
        "lower",
        0.25,
        "median latency: open loop from due time / per 64-row block / per 32-row direct predict",
    ),
    "slo_attainment": (
        "ratio",
        "higher",
        0.05,
        "share of sent operations answered within the 50 ms limit; shed or failed ones miss",
    ),
    "success_rate": (
        "ratio",
        "higher",
        0.01,
        "1 - error rate: operations neither failed, shed nor check-failed, over those attempted",
    ),
}

#: name -> (unit, better, moves).  ``moves`` names the end-to-end metric
#: (and the workload) a change in this layer should show up in.
PER_LAYER = {
    "host.sgemm_gflops": (
        "GFLOP/s",
        "higher",
        "calibration: the host roof the kernel rate is read against",
    ),
    "kernels.matrix_s": ("s", "lower", "fit_s on fit-8k"),
    "kernels.matrix_gflops": ("GFLOP/s", "higher", "fit_s on fit-8k"),
    "kernels.frac_of_sgemm": ("ratio", "higher", "fit_s on fit-8k"),
    "reduction.distances_s": ("s", "lower", "fit_s on fit-8k (~78% of it)"),
    "reduction.share_of_fit": ("ratio", "lower", "fit_s on fit-8k"),
    "reduction.computed_gbps": ("GB/s", "higher", "fit_s on fit-8k"),
    "reduction.computed_flop_per_byte": ("flop/B", "higher", "fit_s on fit-8k"),
    "fit.other_s": ("s", "lower", "fit_s on fit-8k (init, validation, _finalize_support)"),
    "kernels.peak_mb": ("MB", "lower", "fit_peak_mb on fit-8k"),
    "reduction.peak_mb": ("MB", "lower", "fit_peak_mb on fit-8k"),
    "fit.peak_over_k": ("ratio", "lower", "fit_peak_mb on fit-8k (the fp64 K copy shows here)"),
    "device.launches": ("count", "lower", "fit_device_s on fit-8k"),
    "persist.save_s": ("s", "lower", "setup_s on serve-async-hot (by hand)"),
    "persist.load_s": ("s", "lower", "setup_s on serve-async-hot (by hand)"),
    "frontdoor.start_s": ("s", "lower", "setup_s on serve-async-hot (by hand)"),
    "predict.batch32_ms": ("ms", "lower", "latency_p50_ms on serve-async-hot (by hand)"),
    "worker.roundtrip_ms": (
        "ms",
        "lower",
        "latency_p50_ms on serve-async-hot (by hand) (minus batch32: IPC)",
    ),
    "frontdoor.submit_us": (
        "us",
        "lower",
        "frontdoor.closed_loop_rps on serve-async-hot (by hand)",
    ),
    "frontdoor.cache_hit_rate": ("ratio", "higher", "latency_p50_ms on serve-async-hot (by hand)"),
    "frontdoor.coalesce_rate": ("ratio", "higher", "latency_p50_ms on serve-async-hot (by hand)"),
    "frontdoor.mean_batch_size": ("rows", "higher", "latency_p50_ms on serve-async-hot (by hand)"),
    "frontdoor.queue_peak": ("count", "lower", "slo_attainment on serve-async-hot (by hand)"),
    "frontdoor.closed_loop_rps": ("1/s", "higher", "none gated: closed-loop ingress capacity"),
    "frontdoor.backend_rows_per_request": (
        "ratio",
        "lower",
        "frontdoor.closed_loop_rps on serve-async-hot (by hand)",
    ),
    "loadgen.late_p99_ms": ("ms", "lower", "validity of the open-loop latencies"),
    "latency.p99_ms": ("ms", "lower", "slo_attainment: the tail, too unsteady here to gate"),
    "predict.block64_ms": ("ms", "lower", "latency_p50_ms on serve-thread-swap"),
    "kernels.cross_ms": ("ms", "lower", "latency_p50_ms on serve-thread-swap"),
    "reduction.cross_argmin_ms": ("ms", "lower", "latency_p50_ms on serve-thread-swap"),
    "service.overhead_ms": ("ms", "lower", "latency_p50_ms on serve-thread-swap"),
    "service.swap_ms": ("ms", "lower", "slo_attainment on serve-thread-swap"),
    "service.rows_per_s": (
        "1/s",
        "higher",
        "none gated: closed-loop rows/s of the thread service",
    ),
    "service.mean_batch_size": ("rows", "higher", "latency_p50_ms on serve-thread-swap"),
    "service.cache_hit_rate": ("ratio", "higher", "none: ~0 on serve-thread-swap by design"),
    "obs.overhead_ratio": (
        "ratio",
        "lower",
        "every workload's primary metric, when tracing is on",
    ),
}

#: the 50 ms latency limit behind slo_attainment
SLO_S = 0.050


def render(names, values, table) -> dict:
    """The ``metrics`` object of the result line for ``names``."""
    return {n: {"value": float(values[n]), "unit": table[n][0]} for n in names}
