"""Registry entry for the chunked pairwise-reduction engine experiment.

Compares the legacy row-tiled pipeline (materialise each ``tile_rows x k``
distance block, then a separate argmin pass) against the chunked
fused-argmin reduction (:mod:`repro.engine.reduction`) on the paper-scale
workload — modeled makespans across a thread sweep, the fused engine's
peak resident panel bytes, plus a small *executed* comparison that checks
bit-exact labels and measures the host-side wall-clock speedup.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..._typing import check_labels
from ...errors import ShapeError, check
from ...core.assignment import argmin_assign
from ...engine.reduction import chunk_ranges, fused_popcorn_argmin
from ...estimators import make_estimator
from ...modeling import model_popcorn_chunked, model_popcorn_tiled
from ...sparse import selection_matrix, spmm, spmv, weighted_selection_matrix
from ..registry import ExperimentResult, ExperimentSpec, RunConfig, register_experiment
from .common import ITERS, _probe_points

REDUCTION_WORKLOAD = (50000, 780, 100)  # n, d, k — the paper's mnist-scale point
REDUCTION_CHUNK_ROWS = 8192
REDUCTION_THREADS = (1, 2, 4, 8)

# executed comparison: small enough for CI, big enough to time
MEASURED_N, MEASURED_K = (1200, 16)
MEASURED_CHUNK = (256, 8)
MEASURED_REPEATS = 3


def _measured_kernel_matrix(n: int, seed: int) -> np.ndarray:
    x = _probe_points(n, 12, seed)
    return np.ascontiguousarray((x @ x.T).astype(np.float64))


def _time_best(fn, repeats: int = MEASURED_REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _tiled_popcorn_distances_host(k_mat, labels, k, *, tile_rows, weights=None, dtype=None):
    """The legacy row-tiled pipeline: the comparator the fused engine replaced.

    Computes ``D = -2 K V^T + P~ + C~`` with the SpMM run over column
    panels ``K[:, lo:hi]`` (by symmetry, the row tiles of K), so only one
    panel is live at a time — but the full ``n x k`` block D is still
    materialised for a separate argmin pass.  The CSR SpMM computes
    every output entry independently, so the result is bit-for-bit the
    monolithic pipeline's for every ``tile_rows``.  Returns ``(D, V)``;
    with ``weights`` the selection matrix is the weighted ``V_w``.
    """
    n = k_mat.shape[0]
    if k_mat.shape != (n, n):
        raise ShapeError("kernel matrix must be square")
    lab = check_labels(labels, n, k)
    dt = np.dtype(dtype) if dtype is not None else k_mat.dtype
    km = k_mat.astype(dt, copy=False)
    if weights is None:
        v = selection_matrix(lab, k, dtype=dt)
    else:
        v = weighted_selection_matrix(lab, k, weights, dtype=dt)
    e = np.empty((n, k), dtype=dt)
    for lo, hi in chunk_ranges(n, tile_rows):
        # the SpMM gathers rows of its dense operand, so the column
        # slice can be passed as a view — no per-panel contiguous copy
        e[lo:hi] = spmm(v, km[:, lo:hi], alpha=-2.0).T
    # centroid norms via the z-gather SpMV; the -0.5 cancels the -2
    z = np.ascontiguousarray(e[np.arange(n), lab])
    c_norms = spmv(v, z, alpha=-0.5)
    d = e
    d += np.diagonal(km)[:, None]
    d += c_norms[None, :]
    return d, v


def run_ext_reduction_engine(cfg: RunConfig) -> ExperimentResult:
    n, d, k = REDUCTION_WORKLOAD
    threads = (1, 4) if cfg.quick else REDUCTION_THREADS

    # ---- modeled: legacy tiled pipeline vs fused thread sweep ----------
    legacy = model_popcorn_tiled(n, d, k, tile_rows=REDUCTION_CHUNK_ROWS, iters=ITERS)
    rows = []
    modeled_by_t = {}
    panel_bytes = 0
    for t in threads:
        m = model_popcorn_chunked(
            n, d, k, chunk_rows=REDUCTION_CHUNK_ROWS, n_threads=t, iters=ITERS
        )
        modeled_by_t[t] = m.makespan_s
        panel_bytes = m.panel_bytes
        rows.append(
            (
                f"fused t={t}",
                f"{m.makespan_s:.3f}",
                f"{m.panel_bytes / 1e6:.2f}",
                f"{legacy.total_s / m.makespan_s:.2f}",
            )
        )
    # the legacy pipeline tiles the SpMM but still materialises the full
    # n x k distance matrix before its separate argmin pass
    legacy_resident = 4.0 * n * k
    rows.append(("legacy tiled", f"{legacy.total_s:.3f}", f"{legacy_resident / 1e6:.2f}", "1.00"))

    # ---- executed: bit-exact labels + measured wall clock --------------
    m_n, m_k = (400, 8) if cfg.quick else (MEASURED_N, MEASURED_K)
    km = _measured_kernel_matrix(m_n, cfg.base_seed)
    labels = np.random.default_rng(cfg.base_seed).integers(0, m_k, size=m_n).astype(np.int32)
    c_rows, c_cols = MEASURED_CHUNK

    d_legacy, _ = _tiled_popcorn_distances_host(km, labels, m_k, tile_rows=c_rows)
    ref_labels = argmin_assign(d_legacy)
    fused = fused_popcorn_argmin(
        km, labels, m_k, chunk_rows=c_rows, chunk_cols=c_cols, n_threads=1
    )
    labels_equal = bool(np.array_equal(fused.labels, ref_labels))
    min_d_equal = bool(np.array_equal(fused.min_d, d_legacy[np.arange(m_n), ref_labels]))

    t_legacy = _time_best(
        lambda: argmin_assign(
            _tiled_popcorn_distances_host(km, labels, m_k, tile_rows=c_rows)[0]
        )
    )
    t_fused_1 = _time_best(
        lambda: fused_popcorn_argmin(
            km, labels, m_k, chunk_rows=c_rows, chunk_cols=c_cols, n_threads=1
        )
    )
    t_fused_4 = _time_best(
        lambda: fused_popcorn_argmin(
            km, labels, m_k, chunk_rows=c_rows, chunk_cols=c_cols, n_threads=4
        )
    )
    measured_speedup_t4 = t_legacy / t_fused_4
    rows.append(("measured legacy", f"{t_legacy:.4f}", "-", "1.00"))
    rows.append(("measured fused t=1", f"{t_fused_1:.4f}", "-", f"{t_legacy / t_fused_1:.2f}"))
    rows.append(("measured fused t=4", f"{t_fused_4:.4f}", "-", f"{measured_speedup_t4:.2f}"))

    fused_t4_modeled = modeled_by_t.get(4, modeled_by_t[max(modeled_by_t)])
    return ExperimentResult(
        headers=("variant", "total_s", "peak_panel_MB", "speedup_vs_legacy"),
        rows=tuple(rows),
        aux={
            "modeled_by_t": modeled_by_t,
            "legacy_modeled_s": legacy.total_s,
            "panel_bytes": panel_bytes,
            "labels_equal": labels_equal,
            "min_d_equal": min_d_equal,
            "measured_speedup_t4": measured_speedup_t4,
            "cpu_count": os.cpu_count() or 1,
        },
        metrics={
            "time.reduction_modeled_legacy_s": legacy.total_s,
            "time.reduction_modeled_fused_t4_s": fused_t4_modeled,
            "mem.reduction_fused_panel_bytes": float(panel_bytes),
            "throughput.reduction_measured_speedup_t4": measured_speedup_t4,
        },
    )


def check_ext_reduction_engine(result: ExperimentResult) -> None:
    n, _, k = REDUCTION_WORKLOAD
    modeled = result.aux["modeled_by_t"]
    legacy_s = result.aux["legacy_modeled_s"]
    # the fused engine never materialises more than one chunk panel
    check(
        result.aux["panel_bytes"] <= 4.0 * REDUCTION_CHUNK_ROWS * k,
        'probe invariant violated: result.aux["panel_bytes"] <= 4.0 * REDUCTION_CHUNK_ROWS * k',
    )
    check(
        result.aux["panel_bytes"] < 4.0 * n * k,
        'probe invariant violated: result.aux["panel_bytes"] < 4.0 * n * k',
    )
    # the executed comparison is bit-for-bit, not approximately equal
    check(result.aux["labels_equal"], 'probe invariant violated: result.aux["labels_equal"]')
    check(result.aux["min_d_equal"], 'probe invariant violated: result.aux["min_d_equal"]')
    # more workers never hurt the modeled makespan, and at 4 threads the
    # fused sweep beats the serial legacy pipeline outright
    ts = sorted(modeled)
    check(
        all(modeled[a] >= modeled[b] for a, b in zip(ts, ts[1:])),
        'probe invariant violated: all(modeled[a] >= modeled[b] for a, b in zip(ts, ts[1:]))',
    )
    t4 = modeled.get(4, modeled[max(modeled)])
    check(t4 < legacy_s, 'probe invariant violated: t4 < legacy_s')
    # the measured speedup needs real cores to manifest; single-core CI
    # containers legitimately run the threaded sweep no faster
    if (os.cpu_count() or 1) >= 4:
        check(
            result.aux["measured_speedup_t4"] > 1.0,
            'probe invariant violated: result.aux["measured_speedup_t4"] > 1.0',
        )


def reduction_probe(cfg: RunConfig, *, n: int = 150, d: int = 8, k: int = 5):
    """Small real fit routed through the chunked fused reduction."""
    x = _probe_points(n, d, cfg.base_seed)

    def factory(seed: int):
        return make_estimator(
            "popcorn",
            n_clusters=k,
            dtype=np.float64,
            backend="host",
            chunk_rows=64,
            chunk_cols=3,
            n_threads=2,
            max_iter=5,
            check_convergence=False,
            seed=seed,
        )

    def fit(est):
        return est.fit(x)

    return factory, fit


register_experiment(
    ExperimentSpec(
        exp_id="ext_reduction_engine",
        title="chunked fused-argmin reduction vs legacy tiled pipeline (modeled + executed)",
        group="extension",
        run=run_ext_reduction_engine,
        k_values=(100,),
        check=check_ext_reduction_engine,
        probe=reduction_probe,
        tags=("reduction", "engine", "tiling", "threads"),
    )
)
