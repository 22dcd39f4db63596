"""Analytical runtime models at paper scale, and the device launch log.

The executing device cannot materialise a 50000 x 50000 kernel matrix in
this environment, but every figure in the paper's evaluation is a function
of modeled launch times only.  This module rebuilds the exact launch
sequences of Popcorn, the baseline CUDA implementation, and the CPU PRMLT
implementation *analytically* — same cost functions, same order, no
numerics — and returns a populated :class:`~repro.gpu.Profiler`.

The launch sequence of each pipeline stage is written once, as a
generator of ``(phase, launch)`` pairs: the kernel-matrix stage
(:func:`kernel_stage_launches`, :func:`load_stage_launches`), one
Popcorn distance step (:func:`popcorn_step_launches`), the row argmin
(:func:`argmin_launches`) and one baseline distance step
(:func:`baseline_step_launches`).  The device backend
(:class:`repro.engine.DeviceBackend`) executes the host numerics and
charges these same generators to its device, and the ``model_*``
functions below loop over them — so the executed and the modeled launch
logs agree launch for launch by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, Iterator, Optional, Tuple

from .errors import ConfigError
from .gpu import cost
from .gpu.launch import Launch
from .gpu.profiler import Profiler
from .gpu.spec import A100_80GB, CPUSpec, DeviceSpec, EPYC_7763
from .kernels.dispatch import choose_gram_method

__all__ = [
    "RunModel",
    "ChunkedRunModel",
    "model_popcorn",
    "model_popcorn_tiled",
    "model_popcorn_chunked",
    "model_baseline",
    "model_cpu",
    "model_gram",
    "record_launches",
    "kernel_stage_launches",
    "load_stage_launches",
    "popcorn_step_launches",
    "argmin_launches",
    "baseline_step_launches",
]

FP32 = cost.FP32

#: one stage's launches, each with the Fig. 8 phase it is charged to
Staged = Iterator[Tuple[str, Launch]]


@dataclass(frozen=True)
class RunModel:
    """Modeled run: the launch log plus convenience totals.

    Attributes
    ----------
    profiler:
        The populated launch log (same aggregation API the executing
        device exposes).
    n, d, k, iters:
        The workload parameters.
    """

    profiler: Profiler
    n: int
    d: int
    k: int
    iters: int

    @property
    def total_s(self) -> float:
        return self.profiler.total_time()

    @property
    def phases(self) -> Dict[str, float]:
        return self.profiler.phase_times()

    def phase_s(self, phase: str) -> float:
        return self.phases.get(phase, 0.0)


def _check(n: int, d: int, k: int, iters: int) -> None:
    if min(n, d, k, iters) < 1:
        raise ConfigError(f"n, d, k, iters must be positive, got {(n, d, k, iters)}")
    if k > n:
        raise ConfigError(f"k={k} exceeds n={n}")


# ----------------------------------------------------------------------
# per-stage launch generators (shared with the device backend)
# ----------------------------------------------------------------------

def record_launches(prof: Profiler, staged: Iterable[Tuple[str, Launch]]) -> None:
    """Charge a stage's launches to ``prof``, each tagged with its phase."""
    for phase, launch in staged:
        prof.record(launch.with_phase(phase))


def _gram_launches(spec: DeviceSpec, n: int, d: int, method: str):
    """The Gram product ``B = P P^T``: one GEMM, or SYRK + triangular mirror."""
    if method == "gemm":
        return [cost.gemm_cost(spec, n, d)]
    if method == "syrk":
        return [cost.syrk_cost(spec, n, d), cost.triangular_copy_cost(spec, n)]
    raise ConfigError(f"method must be 'gemm' or 'syrk', got {method!r}")


def _row_chunks(n: int, chunk_rows: int):
    # imported at call time: repro.engine.backends imports this module
    from .engine.reduction import chunk_ranges

    return chunk_ranges(n, chunk_rows)


def kernel_stage_launches(
    spec: DeviceSpec,
    n: int,
    d: int,
    *,
    method: str,
    kernel_flops_per_entry: float = 4.0,
    chunk_rows: Optional[int] = None,
    itemsize: int = FP32,
    diag_snapshot: bool = False,
    include_transfer: bool = True,
) -> Staged:
    """Launches of the kernel-matrix stage from points (Alg. 2 lines 1-2).

    Resident mode (``chunk_rows=None``): the H2D of the points, GEMM or
    SYRK + triangular mirror, the ``diag(B)`` snapshot a Gaussian kernel
    takes before the in-place transform (``diag_snapshot``), the
    elementwise transform and the ``P~`` extraction.  Streamed mode:
    per ``chunk_rows x n`` panel a rectangular GEMM + transform, the
    ``P~`` extraction, the D2H writeback of every panel and the ``P~``
    upload — K is never resident.  ``itemsize`` sizes the transfers.
    """
    if include_transfer:
        yield "transfer", cost.h2d_cost(spec, itemsize * n * d)
    if chunk_rows is None:
        for launch in _gram_launches(spec, n, d, method):
            yield "kernel_matrix", launch
        if diag_snapshot:
            yield "kernel_matrix", cost.diag_extract_cost(spec, n)
        yield "kernel_matrix", cost.kernel_transform_cost(spec, n, kernel_flops_per_entry)
        yield "kernel_matrix", cost.diag_extract_cost(spec, n)
        return
    chunks = _row_chunks(n, chunk_rows)
    for lo, hi in chunks:
        yield "kernel_matrix", cost.gemm_tile_cost(spec, hi - lo, n, d)
        yield "kernel_matrix", cost.transform_tile_cost(
            spec, hi - lo, n, kernel_flops_per_entry
        )
    yield "kernel_matrix", cost.diag_extract_cost(spec, n)
    for lo, hi in chunks:
        yield "transfer", cost.d2h_cost(spec, itemsize * (hi - lo) * n)
    yield "transfer", cost.h2d_cost(spec, itemsize * n)  # P~ upload


def load_stage_launches(
    spec: DeviceSpec, n: int, *, chunk_rows: Optional[int] = None, itemsize: int = FP32
) -> Staged:
    """Launches of adopting a precomputed kernel matrix.

    Resident mode uploads K and extracts ``P~`` on the device; streamed
    mode keeps K in host memory and uploads only ``P~``.
    """
    if chunk_rows is None:
        yield "transfer", cost.h2d_cost(spec, itemsize * n * n)
        yield "kernel_matrix", cost.diag_extract_cost(spec, n)
    else:
        yield "kernel_matrix", cost.diag_extract_cost(spec, n)
        yield "transfer", cost.h2d_cost(spec, itemsize * n)


def popcorn_step_launches(
    spec: DeviceSpec, n: int, k: int, *, chunk_rows: Optional[int] = None, itemsize: int = FP32
) -> Staged:
    """Launches of one Popcorn distance step (Alg. 2 lines 7-10).

    V build, then the SpMM ``E = -2 K V^T``, the z-gather, the
    centroid-norm SpMV and the fused ``D = E + P~ + C~`` add.  Streamed
    mode re-uploads K one ``chunk_rows x n`` panel at a time and runs
    the SpMM and z-gather per panel.
    """
    yield "argmin_update", cost.vbuild_cost(spec, n, k)
    if chunk_rows is None:
        yield "distances", cost.spmm_cost(spec, n, k)
        yield "distances", cost.zgather_cost(spec, n, k)
    else:
        for lo, hi in _row_chunks(n, chunk_rows):
            yield "transfer", cost.h2d_cost(spec, itemsize * (hi - lo) * n)
            yield "distances", cost.spmm_tile_cost(spec, hi - lo, n, k)
            yield "distances", cost.zgather_cost(spec, hi - lo, k)
    yield "distances", cost.spmv_cost(spec, n, k)
    yield "distances", cost.dadd_cost(spec, n, k)


def argmin_launches(spec: DeviceSpec, n: int, k: int) -> Staged:
    """The row argmin over the ``n x k`` distances (RAFT, Sec. 4.3)."""
    yield "argmin_update", cost.argmin_cost(spec, n, k)


def baseline_step_launches(spec: DeviceSpec, n: int, k: int) -> Staged:
    """One baseline distance step (Sec. 5.3): the cardinality reduction
    plus the three hand-written kernels."""
    yield "argmin_update", cost.reduce_counts_cost(spec, n, k)
    yield "distances", cost.baseline_k1_cost(spec, n, k)
    yield "distances", cost.baseline_k2_cost(spec, n, k)
    yield "distances", cost.baseline_k3_cost(spec, n, k)


# ----------------------------------------------------------------------
# whole-run models
# ----------------------------------------------------------------------

def model_gram(spec: DeviceSpec, n: int, d: int, method: str) -> Profiler:
    """Launches of the Gram stage only (Fig. 2 workload)."""
    prof = Profiler()
    record_launches(prof, (("kernel_matrix", ln) for ln in _gram_launches(spec, n, d, method)))
    return prof


def _model_run(n: int, d: int, k: int, iters: int, kernel_stage: Staged, *per_iter) -> RunModel:
    """Record the kernel stage, then each per-iteration stage ``iters`` times."""
    prof = Profiler()
    record_launches(prof, kernel_stage)
    for _ in range(iters):
        for stage in per_iter:
            record_launches(prof, stage())
    return RunModel(prof, n, d, k, iters)


def model_popcorn(
    n: int,
    d: int,
    k: int,
    *,
    iters: int = 30,
    spec: DeviceSpec = A100_80GB,
    gram_method: str = "auto",
    gram_threshold: float | None = None,
    kernel_flops_per_entry: float = 4.0,
    include_transfer: bool = True,
) -> RunModel:
    """Analytical launch log of a full Popcorn run (Alg. 2).

    Mirrors :meth:`repro.core.PopcornKernelKMeans.fit` launch for launch:
    H2D of the points, GEMM/SYRK + transform + diag for K, then per
    iteration V build, SpMM, z-gather, SpMV, D-add, argmin.
    """
    _check(n, d, k, iters)
    used = choose_gram_method(n, d, gram_threshold) if gram_method == "auto" else gram_method
    stage = kernel_stage_launches(
        spec,
        n,
        d,
        method=used,
        kernel_flops_per_entry=kernel_flops_per_entry,
        include_transfer=include_transfer,
    )
    return _model_run(
        n,
        d,
        k,
        iters,
        stage,
        partial(popcorn_step_launches, spec, n, k),
        partial(argmin_launches, spec, n, k),
    )


def model_popcorn_tiled(
    n: int,
    d: int,
    k: int,
    *,
    tile_rows: int,
    iters: int = 30,
    spec: DeviceSpec = A100_80GB,
    kernel_flops_per_entry: float = 4.0,
    include_transfer: bool = True,
) -> RunModel:
    """Analytical launch log of a row-tiled (out-of-core) Popcorn run.

    Mirrors the device backend's streaming mode (``chunk_rows=tile_rows``)
    launch for launch: the kernel matrix is built in ``tile_rows x n``
    GEMM panels and written back to host memory, then every iteration
    re-streams the panels over PCIe for the tiled SpMM.  K is never
    resident, so the device footprint is O(tile_rows * n) — the run is
    feasible at any ``n`` — and the price is the per-iteration H2D
    traffic this model charges.
    """
    _check(n, d, k, iters)
    from .engine.reduction import validate_chunk_size

    rows = validate_chunk_size(tile_rows, "tile_rows") or n
    stage = kernel_stage_launches(
        spec,
        n,
        d,
        method="gemm",
        kernel_flops_per_entry=kernel_flops_per_entry,
        chunk_rows=rows,
        include_transfer=include_transfer,
    )
    return _model_run(
        n,
        d,
        k,
        iters,
        stage,
        partial(popcorn_step_launches, spec, n, k, chunk_rows=rows),
        partial(argmin_launches, spec, n, k),
    )


@dataclass(frozen=True)
class ChunkedRunModel:
    """Modeled chunked-fused run: the work log plus the threaded makespan.

    ``profiler`` holds every launch (the *total* work across all
    workers); ``makespan_s`` is the critical path when row chunks are
    dealt round-robin over ``n_threads`` workers — serial stages
    (transfers, V build, z-pass, SpMV) plus the slowest worker's share
    of the fused panel sweep per iteration.  ``panel_bytes`` is the peak
    resident distance-panel footprint per worker (the fused engine's
    memory bound, vs ``n x k`` for the legacy pipeline).
    """

    profiler: Profiler
    makespan_s: float
    n: int
    d: int
    k: int
    iters: int
    n_threads: int
    panel_bytes: int

    @property
    def total_work_s(self) -> float:
        return self.profiler.total_time()

    @property
    def phases(self) -> Dict[str, float]:
        return self.profiler.phase_times()


def model_popcorn_chunked(
    n: int,
    d: int,
    k: int,
    *,
    chunk_rows: int,
    chunk_cols: int | None = None,
    n_threads: int = 1,
    iters: int = 30,
    spec: DeviceSpec = A100_80GB,
    kernel_flops_per_entry: float = 4.0,
    include_transfer: bool = True,
) -> ChunkedRunModel:
    """Analytical model of the chunked fused-argmin reduction engine.

    Mirrors :func:`repro.engine.reduction.fused_popcorn_argmin` iterated
    ``iters`` times on a streamed kernel matrix: the kernel stage and the
    per-iteration serial work (V build, z-pass, centroid-norm SpMV)
    match :func:`model_popcorn_tiled`; the panel sweep replaces the
    legacy full-matrix D-add + separate argmin with per-chunk fused
    work (SpMM + add + running argmin over each
    ``chunk_rows x chunk_cols`` panel), distributed round-robin over
    ``n_threads`` workers — only the slowest worker's share lands on the
    critical path.  The fused sweep never materialises the ``n x k``
    block, so ``panel_bytes`` bounds resident distance storage.
    """
    _check(n, d, k, iters)
    if n_threads < 1:
        raise ConfigError(f"n_threads must be >= 1, got {n_threads}")
    from .engine.reduction import chunk_ranges

    row_chunks = chunk_ranges(n, chunk_rows)
    col_chunks = chunk_ranges(k, chunk_cols)
    prof = Profiler()
    makespan = 0.0

    def serial(phase: str, *launches) -> None:
        nonlocal makespan
        with prof.phase(phase):
            for launch in launches:
                prof.record(launch)
                makespan += launch.time_s

    for phase, launch in kernel_stage_launches(
        spec,
        n,
        d,
        method="gemm",
        kernel_flops_per_entry=kernel_flops_per_entry,
        chunk_rows=chunk_rows or n,
        include_transfer=include_transfer,
    ):
        serial(phase, launch)

    for _ in range(iters):
        serial("argmin_update", cost.vbuild_cost(spec, n, k))
        # the z-pass gather and the centroid-norm SpMV are serial stages
        serial("distances", cost.zgather_cost(spec, n, k), cost.spmv_cost(spec, n, k))
        # fused panel sweep: row chunks dealt round-robin over the workers
        worker_s = [0.0] * n_threads
        for i, (lo, hi) in enumerate(row_chunks):
            rr = hi - lo
            t_chunk = 0.0
            with prof.phase("transfer"):
                h2d = cost.h2d_cost(spec, FP32 * rr * n)
                prof.record(h2d)
                t_chunk += h2d.time_s
            for c0, c1 in col_chunks:
                cc = c1 - c0
                with prof.phase("distances"):
                    for launch in (
                        cost.spmm_tile_cost(spec, rr, n, cc),
                        cost.dadd_cost(spec, rr, cc),
                    ):
                        prof.record(launch)
                        t_chunk += launch.time_s
                with prof.phase("argmin_update"):
                    amin = cost.argmin_cost(spec, rr, cc)
                    prof.record(amin)
                    t_chunk += amin.time_s
            worker_s[i % n_threads] += t_chunk
        makespan += max(worker_s)

    rows = min(chunk_rows, n) if chunk_rows else n
    cols = min(chunk_cols, k) if chunk_cols else k
    panel_bytes = int(FP32 * rows * cols)
    return ChunkedRunModel(prof, makespan, n, d, k, iters, n_threads, panel_bytes)


def model_baseline(
    n: int,
    d: int,
    k: int,
    *,
    iters: int = 30,
    spec: DeviceSpec = A100_80GB,
    kernel_flops_per_entry: float = 4.0,
    include_transfer: bool = True,
) -> RunModel:
    """Analytical launch log of the baseline CUDA implementation (Sec. 5.3).

    GEMM-only kernel matrix, then per iteration the cardinality reduction
    plus the three hand-written kernels and the argmin.
    """
    _check(n, d, k, iters)
    stage = kernel_stage_launches(
        spec,
        n,
        d,
        method="gemm",
        kernel_flops_per_entry=kernel_flops_per_entry,
        include_transfer=include_transfer,
    )
    return _model_run(
        n,
        d,
        k,
        iters,
        stage,
        partial(baseline_step_launches, spec, n, k),
        partial(argmin_launches, spec, n, k),
    )


def model_cpu(
    n: int,
    d: int,
    k: int,
    *,
    iters: int = 30,
    cpu: CPUSpec = EPYC_7763,
) -> RunModel:
    """Analytical time of the PRMLT CPU implementation (Sec. 5.4)."""
    _check(n, d, k, iters)
    prof = Profiler()
    with prof.phase("kernel_matrix"):
        prof.record(cost.cpu_gram_cost(cpu, n, d))
        prof.record(cost.cpu_kernel_transform_cost(cpu, n))
    with prof.phase("clustering"):
        for _ in range(iters):
            prof.record(cost.cpu_iteration_cost(cpu, n, k))
    return RunModel(prof, n, d, k, iters)
