"""Analytical cost functions for every simulated operation.

Each function is **pure**: it maps operation shapes and a device spec to a
:class:`~repro.gpu.launch.Launch` record with FLOPs, bytes and modeled
time.  Both execution paths share these functions through the per-stage
launch generators of :mod:`repro.modeling` —

* the device backend runs the host numerics and charges each stage's
  launches to its :class:`~repro.gpu.device.Device` profiler, and
* the paper-scale analytical models sum the same stages without touching
  data —

so the two agree to the launch by construction.

Timing law (roofline with overheads)::

    time = max(flops / (peak * eff_compute), bytes / (bw * eff_memory))
           * serialization
           + launches * launch_overhead (+ lib_call_overhead)

All matrices are FP32 (4 bytes/element) with 32-bit sparse indices,
matching the paper's Sec. 4.4 accounting.
"""

from __future__ import annotations

from . import calibration as cal
from .launch import Launch
from .spec import CPUSpec, DeviceSpec

__all__ = [
    "FP32",
    "IDX32",
    "roofline_time",
    "gemm_cost",
    "syrk_cost",
    "triangular_copy_cost",
    "kernel_transform_cost",
    "diag_extract_cost",
    "spmm_cost",
    "gemm_tile_cost",
    "transform_tile_cost",
    "spmm_tile_cost",
    "spmv_cost",
    "spgemm_cost",
    "zgather_cost",
    "dadd_cost",
    "argmin_cost",
    "vbuild_cost",
    "h2d_cost",
    "d2h_cost",
    "reduce_counts_cost",
    "baseline_k1_cost",
    "baseline_k2_cost",
    "baseline_k3_cost",
    "cpu_gram_cost",
    "cpu_kernel_transform_cost",
    "cpu_iteration_cost",
]

FP32 = 4  # bytes per element
IDX32 = 4  # bytes per sparse index


def roofline_time(
    spec: DeviceSpec,
    flops: float,
    bytes_: float,
    *,
    eff_compute: float = 1.0,
    eff_memory: float = 1.0,
    serialization: float = 1.0,
    launches: int = 1,
    lib_call: bool = False,
) -> float:
    """Modeled execution time under the roofline-with-overheads law."""
    compute = flops / (spec.peak_fp32_gflops * 1e9 * eff_compute) if flops else 0.0
    memory = bytes_ / (spec.mem_bw_gbps * 1e9 * eff_memory) if bytes_ else 0.0
    fixed = launches * spec.launch_overhead_s + (spec.lib_call_overhead_s if lib_call else 0.0)
    return max(compute, memory) * serialization + fixed


# ----------------------------------------------------------------------
# kernel-matrix phase (Sec. 4.2)
# ----------------------------------------------------------------------

def gemm_cost(spec: DeviceSpec, n: int, d: int) -> Launch:
    """cuBLAS GEMM for ``B = P_hat @ P_hat^T`` — computes all n^2 entries.

    O(2 n^2 d) FLOPs (the paper's "GEMM requires O(n^2 d) FLOPS" with the
    conventional multiply-add factor of 2).
    """
    flops = 2.0 * n * n * d
    bytes_ = FP32 * (2.0 * n * d + n * n)
    t = roofline_time(
        spec,
        flops,
        bytes_,
        eff_compute=cal.gemm_compute_efficiency(n, d),
        eff_memory=0.85,
        lib_call=True,
    )
    return Launch("cublas.gemm", flops, bytes_, t, meta={"n": n, "d": d})


def syrk_cost(spec: DeviceSpec, n: int, d: int) -> Launch:
    """cuBLAS SYRK — computes only one triangle of ``B`` (half the FLOPs)."""
    flops = 1.0 * n * n * d  # n(n+1)/2 * 2d ~ n^2 d
    bytes_ = FP32 * (n * d + 0.5 * n * n)
    t = roofline_time(
        spec,
        flops,
        bytes_,
        eff_compute=cal.syrk_compute_efficiency(n, d),
        eff_memory=0.85,
        lib_call=True,
    )
    return Launch("cublas.syrk", flops, bytes_, t, meta={"n": n, "d": d})


def triangular_copy_cost(spec: DeviceSpec, n: int) -> Launch:
    """Mirror the computed triangle into the uncomputed one (Sec. 4.2).

    cuSPARSE needs the full dense ``B``, so after SYRK the explicit
    triangle is copied across the diagonal: read + write of n^2/2 entries.
    """
    bytes_ = FP32 * (n * n)  # n^2/2 reads + n^2/2 writes
    t = roofline_time(spec, 0.0, bytes_, eff_memory=cal.copy_mem_efficiency())
    return Launch("custom.triangular_mirror", 0.0, bytes_, t, meta={"n": n})


def kernel_transform_cost(spec: DeviceSpec, n: int, flops_per_entry: float = 4.0) -> Launch:
    """thrust::transform applying the kernel function to every entry of B."""
    flops = flops_per_entry * n * n
    bytes_ = FP32 * 2.0 * n * n  # read B, write K
    t = roofline_time(
        spec, flops, bytes_, eff_compute=0.5, eff_memory=cal.transform_mem_efficiency()
    )
    return Launch("thrust.transform", flops, bytes_, t, meta={"n": n})


def diag_extract_cost(spec: DeviceSpec, n: int) -> Launch:
    """Extract diag(K) into the dense vector representing P~ (Alg. 2 line 2).

    The diagonal is strided, so each element costs a full 32-byte sector.
    """
    bytes_ = 32.0 * n + FP32 * n
    t = roofline_time(spec, 0.0, bytes_, eff_memory=0.5)
    return Launch("custom.diag_extract", 0.0, bytes_, t, meta={"n": n})


# ----------------------------------------------------------------------
# Popcorn distance phase (Sec. 4.3, Alg. 2 lines 7-10)
# ----------------------------------------------------------------------

def spmm_cost(spec: DeviceSpec, n: int, k: int) -> Launch:
    """cuSPARSE SpMM for ``E = -2 K V^T``.

    V has exactly n nonzeros, so the product touches every entry of K once:
    2 n^2 useful FLOPs (the paper's O(n^2) per-iteration cost).  Traffic is
    the whole of K plus V's CSR arrays and the n x k output, inflated by
    :data:`~repro.gpu.calibration.SPMM_TRAFFIC_FACTOR` because cuSPARSE
    SpMM does not stage partial sums in shared memory (Sec. 5.5).
    """
    flops = 2.0 * n * n
    bytes_ = (
        FP32 * (cal.SPMM_TRAFFIC_FACTOR * n * n + n * k + n)
        + IDX32 * (2.0 * n + k + 1)
    )
    t = roofline_time(
        spec,
        flops,
        bytes_,
        eff_memory=cal.spmm_mem_efficiency(k, n),
        lib_call=True,
    )
    return Launch("cusparse.spmm", flops, bytes_, t, meta={"n": n, "k": k})


def spmv_cost(spec: DeviceSpec, n: int, k: int) -> Launch:
    """cuSPARSE SpMV for the centroid norms ``-0.5 V z`` (Eq. 15): O(n)."""
    flops = 2.0 * n
    bytes_ = FP32 * (2.0 * n + k) + IDX32 * (2.0 * n + k + 1)
    t = roofline_time(
        spec, flops, bytes_, eff_memory=cal.spmv_mem_efficiency(n), lib_call=True
    )
    return Launch("cusparse.spmv", flops, bytes_, t, meta={"n": n, "k": k})


def spgemm_cost(spec: DeviceSpec, n: int, k: int, mults: float) -> Launch:
    """cuSPARSE SpGEMM for the unoptimised ``V K V^T`` norm path (ablation).

    ``mults`` is the exact multiply count (expansion size); the ESC
    algorithm also sorts/compresses, adding ~3x index traffic.
    """
    flops = 2.0 * mults
    bytes_ = FP32 * (3.0 * mults + n * k) + IDX32 * (4.0 * mults)
    t = roofline_time(spec, flops, bytes_, eff_memory=0.35, lib_call=True)
    return Launch("cusparse.spgemm", flops, bytes_, t, meta={"n": n, "k": k})


def zgather_cost(spec: DeviceSpec, n: int, k: int) -> Launch:
    """Hand-written z-initialisation kernel (Alg. 2 line 8).

    One thread per point gathers ``E[i, cluster(i)]`` — an uncoalesced read
    charged one 32-byte sector per element.
    """
    bytes_ = 32.0 * n + FP32 * 2.0 * n
    t = roofline_time(spec, n, bytes_, eff_memory=0.5)
    return Launch("custom.z_gather", float(n), bytes_, t, meta={"n": n, "k": k})


def dadd_cost(spec: DeviceSpec, n: int, k: int) -> Launch:
    """Hand-written matrix add ``D = E + P~ + C~`` (Alg. 2 line 10).

    P~ and C~ are stored as vectors (Sec. 4.3), so traffic is the n x k
    matrix twice plus the two vectors.
    """
    flops = 2.0 * n * k
    bytes_ = FP32 * (2.0 * n * k + n + k)
    t = roofline_time(spec, flops, bytes_, eff_memory=0.85)
    return Launch("custom.d_add", flops, bytes_, t, meta={"n": n, "k": k})


def argmin_cost(spec: DeviceSpec, n: int, k: int) -> Launch:
    """RAFT coalescedReduction row-argmin over D (Alg. 2 lines 11-13)."""
    flops = float(n * k)
    bytes_ = FP32 * (n * k + n)
    t = roofline_time(
        spec, flops, bytes_, eff_memory=cal.argmin_mem_efficiency(), lib_call=True
    )
    return Launch("raft.coalesced_reduction_argmin", flops, bytes_, t, meta={"n": n, "k": k})


def vbuild_cost(spec: DeviceSpec, n: int, k: int) -> Launch:
    """Rebuild the CSR arrays of V from the assignment vector (Sec. 4.1).

    A reduction computes cluster cardinalities, then a scatter fills
    values/colinds/rowptrs — two launches.
    """
    bytes_ = FP32 * n + IDX32 * (3.0 * n + 2.0 * (k + 1))
    t = roofline_time(spec, float(n), bytes_, eff_memory=0.4, launches=2)
    return Launch("custom.v_build", float(n), bytes_, t, meta={"n": n, "k": k})


# ----------------------------------------------------------------------
# streamed (out-of-core) mode — the device backend with chunk_rows
# ----------------------------------------------------------------------

def gemm_tile_cost(spec: DeviceSpec, rows: int, n: int, d: int) -> Launch:
    """Rectangular GEMM for one row panel ``B[lo:hi] = P[lo:hi] @ P^T``.

    The streamed kernel stage builds K in row panels of the tile height
    instead of one square GEMM, so the panel never exceeds tile memory.
    """
    flops = 2.0 * rows * n * d
    bytes_ = FP32 * (rows * d + n * d + rows * n)
    t = roofline_time(
        spec, flops, bytes_, eff_compute=cal.gemm_compute_efficiency(n, d),
        eff_memory=0.85, lib_call=True,
    )
    return Launch("cublas.gemm_tile", flops, bytes_, t, meta={"rows": rows, "n": n, "d": d})


def transform_tile_cost(
    spec: DeviceSpec, rows: int, n: int, flops_per_entry: float = 4.0
) -> Launch:
    """Elementwise kernel application over one ``rows x n`` Gram panel."""
    flops = flops_per_entry * rows * n
    bytes_ = FP32 * 2.0 * rows * n
    t = roofline_time(spec, flops, bytes_, eff_compute=0.5, eff_memory=0.85)
    return Launch("thrust.transform_tile", flops, bytes_, t, meta={"rows": rows, "n": n})


def spmm_tile_cost(spec: DeviceSpec, rows: int, n: int, k: int) -> Launch:
    """cuSPARSE SpMM over one streamed panel of K: rows ``[lo, hi)`` of E.

    Same traffic law as :func:`spmm_cost` restricted to the panel, plus
    V's CSR arrays re-read per tile (the panels stream; V stays resident).
    """
    flops = 2.0 * rows * n
    bytes_ = (
        FP32 * (cal.SPMM_TRAFFIC_FACTOR * rows * n + rows * k + n)
        + IDX32 * (2.0 * n + k + 1)
    )
    t = roofline_time(
        spec, flops, bytes_,
        eff_memory=cal.spmm_mem_efficiency(k, max(rows, 1)),
        lib_call=True,
    )
    return Launch("cusparse.spmm_tile", flops, bytes_, t, meta={"rows": rows, "n": n, "k": k})


# ----------------------------------------------------------------------
# transfers
# ----------------------------------------------------------------------

def h2d_cost(spec: DeviceSpec, nbytes: float) -> Launch:
    """Host-to-device copy over PCIe."""
    t = nbytes / (spec.pcie_bw_gbps * 1e9) + 1.0e-5
    return Launch("cuda.memcpy_h2d", 0.0, float(nbytes), t)


def d2h_cost(spec: DeviceSpec, nbytes: float) -> Launch:
    """Device-to-host copy over PCIe."""
    t = nbytes / (spec.pcie_bw_gbps * 1e9) + 1.0e-5
    return Launch("cuda.memcpy_d2h", 0.0, float(nbytes), t)


# ----------------------------------------------------------------------
# baseline CUDA implementation (Sec. 5.3)
# ----------------------------------------------------------------------

def reduce_counts_cost(spec: DeviceSpec, n: int, k: int) -> Launch:
    """Cluster cardinalities via a thrust reduction (the baseline, Sec. 4.1)."""
    bytes_ = 4.0 * (n + k)
    t = roofline_time(spec, float(n), bytes_, eff_memory=0.4)
    return Launch("thrust.reduce_counts", float(n), bytes_, t, meta={"n": n, "k": k})


def baseline_k1_cost(spec: DeviceSpec, n: int, k: int) -> Launch:
    """Baseline kernel 1: per-row shared-memory reduction of K by cluster.

    Functionally equivalent to Popcorn's SpMM.  Useful FLOPs are the same
    2 n^2; the profiler additionally counts the shared-bin accumulation
    adds (:func:`~repro.gpu.calibration.baseline_counted_redundancy`), and
    contention on the length-k shared buffer serialises execution
    (:func:`~repro.gpu.calibration.baseline_reduction_serialization`).
    """
    flops = 2.0 * n * n
    counted = flops * cal.baseline_counted_redundancy(k)
    bytes_ = FP32 * (n * n + n * k + n)
    t = roofline_time(
        spec,
        flops,
        bytes_,
        eff_memory=cal.baseline_mem_efficiency(n),
        serialization=cal.baseline_reduction_serialization(k),
    )
    return Launch(
        "baseline.k1_cluster_reduce", flops, bytes_, t, counted_flops=counted,
        meta={"n": n, "k": k},
    )


def baseline_k2_cost(spec: DeviceSpec, n: int, k: int) -> Launch:
    """Baseline kernel 2: centroid norms via global-memory reduction.

    n threads gather their cluster's reduced entry and atomically combine —
    atomic-heavy, so effective bandwidth is poor.
    """
    flops = 2.0 * n
    bytes_ = FP32 * (2.0 * n + k)
    t = roofline_time(spec, flops, bytes_, eff_memory=0.15)
    return Launch("baseline.k2_centroid_norms", flops, bytes_, t, meta={"n": n, "k": k})


def baseline_k3_cost(spec: DeviceSpec, n: int, k: int) -> Launch:
    """Baseline kernel 3: embarrassingly-parallel distance assembly (n*k threads)."""
    flops = 2.0 * n * k
    bytes_ = FP32 * (2.0 * n * k + n + k)
    t = roofline_time(spec, flops, bytes_, eff_memory=0.6)
    return Launch("baseline.k3_distance_assemble", flops, bytes_, t, meta={"n": n, "k": k})


# ----------------------------------------------------------------------
# CPU (PRMLT) implementation — Sec. 5.4 comparator
# ----------------------------------------------------------------------

def cpu_gram_cost(cpu: CPUSpec, n: int, d: int) -> Launch:
    """MATLAB dense GEMM for the kernel matrix (multithreaded BLAS)."""
    flops = 2.0 * n * n * d
    bytes_ = 8.0 * (2.0 * n * d + n * n)  # MATLAB doubles
    compute = flops / (cpu.dense_gflops * 1e9)
    memory = bytes_ / (cpu.mem_bw_gbps * 1e9)
    return Launch("cpu.gram_gemm", flops, bytes_, max(compute, memory), meta={"n": n, "d": d})


def cpu_kernel_transform_cost(cpu: CPUSpec, n: int) -> Launch:
    """MATLAB elementwise kernel application over the n x n Gram matrix."""
    flops = 4.0 * n * n
    bytes_ = 8.0 * 2.0 * n * n
    t = max(flops / (cpu.dense_gflops * 0.3 * 1e9), bytes_ / (cpu.mem_bw_gbps * 1e9))
    return Launch("cpu.kernel_transform", flops, bytes_, t, meta={"n": n})


def cpu_iteration_cost(cpu: CPUSpec, n: int, k: int) -> Launch:
    """One PRMLT clustering iteration on the CPU.

    The M-code reduces K by cluster with indexed sums (O(n^2) interpreted
    work), computes centroid norms and assigns points (O(n k)); per-cluster
    bookkeeping adds an overhead linear in k, which is why the CPU slows
    down faster than the GPU baseline as k grows (Fig. 3 trend).
    """
    flops = 2.0 * n * n + 4.0 * n * k
    bytes_ = 8.0 * (n * n + 2.0 * n * k + 2.0 * n)
    t = flops / (cpu.scalar_gflops * 1e9) + k * cpu.per_cluster_overhead_s
    return Launch("cpu.kkmeans_iteration", flops, bytes_, t, meta={"n": n, "k": k})
