"""The sharded multi-device engine backend (paper Sec. 7 future work).

``backend="sharded"`` (or ``"sharded:<g>"``) runs any engine estimator as
an SPMD program over ``g`` simulated devices with a 1-D row partition of
the kernel matrix (:func:`repro.distributed.partition.row_blocks`):

* **Kernel matrix** — the points are allgathered once, then every device
  builds its own ``rows x n`` row block (rectangular GEMM + elementwise
  transform);
* **Each iteration** — labels are replicated, so every device builds the
  same (tiny) V, runs the SpMM on its row block for its slice of
  ``E = -2 K V^T``, gathers its local z entries, and one ring allreduce
  of ``k`` floats completes the centroid norms; distances and the row
  argmin are local, and the new labels are exchanged with a ring
  allgather of ``n`` words.

**Numerics are the host backend's, bit for bit.**  The CSR SpMM computes
every output row independently, so the row-sharded product is identical
to the monolithic one; the backend therefore executes the exact host
pipeline once while the *cost model* charges per-device
rectangular panels (:mod:`repro.distributed.costs`) and ring collectives
(:mod:`repro.distributed.comm`).  ``backend="sharded:<g>"`` and
``backend="host"`` produce identical labels from identical seeds for
every estimator in the family (property-tested), which is what makes the
modeled strong-scaling curves trustworthy.

After a fit the estimator exposes ``device_profilers_`` (one launch log
per simulated device), ``comm_profiler_`` (the collective log),
``makespan_s_`` (max device clock + serial comm clock),
``parallel_efficiency_`` and ``n_devices_``.

The :mod:`repro.distributed` imports are deferred to call time: that
package's :class:`~repro.distributed.DistributedPopcornKernelKMeans` is
itself built on the engine, and importing it from here at module scope
would close an import cycle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import AllocationError, ConfigError
from ..gpu import cost
from ..obs import metrics, trace
from ..gpu.launch import Launch
from ..gpu.profiler import Profiler
from ..gpu.spec import A100_80GB, DeviceSpec
from .backends import (
    Backend,
    DistanceStep,
    EngineState,
    _adopt_kernel_matrix,
    _check_gram_expressible,
    _fused_step,
    _host_kernel_matrix,
    _row_argmin,
    baseline_distances,
    register_backend,
)
from .reduction import validate_chunk_size, validate_n_threads

__all__ = ["ShardedBackend", "DEFAULT_SHARD_DEVICES", "modeled_predict_batch_s"]

#: device count of the plain ``backend="sharded"`` name (no ``:<g>``)
DEFAULT_SHARD_DEVICES = 4


def modeled_predict_batch_s(
    m: int,
    n: int,
    d: int,
    k: int,
    *,
    devices: int = 1,
    spec: DeviceSpec = A100_80GB,
    comm=None,
    flops_per_entry: float = 2.0,
) -> float:
    """Modeled seconds to serve one ``m``-row predict batch.

    The serving face of the sharded cost model: each of ``devices``
    simulated devices owns a row panel of the ``m x n`` cross-kernel
    (rectangular GEMM + elementwise transform against the ``n``-point
    support in ``d`` dims), runs its SpMM / gather / norm-add slice of
    the ``k``-cluster distance assembly plus the row argmin, and —
    beyond one device — the labels replicate with a ring allgather.
    These are exactly the per-panel launch builders the fit path
    charges (:mod:`repro.distributed.costs`), so the serving and
    training scaling curves cannot drift; the autoscale simulator
    (:mod:`repro.serve.autoscale`) turns this number into
    workers-vs-saturation-qps curves.
    """
    from ..distributed.comm import NVLINK, allgather_cost
    from ..distributed.costs import rect_gemm_cost, rect_spmm_cost, rect_transform_cost

    if m < 1 or n < 1 or d < 1 or k < 1:
        raise ConfigError(
            f"modeled_predict_batch_s needs positive dims, got m={m} n={n} d={d} k={k}"
        )
    g = int(devices)
    if g < 1:
        raise ConfigError(f"devices must be >= 1, got {devices}")
    rows = (m + g - 1) // g
    t = rect_gemm_cost(spec, rows, n, d).time_s
    t += rect_transform_cost(spec, rows, n, flops_per_entry).time_s
    t += rect_spmm_cost(spec, rows, n, k).time_s
    t += cost.zgather_cost(spec, rows, k).time_s
    t += cost.dadd_cost(spec, rows, k).time_s
    t += cost.argmin_cost(spec, rows, k).time_s
    if g > 1:
        comm_spec = comm
        if comm_spec is None:
            comm_spec = NVLINK
        t += allgather_cost(comm_spec, g, 4.0 * m).time_s
    return float(t)


class ShardedBackend(Backend):
    """SPMD execution over ``g`` simulated devices, host-exact numerics.

    Parameters
    ----------
    n_devices:
        Number of simulated devices ``g`` (the row partition width).
    spec:
        Per-device :class:`~repro.gpu.spec.DeviceSpec` the cost model
        charges (default A100-80GB).
    comm:
        Interconnect :class:`~repro.distributed.comm.CommSpec` for the
        ring collectives; None selects NVLink.
    name:
        Registry name; defaults to ``"sharded:<g>"``.  The plain
        ``"sharded"`` registration is an alias for ``g = 4``.
    """

    needs_device = False

    def __init__(
        self,
        n_devices: int = DEFAULT_SHARD_DEVICES,
        *,
        spec: DeviceSpec = A100_80GB,
        comm=None,
        name: Optional[str] = None,
    ) -> None:
        if n_devices < 1:
            raise ConfigError(f"n_devices must be >= 1, got {n_devices}")
        self.n_devices = int(n_devices)
        self.spec = spec
        self.comm = comm
        self.name = name if name is not None else f"sharded:{self.n_devices}"

    def configure(self, arg: str) -> "ShardedBackend":
        """Resolve ``"sharded:<g>"`` to an instance with ``g`` devices."""
        from ..distributed.sharding import parse_device_count

        return ShardedBackend(parse_device_count(arg), spec=self.spec, comm=self.comm)

    def _comm_spec(self):
        if self.comm is not None:
            return self.comm
        from ..distributed.comm import NVLINK

        return NVLINK

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def begin(
        self,
        *,
        n_clusters,
        dtype,
        chunk_rows=None,
        chunk_cols=None,
        n_threads=None,
        device=None,
    ) -> EngineState:
        if device is not None:
            raise ConfigError(
                "the sharded backend simulates its own devices; drop the device argument"
            )
        g = self.n_devices
        return EngineState(
            backend=self,
            n_clusters=int(n_clusters),
            dtype=np.dtype(dtype),
            chunk_rows=validate_chunk_size(chunk_rows, "chunk_rows"),
            chunk_cols=validate_chunk_size(chunk_cols, "chunk_cols"),
            n_threads=validate_n_threads(n_threads),
            profiler=Profiler(),
            spec=self.spec,
            n_devices=g,
            device_profilers=[Profiler() for _ in range(g)],
            comm_profiler=Profiler(),
        )

    def finish(self, state: EngineState) -> None:
        state.k_host = None
        state.p_norms_host = None
        state.kernel_operand = None

    def check_capacity(self, state: EngineState, n: int) -> None:
        """Fail fast when one shard cannot hold its row block.

        Each device is dominated by its ``rows x n`` panel of K plus its
        slice of the distance buffer — the point of sharding is that this
        shrinks with ``g`` while monolithic Popcorn's n^2 does not.
        """
        g = state.n_devices
        rows = (n + g - 1) // g
        itemsize = state.dtype.itemsize
        k = state.n_clusters
        required = itemsize * (rows * n + 2.0 * rows * k + 4.0 * n)
        if required > self.spec.mem_capacity_gb * 1e9:
            raise AllocationError(
                f"sharded kernel k-means on n={n} points needs ~{required / 1e9:.1f} GB "
                f"per device for a rows={rows} block, but {self.spec.name} has "
                f"{self.spec.mem_capacity_gb:g} GB; increase the device count "
                f"(backend='sharded:<g>' with g > {g})"
            )

    # ------------------------------------------------------------------
    # recording helpers: every launch lands in the aggregate profiler
    # (timings_) AND the owning device's log (makespan)
    # ------------------------------------------------------------------
    def _dev(self, state: EngineState, p: int, phase: str, launch: Launch) -> None:
        tagged = launch.with_phase(phase)
        state.device_profilers[p].record(tagged)
        state.profiler.record(tagged)

    def _record_comm(self, state: EngineState, launch: Launch) -> None:
        tagged = launch.with_phase("comm")
        state.comm_profiler.record(tagged)
        state.profiler.record(tagged)
        if trace.enabled:
            # collectives are modeled, not executed: a zero-duration
            # event carries the modeled cost; counters track the volume
            trace.instant(launch.name, bytes=launch.bytes, modeled_s=launch.time_s)
            metrics.counter("comm.collectives").inc()
            metrics.counter("comm.bytes").inc(launch.bytes)

    def _allgather(self, state: EngineState, total_bytes: float) -> None:
        from ..distributed.comm import allgather_cost

        self._record_comm(state, allgather_cost(self._comm_spec(), state.n_devices, total_bytes))

    def _allreduce(self, state: EngineState, nbytes: float) -> None:
        from ..distributed.comm import allreduce_cost

        self._record_comm(state, allreduce_cost(self._comm_spec(), state.n_devices, nbytes))

    def _blocks(self, state: EngineState):
        if state.blocks is None:
            from ..distributed.partition import row_blocks

            state.blocks = row_blocks(state.n, state.n_devices)
        return state.blocks

    # ------------------------------------------------------------------
    # kernel-matrix stage
    # ------------------------------------------------------------------
    def load_kernel_matrix(self, state: EngineState, km: np.ndarray) -> None:
        _adopt_kernel_matrix(state, km)
        itemsize = state.dtype.itemsize
        for p, (lo, hi) in enumerate(self._blocks(state)):
            rows = hi - lo
            self._dev(state, p, "transfer", cost.h2d_cost(self.spec, itemsize * rows * state.n))
            self._dev(state, p, "kernel_matrix", cost.diag_extract_cost(self.spec, rows))

    def compute_kernel_matrix(self, state, x, kernel, *, method="auto", threshold=None) -> None:
        from ..distributed.costs import rect_gemm_cost, rect_transform_cost

        _check_gram_expressible(kernel)
        if method == "syrk":
            raise ConfigError(
                "the sharded backend builds K in rectangular row panels; "
                "gram_method='syrk' is only available on single-device backends"
            )
        n, d = x.shape
        # host-exact numerics, computed once in the kernel stage's own
        # row panels, so K is bitwise the host and device backends' K
        _adopt_kernel_matrix(state, *_host_kernel_matrix(x, kernel, "gemm"))
        state.gram_method = "gemm"
        # modeled cost: replicate the points, then per-device panels
        self._allgather(state, 4.0 * n * d)
        for p, (lo, hi) in enumerate(self._blocks(state)):
            rows = hi - lo
            self._dev(state, p, "kernel_matrix", rect_gemm_cost(self.spec, rows, n, d))
            self._dev(
                state,
                p,
                "kernel_matrix",
                rect_transform_cost(self.spec, rows, n, kernel.flops_per_entry),
            )
            self._dev(state, p, "kernel_matrix", cost.diag_extract_cost(self.spec, rows))

    # ------------------------------------------------------------------
    # distance steps
    # ------------------------------------------------------------------
    def popcorn_step(self, state, labels, weights=None) -> DistanceStep:
        from ..distributed.costs import rect_spmm_cost

        n, k = state.n, state.n_clusters
        # per-shard compute executes through the chunked fused reduction
        # (host-exact labels for every chunk/thread setting); the cost
        # model below charges the per-device rectangular panels and
        # collectives
        with trace.span("sharded.step", devices=state.n_devices, n=n, k=k):
            step = _fused_step(state, labels, weights)
        for p, (lo, hi) in enumerate(self._blocks(state)):
            rows = hi - lo
            self._dev(state, p, "argmin_update", cost.vbuild_cost(self.spec, n, k))
            self._dev(state, p, "distances", rect_spmm_cost(self.spec, rows, n, k))
            self._dev(state, p, "distances", cost.zgather_cost(self.spec, rows, k))
            self._dev(state, p, "distances", cost.spmv_cost(self.spec, rows, k))
            self._dev(state, p, "distances", cost.dadd_cost(self.spec, rows, k))
        # one ring allreduce of k floats completes the centroid norms
        self._allreduce(state, 4.0 * k)
        return step

    def baseline_step(self, state, labels) -> DistanceStep:
        from ..distributed.costs import (
            rect_baseline_assemble_cost,
            rect_baseline_norms_cost,
            rect_baseline_reduce_cost,
        )

        n, k = state.n, state.n_clusters
        d = baseline_distances(state.k_host, state.p_norms_host, labels, k)
        for p, (lo, hi) in enumerate(self._blocks(state)):
            rows = hi - lo
            self._dev(state, p, "distances", rect_baseline_reduce_cost(self.spec, rows, n, k))
            self._dev(state, p, "distances", rect_baseline_norms_cost(self.spec, rows, k))
            self._dev(state, p, "distances", rect_baseline_assemble_cost(self.spec, rows, k))
        self._allreduce(state, 4.0 * k)
        return DistanceStep(d)

    def argmin(self, state, step) -> np.ndarray:
        labels = _row_argmin(step)
        k = state.n_clusters
        for p, (lo, hi) in enumerate(self._blocks(state)):
            self._dev(state, p, "argmin_update", cost.argmin_cost(self.spec, hi - lo, k))
        # the new assignments replicate via a ring allgather of n words
        self._allgather(state, 4.0 * state.n)
        return labels

    # ------------------------------------------------------------------
    # fitted attributes
    # ------------------------------------------------------------------
    def finalize_results(self, state: EngineState, estimator) -> None:
        dev_totals = [pr.total_time() for pr in state.device_profilers]
        comm_s = state.comm_profiler.total_time()
        estimator.device_profilers_ = list(state.device_profilers)
        estimator.comm_profiler_ = state.comm_profiler
        estimator.n_devices_ = state.n_devices
        estimator.makespan_s_ = max(dev_totals, default=0.0) + comm_s
        work = sum(dev_totals)
        estimator.parallel_efficiency_ = (
            work / (state.n_devices * estimator.makespan_s_) if estimator.makespan_s_ else 1.0
        )


register_backend(ShardedBackend(DEFAULT_SHARD_DEVICES, name="sharded"))
