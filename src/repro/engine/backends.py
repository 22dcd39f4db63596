"""Pluggable execution backends for the shared kernel-k-means engine.

A :class:`Backend` is the substrate the estimator fit loop runs on.  Two
implementations are registered here (the sharded one lives in
:mod:`repro.engine.sharded`):

``host``
    Plain NumPy/CSR arrays with no device bookkeeping.  Launches are
    recorded with *measured* wall-clock seconds (names prefixed
    ``host.``), so ``timings_`` stays populated.
``device``
    The simulated GPU: K and ``P~`` are held against the device
    allocator and every stage charges the modeled launches of
    :mod:`repro.modeling`'s per-stage generators, so the executed launch
    log equals the analytical model's by construction.

There is **one numerics path**: every backend builds K with
:func:`_host_kernel_matrix`, runs each Popcorn step through the chunked
fused reduction (:func:`_fused_step`) and each baseline step through
:func:`baseline_distances`, so ``backend="host"``, ``"device"`` and
``"sharded:<g>"`` produce identical labels, objectives and centroid
norms from identical seeds by construction.  The kernel stage builds K
in cache-sized row panels: each panel is one GEMM, and the kernel's
elementwise transform and the fold into K's column max-abs run while
the panel is still in cache.  :meth:`Kernel.pairwise` builds the same
panels, so for a kernel that needs no Gram diagonal its K is bitwise
the fit's.  ``chunk_rows`` is the one
row-granularity knob: host-family backends chunk the fused reduction
with it, and the device backend models streaming K from host memory in
``chunk_rows x n`` panels instead of holding it resident, converting
the device memory wall into a transfer cost.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import AllocationError, ConfigError, ShapeError
from ..gpu.device import Device
from ..gpu.launch import Launch
from ..gpu.memory import DeviceArray
from ..gpu.profiler import Profiler
from ..gpu.spec import DeviceSpec
from ..kernels.base import Kernel
from ..kernels.dispatch import choose_gram_method
from ..kernels.gram import panel_kernel_matrix
from ..modeling import (
    argmin_launches,
    baseline_step_launches,
    kernel_stage_launches,
    load_stage_launches,
    popcorn_step_launches,
    record_launches,
)
from .reduction import (
    KernelOperand,
    fused_popcorn_argmin,
    validate_chunk_size,
    validate_n_threads,
)

__all__ = [
    "Backend",
    "HostBackend",
    "DeviceBackend",
    "EngineState",
    "DistanceStep",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
    "baseline_distances",
    "syrk_mirror",
]


@dataclass
class EngineState:
    """Per-``fit`` execution state owned by a backend.

    The estimator treats this as an opaque handle.  Every backend keeps
    the kernel matrix and its diagonal in host memory (``k_host``,
    ``p_norms_host``) and executes on them; ``kernel_operand`` is the
    fused reduction's view of the same K (cast to ``dtype``, with its
    column max-abs), built once per fit.  The device backend also
    lists the allocator reservations it holds for the fit
    (``resident``: K in resident mode, and ``P~``).
    """

    backend: "Backend"
    n_clusters: int
    dtype: np.dtype
    profiler: Profiler
    # chunked-reduction engine knobs; on the device backend ``chunk_rows``
    # is the streamed panel height
    chunk_rows: Optional[int] = None
    chunk_cols: Optional[int] = None
    n_threads: Optional[int] = None
    device: Optional[Device] = None
    spec: Optional[DeviceSpec] = None
    n: int = 0
    launch_mark: int = 0
    # span index at fit start (a repro.obs trace mark), so the fitted
    # ``trace_`` summary covers exactly this fit's window
    trace_mark: int = 0
    k_host: Optional[np.ndarray] = None
    p_norms_host: Optional[np.ndarray] = None
    kernel_operand: Optional[KernelOperand] = None
    resident: List[DeviceArray] = field(default_factory=list)
    gram_method: str = ""
    # multi-device execution (the sharded backend): one profiler per
    # simulated device plus a collective-communication log; ``blocks``
    # are the per-device row ranges of the 1-D partition
    n_devices: int = 1
    device_profilers: Optional[list] = None
    comm_profiler: Optional[Profiler] = None
    blocks: Optional[list] = None

    def kernel_host(self) -> np.ndarray:
        """Host view of the kernel matrix."""
        if self.k_host is None:
            raise ConfigError("kernel matrix not loaded; run the kernel stage first")
        return self.k_host


class DistanceStep:
    """Result of one distance computation.

    Two shapes exist:

    * **materialised** — ``d`` is the full ``n x k`` host block (the
      baseline's three kernels produce it); the objective and
      empty-cluster policy read entries out of it;
    * **fused** — produced by the chunked reduction engine
      (:mod:`repro.engine.reduction`): only the row argmin outputs
      (``labels``, ``min_d``) plus an exact on-demand entry evaluator
      survive, and ``d`` is deliberately unavailable because the full
      block was never built.

    :meth:`assigned` serves both: the per-row distance to an arbitrary
    assignment, which is all the fit loop (objective, reseed policy)
    ever needs.
    """

    __slots__ = ("_d", "labels", "min_d", "_at")

    def __init__(
        self,
        d: Optional[np.ndarray] = None,
        *,
        labels: Optional[np.ndarray] = None,
        min_d: Optional[np.ndarray] = None,
        at=None,
    ) -> None:
        self._d = d
        self.labels = labels
        self.min_d = min_d
        self._at = at

    @property
    def d(self) -> np.ndarray:
        if self._d is not None:
            return self._d
        raise ConfigError(
            "this distance step is fused: the full distance block was never "
            "materialised; use argmin_labels()/assigned() instead"
        )

    def argmin_labels(self) -> Optional[np.ndarray]:
        """Fused row-argmin labels, or None when the step is materialised."""
        return self.labels

    def assigned(self, labels: np.ndarray) -> np.ndarray:
        """Per-row distances ``D[i, labels[i]]`` as a fresh writable array.

        Fused steps answer from ``min_d`` for rows whose assignment is
        the argmin and evaluate the handful of moved rows exactly via
        the on-demand entry evaluator (bitwise the legacy entries);
        materialised steps gather from the full block.
        """
        lab = np.asarray(labels)
        if self.labels is not None:
            out = self.min_d.copy()
            moved = np.flatnonzero(lab != self.labels)
            if moved.size:
                out[moved] = self._at(moved, lab[moved])
            return out
        d = self.d
        return d[np.arange(d.shape[0]), lab]  # fancy indexing: already fresh


class Backend(ABC):
    """Execution substrate for the kernel-k-means fit scaffolding.

    Subclasses implement the kernel-matrix stage, the two distance-step
    strategies (Popcorn's SpMM/SpMV pipeline and the Sec. 5.3 baseline
    kernels), and the row argmin; :class:`~repro.engine.base.BaseKernelKMeans`
    drives them through the init -> distances -> argmin -> convergence loop.
    """

    name: str = ""
    #: whether :meth:`begin` must be handed a :class:`~repro.gpu.Device`
    #: (the base estimator creates one when set)
    needs_device: bool = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def begin(
        self,
        *,
        n_clusters: int,
        dtype,
        chunk_rows: Optional[int] = None,
        chunk_cols: Optional[int] = None,
        n_threads: Optional[int] = None,
        device: Optional[Device] = None,
    ) -> EngineState:
        """Open a fit: allocate the profiler/device state.

        ``chunk_rows``/``chunk_cols``/``n_threads`` configure the chunked
        fused reduction on host-family backends; backends that cannot
        honour them must reject them with :class:`ConfigError`.
        """

    @abstractmethod
    def finish(self, state: EngineState) -> None:
        """Close a fit: release kernel-stage buffers."""

    def timings(self, state: EngineState) -> Dict[str, float]:
        """Per-phase seconds for *this fit only* (profiler snapshot).

        A shared device accumulates launches across fits; the snapshot
        taken in :meth:`begin` scopes the aggregation to one run.
        """
        return state.profiler.phase_times(since=state.launch_mark)

    def check_capacity(self, state: EngineState, n: int) -> None:
        """Fail fast when the run cannot fit; no-op off-device."""

    def configure(self, arg: str) -> Optional["Backend"]:
        """Build a parametrised instance for ``"<name>:<arg>"`` lookups.

        :func:`get_backend` calls this on the registered base backend when
        a name like ``"sharded:8"`` misses the registry; returning None
        means the backend takes no parameter (the lookup then fails).
        """
        return None

    def finalize_results(self, state: EngineState, estimator) -> None:
        """Attach backend-specific fitted attributes after a fit.

        Called by ``BaseKernelKMeans._set_fit_results`` once the shared
        attributes are in place — the sharded backend uses this to expose
        per-device profilers, the communication log and the modeled
        makespan.
        """

    # ------------------------------------------------------------------
    # kernel-matrix stage (Alg. 2 lines 1-2)
    # ------------------------------------------------------------------
    @abstractmethod
    def load_kernel_matrix(self, state: EngineState, km: np.ndarray) -> None:
        """Adopt a precomputed kernel matrix; extract ``P~ = diag(K)``."""

    @abstractmethod
    def compute_kernel_matrix(
        self,
        state: EngineState,
        x: np.ndarray,
        kernel: Kernel,
        *,
        method: str = "auto",
        threshold: Optional[float] = None,
    ) -> None:
        """Gram + elementwise kernel + diagonal; sets ``state.gram_method``."""

    # ------------------------------------------------------------------
    # distance-step strategies
    # ------------------------------------------------------------------
    @abstractmethod
    def popcorn_step(
        self, state: EngineState, labels: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> DistanceStep:
        """Popcorn's pipeline: SpMM, z-gather, SpMV, fused add, fused argmin."""

    @abstractmethod
    def baseline_step(self, state: EngineState, labels: np.ndarray) -> DistanceStep:
        """The baseline CUDA implementation's three hand-written kernels."""

    @abstractmethod
    def argmin(self, state: EngineState, step: DistanceStep) -> np.ndarray:
        """Row argmin of the distances; returns int32 labels."""


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_BACKENDS: Dict[str, Backend] = {}

#: instances produced by :meth:`Backend.configure` for parametric names
#: ("sharded:8"), cached so repeated lookups return the same object —
#: kept out of ``_BACKENDS`` so the registry proper (and
#: :func:`available_backends`) lists only real registrations
_CONFIGURED: Dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Register a backend instance under its ``name`` (last wins)."""
    if not backend.name:
        raise ConfigError("backend must define a non-empty name")
    _BACKENDS[backend.name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a registered backend (no-op for unknown names).

    Mainly for tests and plugins that register temporary backends; the
    built-in ``host``/``device`` backends can be re-registered via
    :func:`register_backend` if removed.  Configured parametric variants
    (``"<name>:<arg>"``) are dropped with their base.
    """
    _BACKENDS.pop(name, None)
    for key in [k for k in _CONFIGURED if k.partition(":")[0] == name]:
        del _CONFIGURED[key]


def get_backend(name: str) -> Backend:
    """Look up a registered backend by name.

    Parametric names of the form ``"<base>:<arg>"`` (e.g. ``"sharded:8"``)
    resolve through the base backend's :meth:`Backend.configure` hook; the
    configured instance is cached under the full name so repeated lookups
    return the same object.
    """
    try:
        return _BACKENDS[name]
    except KeyError:
        pass
    cached = _CONFIGURED.get(name)
    if cached is not None:
        return cached
    if ":" in name:
        base_name, _, arg = name.partition(":")
        base = _BACKENDS.get(base_name)
        if base is not None:
            configured = base.configure(arg)
            if configured is not None:
                _CONFIGURED[name] = configured
                return configured
    raise ConfigError(
        f"unknown backend {name!r}; registered backends: {', '.join(sorted(_BACKENDS))}"
    )


def available_backends() -> Tuple[str, ...]:
    """Names of all registered backends."""
    return tuple(sorted(_BACKENDS))




# ----------------------------------------------------------------------
# the shared numerics (every backend executes these)
# ----------------------------------------------------------------------

def _check_gram_expressible(kernel: Kernel) -> None:
    if not kernel.gram_expressible:
        raise ShapeError(
            f"{type(kernel).__name__} is not Gram-expressible; "
            "pass a precomputed kernel matrix instead"
        )


def _resolve_gram_method(
    method: str, threshold: Optional[float], n: int, d: int, tiled: bool
) -> str:
    """The gram policy, shared by every backend.

    Streaming builds K in rectangular row panels, so SYRK's
    triangular trick does not apply: tiled runs force GEMM and reject an
    explicit ``"syrk"`` — identically on every backend.
    """
    if tiled:
        if method == "syrk":
            raise ConfigError(
                "chunk_rows streams rectangular GEMM panels; gram_method='syrk' "
                "is only available in monolithic mode"
            )
        return "gemm"
    used = choose_gram_method(n, d, threshold) if method == "auto" else method
    if used not in ("gemm", "syrk"):
        raise ConfigError(f"unknown gram method {used!r}; expected 'gemm' or 'syrk'")
    return used


def syrk_mirror(full: np.ndarray) -> np.ndarray:
    """The SYRK + triangular-mirror numerics on a full Gram matrix.

    SYRK writes only the lower triangle; the hand-written mirror kernel
    (Sec. 4.2) reflects the strictly-lower part above the diagonal.
    """
    lower = np.tril(full)  # what the SYRK writes
    return lower + np.tril(full, -1).T


def _host_kernel_matrix(x: np.ndarray, kernel: Kernel, used: str):
    """Gram + kernel + column statistics: the one kernel-matrix stage.

    ``"gemm"`` builds K in cache-sized row panels
    (:func:`repro.kernels.gram.panel_kernel_matrix`): one GEMM per
    panel, the kernel's elementwise transform and the fold into K's
    column max-abs while the panel is in cache, K the only ``n x n``
    buffer.  ``"syrk"`` applies the SYRK + triangular-mirror numerics to
    the whole Gram; a kernel that needs ``diag(B)`` (the Gaussian) gets a
    snapshot taken before the elementwise transform.  Returns
    ``(K, maxabs)``: K contiguous, and its column max-abs in K's dtype,
    or ``None`` when the SYRK path leaves it to :class:`KernelOperand`.
    """
    if used != "syrk":
        return panel_kernel_matrix(x, kernel)
    b = syrk_mirror(x @ x.T)
    if kernel.needs_diag():
        gram_diag = np.ascontiguousarray(np.diagonal(b)).copy()
        km = kernel.from_gram(b, gram_diag)
    else:
        km = kernel.from_gram(b)
    return np.ascontiguousarray(km), None


def _adopt_kernel_matrix(
    state: EngineState, km: np.ndarray, maxabs: Optional[np.ndarray] = None
) -> None:
    """Take a kernel matrix and its diagonal ``P~`` into ``state``.

    Also builds the fit's one :class:`KernelOperand`, so every fused
    step reuses K's statistics instead of recomputing them; ``maxabs``
    is K's column max-abs when the kernel stage folded it in already.
    """
    state.k_host = km
    state.p_norms_host = np.ascontiguousarray(np.diagonal(km))
    state.n = km.shape[0]
    state.kernel_operand = KernelOperand(km, state.dtype, maxabs)


def _kernel_stage(state: EngineState, x: np.ndarray, kernel: Kernel, method, threshold) -> None:
    """Build K and ``P~`` from points into ``state``; records the Gram method used."""
    _check_gram_expressible(kernel)
    n, d = x.shape
    used = _resolve_gram_method(method, threshold, n, d, state.chunk_rows is not None)
    _adopt_kernel_matrix(state, *_host_kernel_matrix(x, kernel, used))
    state.gram_method = used


def _fused_step(state: EngineState, labels, weights=None) -> DistanceStep:
    """One Popcorn distance step through the chunked fused reduction."""
    fused = fused_popcorn_argmin(
        state.kernel_operand,
        labels,
        state.n_clusters,
        chunk_rows=state.chunk_rows,
        chunk_cols=state.chunk_cols,
        n_threads=state.n_threads,
        weights=weights,
        dtype=state.dtype,
    )
    return DistanceStep(labels=fused.labels, min_d=fused.min_d, at=fused.at)


def baseline_distances(
    k_mat: np.ndarray, k_diag: np.ndarray, labels: np.ndarray, k: int
) -> np.ndarray:
    """The baseline CUDA implementation's three kernels (Sec. 5.3).

    1. ``R[i, j] = sum_{l in L_j} K[i, l]`` as a dense one-hot matmul;
    2. ``||c_j||^2 = (1 / |L_j|^2) * sum_{i in L_j} R[i, j]`` (float64
       accumulation);
    3. ``D[i, j] = K[i, i] - 2 R[i, j] / |L_j| + ||c_j||^2``.

    Returns the full ``n x k`` distance block: the baseline materialises
    it by design, which is the contrast the paper measures.
    """
    n = k_mat.shape[0]
    lab = np.asarray(labels)
    counts = np.bincount(lab, minlength=k).astype(np.int64)
    onehot = np.zeros((n, k), dtype=k_mat.dtype)  # repro-lint: disable=RPR101 -- baseline buffer
    onehot[np.arange(n), lab] = 1
    r = k_mat @ onehot
    own = r[np.arange(n), lab].astype(np.float64)
    sums = np.bincount(lab, weights=own, minlength=k)
    c_norms = (sums / np.maximum(counts.astype(np.float64), 1) ** 2).astype(r.dtype)
    inv = (1.0 / np.maximum(counts, 1)).astype(r.dtype)
    return k_diag[:, None] - 2.0 * r * inv[None, :] + c_norms[None, :]


def _row_argmin(step: DistanceStep) -> np.ndarray:
    """The step's fused labels, or the row argmin of a materialised block
    (ties break toward the lowest cluster index)."""
    labels = step.argmin_labels()
    if labels is None:
        labels = np.argmin(step.d, axis=1).astype(np.int32)
    return labels


# ----------------------------------------------------------------------
# host backend
# ----------------------------------------------------------------------

class HostBackend(Backend):
    """NumPy/CSR execution: the shared numerics with no device bookkeeping.

    Recorded launches carry measured wall-clock seconds under ``host.*``
    names so ``timings_`` and ``profiler_`` stay meaningful.
    """

    name = "host"

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
            raise ConfigError("backend='host' does not run on a device; drop the device argument")
        return EngineState(
            backend=self,
            n_clusters=int(n_clusters),
            dtype=np.dtype(dtype),
            chunk_rows=validate_chunk_size(chunk_rows, "chunk_rows"),
            chunk_cols=validate_chunk_size(chunk_cols, "chunk_cols"),
            n_threads=validate_n_threads(n_threads),
            profiler=Profiler(),
        )

    def finish(self, state: EngineState) -> None:
        state.k_host = None
        state.p_norms_host = None
        state.kernel_operand = None

    def _record(self, state: EngineState, phase: str, name: str, t0: float) -> None:
        with state.profiler.phase(phase):
            state.profiler.record(Launch("host." + name, 0.0, 0.0, time.perf_counter() - t0))

    def load_kernel_matrix(self, state: EngineState, km: np.ndarray) -> None:
        t0 = time.perf_counter()
        _adopt_kernel_matrix(state, km)
        self._record(state, "kernel_matrix", "diag_extract", t0)

    def compute_kernel_matrix(self, state, x, kernel, *, method="auto", threshold=None) -> None:
        t0 = time.perf_counter()
        _kernel_stage(state, x, kernel, method, threshold)
        self._record(state, "kernel_matrix", "kernel_matrix", t0)

    def popcorn_step(self, state, labels, weights=None) -> DistanceStep:
        t0 = time.perf_counter()
        step = _fused_step(state, labels, weights)
        self._record(state, "distances", "popcorn_distances", t0)
        return step

    def baseline_step(self, state, labels) -> DistanceStep:
        t0 = time.perf_counter()
        d = baseline_distances(state.k_host, state.p_norms_host, labels, state.n_clusters)
        self._record(state, "distances", "baseline_distances", t0)
        return DistanceStep(d)

    def argmin(self, state, step) -> np.ndarray:
        t0 = time.perf_counter()
        labels = _row_argmin(step)
        self._record(state, "argmin_update", "argmin", t0)
        return labels


# ----------------------------------------------------------------------
# device backend
# ----------------------------------------------------------------------

class DeviceBackend(Backend):
    """The simulated-GPU execution model: host numerics, modeled launches.

    Every stage executes exactly what :class:`HostBackend` executes and
    charges the device profiler the launches of the matching
    :mod:`repro.modeling` generator.  The allocator holds K and ``P~``
    for the whole fit (so capacity limits and out-of-memory failures
    behave as on a real device).  With ``chunk_rows``, K is never
    resident: it stays in host memory and every iteration streams it
    over PCIe in ``chunk_rows x n`` panels — peak device memory drops
    from O(n^2) to O(chunk_rows * n), and the cost model charges the
    transfers, turning the memory wall into a bandwidth price.
    """

    name = "device"
    needs_device = True

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
        if device is None:
            raise ConfigError("the device backend needs a Device")
        if chunk_cols is not None or n_threads is not None:
            raise ConfigError(
                "chunk_cols/n_threads configure the host-side chunked "
                "reduction engine; the device backend only streams row panels "
                "(chunk_rows=) — use backend='host' (or 'sharded:<g>') for "
                "chunked execution"
            )
        return EngineState(
            backend=self,
            n_clusters=int(n_clusters),
            dtype=np.dtype(dtype),
            chunk_rows=validate_chunk_size(chunk_rows, "chunk_rows"),
            profiler=device.profiler,
            device=device,
            spec=device.spec,
            launch_mark=device.profiler.mark(),
        )

    def finish(self, state: EngineState) -> None:
        for buf in state.resident:
            buf.free()
        state.resident = []
        state.k_host = None
        state.p_norms_host = None
        state.kernel_operand = None

    def check_capacity(self, state: EngineState, n: int) -> None:
        """Fail fast when the run cannot fit in device memory.

        Monolithic mode is dominated by the dense ``n x n`` kernel matrix
        plus the ``n x k`` distance buffer; streaming mode replaces the
        n^2 term with one ``chunk_rows x n`` panel.
        """
        device = state.device
        itemsize = state.dtype.itemsize
        k = state.n_clusters
        if state.chunk_rows is None:
            required = itemsize * (n * n + 2.0 * n * k + 4.0 * n)
            if required > device.capacity_bytes:
                raise AllocationError(
                    f"kernel k-means on n={n} points needs ~{required / 1e9:.1f} GB "
                    f"but {device.spec.name} has {device.spec.mem_capacity_gb:g} GB; "
                    "stream the kernel matrix with chunk_rows=, partition it with "
                    "repro.distributed.DistributedPopcornKernelKMeans or reduce n "
                    "(e.g. repro.approx.NystromKernelKMeans)"
                )
        else:
            rows = min(state.chunk_rows, n)
            required = itemsize * (rows * n + 2.0 * n * k + 6.0 * n)
            if required > device.capacity_bytes:
                raise AllocationError(
                    f"streamed kernel k-means on n={n} points still needs "
                    f"~{required / 1e9:.1f} GB for one chunk_rows={rows} panel plus the "
                    f"n x k distance buffer, but {device.spec.name} has "
                    f"{device.spec.mem_capacity_gb:g} GB; reduce chunk_rows (or use "
                    "repro.distributed.DistributedPopcornKernelKMeans)"
                )

    def _hold(self, state: EngineState) -> None:
        """Reserve the fit's device memory: K (resident mode) and ``P~``."""
        held = [state.p_norms_host]
        if state.chunk_rows is None:
            held.insert(0, state.k_host)
        state.resident = [state.device.wrap(a) for a in held]

    # ------------------------------------------------------------------
    # kernel-matrix stage
    # ------------------------------------------------------------------
    def load_kernel_matrix(self, state: EngineState, km: np.ndarray) -> None:
        _adopt_kernel_matrix(state, km)
        self._hold(state)
        record_launches(
            state.profiler,
            load_stage_launches(
                state.spec, state.n, chunk_rows=state.chunk_rows, itemsize=km.itemsize
            ),
        )

    def compute_kernel_matrix(self, state, x, kernel, *, method="auto", threshold=None) -> None:
        _kernel_stage(state, x, kernel, method, threshold)
        self._hold(state)
        record_launches(
            state.profiler,
            kernel_stage_launches(
                state.spec,
                *x.shape,
                method=state.gram_method,
                kernel_flops_per_entry=kernel.flops_per_entry,
                chunk_rows=state.chunk_rows,
                itemsize=x.itemsize,
                diag_snapshot=kernel.needs_diag(),
            ),
        )

    # ------------------------------------------------------------------
    # distance steps
    # ------------------------------------------------------------------
    def popcorn_step(self, state, labels, weights=None) -> DistanceStep:
        step = _fused_step(state, labels, weights)
        record_launches(
            state.profiler,
            popcorn_step_launches(
                state.spec,
                state.n,
                state.n_clusters,
                chunk_rows=state.chunk_rows,
                itemsize=state.k_host.itemsize,
            ),
        )
        return step

    def baseline_step(self, state, labels) -> DistanceStep:
        if state.chunk_rows is not None:
            raise ConfigError(
                "the baseline distance step reads a resident kernel matrix; "
                "it does not stream chunk_rows"
            )
        n, k = state.n, state.n_clusters
        d = baseline_distances(state.k_host, state.p_norms_host, labels, k)
        record_launches(state.profiler, baseline_step_launches(state.spec, n, k))
        return DistanceStep(d)

    def argmin(self, state, step) -> np.ndarray:
        labels = _row_argmin(step)
        record_launches(state.profiler, argmin_launches(state.spec, state.n, state.n_clusters))
        return labels


register_backend(HostBackend())
register_backend(DeviceBackend())
