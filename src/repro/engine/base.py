"""The shared estimator base class for every kernel-k-means variant.

Before the engine existed, each estimator hand-rolled the same fit
scaffolding — parameter validation, device plumbing, the
init -> distances -> argmin -> convergence loop, the empty-cluster policy
and the fitted-attribute assignment.  :class:`BaseKernelKMeans` owns all
of that once; a concrete estimator shrinks to its *distance-step
strategy* (:meth:`BaseKernelKMeans._distance_step`) plus whatever input
handling its ``fit`` needs.

Backends are selected with
``backend="auto" | "host" | "device" | "sharded[:<g>]"`` on every
estimator; ``"auto"`` resolves to the estimator's natural substrate
(``_default_backend``), and parametric names like ``"sharded:8"``
resolve through the registry's ``configure`` hook.  Estimators whose
algorithm has no device execution (e.g. the Nyström embedding path)
declare a restricted ``_supported_backends`` (checked by base name, so
``"sharded"`` covers every ``"sharded:<g>"``) and reject the rest at
construction time.

Out-of-sample prediction lives here too: :class:`OutOfSamplePredictor`
is the single implementation of ``predict`` / ``predict_batch`` every
estimator in the package shares (the serving subsystem,
:mod:`repro.serve`, builds on it).  A fitted estimator stashes a
*support set* — training points (or explicit feature-space centers),
final labels, optional point weights, and the squared centroid norms —
and queries are assigned by streaming the cross-kernel against that
support in row tiles, so the full ``m x n`` cross-kernel matrix is never
materialised.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import DEFAULT_CONFIG
from .._typing import as_matrix, check_labels
from ..errors import ConfigError, ShapeError
from ..gpu.device import Device
from ..gpu.spec import A100_80GB, DeviceSpec
from ..obs import trace
from .backends import Backend, DistanceStep, EngineState, get_backend
from .params import ParamSpec, ParamsProtocol, check_is_fitted, optional
from .reduction import (
    CrossKernelArgmin,
    SupportOperand,
    WorkStealingPool,
    chunk_ranges,
    validate_chunk_size,
    validate_n_threads,
)

__all__ = ["OutOfSamplePredictor", "BaseKernelKMeans"]


class OutOfSamplePredictor(ParamsProtocol):
    """The engine-level out-of-sample prediction contract.

    Every estimator in the family mixes this in (the kernel estimators
    through :class:`BaseKernelKMeans`; the classical baselines directly)
    so ``predict`` has one signature and one implementation everywhere::

        predict(x=None, *, cross_kernel=None, chunk_rows=None, ...)
        predict_batch(batches, *, chunk_rows=None, ...)

    A fitted estimator provides a *support set*:

    ``_c_norms``
        Squared feature-space centroid norms ``||c_j||^2`` (float64, k).
    ``_support_x``
        The training points, when the estimator was fitted on points —
        queries are then assigned from ``x`` via the kernel's cross
        evaluation.  None when fitted on a precomputed kernel matrix
        (pass ``cross_kernel`` instead).
    ``_support_weights``
        Optional per-point weights (the weighted-KKM selection matrix).
    ``_support_centers``
        Explicit feature-space centers (``k x r``); when set, queries are
        compared against the centers directly (Lloyd/Elkan and the
        Nyström embedding path) instead of through a cross-kernel.

    Assignment drops the per-query constant ``kappa(q, q)``, which cannot
    move the argmin: ``d_qj = -2 s_qj + ||c_j||^2`` with ``s_qj`` either
    ``(K_c V^T)_qj`` (kernel support) or ``<phi(q), c_j>`` (centers).
    ``chunk_rows`` streams the queries in row chunks so only one
    ``chunk_rows x n_support`` cross-kernel panel is live at a time.
    Each chunk's ``s_qj`` panel is a certified GEMM against the
    support's dense ``-2 V^T`` (built once per support, see
    :meth:`_support_operand`) with an exact SpMM re-run of the rows it
    cannot certify, so any chunking gives the labels of the monolithic
    SpMM path bit for bit.
    """

    #: support-set defaults (fit overwrites what applies)
    _support_x = None
    _support_weights = None
    _support_centers = None
    _support_v = None
    #: the SupportOperand of _support_v (it carries the V it was built from)
    _support_op = None

    def _require_fitted(self) -> None:
        check_is_fitted(self)

    # ------------------------------------------------------------------
    # the uniform fit-input contract
    # ------------------------------------------------------------------
    def _unsupported_fit_arg(self, name: str, value, why: str) -> None:
        """Reject a uniform-contract fit input this estimator cannot honour.

        Every estimator accepts the same ``fit(x=None, *,
        kernel_matrix=None, init_labels=None, sample_weight=None)``
        signature; inputs an algorithm has no use for are rejected with
        an explanation instead of being silently ignored.
        """
        if value is not None:
            raise ConfigError(
                f"{type(self).__name__}.fit does not accept {name}: {why}"
            )

    def fit_predict(
        self,
        x: Optional[np.ndarray] = None,
        *,
        kernel_matrix: Optional[np.ndarray] = None,
        init_labels: Optional[np.ndarray] = None,
        sample_weight: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Fit and return the final labels (one forwarding contract for
        the whole family — estimator-local overrides are gone)."""
        return self.fit(
            x,
            kernel_matrix=kernel_matrix,
            init_labels=init_labels,
            sample_weight=sample_weight,
        ).labels_

    def partial_fit(
        self,
        x: Optional[np.ndarray] = None,
        *,
        kernel_matrix: Optional[np.ndarray] = None,
        sample_weight: Optional[np.ndarray] = None,
    ):
        """One incremental mini-batch update (online fitting contract).

        Part of the uniform estimator surface: every estimator exposes
        the method, but only those declaring the
        ``supports_partial_fit`` capability in the registry implement it
        — the rest raise an explained
        :class:`~repro.errors.ConfigError` (never ``AttributeError``).
        The implementation lives in :mod:`repro.engine.minibatch`.
        """
        from ..estimators import require_capability

        require_capability(self, "supports_partial_fit", method="partial_fit")
        from .minibatch import partial_fit_step

        return partial_fit_step(
            self, x, kernel_matrix=kernel_matrix, sample_weight=sample_weight
        )

    # ------------------------------------------------------------------
    # support-set plumbing
    # ------------------------------------------------------------------
    def _finalize_support(self, kernel_host, labels, *, x=None, weights=None) -> None:
        """Stash the kernel-space support set at the end of a fit.

        ``kernel_host`` is the training kernel matrix (host view); the
        centroid norms are made consistent with the *final* labels — the
        loop's own norms correspond to the pre-update selection matrix.
        """
        from ..core.norms import centroid_norms_gathered
        from ..core.selection import build_selection
        from ..sparse import weighted_selection_matrix

        k = self.n_clusters
        if weights is None:
            v = build_selection(labels, k, dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            v = weighted_selection_matrix(labels, k, weights, dtype=np.float64)
        self._c_norms = centroid_norms_gathered(np.asarray(kernel_host), v)
        self._support_x = x
        self._support_weights = weights
        self._support_centers = None
        self._support_v = v

    def _finalize_centers_support(self, centers) -> None:
        """Stash an explicit-centers support set (Lloyd / embedding paths)."""
        c = np.asarray(centers, dtype=np.float64)
        self._support_centers = c
        self._c_norms = np.einsum("ij,ij->i", c, c)
        self._support_x = None
        self._support_weights = None
        self._support_v = None

    def _support_selection(self):
        """The (possibly weighted) float64 selection matrix of the support."""
        if self._support_v is None:
            from ..core.selection import build_selection
            from ..sparse import weighted_selection_matrix

            if self._support_weights is None:
                self._support_v = build_selection(
                    self.labels_, self.n_clusters, dtype=np.float64
                )
            else:
                self._support_v = weighted_selection_matrix(
                    self.labels_, self.n_clusters, self._support_weights, dtype=np.float64
                )
        return self._support_v

    def _support_operand(self) -> SupportOperand:
        """The cached GEMM operand of the support selection matrix.

        Built once per ``_support_v`` object: whatever replaces that
        attribute (a fit, ``partial_fit``, ``load_model``) makes the next
        predict build a fresh one.  The operand holds the V it came from,
        and one attribute store publishes it, so concurrent first
        predicts never see a V paired with another V's operand.
        """
        v = self._support_selection()
        op = self._support_op
        if op is None or op.v is not v:
            op = SupportOperand(v, np.float64)
            self._support_op = op
        return op

    def _query_features(self, xm: np.ndarray) -> np.ndarray:
        """Hook: map raw queries into the centers' feature space."""
        return xm

    # ------------------------------------------------------------------
    # the shared prediction pipeline
    # ------------------------------------------------------------------
    def _labels_from_centers(self, q: np.ndarray) -> np.ndarray:
        """Row argmin of ``-2 Q C^T + C~`` against explicit centers."""
        d = -2.0 * (q @ self._support_centers.T) + self._c_norms[None, :]
        return np.argmin(d, axis=1).astype(np.int32)

    def _assign_cross(self, m, panel_rows, rows, cols, threads) -> np.ndarray:
        """Certified fused cross-kernel argmin over one query block (labels only)."""
        red = CrossKernelArgmin(
            m,
            panel_rows,
            self._support_operand(),
            self._c_norms,
            chunk_rows=rows,
            chunk_cols=cols,
            n_threads=threads,
        )
        return red.run_labels()

    def _assign_centers(self, xm, rows, threads) -> np.ndarray:
        """Row-chunked assignment against explicit centers.

        Only the query axis is chunked: the dense BLAS products here are
        not guaranteed bitwise-stable under column blocking, so centers
        stay whole and each row chunk reproduces the monolithic argmin.
        """
        m = xm.shape[0]
        out = np.empty(m, dtype=np.int32)

        def task(r0: int, r1: int) -> None:
            q = self._query_features(xm[r0:r1])
            out[r0:r1] = self._labels_from_centers(q)

        tasks = [
            (lambda r0=r0, r1=r1: task(r0, r1)) for r0, r1 in chunk_ranges(m, rows)
        ]
        WorkStealingPool(threads).run(tasks)
        return out

    def predict(
        self,
        x: Optional[np.ndarray] = None,
        *,
        cross_kernel: Optional[np.ndarray] = None,
        chunk_rows: Optional[int] = None,
        chunk_cols: Optional[int] = None,
        n_threads: Optional[int] = None,
    ) -> np.ndarray:
        """Assign held-out points to the fitted clusters.

        ``||phi(q) - c_j||^2 = kappa(q, q) - 2 s_qj + ||c_j||^2`` where
        the per-query constant is dropped.  Supply ``cross_kernel``
        (``m x n_train``, ``K_c[q, i] = kappa(q, p_i)``) when the
        estimator was fitted on a precomputed kernel matrix.

        Assignment runs through the chunked fused reduction
        (:class:`repro.engine.reduction.CrossKernelArgmin`): each query
        chunk's panels are one certified GEMM against the support's
        cached dense ``-2 V^T``, and the rows the error bound cannot
        certify (ties, near-ties, NaN, Inf) are re-run through the exact
        SpMM.  ``chunk_rows`` bounds the live query block, ``chunk_cols``
        bounds the live cluster block, and ``n_threads`` distributes query
        chunks over a work-stealing thread pool.  Labels are bitwise the
        exact SpMM path's for every setting.
        """
        self._require_fitted()
        rows = validate_chunk_size(chunk_rows, "chunk_rows")
        cols = validate_chunk_size(chunk_cols, "chunk_cols")
        threads = validate_n_threads(n_threads)
        if cross_kernel is not None:
            if x is not None:
                raise ConfigError("pass query points x or cross_kernel, not both")
            if self._support_centers is not None:
                raise ConfigError(
                    f"{type(self).__name__} predicts from explicit centers; "
                    "pass query points x instead of cross_kernel"
                )
            kc = as_matrix(cross_kernel, dtype=np.float64, name="cross_kernel")
            # after partial_fit the support can outgrow the last batch's
            # labels_, so the column count comes from the selection matrix
            v = self._support_v
            n_sup = v.ncols if v is not None else self.labels_.shape[0]
            if kc.shape[1] != n_sup:
                raise ShapeError(f"cross_kernel must have {n_sup} columns")
            return self._assign_cross(
                kc.shape[0], lambda r0, r1: kc[r0:r1], rows, cols, threads
            )
        if x is None:
            raise ShapeError("predict needs query points x (or a cross_kernel)")
        if self._support_centers is not None:
            xm = as_matrix(x, dtype=np.float64, name="x")
            return self._assign_centers(xm, rows, threads)
        if self._support_x is None:
            raise ShapeError(
                "estimator was fitted on a precomputed kernel; pass cross_kernel"
            )
        xm = as_matrix(x, dtype=getattr(self, "dtype", np.float64), name="x")
        kernel = getattr(self, "kernel", None)
        if kernel is None:
            raise ConfigError(f"{type(self).__name__} has no kernel to evaluate queries with")
        sup = self._support_x
        return self._assign_cross(
            xm.shape[0],
            lambda r0, r1: kernel.pairwise(xm[r0:r1], sup).astype(np.float64),
            rows,
            cols,
            threads,
        )

    def predict_batch(
        self,
        batches,
        *,
        chunk_rows: Optional[int] = None,
        chunk_cols: Optional[int] = None,
        n_threads: Optional[int] = None,
        devices: Optional[int] = None,
        profiler=None,
    ) -> np.ndarray:
        """Predict an iterable of query blocks; returns concatenated labels.

        Each block goes through :meth:`predict` independently, so peak
        memory is one block's cross-kernel (further bounded by
        ``chunk_rows``) — the entry point the micro-batching
        :class:`repro.serve.PredictionService` drains its queue through.

        ``devices`` shards every block's rows across ``g`` simulated
        devices (the serving face of the engine's sharded backend): each
        shard assigns its rows independently — bit-identical to the
        unsharded call, because assignment is row-wise — and when a
        ``profiler`` is given, the per-shard work plus the label-allgather
        cost are recorded (``serve.shard_predict`` / ``comm.allgather``
        launches under the ``serve`` phase).
        """
        self._require_fitted()
        kw = dict(
            chunk_rows=chunk_rows,
            chunk_cols=chunk_cols,
            n_threads=n_threads,
        )
        if devices is None:
            outs = [self.predict(b, **kw) for b in batches]
        else:
            g = int(devices)
            if g < 1:
                raise ConfigError(f"devices must be >= 1, got {devices}")
            outs = [
                self._predict_sharded(b, g, profiler=profiler, **kw) for b in batches
            ]
        if not outs:
            return np.empty(0, dtype=np.int32)
        return np.concatenate(outs)

    def _serve_comm_spec(self):
        """Interconnect for modeled serving collectives: the estimator's
        own (``comm`` attribute or a sharded-backend instance's), falling
        back to NVLink — so fit-time and serve-time comm ride one wire."""
        from ..distributed.comm import NVLINK, CommSpec

        comm = getattr(self, "comm", None)
        if isinstance(comm, CommSpec):
            return comm
        backend = getattr(self, "backend", None)
        backend_comm = getattr(backend, "comm", None)
        if isinstance(backend_comm, CommSpec):
            return backend_comm
        return NVLINK

    def _predict_sharded(
        self, batch, g: int, *, chunk_rows=None, chunk_cols=None,
        n_threads=None, profiler,
    ) -> np.ndarray:
        """One query block, row-partitioned over ``min(g, rows)`` shards."""
        import time

        from ..distributed.comm import allgather_cost
        from ..distributed.partition import row_blocks
        from ..gpu.launch import Launch

        kw = dict(
            chunk_rows=chunk_rows,
            chunk_cols=chunk_cols,
            n_threads=n_threads,
        )
        bm = np.asarray(batch)
        m = bm.shape[0]
        if m == 0:
            return self.predict(bm, **kw)
        shards = row_blocks(m, min(g, m))
        out = np.empty(m, dtype=np.int32)
        for p, (lo, hi) in enumerate(shards):
            t0 = time.perf_counter()
            out[lo:hi] = self.predict(bm[lo:hi], **kw)
            if profiler is not None:
                profiler.record(
                    Launch(
                        "serve.shard_predict",
                        0.0,
                        float(bm[lo:hi].nbytes),
                        time.perf_counter() - t0,
                        phase="serve",
                        meta={"dev": p, "rows": hi - lo},
                    )
                )
        if profiler is not None:
            profiler.record(
                allgather_cost(self._serve_comm_spec(), len(shards), 4.0 * m).with_phase("serve")
            )
        return out


def resolve_kernel(kernel):
    """Kernel-parameter conversion: None -> the paper's polynomial kernel;
    str -> registry lookup; Kernel instances pass through."""
    from ..kernels import PolynomialKernel, kernel_by_name

    if kernel is None:
        return PolynomialKernel(gamma=1.0, coef0=1.0, degree=2)
    if isinstance(kernel, str):
        return kernel_by_name(kernel)
    return kernel


#: Reusable :class:`~repro.engine.params.ParamSpec` building blocks for the
#: estimator family.  Each concrete estimator composes its full parameter
#: surface from these via :func:`shared_params` (overriding defaults where
#: its algorithm differs), so validation rules are written exactly once.
SHARED_PARAM_SPECS = {
    "n_clusters": ParamSpec("n_clusters", convert=int, low=1, required=True),
    "backend": ParamSpec("backend", default="auto"),
    "chunk_rows": ParamSpec(
        "chunk_rows",
        default=None,
        convert=lambda v: validate_chunk_size(v, "chunk_rows"),
    ),
    "chunk_cols": ParamSpec(
        "chunk_cols", default=None, convert=lambda v: validate_chunk_size(v, "chunk_cols")
    ),
    "n_threads": ParamSpec("n_threads", default=None, convert=validate_n_threads),
    "max_iter": ParamSpec(
        "max_iter", default=DEFAULT_CONFIG.max_iter, convert=int, low=1
    ),
    "tol": ParamSpec("tol", default=DEFAULT_CONFIG.tol, convert=float),
    "check_convergence": ParamSpec("check_convergence", default=True, convert=bool),
    "init": ParamSpec("init", default="random", choices=("random", "k-means++")),
    "empty_cluster_policy": ParamSpec(
        "empty_cluster_policy", default="keep", choices=("keep", "reseed")
    ),
    "seed": ParamSpec("seed", default=None),
    "dtype": ParamSpec("dtype", default=np.float32, convert=np.dtype),
    "device": ParamSpec("device", default=None),
    "kernel": ParamSpec("kernel", default=None, convert=resolve_kernel),
    "n_init": ParamSpec("n_init", default=5, convert=int, low=1),
    # online mini-batch fitting (repro.engine.minibatch)
    "batch_size": ParamSpec(
        "batch_size",
        default=None,
        convert=lambda v: validate_chunk_size(v, "batch_size"),
    ),
    "max_no_improvement": ParamSpec(
        "max_no_improvement", default=10, convert=optional(int), low=1
    ),
    "reassignment_ratio": ParamSpec(
        "reassignment_ratio", default=0.01, convert=float, low=0.0
    ),
}


def shared_params(*names: str, **overrides) -> tuple:
    """Compose a ``_params`` tuple from :data:`SHARED_PARAM_SPECS`.

    ``overrides`` maps a parameter name to a dict of
    :class:`~repro.engine.params.ParamSpec` field replacements
    (``max_iter={"default": 100}``).
    """
    import dataclasses

    unused = set(overrides) - set(names)
    if unused:
        raise ConfigError(
            f"shared_params override(s) {sorted(unused)} do not match any "
            f"listed parameter name (listed: {list(names)})"
        )
    out = []
    for name in names:
        spec = SHARED_PARAM_SPECS[name]
        if name in overrides:
            spec = dataclasses.replace(spec, **overrides[name])
        out.append(spec)
    return tuple(out)


class BaseKernelKMeans(OutOfSamplePredictor):
    """Common scaffolding for the kernel-k-means estimator family.

    Parameters owned here (subclasses add their own on top):

    n_clusters:
        Number of clusters ``k``.
    backend:
        ``"auto"`` (the estimator's natural substrate), ``"host"``
        (NumPy/CSR), ``"device"`` (simulated GPU), ``"sharded"`` /
        ``"sharded:<g>"`` (SPMD over ``g`` simulated devices,
        host-bit-exact labels), or a :class:`~repro.engine.backends.Backend`
        instance (a pre-configured substrate, e.g. a
        :class:`~repro.engine.sharded.ShardedBackend` with a custom
        interconnect).
    chunk_rows:
        Row granularity of the distance pipeline: the chunk height of
        the fused reduction on host-family backends, the streamed panel
        height on the device backend; None runs monolithic.
    chunk_cols, n_threads:
        Cluster-axis chunk and thread count of the fused reduction
        engine (:mod:`repro.engine.reduction`); host-family backends
        only.  Labels are bit-identical for every setting.
    max_iter, tol, check_convergence:
        Loop control (artifact ``-m`` / ``-t`` / ``-c``).
    init:
        ``"random"`` or ``"k-means++"`` (kernel-space seeding).
    empty_cluster_policy:
        ``"keep"`` or ``"reseed"``.
    seed:
        RNG seed for initialisation.
    dtype:
        Floating dtype of the pipeline.
    """

    #: backend "auto" resolves to this
    _default_backend = "device"
    #: backends this estimator can execute on; None accepts any registered
    #: backend (the extension point for :func:`repro.engine.register_backend`),
    #: a tuple restricts to the named ones (e.g. host-only estimators)
    _supported_backends = None

    #: class-level defaults for the engine knobs, so subclasses that
    #: exclude one from their parameter surface (e.g. the baseline has no
    #: row tiling, the spectral estimator owns its init) still satisfy the
    #: attribute contract the shared fit loop reads.
    chunk_rows = None
    chunk_cols = None
    n_threads = None
    max_iter = DEFAULT_CONFIG.max_iter
    tol = DEFAULT_CONFIG.tol
    init = "random"
    empty_cluster_policy = "keep"
    check_convergence = True
    seed = None
    device = None
    dtype = np.dtype(np.float32)
    gram_method = "auto"
    gram_threshold = None
    batch_size = None
    max_no_improvement = 10
    reassignment_ratio = 0.01
    #: estimators whose unweighted fit path runs with explicit unit
    #: weights (the weighted pipeline) set this, so a full-data
    #: ``partial_fit`` cold start replays their exact fit numerics
    _partial_fit_unit_weights = False

    _params = shared_params(
        "n_clusters",
        "backend",
        "chunk_rows",
        "chunk_cols",
        "n_threads",
        "max_iter",
        "tol",
        "check_convergence",
        "init",
        "empty_cluster_policy",
        "seed",
        "dtype",
        "device",
    )

    def __init__(
        self,
        n_clusters: int,
        *,
        backend: str = "auto",
        chunk_rows: Optional[int] = None,
        chunk_cols: Optional[int] = None,
        n_threads: Optional[int] = None,
        max_iter: int = DEFAULT_CONFIG.max_iter,
        tol: float = DEFAULT_CONFIG.tol,
        check_convergence: bool = True,
        init: str = "random",
        empty_cluster_policy: str = "keep",
        seed: Optional[int] = None,
        dtype=np.float32,
        device: Device | DeviceSpec | None = None,
    ) -> None:
        self._init_params(
            n_clusters=n_clusters,
            backend=backend,
            chunk_rows=chunk_rows,
            chunk_cols=chunk_cols,
            n_threads=n_threads,
            max_iter=max_iter,
            tol=tol,
            check_convergence=check_convergence,
            init=init,
            empty_cluster_policy=empty_cluster_policy,
            seed=seed,
            dtype=dtype,
            device=device,
        )

    def _validate_params(self) -> None:
        """Cross-parameter checks shared by the whole engine family."""
        backend = self.backend
        if isinstance(backend, Backend):
            self._check_backend_supported(backend.name)
        elif isinstance(backend, str):
            if backend != "auto":
                self._check_backend_supported(backend)
                get_backend(backend)  # unknown names fail fast at construction
        else:
            raise ConfigError(
                f"backend must be a backend name or Backend instance, "
                f"got {type(backend).__name__}"
            )
        device = getattr(self, "device", None)
        if device is not None and not isinstance(device, (Device, DeviceSpec)):
            raise ConfigError(
                f"device must be a Device or DeviceSpec, got {type(device).__name__}"
            )

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(DEFAULT_CONFIG.seed if self.seed is None else self.seed)

    def _check_backend_supported(self, name: str) -> None:
        """Validate a backend name against ``_supported_backends``.

        Parametric names (``"sharded:<g>"``) are checked by their base
        name, so a restricted estimator lists ``"sharded"`` once.
        """
        if self._supported_backends is None:
            return
        base = name.partition(":")[0]
        if base not in self._supported_backends:
            raise ConfigError(
                f"backend must be one of {('auto',) + tuple(self._supported_backends)} "
                f"for {type(self).__name__}, got {name!r}"
            )

    def _resolve_backend(self) -> Backend:
        if isinstance(self.backend, Backend):
            return self.backend
        name = self._default_backend if self.backend == "auto" else self.backend
        if name == "device" and self.backend == "auto" and self._wants_chunked():
            # the chunked fused reduction is host-side execution; an
            # explicit backend="device" with chunk params still fails fast
            name = "host"
        return get_backend(name)

    def _wants_chunked(self) -> bool:
        # chunk_rows alone stays backend-neutral (the device backend
        # streams panels of that height); chunk_cols/n_threads are host-only
        return any(
            getattr(self, p, None) is not None for p in ("chunk_cols", "n_threads")
        )

    def _make_device(self) -> Device:
        dev = getattr(self, "device", None)
        if dev is None:
            return Device(A100_80GB)
        if isinstance(dev, DeviceSpec):
            return Device(dev)
        if isinstance(dev, Device):
            return dev
        raise ConfigError(f"device must be a Device or DeviceSpec, got {type(dev).__name__}")

    def _begin_state(self) -> EngineState:
        """Open the backend for one fit (creating the device if needed)."""
        be = self._resolve_backend()
        device = self._make_device() if be.needs_device else None
        if device is None and getattr(self, "device", None) is not None:
            raise ConfigError(
                f"backend={be.name!r} does not run on a device; drop the device argument"
            )
        state = be.begin(
            n_clusters=self.n_clusters,
            dtype=self.dtype,
            chunk_rows=getattr(self, "chunk_rows", None),
            chunk_cols=getattr(self, "chunk_cols", None),
            n_threads=getattr(self, "n_threads", None),
            device=device,
        )
        state.trace_mark = trace.mark()
        return state

    # ------------------------------------------------------------------
    # the init -> distances -> argmin -> convergence loop
    # ------------------------------------------------------------------
    def _init_labels(
        self, state: EngineState, init_labels: Optional[np.ndarray], rng: np.random.Generator
    ) -> np.ndarray:
        # lazy: repro.baselines imports estimators built on this module
        from ..baselines.init import kernel_kmeans_pp_labels, random_labels

        with state.profiler.phase("init"):
            if init_labels is not None:
                return check_labels(init_labels, state.n, self.n_clusters).copy()
            if self.init == "k-means++":
                return kernel_kmeans_pp_labels(state.kernel_host(), self.n_clusters, rng)
            return random_labels(state.n, self.n_clusters, rng)

    def _distance_step(
        self, state: EngineState, labels: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> DistanceStep:
        """The estimator's strategy; default is Popcorn's SpMM/SpMV pipeline."""
        return state.backend.popcorn_step(state, labels, weights=weights)

    def _objective(
        self, step: DistanceStep, labels: np.ndarray, weights: Optional[np.ndarray]
    ) -> float:
        # step.assigned serves both step shapes: fused steps answer from
        # their running minima (plus exact on-demand entries for rows the
        # reseed policy moved), materialised steps gather from the block —
        # the summands are bitwise the legacy ``D[i, labels[i]]`` either way
        assigned = step.assigned(labels)
        if weights is None:
            return float(assigned.sum(dtype=np.float64))
        return float((weights * assigned).sum())

    def _fit_loop(
        self,
        state: EngineState,
        labels: np.ndarray,
        *,
        weights: Optional[np.ndarray] = None,
    ):
        """Iterate distances -> argmin -> policy -> objective -> convergence."""
        from ..core.assignment import ConvergenceTracker

        tracker = ConvergenceTracker(tol=self.tol, check=self.check_convergence)
        n_iter = 0
        for _ in range(self.max_iter):
            with trace.span("fit.iter", iter=n_iter):
                with trace.span("fit.distances"):
                    step = self._distance_step(state, labels, weights)
                with trace.span("fit.argmin"):
                    new_labels = state.backend.argmin(state, step)
                with trace.span("fit.update"):
                    if self.empty_cluster_policy == "reseed":
                        new_labels = self._reseed_empty(step, new_labels, self.n_clusters)
                with trace.span("fit.inertia"):
                    objective = self._objective(step, new_labels, weights)
            labels = new_labels
            n_iter += 1
            if tracker.update(labels, objective):
                break
        return labels, n_iter, tracker

    def _reseed_empty(self, step: DistanceStep, labels: np.ndarray, k: int) -> np.ndarray:
        """Move the farthest-from-centroid points into empty clusters."""
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return labels
        labels = labels.copy()
        assigned_d = step.assigned(labels)
        for j in empty:
            i = int(np.argmax(assigned_d))
            labels[i] = j
            assigned_d[i] = -np.inf  # don't steal the same point twice
        return labels

    # ------------------------------------------------------------------
    # fitted attributes
    # ------------------------------------------------------------------
    def _set_fit_results(self, state: EngineState, labels, n_iter, tracker) -> None:
        self.labels_ = labels
        self.n_iter_ = n_iter
        self.objective_history_ = list(tracker.objectives)
        self.objective_ = tracker.objectives[-1]
        self.converged_ = tracker.converged
        self.convergence_reason_ = tracker.reason
        self.timings_ = state.backend.timings(state)
        self.profiler_ = state.profiler
        self.backend_ = state.backend.name
        # per-name span aggregate of this fit's window (empty when the
        # tracer is off); the cheap always-present face of repro.obs
        self.trace_ = trace.summary(since=state.trace_mark)
        state.backend.finalize_results(state, self)
