"""Model persistence and batched out-of-sample serving (``repro.serve``).

The paper's contribution is fast kernel-k-means *training*; this package
is the inference half of the system: fitted estimators survive process
exit as versioned artifacts, and held-out queries are answered by a
micro-batching prediction service — the subsystem every scaling
extension (sharding, caching, async) lands in.

Pieces
------
:mod:`repro.serve.persist`
    ``save_model`` / ``load_model`` / ``inspect_model`` — a versioned,
    schema-checked ``.npz`` artifact (JSON header + raw arrays, no
    pickling) that round-trips **bit-exactly**: a reloaded model's
    ``predict`` matches the fitting estimator's in-memory ``predict``
    bit for bit.
:mod:`repro.serve.config`
    :class:`ServeConfig` — the declarative serving configuration
    (every knob a :class:`~repro.params.ParamSpec`, the estimator
    treatment for the serving tier) consumed by both services — and
    :class:`ServeResult`, the ``int``-compatible answer type carrying
    label + model version + cache/coalesce provenance + latency.
:mod:`repro.serve.core`
    :class:`~repro.serve.core.ServingCore` — the serving policy both
    front ends share (see "Serving core" below).
:mod:`repro.serve.service`
    :class:`PredictionService` — micro-batching request queue,
    thread-pool workers, profiler-recorded batches, and atomic model
    hot-swap (``swap_model``) with zero dropped in-flight requests.
:mod:`repro.serve.frontdoor`
    :class:`AsyncPredictionServer` — the asyncio ingress for open-loop
    traffic: digest-level coalescing of identical in-flight queries,
    backpressure-aware batching, dispatch to shard workers, and
    artifact hot-swap propagation.  Plus :func:`open_loop_load`, the
    paced load generator behind the SLO curves.
:mod:`repro.serve.worker`
    :class:`ShardWorkerPool` — the model-replica workers behind the
    front door: one process (or inline replica) each, loaded from a
    versioned artifact, swapped behind a full-pool barrier.
:mod:`repro.serve.autoscale`
    The autoscaling policy simulator: workers-vs-saturation-qps curves
    on the engine's device/comm cost models (:func:`saturation_curve`,
    :func:`workers_for`).
:mod:`repro.serve.refresh`
    :class:`ModelRefresher` — online refresh loop: a shadow copy of the
    served model absorbs ``partial_fit`` batches, then publishes as the
    next versioned artifact (atomic write) and hot-swaps into the
    running service (thread service or async front door).
:mod:`repro.serve.cli`
    The ``repro-serve`` console script (``save`` / ``load`` /
    ``predict`` / ``serve`` / ``loadgen`` subcommands; one-shot files
    or stdin JSONL).

Artifact format
---------------
One ``.npz`` file; the ``__meta__`` entry is a UTF-8 JSON header, every
other entry is a raw array of the estimator's support set:

================  =====================================================
npz key           contents
================  =====================================================
``__meta__``      JSON header: format marker, ``schema_version``,
                  estimator class, ``n_clusters``, dtype, kernel name +
                  parameters, fit metadata (iterations, objective,
                  convergence, backend)
``labels``        final training assignments (int32, n)
``c_norms``       squared feature-space centroid norms (float64, k)
``support_x``     training points, when fitted on points
``support_weights``  per-point weights (weighted / spectral fits)
``support_centers``  explicit feature-space centers (Lloyd / Elkan /
                  Nyström embedding path); re-aliased to ``centers_`` on
                  load for the classical estimators
``landmark_x``    Nyström landmark points
``nystrom_map``   the Nyström ``W^{-1/2}`` query-embedding map
``landmarks``     Nyström landmark indices into the training set
``support_v_*``   explicit support selection matrix (CSR arrays) of an
                  online-fitted model (schema v3)
``online_counts``  per-cluster accumulated ``partial_fit`` weights
================  =====================================================

Micro-batching knobs (:class:`PredictionService`)
-------------------------------------------------
``batch_size``     max requests fused into one cross-kernel SpMM
``max_delay_ms``   wait for the batch to fill (latency/throughput knob)
``n_workers``      worker threads serving batches concurrently
``cache_size``     LRU entries memoised by query-row digest (0 = off)
``chunk_rows``     row-chunk bound on the live cross-kernel panel

Serving core
------------
Both front ends answer under one policy, :mod:`repro.serve.core`: the
query-row digest, the LRU label cache with version-guarded write-back,
``queue_bound`` admission control, swap versioning, counters, latency
windows and ``stats()``.  A swap publishes model, version and an empty
cache together in one atomic rebind, so an answer's label always comes
from the model its ``model_version`` names.  ``PredictionService``
calls the core under its lock, ``AsyncPredictionServer`` from the event
loop; each keeps only its queue, batcher, dispatch and swap transport.
Both report the same ``stats()`` keys and, after a drained close,
``requests == served + shed + errors + cancelled``.

Lock discipline (``_guarded_by``)
---------------------------------
The concurrency-bearing classes here declare their locking contract as
data: a class-level ``_guarded_by`` dict mapping each shared mutable
attribute to the lock that must be held to mutate it — a lock attribute
name, a tuple of alternative names (``Condition(self._lock)`` aliases
its lock), or ``"event-loop"`` for asyncio loop-confined state, with
``_off_loop_methods`` naming the sync entry points that run on foreign
threads and may only *atomically rebind* loop-confined attributes.
The declaration is enforced twice: statically by lint rule RPR106
(``repro-lint explain RPR106``) and dynamically by the ``lockdep``
pytest fixture, which fails the hammer tests on lock-ordering cycles.

Quickstart
----------
>>> from repro import PopcornKernelKMeans
>>> from repro.serve import PredictionService, load_model, save_model
>>> model = PopcornKernelKMeans(3, seed=0).fit(x)          # doctest: +SKIP
>>> save_model(model, "model.npz")                          # doctest: +SKIP
>>> with PredictionService(load_model("model.npz")) as svc: # doctest: +SKIP
...     label = svc.predict(query)
"""

from .persist import (
    MODEL_FORMAT,
    MODEL_SCHEMA_VERSION,
    inspect_model,
    load_model,
    save_model,
)
from .config import ServeConfig, ServeResult
from .service import PredictionService
from .worker import ShardWorkerPool
from .frontdoor import AsyncPredictionServer, LoadReport, open_loop_load
from .autoscale import AutoscalePoint, curve_for_model, saturation_curve, workers_for
from .refresh import ModelRefresher

__all__ = [
    "MODEL_FORMAT",
    "MODEL_SCHEMA_VERSION",
    "save_model",
    "load_model",
    "inspect_model",
    "ServeConfig",
    "ServeResult",
    "PredictionService",
    "AsyncPredictionServer",
    "ShardWorkerPool",
    "LoadReport",
    "open_loop_load",
    "AutoscalePoint",
    "saturation_curve",
    "curve_for_model",
    "workers_for",
    "ModelRefresher",
]
