"""Batched out-of-sample prediction service (the serving hot path).

:class:`PredictionService` turns a predict-capable estimator (anything
implementing the engine contract of
:class:`repro.engine.base.OutOfSamplePredictor`, fitted in-process or
reloaded via :func:`repro.serve.load_model`) into a concurrent query
server:

* **micro-batching** — requests land in a queue; worker threads drain it
  in batches of up to ``batch_size``, waiting at most ``max_delay_ms``
  after the first queued request, so one cross-kernel SpMM amortises over
  many queries instead of running per request;
* **serving core** — cache, admission, swap versioning and stats are
  the shared :mod:`repro.serve.core`, called under the service lock;
* **thread-pool workers** — ``n_workers`` threads serve batches
  concurrently (the predict pipeline is pure read-only NumPy on the
  support set, so workers share the model safely);
* **hot swap** — :meth:`PredictionService.swap_model` atomically
  replaces the served model while requests are in flight: each batch
  binds the model and its version together when it is formed, running
  batches finish on the model they started with, new batches see the
  new one, the label cache is invalidated, and no request is dropped
  (the online-refresh loop of :class:`repro.serve.ModelRefresher`);
* **profiling** — every served batch is recorded on an Nsight-style
  :class:`repro.gpu.Profiler` (``serve.predict_batch`` launches under
  the ``serve`` phase) so the existing profiling tooling reads serving
  runs too.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..gpu.launch import Launch
from ..gpu.profiler import Profiler
from ..obs import trace
from .config import ServeConfig, ServeResult
from .core import Generation, ServingCore, check_servable, digest, query_block, query_row

__all__ = ["PredictionService"]


class _Request:
    """One queued query row and the plumbing to answer it."""

    __slots__ = ("row", "key", "future", "t_enqueue")

    def __init__(self, row: np.ndarray, key: Optional[str]) -> None:
        self.row = row
        self.key = key
        self.future: Future = Future()
        self.t_enqueue = time.perf_counter()


class PredictionService:
    """Micro-batching prediction server over a fitted estimator.

    Parameters
    ----------
    model:
        A fitted estimator exposing the engine ``predict`` contract.
    config:
        A :class:`~repro.serve.ServeConfig` carrying every serving knob
        (batch window, queue bound, workers, cache, chunk schedule,
        devices).  The service clones it, so later mutation of the
        caller's config does not reach the running service.
    profiler:
        Optional shared :class:`~repro.gpu.Profiler`; a fresh one is
        created (and exposed as ``profiler_``) by default.
    **params:
        Back-compat keyword surface: the same names ``ServeConfig``
        declares (``batch_size=``, ``max_delay_ms=``, ``n_workers=``,
        ``queue_bound=``, ``cache_size=``, ``latency_window=``,
        ``chunk_rows=``, ``chunk_cols=``, ``n_threads=``, ``devices=``),
        validated
        through the identical :class:`~repro.params.ParamSpec` bounds.
        Mixing ``config=`` with keywords is a
        :class:`~repro.errors.ConfigError`.

    Futures resolve to :class:`~repro.serve.ServeResult` — an ``int``
    subclass carrying the label plus model version, cache provenance and
    latency — so historical bare-``int`` callers keep working unchanged.

    When ``queue_bound`` is set, a request arriving while that many are
    already pending is shed with :class:`~repro.errors.Overloaded`
    before it consumes any backend capacity (admission control).

    The service starts its workers immediately; use it as a context
    manager (or call :meth:`close`) to drain the queue and join them.
    """

    # The lock-discipline declaration (checked statically by repro-lint
    # rule RPR106, dynamically by the lockdep fixture): every attribute
    # below may only be mutated — for ``_core``, have any method called
    # on it — while holding the named lock.  ``_not_empty`` is a
    # Condition built over ``_lock``, so holding either name is holding
    # the same lock.
    _guarded_by = {
        "_queue": ("_lock", "_not_empty"),
        "_closed": "_lock",
        "_core": "_lock",
    }

    def __init__(
        self,
        model,
        config: Optional[ServeConfig] = None,
        *,
        profiler: Optional[Profiler] = None,
        **params,
    ) -> None:
        check_servable(model)
        cfg = ServeConfig.coerce(config, params, owner="PredictionService")
        self.config = cfg
        self.batch_size = cfg.batch_size
        self.max_delay_s = cfg.max_delay_s
        self.n_workers = cfg.n_workers
        self.queue_bound = cfg.queue_bound
        self.cache_size = cfg.cache_size
        self.latency_window = cfg.latency_window
        self.chunk_rows = cfg.chunk_rows
        self.chunk_cols = cfg.chunk_cols
        self.n_threads = cfg.n_threads
        self.devices = cfg.devices
        self.profiler_ = profiler if profiler is not None else Profiler()

        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._queue: deque = deque()
        self._closed = False
        self._core = ServingCore(model, cfg, "serve")

        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"repro-serve-{i}", daemon=True)
            for i in range(self.n_workers)
        ]
        for w in self._workers:
            w.start()

    @property
    def model(self):
        """The currently served model (replaced by :meth:`swap_model`)."""
        return self._core.generation.model

    # ------------------------------------------------------------------
    # request entry points
    # ------------------------------------------------------------------
    def submit(self, query) -> Future:
        """Enqueue one query row; the Future resolves to a
        :class:`~repro.serve.ServeResult` (an ``int``-compatible label).

        Raises :class:`~repro.errors.Overloaded` when ``queue_bound`` is
        configured and that many requests are already pending.
        """
        row = query_row(query)
        req = _Request(row, digest(row) if self.cache_size else None)
        with self._lock:
            if self._closed:
                raise ConfigError("service is closed")
            hit = self._core.arrive(req.key, req.t_enqueue)
            if hit is not None:
                req.future.set_result(hit)
                return req.future
            self._core.admit(len(self._queue))
            self._queue.append(req)
            self._not_empty.notify()
        return req.future

    def predict(self, query) -> ServeResult:
        """Blocking single-query predict through the batching queue.

        Returns a :class:`~repro.serve.ServeResult`: the label as an
        ``int`` subclass (the historical return contract) plus model
        version, cache provenance, and latency.
        """
        return self.submit(query).result()

    def predict_many(
        self,
        queries,
        *,
        timeout: Optional[float] = None,
        details: bool = False,
    ):
        """Enqueue a block of query rows and gather answers in order.

        Returns an int32 label array (the historical contract), or the
        full per-request :class:`~repro.serve.ServeResult` list when
        ``details=True``.
        """
        q = query_block(queries, "predict_many")
        futures = [self.submit(row) for row in q]
        results = [f.result(timeout=timeout) for f in futures]
        if details:
            return results
        return np.array([int(r) for r in results], dtype=np.int32)

    # ------------------------------------------------------------------
    # worker machinery
    # ------------------------------------------------------------------
    def _next_batch(self) -> Optional[Tuple[List[_Request], Generation]]:
        """Block until a batch is ready; None means shut down.

        The batch comes with the generation that serves it, bound in the
        same locked read, so its model and version always agree even
        when :meth:`swap_model` lands while the batch runs.
        """
        with self._not_empty:
            while not self._queue and not self._closed:
                self._not_empty.wait(0.05)
            if not self._queue:
                return None  # closed and drained
            batch = [self._queue.popleft()]
            deadline = batch[0].t_enqueue + self.max_delay_s
            while len(batch) < self.batch_size:
                if self._queue:
                    batch.append(self._queue.popleft())
                    continue
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or self._closed:
                    break
                self._not_empty.wait(remaining)
            return batch, self._core.generation

    def _worker_loop(self) -> None:
        while True:
            work = self._next_batch()
            if work is None:
                return
            batch, gen = work
            try:
                self._run_batch(batch, gen)
            except BaseException as exc:  # pragma: no cover - defensive
                # _run_batch isolates per-request failures itself; anything
                # escaping it (post-predict bookkeeping, SystemExit) would
                # orphan the popped requests' futures and — worse — kill
                # the worker so later-queued futures hang forever.  Resolve
                # what this worker holds and keep the loop alive.
                orphans = [req for req in batch if not req.future.done()]
                with self._lock:
                    self._core.fail(len(orphans))
                for req in orphans:
                    req.future.set_exception(
                        exc
                        if isinstance(exc, Exception)
                        else RuntimeError(f"serve worker aborted: {exc!r}")
                    )
                if not isinstance(exc, Exception):
                    raise

    def _run_batch(self, batch: List[_Request], gen: Generation) -> None:
        t0 = time.perf_counter()
        try:
            rows = np.stack([req.row for req in batch])
            kw = self.config.predict_kwargs()
            with trace.span("serve.batch", size=len(batch), version=gen.version):
                if self.devices is not None:
                    labels = gen.model.predict_batch(
                        [rows],
                        devices=self.devices,
                        profiler=self.profiler_,
                        **kw,
                    )
                else:
                    labels = gen.model.predict(rows, **kw)
        except Exception as exc:
            # a fused batch can fail on one bad request (e.g. a ragged row);
            # retry each request alone so the error stays with its sender
            # instead of poisoning batch-mates — and the worker survives
            if len(batch) > 1:
                for req in batch:
                    self._run_batch([req], gen)
                return
            with self._lock:
                self._core.fail(1)
            batch[0].future.set_exception(exc)
            return
        t1 = time.perf_counter()
        self.profiler_.record(
            Launch(
                "serve.predict_batch",
                flops=0.0,
                bytes=float(rows.nbytes),
                time_s=t1 - t0,
                phase="serve",
                meta={"batch": len(batch)},
            )
        )
        with self._lock:
            results = self._core.complete(
                gen.version,
                [req.key for req in batch],
                labels,
                [(req.t_enqueue,) for req in batch],
                t1,
            )
        for req, (result,) in zip(batch, results):
            req.future.set_result(result)

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    def swap_model(self, model) -> int:
        """Atomically replace the served model; returns the new version.

        In-flight batches finish on the model they started with (each
        batch binds its model and version together), queued and future
        requests see the new one, and the label cache is invalidated —
        so no request is ever dropped or answered from a half-swapped
        state.  The served model version (``stats()["model_version"]``)
        increments per swap.
        """
        check_servable(model)
        with self._lock:
            if self._closed:
                raise ConfigError("service is closed")
            return self._core.swap(model)

    # ------------------------------------------------------------------
    # lifecycle + stats
    # ------------------------------------------------------------------
    def close(self, *, drain: bool = True) -> None:
        """Stop the service; every outstanding Future resolves.

        ``drain=True`` (default) lets the workers serve everything
        already queued before they exit; ``drain=False`` cancels the
        queued requests immediately (in-flight batches still finish).
        Either way no Future is left pending: anything still queued
        after the workers are joined — possible only if a worker died —
        is cancelled, so a request enqueued just before close can never
        hang its ``result()`` caller.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leftovers: List[_Request] = []
            if not drain:
                leftovers = list(self._queue)
                self._queue.clear()
                self._core.count("cancelled", len(leftovers))
            self._not_empty.notify_all()
        self._cancel_requests(leftovers)
        for w in self._workers:
            w.join()
        # deterministic backstop: a dead worker may have left requests
        # queued (or a submit raced the close); nothing will serve them now
        with self._lock:
            leftovers = list(self._queue)
            self._queue.clear()
            self._core.count("cancelled", len(leftovers))
        self._cancel_requests(leftovers)

    @staticmethod
    def _cancel_requests(requests: List[_Request]) -> None:
        for req in requests:
            if not req.future.cancel() and not req.future.done():
                req.future.set_exception(
                    ConfigError("service closed before this request was served")
                )

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self, *, format: str = "dict"):
        """Serving counters (:meth:`repro.serve.core.ServingCore.stats`);
        ``format="prom"`` is what ``repro-serve stats --format prom`` prints."""
        with self._lock:
            return self._core.stats(format=format)
