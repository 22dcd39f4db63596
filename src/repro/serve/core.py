"""The serving core: the one implementation of the serving policy.

The row digest, the LRU label cache with version-guarded write-back,
admission control, swap versioning, the counters and rolling windows,
and ``stats()`` live here, shared by :class:`~repro.serve.PredictionService`
and :class:`~repro.serve.AsyncPredictionServer` (see the ``repro.serve``
package docs).  :class:`ServingCore` is lock-free: its owner serialises
every call — the thread service under its ``_lock``, the async server
on its event loop.  The one exception is :meth:`ServingCore.swap`, a
single atomic rebind of ``generation``, which is safe from a foreign
thread: a reader binds ``core.generation`` once and gets a model, its
version and its cache that belong together.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict, deque
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from ..errors import ConfigError, Overloaded
from ..obs import metrics, trace
from ..obs.export import stats_to_prometheus
from .config import ServeConfig, ServeResult

__all__ = ["Generation", "ServingCore", "digest", "percentile"]


def check_servable(model) -> None:
    """Reject a model neither front end can serve, before it is served."""
    if not hasattr(model, "predict"):
        raise ConfigError("model must expose the engine predict contract")
    if not hasattr(model, "labels_"):
        raise ConfigError("model is not fitted; fit (or load) it before serving")


def query_row(query) -> np.ndarray:
    """One query as the contiguous float64 row every front end serves."""
    row = np.ascontiguousarray(np.asarray(query, dtype=np.float64))
    if row.ndim != 1:
        raise ConfigError(f"submit takes one 1-D query row, got shape {row.shape}")
    return row


def query_block(queries, caller: str) -> np.ndarray:
    """A block of query rows as a float64 matrix; ``caller`` names the API."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2:
        raise ConfigError(f"{caller} takes a 2-D query block, got shape {q.shape}")
    return q


def digest(row: np.ndarray) -> str:
    """Cache and coalescing key of one query row: its shape and exact bytes."""
    h = hashlib.sha1()
    h.update(str(row.shape).encode())
    h.update(row.tobytes())
    return h.hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Latency percentile with explicit edge cases.

    An empty window reports 0.0 (not NaN, and never raises) and a
    single-sample window reports that sample for every ``q`` —
    ``np.percentile`` would interpolate a one-point "distribution" the
    same way, but the contract is explicit and holds for any sequence
    type the rolling window hands in.
    """
    if len(values) == 0:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


#: lifetime counts, in ``stats()`` order
_COUNTS = "requests served shed coalesced cache_hits errors cancelled batches backend_rows".split()
#: the counts mirrored as ``<prefix>.<name>`` counter metrics while tracing
_METERED = frozenset({"requests", "shed", "coalesced", "cache_hits", "errors", "batches"})


class Generation(NamedTuple):
    """One served model version and the label cache that dies with it."""

    model: object
    version: int
    swaps: int
    cache: "OrderedDict[str, int]"


class ServingCore:
    """Cache, admission, swap versioning and stats for one front end.

    ``model`` is served as version 1; ``prefix`` names the front end's
    spans and metrics (``"serve"`` or ``"serve.async"``).
    """

    def __init__(self, model, config: ServeConfig, prefix: str) -> None:
        self.prefix = prefix
        self.cache_size = config.cache_size
        self.queue_bound = config.queue_bound
        self.n_workers = config.n_workers
        self.generation = Generation(model, 1, 0, OrderedDict())
        # lifetime totals; the latency / batch-size windows are bounded
        # rolling deques, so ``served`` is counted, not read off a window
        self.counts = dict.fromkeys(_COUNTS, 0)
        self.queue_peak = 0
        self.latencies: deque = deque(maxlen=config.latency_window)
        self.batch_sizes: deque = deque(maxlen=config.latency_window)
        self.t_first: Optional[float] = None
        self.t_last: Optional[float] = None

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the lifetime count ``name`` (one of ``_COUNTS``)."""
        self.counts[name] += n
        if name in _METERED and trace.enabled:
            metrics.counter(f"{self.prefix}.{name}").inc(n)

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    def arrive(self, key: Optional[str], t0: float) -> Optional[ServeResult]:
        """Count one request arriving at ``t0``; answer it from the cache.

        Returns the cached :class:`~repro.serve.ServeResult`, or None on a
        miss (``key`` None or the cache disabled is always a miss).
        """
        self.count("requests")
        if self.t_first is None:
            self.t_first = t0
        if key is None or not self.cache_size:
            return None
        gen = self.generation
        label = gen.cache.get(key)
        if label is None:
            return None
        gen.cache.move_to_end(key)
        self.count("cache_hits")
        self.count("served")
        now = time.perf_counter()
        self.latencies.append(now - t0)
        self.t_last = now
        return ServeResult(
            label, model_version=gen.version, cache_hit=True, latency_s=now - t0
        )

    def admit(self, queued: int) -> None:
        """Admission control for a request joining ``queued`` pending ones.

        Sheds with :class:`~repro.errors.Overloaded` (before the request
        costs anything) when ``queue_bound`` requests already wait;
        otherwise records the new queue depth.
        """
        instrumented = trace.enabled
        if self.queue_bound is not None and queued >= self.queue_bound:
            self.count("shed")
            if instrumented:
                trace.instant(f"{self.prefix}.shed", queued=queued)
            raise Overloaded(
                f"queue is full ({self.queue_bound} pending requests); shed"
            )
        depth = queued + 1
        if depth > self.queue_peak:
            self.queue_peak = depth
        if instrumented:
            metrics.gauge(f"{self.prefix}.queue_depth").max(depth)
            trace.instant(f"{self.prefix}.enqueue", queued=depth)

    # ------------------------------------------------------------------
    # batch outcomes
    # ------------------------------------------------------------------
    def complete(
        self,
        version: int,
        keys: Sequence[Optional[str]],
        labels,
        waits: Sequence[Sequence[float]],
        t1: float,
    ) -> List[List[ServeResult]]:
        """Account one backend batch answered at ``t1`` by model ``version``.

        ``keys[i]`` / ``labels[i]`` are the digest and label of backend
        row ``i``, and ``waits[i]`` the enqueue times of every request
        that row answers (the first is the queue occupant, the rest rode
        along).  Returns the matching :class:`~repro.serve.ServeResult`
        lists.  The labels seed the cache only while ``version`` is
        still the current generation's.
        """
        n = len(keys)
        self.count("batches")
        self.count("backend_rows", n)
        self.batch_sizes.append(n)
        self.t_last = t1
        hist = metrics.histogram(f"{self.prefix}.latency_s") if trace.enabled else None
        out: List[List[ServeResult]] = []
        for label, times in zip(labels, waits):
            label = int(label)
            answers = []
            for i, t_enq in enumerate(times):
                lat = t1 - t_enq
                self.latencies.append(lat)
                if hist is not None:
                    hist.observe(lat)
                answers.append(
                    ServeResult(
                        label, model_version=version, coalesced=i > 0, latency_s=lat
                    )
                )
            self.count("served", len(times))
            out.append(answers)
        # a batch that raced a swap still answers (its labels are
        # consistent with the model it ran on), but must not seed the
        # new generation's cache with stale results
        gen = self.generation
        if self.cache_size and version == gen.version:
            with trace.span(f"{self.prefix}.cache_writeback", size=n):
                cache = gen.cache
                for key, label in zip(keys, labels):
                    cache[key] = int(label)
                    cache.move_to_end(key)
                while len(cache) > self.cache_size:
                    cache.popitem(last=False)
        return out

    def fail(self, n: int) -> None:
        """Count ``n`` requests answered with an error."""
        self.count("errors", n)
        self.t_last = time.perf_counter()

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    def swap(self, model, version: Optional[int] = None) -> int:
        """Publish ``model``, with an empty cache, as the next generation.

        ``version`` defaults to the current one plus one (the async
        server passes its worker pool's); returns it.
        """
        old = self.generation
        if version is None:
            version = old.version + 1
        self.generation = Generation(model, version, old.swaps + 1, OrderedDict())
        if trace.enabled:
            trace.instant(f"{self.prefix}.model_swap", version=version)
            metrics.counter(f"{self.prefix}.model_swaps").inc()
        return version

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self, *, format: str = "dict"):
        """Serving counters as a dict, or Prometheus text (``format="prom"``).

        Percentiles and the batch-size mean cover the rolling window
        (``latency_window``); counts and ``queries_per_s`` are lifetime
        totals.  ``backend_rows`` counts the rows a backend predicted:
        cache hits and coalesced duplicates never reach one.
        """
        if format not in ("dict", "prom"):
            raise ConfigError(f"format must be 'dict' or 'prom', got {format!r}")
        lat = list(self.latencies)
        sizes = list(self.batch_sizes)
        counts = self.counts
        n_req = counts["requests"]
        span = (
            (self.t_last - self.t_first)
            if (self.t_first is not None and self.t_last is not None)
            else 0.0
        )
        gen = self.generation
        out = {
            **counts,
            "cache_hit_rate": counts["cache_hits"] / n_req if n_req else 0.0,
            "mean_batch_size": float(np.mean(sizes)) if sizes else 0.0,
            "queue_peak": self.queue_peak,
            "latency_mean_ms": float(np.mean(lat)) * 1e3 if lat else 0.0,
            "latency_p50_ms": percentile(lat, 50) * 1e3,
            "latency_p95_ms": percentile(lat, 95) * 1e3,
            "latency_p99_ms": percentile(lat, 99) * 1e3,
            "latency_max_ms": float(np.max(lat)) * 1e3 if lat else 0.0,
            "queries_per_s": counts["served"] / span if span > 0 else 0.0,
            "model_version": gen.version,
            "model_swaps": gen.swaps,
            "workers": self.n_workers,
        }
        if format == "prom":
            return stats_to_prometheus(out)
        return out
