"""The benchmark's own load generators and query traffic.

* :func:`open_loop` — one asyncio loop sends request ``i`` at its due
  time ``start + i / qps`` whatever happened to earlier ones.  Latency
  runs from the due time, so a stall also charges the requests it
  delayed; a shed or failed request is a miss.  How late each send was
  is recorded too.
* :func:`closed_loop` — a fixed window of outstanding requests; the next
  is sent when one is answered.
* :func:`block_loop` — one client thread of ``predict_many`` blocks on
  the thread service, swapping models on a timer.
* :class:`QueryMix` — Zipf-weighted hot rows mixed with unique rows.
"""

from __future__ import annotations

import asyncio
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

#: share of requests drawn from the hot set, and the Zipf exponent of
#: the draw over its ranks
HOT_SHARE = 0.5
ZIPF_S = 1.1


@dataclass
class Replies:
    """Per-request outcome arrays, indexed like the request sequence."""

    rows: np.ndarray  # row index into the query table
    latency_s: np.ndarray  # inf for shed / failed / never sent
    label: np.ndarray  # -1 when no label came back
    version: np.ndarray
    late_s: np.ndarray
    submit_s: List[float] = field(default_factory=list)
    shed: int = 0
    failed: int = 0
    sent: int = 0
    elapsed_s: float = 0.0

    @classmethod
    def empty(cls, rows: np.ndarray) -> "Replies":
        n = len(rows)
        return cls(
            rows=rows,
            latency_s=np.full(n, np.inf),
            label=np.full(n, -1, dtype=np.int64),
            version=np.zeros(n, dtype=np.int64),
            late_s=np.zeros(n),
        )

    def answered(self) -> np.ndarray:
        return self.label >= 0


def _on_reply(out: Replies, loop, i: int, t_ref: float, fut: asyncio.Future) -> None:
    if fut.cancelled() or fut.exception() is not None:
        out.failed += 1
        return
    res = fut.result()
    out.latency_s[i] = loop.time() - t_ref
    out.label[i] = int(res)
    out.version[i] = res.model_version


async def open_loop(
    server, table: np.ndarray, rows: np.ndarray, qps: float, *, time_submit: bool = False
) -> Replies:
    """Send ``table[rows[i]]`` at ``start + i / qps``; wait for every reply.

    ``time_submit`` also times each synchronous ``submit_nowait`` call.
    """
    from repro.errors import Overloaded

    loop = asyncio.get_running_loop()
    out = Replies.empty(rows)
    pending = []
    n = len(rows)
    start = loop.time() + 0.005
    i = 0
    while i < n:
        due = start + i / qps
        now = loop.time()
        if due > now:
            await asyncio.sleep(due - now)
            continue
        # send everything that is due; a late generator catches up here
        while i < n:
            due = start + i / qps
            now = loop.time()
            if due > now:
                break
            out.late_s[i] = now - due
            out.sent += 1
            try:
                t0 = time.perf_counter()
                fut = server.submit_nowait(table[rows[i]])
                if time_submit:
                    out.submit_s.append(time.perf_counter() - t0)
            except Overloaded:
                out.shed += 1
            else:
                fut.add_done_callback(functools.partial(_on_reply, out, loop, i, due))
                pending.append(fut)
            i += 1
    await asyncio.gather(*pending, return_exceptions=True)
    # done-callbacks run one loop pass after their future resolves
    await asyncio.sleep(0)
    out.elapsed_s = loop.time() - start
    return out


async def closed_loop(
    server, table: np.ndarray, rows: np.ndarray, window: int, seconds: float
) -> Replies:
    """Keep ``window`` requests outstanding for ``seconds`` (or until ``rows`` runs out)."""
    from repro.errors import Overloaded

    loop = asyncio.get_running_loop()
    n_max = len(rows)
    out = Replies.empty(rows)
    finished = loop.create_future()
    state = {"next": 0, "outstanding": 0, "last": None}
    t_start = loop.time()
    t_end = t_start + seconds

    def send() -> None:
        i = state["next"]
        if loop.time() >= t_end or i >= n_max:
            if state["outstanding"] == 0 and not finished.done():
                finished.set_result(None)
            return
        state["next"] = i + 1
        state["outstanding"] += 1
        out.sent += 1
        try:
            fut = server.submit_nowait(table[rows[i]])
        except Overloaded:
            out.shed += 1
            state["outstanding"] -= 1
            loop.call_soon(send)
            return
        fut.add_done_callback(functools.partial(done, i, loop.time()))

    def done(i: int, t_sent: float, fut: asyncio.Future) -> None:
        state["outstanding"] -= 1
        _on_reply(out, loop, i, t_sent, fut)
        state["last"] = loop.time()
        send()

    for _ in range(window):
        send()
    await finished
    out.elapsed_s = (state["last"] or loop.time()) - t_start
    return out


@dataclass
class BlockRun:
    """Outcome of :func:`block_loop`."""

    latency_s: List[float] = field(default_factory=list)
    swap_s: List[float] = field(default_factory=list)
    rows: List[np.ndarray] = field(default_factory=list)
    labels: List[np.ndarray] = field(default_factory=list)
    versions: List[np.ndarray] = field(default_factory=list)
    failed_blocks: int = 0
    elapsed_s: float = 0.0


def block_loop(
    service,
    table: np.ndarray,
    block: int,
    seconds: float,
    *,
    swap_every_s: float,
    next_model: Callable[[], object],
) -> BlockRun:
    """Closed loop of ``predict_many`` blocks of consecutive table rows.

    Every ``swap_every_s`` the client calls ``swap_model(next_model())``
    before its next block.  The table is cycled; with more rows than the
    service's cache holds, a cycled row is never still cached.
    """
    out = BlockRun()
    n = table.shape[0]
    t_start = time.perf_counter()
    t_end = t_start + seconds
    next_swap = t_start + swap_every_s
    pos = 0
    while True:
        now = time.perf_counter()
        if now >= t_end:
            break
        if now >= next_swap:
            model = next_model()
            t0 = time.perf_counter()
            service.swap_model(model)
            out.swap_s.append(time.perf_counter() - t0)
            next_swap += swap_every_s
        idx = (pos + np.arange(block)) % n
        pos = (pos + block) % n
        t0 = time.perf_counter()
        try:
            res = service.predict_many(table[idx], details=True, timeout=60.0)
        except Exception:  # a failed block is counted, not fatal to the run
            out.failed_blocks += 1
            continue
        out.latency_s.append(time.perf_counter() - t0)
        out.rows.append(idx)
        out.labels.append(np.array([int(r) for r in res]))
        out.versions.append(np.array([r.model_version for r in res]))
    out.elapsed_s = time.perf_counter() - t_start
    return out


class QueryMix:
    """Query traffic: a Zipf-weighted hot set mixed with unique rows.

    ``table`` stacks the hot rows over the unique pool; :meth:`sequence`
    returns row indices into it.  Unique rows are taken in order and the
    pool is cycled, so a repeat comes back only after ``len(pool)``
    unique requests — long after an LRU cache smaller than that has
    dropped it.  ``warm`` rows are outside the table.
    """

    def __init__(self, rows: np.ndarray, seed: int, *, hot: int, warm: int) -> None:
        self.n_hot = hot
        self.warm = rows[:warm]
        self.table = rows[warm:]
        self.n_unique = len(self.table) - hot
        weights = np.arange(1, hot + 1, dtype=np.float64) ** -ZIPF_S
        self.p_hot = weights / weights.sum()
        self._rng = np.random.default_rng(seed)
        self._next_unique = 0

    def sequence(self, n: int) -> np.ndarray:
        """The next ``n`` requests, as row indices into :attr:`table`."""
        is_hot = self._rng.random(n) < HOT_SHARE
        n_hot = int(is_hot.sum())
        out = np.empty(n, dtype=np.int64)
        out[is_hot] = self._rng.choice(self.n_hot, size=n_hot, p=self.p_hot)
        u = (self._next_unique + np.arange(n - n_hot)) % self.n_unique
        self._next_unique = int((self._next_unique + n - n_hot) % self.n_unique)
        out[~is_hot] = self.n_hot + u
        return out
