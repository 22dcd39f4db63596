"""The serving policy both front ends share, tested once over both.

``PredictionService`` and ``AsyncPredictionServer`` answer under one
:mod:`repro.serve.core`, so cache hits, admission, stats and the
version guard are checked here with each test parametrized over the
thread and the async front end.  The scenarios are coroutines: the
thread service's ``concurrent.futures`` answers are awaited through
``asyncio.wrap_future``.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro import PopcornKernelKMeans
from repro.data import make_blobs
from repro.errors import Overloaded
from repro.serve import (
    AsyncPredictionServer,
    PredictionService,
    load_model,
    save_model,
)

#: what perfbench and the CLI read off ``stats()``
PERFBENCH_KEYS = {
    "served", "requests", "cache_hits", "mean_batch_size",
    "backend_rows", "coalesced", "queue_peak",
}


@pytest.fixture(scope="module")
def fitted():
    x = make_blobs(80, 4, 3, rng=5)[0].astype(np.float64)
    model = PopcornKernelKMeans(
        3, dtype=np.float64, backend="host", max_iter=6, seed=0
    ).fit(x)
    q = np.random.default_rng(9).standard_normal((41, 4))
    return model, q


class _Gated:
    """Wraps a fitted model: predict waits while the gate is shut, and a
    row whose first feature exceeds 1e5 fails."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.labels_ = inner.labels_
        self.entered = threading.Event()
        self._open = threading.Event()
        self._open.set()

    def shut(self) -> None:
        self.entered.clear()
        self._open.clear()

    def open(self) -> None:
        self._open.set()

    async def until_entered(self) -> None:
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, self.entered.wait, 10.0)

    def predict(self, rows, **kw):
        self.entered.set()
        assert self._open.wait(10.0), "gate never opened"
        if np.any(rows[:, 0] > 1e5):
            raise ValueError("poisoned row")
        return self._inner.predict(rows, **kw)


class _ThreadFront:
    def __init__(self, model, **cfg) -> None:
        self.svc = PredictionService(model, **cfg)

    async def start(self) -> "_ThreadFront":
        return self

    def submit(self, row):
        return asyncio.wrap_future(self.svc.submit(row))

    async def swap(self, path: str) -> int:
        return self.svc.swap_model(load_model(path))

    def stats(self):
        return self.svc.stats()

    async def close(self) -> None:
        self.svc.close()


class _AsyncFront:
    def __init__(self, model, **cfg) -> None:
        self.server = AsyncPredictionServer(model, processes=False, **cfg)

    async def start(self) -> "_AsyncFront":
        await self.server.start()
        return self

    def submit(self, row):
        return self.server.submit_nowait(row)

    async def swap(self, path: str) -> int:
        return await self.server.aswap_artifact(path)

    def stats(self):
        return self.server.stats()

    async def close(self) -> None:
        await self.server.close()


@pytest.fixture(params=["thread", "async"])
def front(request):
    """Factory: ``await front(model, **config)`` starts that front end."""
    cls = _ThreadFront if request.param == "thread" else _AsyncFront

    async def make(model, **cfg):
        return await cls(model, **cfg).start()

    return make


class TestCache:
    def test_repeats_are_answered_from_cache(self, front, fitted):
        model, q = fitted

        async def go():
            fe = await front(model, batch_size=16, cache_size=256)
            first = await asyncio.gather(*[fe.submit(row) for row in q])
            again = await asyncio.gather(*[fe.submit(row) for row in q])
            await fe.close()
            return first, again, fe.stats()

        first, again, st = asyncio.run(go())
        assert not any(r.cache_hit for r in first)
        assert all(r.cache_hit for r in again)
        assert [int(r) for r in again] == [int(r) for r in first]
        assert st["cache_hits"] == q.shape[0]
        assert st["cache_hit_rate"] == pytest.approx(0.5)
        assert st["backend_rows"] == q.shape[0]  # repeats never hit a backend


class TestAdmission:
    def test_burst_sheds_exactly_beyond_the_bound(self, front, fitted):
        """With the backend held busy, a burst of N admits exactly
        ``queue_bound`` requests and sheds the rest."""
        model, q = fitted
        gate = _Gated(model)
        bound, offered = 4, 15

        async def go():
            fe = await front(
                gate, batch_size=1, max_delay_ms=0.0, queue_bound=bound, cache_size=0
            )
            gate.shut()
            busy = fe.submit(q[0])
            await gate.until_entered()  # the backend holds q[0]; queue empty
            accepted, shed = [busy], 0
            for row in q[1:1 + offered]:
                try:
                    accepted.append(fe.submit(row))
                except Overloaded:
                    shed += 1
            gate.open()
            results = await asyncio.gather(*accepted)
            await fe.close()
            return shed, results, fe.stats()

        shed, results, st = asyncio.run(go())
        assert shed == offered - bound  # exact, not approximate
        assert st["shed"] == shed
        assert st["served"] == len(results) == bound + 1
        assert np.array_equal(
            [int(r) for r in results], model.predict(q[: bound + 1])
        )
        assert st["queue_peak"] == bound


class TestStats:
    def test_stats_shape(self, front, fitted):
        model, q = fitted

        async def go():
            fe = await front(model, batch_size=8)
            await asyncio.gather(*[fe.submit(row) for row in q])
            await fe.close()
            return fe.stats(), fe.stats()

        st, again = asyncio.run(go())
        assert PERFBENCH_KEYS <= set(st)
        assert st == again  # reading stats changes nothing
        assert st["requests"] == st["served"] == q.shape[0]
        assert st["queries_per_s"] > 0
        assert (
            0
            <= st["latency_p50_ms"]
            <= st["latency_p95_ms"]
            <= st["latency_p99_ms"]
            <= st["latency_max_ms"]
        )


class TestAccounting:
    def test_invariant_after_drained_close(self, front, fitted):
        """requests == served + shed + errors + cancelled, over a run
        holding a cache hit, a failing row and a shed."""
        model, q = fitted
        gate = _Gated(model)
        poisoned = q[5].copy()
        poisoned[0] = 1e6

        async def go():
            fe = await front(
                gate, batch_size=1, max_delay_ms=0.0, queue_bound=2, cache_size=64
            )
            first = await fe.submit(q[0])
            hit = await fe.submit(q[0])
            with pytest.raises(Exception, match="poisoned"):
                await fe.submit(poisoned)
            gate.shut()
            pending = [fe.submit(q[1])]
            await gate.until_entered()
            pending += [fe.submit(q[2]), fe.submit(q[3])]
            with pytest.raises(Overloaded):
                fe.submit(q[4])
            gate.open()
            await asyncio.gather(*pending)
            await fe.close()
            return first, hit, fe.stats()

        first, hit, st = asyncio.run(go())
        assert hit.cache_hit and int(hit) == int(first)
        assert (st["cache_hits"], st["errors"], st["shed"]) == (1, 1, 1)
        assert st["requests"] == 7
        assert (
            st["requests"]
            == st["served"] + st["shed"] + st["errors"] + st["cancelled"]
        )


class TestVersionGuard:
    def test_batch_that_raced_a_swap_does_not_seed_the_new_cache(
        self, front, tmp_path
    ):
        """A batch still running on version 1 when version 2 lands
        answers with version 1, and its labels never reach the cache
        version 2 serves from."""
        xa = make_blobs(60, 4, 3, rng=0)[0].astype(np.float64)
        xb = make_blobs(60, 4, 3, rng=1)[0].astype(np.float64)
        a = PopcornKernelKMeans(
            3, dtype=np.float64, backend="host", max_iter=5, seed=0
        ).fit(xa)
        b = PopcornKernelKMeans(
            3, dtype=np.float64, backend="host", max_iter=5, seed=1
        ).fit(xb)
        path_b = save_model(b, str(tmp_path / "b.npz"))
        row = np.random.default_rng(4).standard_normal(4)
        gate = _Gated(a)

        async def go():
            fe = await front(gate, batch_size=1, cache_size=64)
            gate.shut()
            raced = fe.submit(row)
            await gate.until_entered()
            swap = asyncio.ensure_future(fe.swap(path_b))
            await asyncio.sleep(0.01)
            gate.open()
            old, version = await raced, await swap
            new = await fe.submit(row)
            await fe.close()
            return old, version, new

        old, version, new = asyncio.run(go())
        assert version == 2
        assert old.model_version == 1 and int(old) == int(a.predict(row[None])[0])
        assert not new.cache_hit
        assert new.model_version == 2 and int(new) == int(b.predict(row[None])[0])
