"""The three workloads.  Each reports every end-to-end metric, measured on
its own inputs, and, when traced, every per-layer metric.

* ``fit-8k`` — distances are ~78% of a host fit and the kernel matrix
  ~7%; the rest holds ``_finalize_support``'s fp64 copy of K.  The
  device fit runs separate numerics, so host-path changes leave it flat.
* ``serve-async-hot`` — a small support keeps the reduction cheap, so
  ingress, cache, coalescing, batching and process IPC do the work.  One
  worker process leaves a core for the ingress loop and the generator.
  Run it by hand: it is not in ``BENCHMARK.json``, because on a 2-vCPU
  virtual machine its latency follows the hypervisor's CPU steal more
  than the bound allows.  Its layers are probed in every traced run.
* ``serve-thread-swap`` — query x support cross kernels and their SpMM
  dominate (the fit's reduction layer on m x n panels), through the
  thread service, with a model swap every second killing its cache.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

import layers
from harness import Outcome, Spans, describe, percentile, sgemm_gflops
from layers import Fitted
from loadgen import QueryMix, closed_loop, open_loop
from metrics import SLO_S

SETUP_REPS = 3


@dataclass(frozen=True)
class Sizes:
    n: int  # training points (the served model's support)
    d: int
    k: int
    iters: int  # host fit iterations
    iters_device: int  # device fit iterations, same init
    queries: int  # query rows generated beside the training set
    probe_reps: int  # repetitions of each direct-call layer probe
    qps: float = 0.0
    window: int = 64
    block: int = 32
    min_blocks: int = 0


FULL = {
    "fit-8k": Sizes(8000, 32, 16, 10, 10, 4096 + 64, 50, block=32, min_blocks=1200),
    "serve-async-hot": Sizes(2000, 32, 16, 10, 10, 30000 + 64, 50, qps=1200.0),
    "serve-thread-swap": Sizes(8000, 32, 16, 2, 1, 8192 + 64, 50, block=64),
}

#: tiny sizes that run every code path and check in a few seconds
SMOKE = {
    "fit-8k": Sizes(400, 8, 4, 3, 3, 2400 + 64, 5, block=32, min_blocks=30),
    "serve-async-hot": Sizes(300, 8, 4, 3, 3, 2400 + 64, 5, qps=300.0),
    "serve-thread-swap": Sizes(400, 8, 4, 2, 1, 2400 + 64, 5, block=64),
}


class Run:
    """State of one benchmark run: sizes, seed, spans, outcome, metrics."""

    def __init__(
        self, name: str, seed: int, seconds: float, traced: bool, smoke: bool, workdir: str
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.smoke = smoke
        self.sizes = (SMOKE if smoke else FULL)[name]
        self.workdir = workdir
        self.spans = Spans(traced)
        self.out = Outcome()
        self.e2e: Dict[str, float] = {}
        self.layer: Dict[str, float] = {}
        self.sgemm = sgemm_gflops()

    # -- inputs --------------------------------------------------------
    def data(self):
        """Training points (fp32), query rows (fp64) and init labels, from the seed."""
        from repro.data import make_blobs

        s = self.sizes
        pts, _ = make_blobs(s.n + s.queries, d=s.d, k=s.k, rng=self.seed)
        x = np.ascontiguousarray(pts[: s.n], dtype=np.float32)
        q = np.ascontiguousarray(pts[s.n :], dtype=np.float64)
        init = np.random.default_rng(self.seed + 1).integers(0, s.k, s.n)
        return x, q, init

    def fits(self, x, init, first: bool):
        """The workload's host and device fits; the first one also reads RSS."""
        s = self.sizes
        if first:
            host, rss = layers.fit_with_rss(x, init, s.k, s.iters, self.seed)
            self.e2e["fit_peak_mb"] = rss
        else:
            host = layers.fit(x, init, s.k, "host", s.iters, self.seed)
        device = layers.fit(x, init, s.k, "auto", s.iters_device, self.seed)
        return host, device

    def mix(self, q) -> QueryMix:
        return QueryMix(q, self.seed + 2, hot=min(256, len(q) // 4), warm=64)

    # -- reporting -----------------------------------------------------
    def latency(self, lat_s, sent: int) -> None:
        """Latency metrics of answered operations; ``slo_attainment`` over all sent."""
        lat = np.asarray(lat_s, dtype=np.float64)
        lat = lat[np.isfinite(lat)]
        self.e2e["latency_p50_ms"] = percentile(lat, 50) * 1e3
        self.layer["latency.p99_ms"] = percentile(lat, 99) * 1e3
        self.e2e["slo_attainment"] = float(np.count_nonzero(lat <= SLO_S)) / max(sent, 1)
        ms = {k: (v if k == "n" else v * 1e3) for k, v in describe(lat).items()}
        self.out.samples["latency_ms"] = {"sent": int(sent), **ms}

    def setup_reps(self, one: Callable[[int], object]):
        """Run the set-up ``SETUP_REPS`` times; ``setup_s`` is the median."""
        times, result = [], None
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            result = one(rep)
            times.append(time.perf_counter() - t0)
        self.e2e["setup_s"] = percentile(times, 50)
        self.out.samples["setup_s"] = {"n": len(times), "values": times}
        return result

    def common_layers(self, x, init, host: Fitted, device: Fitted, mix, service=None) -> None:
        """Per-layer probes every workload runs on its own models.

        The fit replay also carries the fit checks, so it runs untraced
        too.  ``service`` is the workload's own ``(block run, stats
        before, stats after)`` of the thread service; without it a short
        probe stands in, as a short front-door probe does without a
        measured front door.
        """
        s = self.sizes
        fit_s, peak = self.e2e["fit_s"], self.e2e["fit_peak_mb"]
        self.layer.update(
            layers.replay_layers(
                self.out, x, init, s.k, host, device, fit_s, peak, self.sgemm, self.spans
            )
        )
        if not self.traced:
            return
        unique = mix.table[mix.n_hot :]
        self.layer.update(
            layers.serving_layers(
                self.out, host.model, x, unique, self.workdir, self.spans, s.probe_reps
            )
        )
        probe_s = 0.5 if self.smoke else 1.5
        if "frontdoor.start_s" not in self.layer:
            path = os.path.join(self.workdir, "probe.npz")
            self.layer.update(
                layers.frontdoor_probe(self.out, host.model, mix, path, 300.0, probe_s, self.spans)
            )
        direct_ms = self.layer["predict.block64_ms"]
        if service is not None:
            self.layer.update(layers.service_layers(*service, direct_ms))
        else:
            models = [host.model, device.model]
            self.layer.update(
                layers.service_probe(
                    self.out, models, unique[: 2048 + 64], 64, probe_s, direct_ms, self.spans
                )
            )


def _fit_times(run: Run, hosts: List[Fitted], devices: List[Fitted]) -> None:
    """``fit_s`` / ``fit_device_s``: the fastest fit of the run.

    A fit is pure computation, and on a shared machine interference only
    ever adds time, so the minimum is the steadiest estimate of its cost;
    every sample is kept in the report.
    """
    for key, fits in (("fit_s", hosts), ("fit_device_s", devices)):
        walls = [f.wall_s for f in fits]
        run.e2e[key] = min(walls)
        run.out.samples[key] = {"n": len(walls), "p50": percentile(walls, 50), "values": walls}


@contextlib.contextmanager
def obs_tracing():
    """The package's own tracer on for the ``with`` body; its spans are dropped after."""
    from repro import obs

    obs.trace.reset()
    obs.enable()
    try:
        yield
    finally:
        obs.disable()
        obs.trace.reset()


# ----------------------------------------------------------------------
# fit-8k
# ----------------------------------------------------------------------

def fit_8k(run: Run) -> None:
    """Host and device fits, then direct predicts of fresh 32-row blocks
    on the fitted model in two segments, one after each fit."""
    s = run.sizes
    x, q, init = run.setup_reps(lambda rep: run.data())
    layers.warm_fits(x, init, s.k, run.seed)
    mix = run.mix(q)
    pool = mix.table[mix.n_hot :]
    lat, idx, labels = [], [], []

    def predict_segment(model, first_block: int, n_blocks: int) -> None:
        for _ in range(5):  # warm-up
            model.predict(mix.warm[: s.block])
        with run.spans.span("predict.blocks"):
            for b in range(first_block, first_block + n_blocks):
                rows = (b * s.block + np.arange(s.block)) % len(pool)
                t0 = time.perf_counter()
                labels.append(model.predict(pool[rows]))
                lat.append(time.perf_counter() - t0)
                idx.append(rows)

    half = s.min_blocks // 2
    t_end = time.perf_counter() + run.seconds
    host, peak = layers.fit_with_rss(x, init, s.k, s.iters, run.seed)
    run.e2e["fit_peak_mb"] = peak
    predict_segment(host.model, 0, half)
    device = layers.fit(x, init, s.k, "auto", s.iters_device, run.seed)
    predict_segment(host.model, half, half)
    hosts, devices = [host], [device]
    while time.perf_counter() < t_end:
        h, d = run.fits(x, init, first=False)
        hosts.append(h)
        devices.append(d)
    _fit_times(run, hosts, devices)

    run.latency(lat, len(lat))
    expected = host.model.predict(pool)
    idx = np.concatenate(idx)
    layers.check_replies(
        run.out, np.concatenate(labels), np.ones(len(idx), int), idx, lambda v: expected
    )
    if run.traced:
        with obs_tracing():
            traced = layers.fit(x, init, s.k, "host", s.iters, run.seed)
        run.layer["obs.overhead_ratio"] = traced.wall_s / run.e2e["fit_s"]
    run.common_layers(x, init, host, device, mix)


# ----------------------------------------------------------------------
# serve-async-hot
# ----------------------------------------------------------------------

def serve_async_hot(run: Run) -> None:
    """``SETUP_REPS`` rounds, each: set up, open loop, close.

    Every round starts a fresh server and worker process, so one run
    pools several draws of where the scheduler puts them.
    """
    from repro.serve import save_model

    s = run.sizes
    path = os.path.join(run.workdir, "served.npz")
    # a traced run splits its time between the open loop and two closed loops
    open_s = run.seconds / SETUP_REPS / (2 if run.traced else 1)
    closed_s = run.seconds / SETUP_REPS / 4
    x, q, init = run.data()
    layers.warm_fits(x, init, s.k, run.seed)
    mix = run.mix(q)
    hosts, devices, setup, starts = [], [], [], []
    opens, closeds, traced_closeds, deltas = [], [], [], []

    async def one_round(rep: int) -> None:
        t0 = time.perf_counter()
        x, q, init = run.data()
        h, d = run.fits(x, init, first=rep == 0)
        hosts.append(h)
        devices.append(d)
        save_model(h.model, path)
        server, start_s = await layers.start_server(path, run.spans)
        await layers.warm_server(server, mix.warm)
        setup.append(time.perf_counter() - t0)
        starts.append(start_s)
        try:
            before = server.stats()
            rows = mix.sequence(int(s.qps * open_s))
            with run.spans.span("frontdoor.open_loop"):
                opens.append(
                    await open_loop(server, mix.table, rows, s.qps, time_submit=run.traced)
                )
            deltas.append(layers.stats_delta(server.stats(), before))
            if run.traced:
                # closed-loop capacity, with the package's tracer off and on
                seq = mix.sequence(int(60000 * closed_s) + 1000)
                with run.spans.span("frontdoor.closed_loop"):
                    closeds.append(await closed_loop(server, mix.table, seq, s.window, closed_s))
                with obs_tracing():
                    traced_closeds.append(
                        await closed_loop(server, mix.table, seq, s.window, closed_s)
                    )
        finally:
            await server.close()

    async def go():
        for rep in range(SETUP_REPS):
            await one_round(rep)
            # more fit samples, spread over the run, with no server running
            for _ in range(3):
                h, d = run.fits(x, init, first=False)
                hosts.append(h)
                devices.append(d)

    asyncio.run(go())
    run.e2e["setup_s"] = percentile(setup, 50)
    run.out.samples["setup_s"] = {"n": len(setup), "values": setup}
    _fit_times(run, hosts, devices)
    host = hosts[-1]

    run.latency(np.concatenate([o.latency_s for o in opens]), sum(o.sent for o in opens))
    expected = host.model.predict(mix.table)
    for h in hosts:
        run.out.check(
            np.array_equal(h.model.labels_, host.model.labels_),
            "repeated host fits of the same inputs disagree",
        )
    for rep in opens + closeds + traced_closeds:
        ok = rep.answered()
        layers.check_replies(
            run.out,
            rep.label[ok],
            rep.version[ok],
            rep.rows[ok],
            lambda v: expected if v == 1 else None,
        )
        run.out.count(rep.shed + rep.failed, rep.shed + rep.failed)

    if run.traced:
        submit_s = np.concatenate([o.submit_s for o in opens])
        run.layer["frontdoor.start_s"] = percentile(starts, 50)
        run.layer["frontdoor.submit_us"] = percentile(submit_s, 50) * 1e6
        run.layer["loadgen.late_p99_ms"] = (
            percentile(np.concatenate([o.late_s for o in opens]), 99) * 1e3
        )
        for key in deltas[0]:
            agg = max if key == "frontdoor.queue_peak" else np.mean
            run.layer[key] = float(agg([d[key] for d in deltas]))
        rps = percentile([int(c.answered().sum()) / c.elapsed_s for c in closeds], 50)
        t_rps = percentile([int(c.answered().sum()) / c.elapsed_s for c in traced_closeds], 50)
        run.layer["frontdoor.closed_loop_rps"] = rps
        run.layer["obs.overhead_ratio"] = rps / t_rps
    run.common_layers(x, init, host, devices[-1], mix)


# ----------------------------------------------------------------------
# serve-thread-swap
# ----------------------------------------------------------------------

def serve_thread_swap(run: Run) -> None:
    """Set up the service three times, then one client's blocks with swaps."""
    from repro.serve import PredictionService

    s = run.sizes
    x, q, init = run.data()
    layers.warm_fits(x, init, s.k, run.seed)
    hosts, devices = [], []

    def setup(rep: int):
        x, q, init = run.data()
        h, d = run.fits(x, init, first=rep == 0)
        hosts.append(h)
        devices.append(d)
        mix = run.mix(q)
        svc = PredictionService(h.model, n_workers=2, **layers.SERVE_KW)
        svc.predict_many(mix.warm)  # warm-up: worker threads, first predicts
        if rep < SETUP_REPS - 1:
            svc.close()
        return mix, svc

    mix, svc = run.setup_reps(setup)
    host, device = hosts[-1], devices[-1]
    models = [host.model, device.model]
    table = mix.table[mix.n_hot :]
    seconds = run.seconds / 2 if run.traced else run.seconds
    swap_every = 0.2 if run.smoke else 1.0
    try:
        main, before, after, v0 = layers.service_blocks(
            svc, models, table, s.block, seconds, swap_every, run.spans
        )
        phases = [(main, v0)]
        if run.traced:
            with obs_tracing():
                traced, _, _, v_traced = layers.service_blocks(
                    svc, models, table, s.block, seconds, swap_every, run.spans
                )
            phases.append((traced, v_traced))
    finally:
        svc.close()
    for _ in range(2):  # more fit samples, after the service is gone
        h, d = run.fits(x, init, first=False)
        hosts.append(h)
        devices.append(d)
    _fit_times(run, hosts, devices)

    run.latency(main.latency_s, len(main.latency_s) + main.failed_blocks)
    expected = [m.predict(table) for m in models]
    for phase, v_first in phases:
        layers.check_blocks(run.out, phase, expected, v_first, s.block)
    run.out.check(
        after["cache_hits"] == before["cache_hits"], "the cycled query table produced cache hits"
    )
    if run.traced:
        p50 = percentile(main.latency_s, 50)
        run.layer["obs.overhead_ratio"] = percentile(phases[1][0].latency_s, 50) / p50
    run.common_layers(x, init, host, device, mix, service=(main, before, after))


WORKLOADS = {
    "fit-8k": fit_8k,
    "serve-async-hot": serve_async_hot,
    "serve-thread-swap": serve_thread_swap,
}
