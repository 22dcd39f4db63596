"""Calls into the package's layers, timed from outside, plus their checks.

Every function here drives ``repro`` only through public calls:
``make_estimator(...).fit/predict``, ``Kernel.pairwise``,
``engine.fused_popcorn_argmin``, ``save_model``/``load_model``,
``ShardWorkerPool``, ``PredictionService`` and ``AsyncPredictionServer``.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from harness import Outcome, Spans, peak_rss_mb, percentile, rss_mb, traced_peak
from loadgen import block_loop, closed_loop, open_loop

#: reference rows whose fp64 top-2 distance margin is below this share of
#: the largest kernel diagonal entry are exempt from the argmin check:
#: fp32 distances may order them either way
REF_MARGIN_REL = 1e-5

#: the serving configuration of every service: 32-row batches, a 2 ms
#: batch window and a 1024-entry label cache
SERVE_KW = dict(batch_size=32, max_delay_ms=2, cache_size=1024)


@dataclass
class Fitted:
    """One fitted model and how long its fit took."""

    model: object
    wall_s: float
    max_iter: int


def fit(x, init, k: int, backend: str, max_iter: int, seed: int) -> Fitted:
    from repro import make_estimator

    est = make_estimator(
        "popcorn",
        n_clusters=k,
        backend=backend,
        max_iter=max_iter,
        check_convergence=False,
        seed=seed,
    )
    t0 = time.perf_counter()
    est.fit(x, init_labels=init)
    return Fitted(est, time.perf_counter() - t0, max_iter)


def warm_fits(x, init, k: int, seed: int) -> None:
    """Short host and device fits on part of ``x``: imports, thread pools
    and first-call costs.  Half size at most, so the measured fit still
    sets the process's memory high-water mark."""
    m = min(len(x) // 2, 2000)
    for backend in ("host", "auto"):
        fit(x[:m], init[:m] % k, k, backend, 2, seed)


def fit_with_rss(x, init, k: int, max_iter: int, seed: int):
    """Host fit plus its peak resident set over the one it started from (MiB).

    Valid while the fit sets a new high-water mark for the process: run
    it before anything larger.
    """
    before = rss_mb()
    f = fit(x, init, k, "host", max_iter, seed)
    return f, peak_rss_mb() - before


# ----------------------------------------------------------------------
# fit replay: kernel matrix + fused reduction, the fit's two big layers
# ----------------------------------------------------------------------

def replay(x, init, k: int, max_iter: int, kernel, spans: Spans):
    """``kernel.pairwise(x)`` then ``max_iter`` fused distance steps.

    Returns ``(K, labels history, seconds of K, seconds of every step)``.
    """
    from repro.engine import fused_popcorn_argmin

    with spans.span("kernels.matrix", n=len(x)):
        t0 = time.perf_counter()
        km = kernel.pairwise(x)
        t_k = time.perf_counter() - t0
    hist = [np.asarray(init)]
    steps = []
    for it in range(max_iter):
        with spans.span("reduction.distances", iter=it):
            t0 = time.perf_counter()
            hist.append(fused_popcorn_argmin(km, hist[-1], k).labels)
            steps.append(time.perf_counter() - t0)
    return km, hist, t_k, steps


def check_fit(out: Outcome, km, hist, host: Fitted, device: Fitted, k: int) -> int:
    """Replay and reference checks of one workload's fits.

    Returns the number of rows exempt from the reference argmin check.
    """
    from repro.core.distances import distance_matrix_reference

    out.check(
        np.array_equal(hist[host.max_iter], host.model.labels_),
        "replay labels differ from the host fit's labels_",
    )
    out.check(
        np.array_equal(hist[device.max_iter], device.model.labels_),
        "device-path labels differ from the host replay",
    )
    d = distance_matrix_reference(km, hist[host.max_iter - 1], k)
    ref = np.argmin(d, axis=1)
    top2 = np.partition(d, 1, axis=1)[:, :2]
    tol = REF_MARGIN_REL * float(np.abs(np.diagonal(km)).max())
    exempt = (top2[:, 1] - top2[:, 0]) < tol
    bad = int(np.count_nonzero((ref != host.model.labels_) & ~exempt))
    out.check(bad == 0, f"{bad} labels differ from the fp64 reference argmin")
    return int(exempt.sum())


def replay_layers(
    out: Outcome,
    x,
    init,
    k: int,
    host: Fitted,
    device: Fitted,
    fit_s: float,
    peak_mb: float,
    sgemm: float,
    spans: Spans,
) -> Dict[str, float]:
    """Per-layer metrics of the fit, from a replay with the fit's inputs;
    ``fit_s`` is the measured fit wall the replay's layers are shares of."""
    from repro.engine import fused_popcorn_argmin

    n, d = x.shape
    km, hist, t_k, steps = replay(x, init, k, host.max_iter, host.model.kernel, spans)
    t_red = float(sum(steps))
    k_bytes = km.nbytes
    peaks: Dict[str, float] = {}
    with traced_peak(peaks, "kernels"):
        host.model.kernel.pairwise(x)
    with traced_peak(peaks, "reduction"):
        fused_popcorn_argmin(km, init, k)
    exempt = check_fit(out, km, hist, host, device, k)
    out.samples["reduction.step_s"] = {"n": len(steps), "p50": percentile(steps, 50)}
    out.samples["reference.exempt_rows"] = {"n": n, "exempt": exempt}
    gflops = 2.0 * n * n * d / t_k / 1e9
    return {
        "host.sgemm_gflops": sgemm,
        "kernels.matrix_s": t_k,
        "kernels.matrix_gflops": gflops,
        "kernels.frac_of_sgemm": gflops / sgemm,
        "reduction.distances_s": t_red,
        "reduction.share_of_fit": t_red / fit_s,
        # computed, not measured traffic: K is read once per step
        "reduction.computed_gbps": k_bytes * len(steps) / t_red / 1e9,
        "reduction.computed_flop_per_byte": 2.0 * n * n / k_bytes,
        "fit.other_s": fit_s - t_k - t_red,
        "kernels.peak_mb": peaks["kernels"],
        "reduction.peak_mb": peaks["reduction"],
        "fit.peak_over_k": peak_mb / (k_bytes / 2**20),
        "device.launches": float(len(device.model.profiler_.launches)),
    }


# ----------------------------------------------------------------------
# serving layers, probed on a workload's model
# ----------------------------------------------------------------------

def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return percentile(times, 50) * 1e3


def serving_layers(
    out: Outcome, model, x_train, queries, workdir: str, spans: Spans, reps: int
) -> Dict[str, float]:
    """persist, direct predict, cross kernel and worker IPC on ``model``."""
    from repro.serve import ShardWorkerPool, load_model, save_model

    path = os.path.join(workdir, "probe.npz")
    save_s, load_s = [], []
    for _ in range(3):
        with spans.span("persist.save"):
            t0 = time.perf_counter()
            save_model(model, path)
            save_s.append(time.perf_counter() - t0)
        with spans.span("persist.load"):
            t0 = time.perf_counter()
            loaded = load_model(path)
            load_s.append(time.perf_counter() - t0)
    q32, q64 = queries[:32], queries[:64]
    out.check(
        np.array_equal(loaded.predict(q64), model.predict(q64)),
        "a loaded artifact predicts differently from its model",
    )
    for q in (q32, q64):  # warm-up
        model.predict(q)
    with spans.span("predict.batch32"):
        b32 = _median_ms(lambda: model.predict(q32), reps)
    with spans.span("predict.block64"):
        b64 = _median_ms(lambda: model.predict(q64), reps)
    q64f = q64.astype(x_train.dtype)
    with spans.span("kernels.cross"):
        cross = _median_ms(lambda: model.kernel.pairwise(q64f, x_train), reps)
    with spans.span("worker.start"):
        pool = ShardWorkerPool(path, n_workers=1, processes=True)
    with pool:
        got, _ = pool.predict(q32)  # warm-up: the child's first predict
        out.check(
            np.array_equal(got, model.predict(q32)),
            "shard worker labels differ from direct predict",
        )
        with spans.span("worker.roundtrip"):
            rt = _median_ms(lambda: pool.predict(q32), reps)
    return {
        "persist.save_s": percentile(save_s, 50),
        "persist.load_s": percentile(load_s, 50),
        "predict.batch32_ms": b32,
        "predict.block64_ms": b64,
        "kernels.cross_ms": cross,
        "reduction.cross_argmin_ms": b64 - cross,
        "worker.roundtrip_ms": rt,
    }


def check_replies(out: Outcome, labels, versions, rows, expected_by_version) -> None:
    """Every answer equals direct ``model.predict`` of its row, for the
    model version that answered it."""
    labels = np.asarray(labels)
    versions = np.asarray(versions)
    rows = np.asarray(rows)
    bad = 0
    for v in np.unique(versions):
        sel = versions == v
        exp = expected_by_version(int(v))
        if exp is None:
            bad += int(sel.sum())
            continue
        bad += int(np.count_nonzero(exp[rows[sel]] != labels[sel]))
    out.count(len(labels), bad)
    if bad:
        out.problems.append(f"{bad} served labels differ from direct predict")


def stats_delta(after: dict, before: dict) -> Dict[str, float]:
    """Front-door ratios over one phase, from two ``stats()`` snapshots."""
    req = max(after["requests"] - before["requests"], 1)
    backend_rows = after["backend_rows"] - before["backend_rows"]
    return {
        "frontdoor.cache_hit_rate": (after["cache_hits"] - before["cache_hits"]) / req,
        "frontdoor.coalesce_rate": (after["coalesced"] - before["coalesced"]) / req,
        "frontdoor.mean_batch_size": after["mean_batch_size"],
        "frontdoor.queue_peak": float(after["queue_peak"]),
        "frontdoor.backend_rows_per_request": backend_rows / req,
    }


async def start_server(path: str, spans: Spans):
    """Start the async front door on ``path``; returns ``(server, start_s)``."""
    from repro.serve import AsyncPredictionServer

    server = AsyncPredictionServer(path, processes=True, n_workers=1, queue_bound=512, **SERVE_KW)
    with spans.span("frontdoor.start"):
        t0 = time.perf_counter()
        await server.start()
        return server, time.perf_counter() - t0


async def warm_server(server, rows: np.ndarray, chunk: int = 8) -> None:
    """Unmeasured requests so the worker's first-call costs are paid.

    Sent a few at a time, so the warm-up does not set the queue's peak.
    """
    for i in range(0, len(rows), chunk):
        await asyncio.gather(*[server.submit_nowait(r) for r in rows[i : i + chunk]])


def frontdoor_probe(
    out: Outcome, model, mix, path: str, qps: float, seconds: float, spans: Spans
) -> Dict[str, float]:
    """Short open and closed loops through the async front door on ``model``'s artifact."""

    async def go():
        server, start_s = await start_server(path, spans)
        try:
            await warm_server(server, mix.warm)
            before = server.stats()
            rows = mix.sequence(int(qps * seconds))
            with spans.span("frontdoor.open_loop"):
                rep = await open_loop(server, mix.table, rows, qps, time_submit=True)
            after = server.stats()
            seq = mix.sequence(100000)
            with spans.span("frontdoor.closed_loop"):
                closed = await closed_loop(server, mix.table, seq, 64, seconds / 3)
        finally:
            await server.close()
        return start_s, rep, closed, before, after

    start_s, rep, closed, before, after = asyncio.run(go())
    expected = model.predict(mix.table)
    for r in (rep, closed):
        ok = r.answered()
        check_replies(out, r.label[ok], r.version[ok], r.rows[ok], lambda v: expected)
        out.count(r.shed + r.failed, r.shed + r.failed)
    res = {
        "frontdoor.start_s": start_s,
        "frontdoor.closed_loop_rps": int(closed.answered().sum()) / closed.elapsed_s,
        "frontdoor.submit_us": percentile(rep.submit_s, 50) * 1e6,
        "loadgen.late_p99_ms": percentile(rep.late_s, 99) * 1e3,
    }
    res.update(stats_delta(after, before))
    return res


def service_blocks(
    svc, models: List, table, block: int, seconds: float, swap_every_s: float, spans: Spans
):
    """Closed loop of ``block``-row ``predict_many`` calls on ``svc``,
    swapping between ``models`` every ``swap_every_s``.

    Starts on ``models[0]`` with a fresh cache.  Returns the
    :class:`~loadgen.BlockRun`, ``stats()`` before and after, and the
    version that served ``models[0]`` first.
    """
    v0 = svc.swap_model(models[0])
    before = svc.stats()
    order = itertools.cycle(models[1:] + models[:1])
    with spans.span("service.blocks"):
        run = block_loop(
            svc, table, block, seconds, swap_every_s=swap_every_s, next_model=lambda: next(order)
        )
    return run, before, svc.stats(), v0


def check_blocks(out: Outcome, run, expected: List[np.ndarray], v0: int, block: int) -> None:
    """Every block answer against direct predict of the model its version served."""
    check_replies(
        out,
        np.concatenate(run.labels),
        np.concatenate(run.versions),
        np.concatenate(run.rows),
        lambda v: expected[(v - v0) % len(expected)],
    )
    out.count(run.failed_blocks * block, run.failed_blocks * block)


def service_probe(
    out: Outcome, models: List, table, block: int, seconds: float, direct_ms: float, spans: Spans
) -> Dict[str, float]:
    """A short :func:`service_blocks` phase on a fresh thread service."""
    from repro.serve import PredictionService

    svc = PredictionService(models[0], n_workers=2, **SERVE_KW)
    try:
        svc.predict_many(table[-block:])  # warm-up
        run, before, after, v0 = service_blocks(
            svc, models, table[:-block], block, seconds, seconds / 2, spans
        )
    finally:
        svc.close()
    check_blocks(out, run, [m.predict(table[:-block]) for m in models], v0, block)
    return service_layers(run, before, after, direct_ms)


def service_layers(run, before: dict, after: dict, direct_ms: float) -> Dict[str, float]:
    """Thread-service metrics of one :func:`service_blocks` phase."""
    req = max(after["requests"] - before["requests"], 1)
    p50 = percentile(run.latency_s, 50) * 1e3
    return {
        "service.rows_per_s": (after["served"] - before["served"]) / run.elapsed_s,
        "service.overhead_ms": p50 - direct_ms,
        "service.swap_ms": percentile(run.swap_s, 50) * 1e3 if run.swap_s else 0.0,
        "service.mean_batch_size": after["mean_batch_size"],
        "service.cache_hit_rate": (after["cache_hits"] - before["cache_hits"]) / req,
    }
