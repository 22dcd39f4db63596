"""Measurement plumbing shared by every workload.

Nothing here imports ``repro``: the harness times the package from the
outside, so the same code measures any revision of it.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

#: a tail percentile is reported only when at least this many samples
#: lie beyond it
TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """``np.percentile`` with the linear rule; NaN for no samples."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_percentile(n: int) -> Optional[float]:
    """Highest of p99.9/p99/p95/p90/p50 with ``TAIL_SAMPLES`` samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (100.0 - q) / 100.0 >= TAIL_SAMPLES:
            return q
    return None


def describe(values) -> Dict[str, float]:
    """Median, the highest supported tail percentile, and the count."""
    n = len(values)
    out = {"n": n, "p50": percentile(values, 50)}
    q = tail_percentile(n)
    if q is not None:
        out[f"p{q:g}"] = percentile(values, q)
    return out


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    """This process's resident set now, in MiB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


@contextlib.contextmanager
def traced_peak(out: Dict[str, float], key: str):
    """Store the tracemalloc peak (MiB) of the ``with`` body in ``out[key]``.

    tracemalloc sees NumPy buffers, so this is the Python-visible
    allocation peak of the call, free of earlier allocations.  It slows
    allocation, so never wrap a timed call with it.
    """
    tracemalloc.start()
    try:
        yield
        out[key] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class Spans:
    """In-memory span recorder around the benchmark's calls into each layer.

    ``enabled=False`` makes :meth:`span` a plain no-op context, so the
    untraced run pays nothing.  Spans are kept in memory and written out
    once, when the run ends.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        sid = len(self.records)
        rec = {
            "name": name,
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "t0": time.perf_counter(),
            "t1": None,
            "attrs": attrs,
        }
        self.records.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["t1"] = time.perf_counter()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.records, fh)


@dataclass
class Outcome:
    """Operation accounting, check failures and sample counts of one run."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    samples: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, ok: bool, what: str) -> bool:
        """One correctness check: counted as an attempted operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def _blas_threads() -> Optional[int]:
    """Thread count the bundled OpenBLAS reports, when it can be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _llc_bytes() -> Optional[int]:
    """Largest cache size the kernel reports for cpu0 (the LLC)."""
    best = None
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        try:
            with open(path, encoding="ascii") as fh:
                text = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            size = int(digits) * scale
            best = size if best is None else max(best, size)
    return best


def cpu_ticks() -> Optional[List[int]]:
    """Machine-wide CPU tick counters (``/proc/stat``), or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the hypervisor gave to others between two snapshots."""
    if not before or not after or len(before) < 8:
        return None
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta[:8])
    return delta[7] / total if total else None


def environment() -> Dict[str, object]:
    """What the numbers were measured on.  Thread variables are read, never set."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        vendor = "unknown"
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "llc_bytes": _llc_bytes(),
        "platform": sys.platform,
    }


def sgemm_gflops(n: int = 1024, reps: int = 20, warm_s: float = 0.5) -> float:
    """Measured fp32 GEMM rate: median of ``reps`` n x n x n products.

    Products run untimed for ``warm_s`` first: the thread pool starts,
    and a CPU that sat idle reaches its working clock, which takes a
    good part of a second on a shared virtual machine.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    t_warm = time.perf_counter() + warm_s
    while time.perf_counter() < t_warm:
        a @ b
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * n**3 / percentile(times, 50) / 1e9
