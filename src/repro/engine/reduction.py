"""Chunked pairwise-reduction engine with fused argmin (ROADMAP item 1).

A row-tiled SpMM pipeline streams K, but it still materialises the full
``n x k`` distance block E and then runs a separate row-wise argmin over
it, serially.  This module is the cache-blocked, thread-parallel middle
layer that removes both costs,
modeled on scikit-learn's ``pairwise_distances_reduction`` architecture:

* :class:`PairwiseReduction` is the base *spec* — it owns the chunk
  schedule (both the sample axis and the cluster/centroid axis are
  chunked) and the work-stealing thread driver;
* :class:`ArgminReduction` is the specialised *kernel* — it fuses the
  row argmin (and min-distance) into the reduction, so each worker only
  ever holds one ``chunk_rows x chunk_cols`` panel plus a running
  per-row best/argbest pair.  The full distance block is never built.

Concrete reductions plug in a panel evaluator:
:func:`fused_popcorn_argmin` evaluates Popcorn's ``-2 K V^T + P~ + C~``
panels (the fit loop), and :class:`CrossKernelArgmin` evaluates
``-2 K_c V^T + C~`` panels (out-of-sample prediction).

Parallelism uses *threads*, not processes: the panel work is NumPy/BLAS
bound (the GIL is released inside the ufunc loops) and the operands are
shared read-only, so row chunks are distributed over a small
work-stealing pool (:class:`WorkStealingPool`) with no copies.

Bit-exactness contract
----------------------
Labels and min-distances are **bit-for-bit identical** to the legacy
full-matrix pipeline (the CSR SpMM, i.e. the ``np.add.reduceat`` path)
for every chunk shape and thread count.  The *exact path* holds this by
construction:

* the CSR SpMM computes every output entry with one sequential
  ``np.add.reduceat`` over that row's nonzero segment, so slicing V's
  rows (cluster chunks) and gathering or slicing K's columns (sample
  chunks) leaves every E entry unchanged — the column-subset contract;
* panels add ``(E + P~) + C~`` in the exact association and dtype of the
  legacy ``d += p; d += c`` sequence;
* the running reduction updates on strict ``<`` with column chunks
  visited in ascending order and ``np.argmin`` (first minimum) inside
  each panel, which reproduces ``np.argmin``'s lowest-index tie-breaking
  over the full row;
* the fp reduction order is fixed by the chunk schedule alone — the
  work-stealing pool only changes *when* a row chunk runs, never what it
  computes, and row chunks write disjoint output slices.

Both reductions run the exact path only where they must.  Their
panels are one BLAS GEMM of a kernel block against the dense ``-2 V^T``
block of a :class:`SupportOperand` — the fit's row chunk of K's columns
(never K's rows: K need not be bitwise symmetric), or predict's query
chunk of the cross-kernel — and each row's GEMM argmin is *certified*
before it is used (:func:`_certified_argmin`, one scheme for fit,
predict and serve):

* **bound** — both the GEMM and the SpMM sum the ``|L_j|`` products of
  cluster ``j``, so by Higham's dot-product bound
  (``|fl(x^T y) - x^T y| <= gamma_n |x|^T |y|``) their E entries differ
  by at most ``4 gamma_|L_j| ||v_j||_1 max_l |K[l, i]|`` (K's column
  max-abs, which the kernel stage folds in while it builds K and a
  :class:`KernelOperand` keeps for the fit, or the query row's max-abs
  cross-kernel entry); the rounding of the adds
  after E is bounded from the computed sums, and the whole bound
  carries a factor-2 slack for its own rounding;
* **certify or fall back** — a row is certified only when its GEMM best
  beats every other column by more than the two columns' bounds, so the
  exact path has the same unique minimum.  Ties, near-ties, NaN and Inf
  fail the test, and failing rows are re-run through the exact path on
  their gathered kernel columns (bitwise equal by the column-subset
  contract, lowest-index tie-breaking included).  A traced run counts
  them in ``reduction.fallback_rows`` (fit) and
  ``reduction.cross_fallback_rows`` (predict);
* **exact min_d** — in the fit, a certified row that kept its label
  reads ``(z_i + P~_i) + C~_j`` from the exact z-pass; one that moved,
  and every certified predict row, gets its E entry from one SpMM row
  on the gathered kernel entries of its cluster's members.  ``min_d``
  (hence the objective, ``DistanceStep.assigned`` and the mini-batch
  inertia) is thus bitwise the exact path's, never a GEMM value.
  ``predict`` reads labels only and skips it
  (:meth:`CrossKernelArgmin.run_labels`).

``tests/engine/test_reduction.py`` pins the contract: against the legacy
pipeline over dtype x chunk shape x thread count x weights, and on
inputs that force the fallback (ties, NaN, a non-PSD kernel, empty
clusters), for the fit's kernel matrices and predict's cross-kernels.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .._typing import check_labels
from ..errors import ConfigError, ShapeError
from ..kernels.gram import column_maxabs
from ..obs import metrics, trace
from ..sparse import (
    CSRMatrix,
    selection_matrix,
    spmm,
    spmm_row_entries,
    spmv,
    weighted_selection_matrix,
)

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_CHUNK_COLS",
    "validate_chunk_size",
    "validate_n_threads",
    "chunk_ranges",
    "csr_row_slice",
    "WorkStealingPool",
    "PairwiseReduction",
    "ArgminReduction",
    "CrossKernelArgmin",
    "FusedDistances",
    "KernelOperand",
    "SupportOperand",
    "fused_popcorn_argmin",
]

#: default sample-axis chunk when ``chunk_rows`` is requested but unsized
DEFAULT_CHUNK_ROWS = 2048
#: default cluster-axis chunk when ``chunk_cols`` is requested but unsized
DEFAULT_CHUNK_COLS = 256
#: K columns gathered per exact re-run of rows the GEMM panels cannot certify
_FALLBACK_COLS = 128


# ----------------------------------------------------------------------
# chunk schedule
# ----------------------------------------------------------------------

def validate_chunk_size(value, name: str = "chunk_rows") -> Optional[int]:
    """Normalise a chunk-size parameter: None (one chunk) or a positive int."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be a positive int or None, got {value!r}")
    r = int(value)
    if r < 1:
        raise ConfigError(f"{name} must be >= 1 (or None for a single chunk), got {value}")
    return r


def validate_n_threads(value) -> Optional[int]:
    """Normalise an ``n_threads`` parameter: None (serial) or a positive int."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"n_threads must be a positive int or None, got {value!r}")
    t = int(value)
    if t < 1:
        raise ConfigError(f"n_threads must be >= 1 (or None for serial), got {value}")
    return t


def chunk_ranges(n: int, chunk: Optional[int]) -> List[Tuple[int, int]]:
    """Half-open ranges ``[(lo, hi), ...]`` covering ``[0, n)``.

    ``chunk=None`` (or any value >= n) yields the single monolithic
    range; the last chunk is short when ``chunk`` does not divide ``n``.
    ``n = 0`` yields no chunks.
    """
    if n < 0:
        raise ShapeError(f"n must be >= 0, got {n}")
    if n == 0:
        return []
    c = validate_chunk_size(chunk, "chunk")
    if c is None or c >= n:
        return [(0, n)]
    return [(lo, min(lo + c, n)) for lo in range(0, n, c)]


def csr_row_slice(a: CSRMatrix, r0: int, r1: int) -> CSRMatrix:
    """Zero-copy row slice ``a[r0:r1]`` of a CSR matrix.

    The values/colinds arrays are views into the parent's; only the
    (short) rowptrs array is rebased.  Used to hand one cluster chunk of
    V to the SpMM — per-row arithmetic is untouched, so the sliced
    product is bitwise equal to the corresponding rows of the full one.
    """
    if not (0 <= r0 <= r1 <= a.nrows):
        raise ShapeError(f"row slice [{r0}, {r1}) out of bounds for {a.nrows} rows")
    lo, hi = int(a.rowptrs[r0]), int(a.rowptrs[r1])
    return CSRMatrix(
        a.values[lo:hi],
        a.colinds[lo:hi],
        a.rowptrs[r0 : r1 + 1] - lo,
        (r1 - r0, a.ncols),
        check=False,
    )


# ----------------------------------------------------------------------
# the work-stealing thread pool
# ----------------------------------------------------------------------

class WorkStealingPool:
    """Run a finite task list on ``n_threads`` workers with work stealing.

    Tasks are dealt round-robin into per-worker deques; a worker drains
    its own deque from the front and, when empty, steals from the *back*
    of the most loaded peer — so a straggler chunk never serialises the
    tail while the other workers idle.  With ``n_threads=1`` (or a single
    task) everything runs inline with zero threading overhead.

    Correctness does not depend on the schedule: tasks must write
    disjoint outputs (the reductions here write per-row-chunk slices),
    so any interleaving produces the same result.  The first task
    exception is re-raised after all workers stop.
    """

    def __init__(self, n_threads: Optional[int] = None) -> None:
        self.n_threads = validate_n_threads(n_threads) or 1

    def run(self, tasks: Sequence[Callable[[], None]]) -> None:
        if not tasks:
            return
        # observability is gated on the tracer so the disabled path stays
        # byte-for-byte the original schedule with zero extra work
        instrumented = trace.enabled
        if instrumented:
            metrics.counter("pool.tasks").inc(len(tasks))

        def run_task(task: Callable[[], None], wid: int, stolen: bool) -> None:
            if instrumented:
                t0 = time.perf_counter()
                with trace.span("pool.task", wid=wid, stolen=stolen):
                    task()
                metrics.counter(f"pool.w{wid}.busy_s").inc(time.perf_counter() - t0)
            else:
                task()

        if self.n_threads == 1 or len(tasks) == 1:
            for task in tasks:
                run_task(task, 0, False)
            return
        width = min(self.n_threads, len(tasks))
        queues = [deque() for _ in range(width)]
        for i, task in enumerate(tasks):
            queues[i % width].append(task)
        if instrumented:
            metrics.gauge("pool.queue_depth").max(max(len(q) for q in queues))
        lock = threading.Lock()
        errors: List[BaseException] = []

        def worker(wid: int) -> None:
            while True:
                task = None
                stolen = False
                with lock:
                    if errors:
                        return
                    if queues[wid]:
                        task = queues[wid].popleft()
                    else:
                        victim = max(range(width), key=lambda q: len(queues[q]))
                        if queues[victim]:
                            task = queues[victim].pop()
                            stolen = True
                if task is None:
                    return
                if stolen and instrumented:
                    metrics.counter("pool.steals").inc()
                try:
                    run_task(task, wid, stolen)
                except BaseException as exc:  # propagate to the caller
                    with lock:
                        errors.append(exc)
                    return

        threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(width)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]


# ----------------------------------------------------------------------
# the base spec and the argmin kernel
# ----------------------------------------------------------------------

class PairwiseReduction(ABC):
    """Base spec of a chunked pairwise reduction.

    Owns the two-axis chunk schedule and the thread driver; a concrete
    kernel implements :meth:`_process_rows` (one row chunk end to end).
    Row chunks are independent tasks; whatever state a kernel
    accumulates must be written to disjoint per-row-chunk slices.
    """

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        *,
        chunk_rows: Optional[int] = None,
        chunk_cols: Optional[int] = None,
        n_threads: Optional[int] = None,
    ) -> None:
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        if self.n_rows < 0 or self.n_cols < 1:
            raise ShapeError(
                f"reduction needs n_rows >= 0 and n_cols >= 1, got {(n_rows, n_cols)}"
            )
        self.chunk_rows = validate_chunk_size(chunk_rows, "chunk_rows")
        self.chunk_cols = validate_chunk_size(chunk_cols, "chunk_cols")
        self.n_threads = validate_n_threads(n_threads) or 1

    def row_chunks(self) -> List[Tuple[int, int]]:
        return chunk_ranges(self.n_rows, self.chunk_rows)

    def col_chunks(self) -> List[Tuple[int, int]]:
        return chunk_ranges(self.n_cols, self.chunk_cols)

    @abstractmethod
    def _process_rows(self, r0: int, r1: int) -> None:
        """Reduce rows ``[r0, r1)`` across all column chunks."""

    def run(self):
        tasks = [(lambda r0=r0, r1=r1: self._process_rows(r0, r1)) for r0, r1 in self.row_chunks()]
        WorkStealingPool(self.n_threads).run(tasks)
        return self._finalize()

    def _finalize(self):
        return None


class ArgminReduction(PairwiseReduction):
    """Fused row-argmin over chunked panels.

    Each row chunk holds one ``chunk_rows x chunk_cols`` panel plus a
    running per-row ``(best, argbest)`` pair; column chunks are visited
    in ascending order and the running minimum updates on strict ``<``,
    so ties resolve to the lowest column index exactly as a full-row
    ``np.argmin`` would (the :func:`repro.core.assignment.argmin_assign`
    contract).  Outputs are ``labels`` (int32) and ``min_d`` (the panel
    dtype) — the full distance block is never materialised.
    """

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        dtype,
        *,
        chunk_rows: Optional[int] = None,
        chunk_cols: Optional[int] = None,
        n_threads: Optional[int] = None,
    ) -> None:
        super().__init__(
            n_rows,
            n_cols,
            chunk_rows=chunk_rows,
            chunk_cols=chunk_cols,
            n_threads=n_threads,
        )
        self.dtype = np.dtype(dtype)
        self.labels = np.zeros(self.n_rows, dtype=np.int32)
        self.min_d = np.full(self.n_rows, np.inf, dtype=self.dtype)

    @property
    def panel_bytes(self) -> int:
        """Peak resident distance-panel bytes per worker (the memory bound)."""
        rows = self.n_rows if self.chunk_rows is None else min(self.chunk_rows, self.n_rows)
        cols = self.n_cols if self.chunk_cols is None else min(self.chunk_cols, self.n_cols)
        return int(max(rows, 1) * cols * self.dtype.itemsize)

    def _row_context(self, r0: int, r1: int):
        """Hook: per-row-chunk operands shared across its column chunks."""
        return None

    @abstractmethod
    def _panel(self, ctx, c0: int, c1: int) -> np.ndarray:
        """Evaluate the ``rows x (c1-c0)`` distance panel of one row context."""

    def _sweep(self, ctx, rr: int) -> Tuple[np.ndarray, np.ndarray]:
        """Running ``(argbest, best)`` of ``rr`` rows across the column chunks."""
        best = np.full(rr, np.inf, dtype=self.dtype)
        arg = np.zeros(rr, dtype=np.int32)
        rows = np.arange(rr)
        for c0, c1 in self.col_chunks():
            panel = self._panel(ctx, c0, c1)
            local = np.argmin(panel, axis=1)
            vals = panel[rows, local]
            upd = vals < best
            best[upd] = vals[upd]
            arg[upd] = (c0 + local[upd]).astype(np.int32)
        return arg, best

    def _process_rows(self, r0: int, r1: int) -> None:
        arg, best = self._sweep(self._row_context(r0, r1), r1 - r0)
        self.labels[r0:r1] = arg
        self.min_d[r0:r1] = best

    def _finalize(self):
        return self.labels, self.min_d


# ----------------------------------------------------------------------
# the certified GEMM operands and the shared certificate
# ----------------------------------------------------------------------

class KernelOperand:
    """K as the fit's reduction reads it, with the statistics it needs.

    Holds the kernel matrix in the reduction's dtype (``km``, cast once
    here and never again), its diagonal ``P~`` (``p_norms``, a view) and
    the float64 column max-abs of ``km`` that every certified panel's
    error bound reads (``colmax``).  K never changes during a fit, so a
    backend builds one operand at its kernel stage and every iteration
    reuses it; :func:`fused_popcorn_argmin` also accepts a plain array
    and builds a one-off operand from it.

    ``maxabs`` is the column max-abs of ``k_mat`` when its builder folded
    it in (:func:`repro.kernels.gram.panel_kernel_matrix`).  Rounding is
    monotone and sign-symmetric, so casting it to ``dtype`` is bitwise
    the statistic of the cast K.  Without it (an adopted precomputed K,
    or the SYRK path), ``colmax`` takes one blocked pass over ``km`` on
    first use and keeps the result.
    """

    __slots__ = ("km", "p_norms", "_colmax")

    def __init__(self, k_mat: np.ndarray, dtype=None, maxabs: Optional[np.ndarray] = None) -> None:
        n = k_mat.shape[0]
        if k_mat.shape != (n, n):
            raise ShapeError("kernel matrix must be square")
        dt = np.dtype(dtype) if dtype is not None else k_mat.dtype
        self.km = k_mat.astype(dt, copy=False)
        self.p_norms = np.diagonal(self.km)
        self._colmax = None
        if maxabs is not None:
            self._colmax = maxabs.astype(dt, copy=False).astype(np.float64)

    @property
    def dtype(self) -> np.dtype:
        return self.km.dtype

    @property
    def colmax(self) -> np.ndarray:
        """``max_l |K[l, i]|`` per column ``i`` (float64), without an ``|K|`` temporary."""
        if self._colmax is None:
            self._colmax = column_maxabs(self.km).astype(np.float64)
        return self._colmax


class SupportOperand:
    """The dense ``-2 V`` GEMM operand of a selection matrix, with its error bound.

    ``neg2v_t`` is ``-2 V^T`` as a contiguous ``(n_support, k)`` block, so
    a panel is one GEMM of a kernel block against it (``-2`` scales
    exactly).  ``v`` is the CSR matrix it was built from: the exact
    SpMM path reads it, and a cache keyed on ``v``'s identity holds the
    matching operand.  The coefficients bound how far a GEMM distance
    can sit from the exact SpMM one (see the module docstring).
    """

    __slots__ = ("v", "neg2v_t", "e_coef", "e_abs", "add_coef")

    def __init__(self, v: CSRMatrix, dtype) -> None:
        dt = np.dtype(dtype)
        k, n = v.shape
        rows = v.row_indices()
        self.v = v
        keys = rows.astype(np.int64) * n + v.colinds
        dup = np.unique(keys).size < keys.size
        self.neg2v_t = np.zeros((n, k), dtype=dt)
        vals = v.values.astype(dt, copy=False) * dt.type(-2.0)
        if dup:
            # a mini-batch support repeats columns; their values sum into
            # one dense entry, which adds up to |L_j| roundings
            np.add.at(self.neg2v_t, (v.colinds, rows), vals)
        else:
            self.neg2v_t[v.colinds, rows] = vals
        # Error-bound coefficients, in float64.  Both paths sum the |L_j|
        # products of cluster j (the GEMM's zero terms add exactly), so by
        # Higham's dot-product bound each E entry is within
        # gamma_|L_j| * ||-2 v_j||_1 * max_l |K[l, i]| of the true value,
        # and the two paths within twice that (three times when summed
        # duplicates rounded the dense entries).  Every coefficient
        # carries a factor-2 slack for the rounding of the bound and the
        # comparison.
        slack = 2.0
        terms = 3.0 if dup else 2.0
        u = float(np.finfo(dt).eps) / 2
        m = np.diff(v.rowptrs).astype(np.float64)
        gamma = np.full(k, np.inf)
        fits = m * u < 1.0
        gamma[fits] = m[fits] * u / (1.0 - m[fits] * u)
        l1 = np.bincount(rows, weights=np.abs(v.values.astype(np.float64)), minlength=k)
        self.e_coef = slack * terms * gamma * (2.0 * l1)
        # underflow (or flush-to-zero) of any of those products, both paths
        self.e_abs = slack * terms * m * float(np.finfo(dt).tiny)
        # the roundings of the adds after E: u * (|a| + |D|) on each path
        self.add_coef = slack * 2.0 * u


def _certified_argmin(
    gemm: Callable[[int, int], np.ndarray],
    maxabs: np.ndarray,
    c_norms: np.ndarray,
    op: SupportOperand,
    col_chunks: List[Tuple[int, int]],
    dtype: np.dtype,
) -> Tuple[np.ndarray, np.ndarray]:
    """GEMM argmin of one row block and which rows it certifies.

    ``gemm(c0, c1)`` is the block's ``rows x (c1 - c0)`` GEMM panel
    ``a`` against ``op.neg2v_t`` plus whatever the exact path adds before
    ``C~`` (the fit's ``P~``); each distance is ``a + C~``.  ``maxabs``
    (``rows x 1``, float64) is each row's max-abs kernel entry.  A row is
    certified when the upper bound of its best column's exact distance
    is below the lower bound of every other column's, so the exact path
    has the same unique minimum.
    """
    rr = maxabs.shape[0]
    rows = np.arange(rr)
    best = np.full(rr, np.inf, dtype=dtype)
    arg = np.zeros(rr, dtype=np.int32)
    best_hi = np.full(rr, np.inf)
    best_lo = np.full(rr, np.inf)
    other_lo = np.full(rr, np.inf)
    # a non-finite value here only fails certification; the exact re-run
    # of that row raises whatever warnings the input deserves
    with np.errstate(invalid="ignore", over="ignore"):
        for c0, c1 in col_chunks:
            a = gemm(c0, c1)
            d = a + c_norms[c0:c1]
            err = np.abs(a, dtype=np.float64)
            err += np.abs(d, dtype=np.float64)
            err *= op.add_coef
            err += maxabs * op.e_coef[c0:c1] + op.e_abs[c0:c1]
            lo = d - err
            local = np.argmin(d, axis=1)
            vals = d[rows, local]
            upd = vals < best
            lo_local = lo[rows, local]
            hi_local = vals + err[rows, local]
            lo[rows, local] = np.inf
            np.minimum(other_lo, lo.min(axis=1), out=other_lo)
            np.minimum(other_lo, np.where(upd, best_lo, lo_local), out=other_lo)
            best_lo = np.where(upd, lo_local, best_lo)
            best_hi = np.where(upd, hi_local, best_hi)
            best[upd] = vals[upd]
            arg[upd] = (c0 + local[upd]).astype(np.int32)
    # ties, near-ties, NaN and Inf all fail the strict comparison
    return arg, best_hi < other_lo


# ----------------------------------------------------------------------
# the Popcorn fit-loop reduction
# ----------------------------------------------------------------------

def _label_gather(
    km: np.ndarray,
    v: CSRMatrix,
    *,
    budget_elems: int,
    n_threads: Optional[int],
) -> np.ndarray:
    """``z_i = E[i, lab_i]`` for ``E = -2 K V^T`` without building E.

    Only the label-column entry of each E row feeds the SpMV
    centroid-norm trick, and point ``i``'s label column is the cluster
    it belongs to.  So per cluster ``j`` the needed entries are one SpMM
    row on its own members (:func:`repro.sparse.spmm_row_entries`), a
    gather of the ``|L_j| x |L_j|`` block ``K[L_j, L_j]``.  That is
    ``sum_j |L_j|^2`` multiply-adds, about ``n^2 / k`` for balanced
    clusters, where the full SpMM spends ``n^2`` to produce all
    ``n * k`` entries of E.
    Clusters are independent tasks for the thread pool (they partition
    the points, so writes are disjoint).
    """
    z = np.zeros(km.shape[0], dtype=v.dtype)
    tasks = []
    for j in range(v.nrows):
        members = v.colinds[v.rowptrs[j] : v.rowptrs[j + 1]]
        if members.size == 0:
            continue

        def gather(j=j, members=members):
            z[members] = spmm_row_entries(v, j, km, members, alpha=-2.0, budget_elems=budget_elems)

        tasks.append(gather)
    WorkStealingPool(n_threads).run(tasks)
    return z


class _PopcornArgmin(ArgminReduction):
    """Certified fused ``argmin_j (-2 K V^T + P~ + C~)`` over row x cluster chunks.

    Construction runs the two exact phases every panel needs: the z-pass
    (:func:`_label_gather`) and the ``C~ = -0.5 V z`` SpMV.  Each row
    chunk then evaluates its panels as one BLAS GEMM of the chunk's
    columns of K against the dense ``-2 V^T`` block, certifies every
    row's argmin against the exact SpMM path, re-runs the rows that fail
    through that exact path, and evaluates ``min_d`` exactly (see the
    module docstring's bit-exactness contract).  The dense block is
    ``n x k``, ``k / n`` of K's bytes.
    """

    def __init__(self, op: KernelOperand, v, lab, **kwargs) -> None:
        super().__init__(op.km.shape[0], v.nrows, op.dtype, **kwargs)
        self._km = op.km
        self._p = op.p_norms
        self._colmax = op.colmax
        self._v = v
        self._lab = lab
        self.budget_elems = max(self.panel_bytes // self.dtype.itemsize, 1)
        self.z = _label_gather(
            self._km, v, budget_elems=self.budget_elems, n_threads=self.n_threads
        )
        self.c_norms = spmv(v, self.z, alpha=-0.5)
        self._gemm = SupportOperand(v, self.dtype)

    def _panel(self, ctx, c0, c1) -> np.ndarray:
        """The exact panel: the SpMM of V's cluster chunk on gathered K columns."""
        kcols, p = ctx
        vc = self._v if c0 == 0 and c1 == self.n_cols else csr_row_slice(self._v, c0, c1)
        panel = spmm(vc, kcols, alpha=-2.0).T + p  # rows of the legacy E^T
        panel += self.c_norms[c0:c1]
        return panel

    def _certified_sweep(self, r0: int, r1: int) -> Tuple[np.ndarray, np.ndarray]:
        """GEMM argmin of rows ``[r0, r1)`` and which rows it certifies."""
        kp = self._km[:, r0:r1]  # a view; the GEMM reads K's columns, never its rows
        p = self._p[r0:r1, None]
        b = self._gemm.neg2v_t

        def panel(c0: int, c1: int) -> np.ndarray:
            a = kp.T @ b[:, c0:c1]
            a += p
            return a

        return _certified_argmin(
            panel,
            self._colmax[r0:r1, None],
            self.c_norms,
            self._gemm,
            self.col_chunks(),
            self.dtype,
        )

    def _process_rows(self, r0: int, r1: int) -> None:
        arg, certified = self._certified_sweep(r0, r1)
        min_d = np.empty(r1 - r0, dtype=self.dtype)
        fail = np.flatnonzero(~certified)
        if fail.size:
            if trace.enabled:
                metrics.counter("reduction.fallback_rows").inc(fail.size)
            # the exact path on gathered K columns, a block at a time
            for f0 in range(0, fail.size, _FALLBACK_COLS):
                f = fail[f0 : f0 + _FALLBACK_COLS]
                idx = r0 + f
                arg[f], min_d[f] = self._sweep((self._km[:, idx], self._p[idx, None]), f.size)
        # exact min_d of certified rows: from the z-pass where the label
        # stayed, from one SpMM row per cluster where it moved
        ok = np.flatnonzero(certified)
        stay = ok[arg[ok] == self._lab[r0 + ok]]
        i = r0 + stay
        min_d[stay] = (self.z[i] + self._p[i]) + self.c_norms[arg[stay]]
        moved = ok[arg[ok] != self._lab[r0 + ok]]
        for j in np.unique(arg[moved]):
            sel = moved[arg[moved] == j]
            i = r0 + sel
            e = spmm_row_entries(
                self._v, int(j), self._km, i, alpha=-2.0, budget_elems=self.budget_elems
            )
            min_d[sel] = (e + self._p[i]) + self.c_norms[j]
        self.labels[r0:r1] = arg
        self.min_d[r0:r1] = min_d


class FusedDistances:
    """Result of one fused Popcorn distance step.

    Holds the argmin outputs (``labels``, ``min_d``) plus the pipeline
    operands (``v``, ``z``, ``c_norms``) and an exact on-demand entry
    evaluator :meth:`at` — everything the fit loop's objective,
    convergence and empty-cluster-reseed policies need, with no ``n x k``
    block anywhere.  ``panel_bytes`` is the peak resident distance-panel
    footprint per worker.
    """

    __slots__ = ("labels", "min_d", "v", "z", "c_norms", "panel_bytes", "_km", "_p")

    def __init__(self, labels, min_d, v, z, c_norms, km, p_norms, panel_bytes) -> None:
        self.labels = labels
        self.min_d = min_d
        self.v = v
        self.z = z
        self.c_norms = c_norms
        self.panel_bytes = int(panel_bytes)
        self._km = km
        self._p = p_norms

    def at(self, rows, cols) -> np.ndarray:
        """Exact distance entries ``D[rows[t], cols[t]]``, one at a time.

        Each entry re-runs the same SpMM arithmetic the exact panels use
        on that single (point, cluster) pair, so the value is bitwise the
        legacy ``D[i, j]`` — including empty clusters, whose SpMM/SpMV
        contributions are exact zeros (``D[i, j_empty] = (0 + P~_i) + 0``).
        Used by the reseed policy, which touches at most ``k`` entries.
        """
        rows = np.atleast_1d(np.asarray(rows))
        cols = np.atleast_1d(np.asarray(cols))
        if rows.shape != cols.shape:
            raise ShapeError("rows and cols must have matching shapes")
        out = np.empty(rows.shape[0], dtype=self.min_d.dtype)
        for t in range(rows.shape[0]):
            i, j = int(rows[t]), int(cols[t])
            e = spmm_row_entries(self.v, j, self._km, np.array([i]), alpha=-2.0)[0]
            out[t] = (e + self._p[i]) + self.c_norms[j]
        return out


def fused_popcorn_argmin(
    k_mat,
    labels: np.ndarray,
    k: int,
    *,
    chunk_rows: Optional[int] = None,
    chunk_cols: Optional[int] = None,
    n_threads: Optional[int] = None,
    weights: Optional[np.ndarray] = None,
    dtype=None,
) -> FusedDistances:
    """One Popcorn distance step through the fused reduction engine.

    ``k_mat`` is the square kernel matrix, or a :class:`KernelOperand`
    built from it once per fit (its dtype must then be ``dtype``, when
    given).  Three phases, each bitwise equal to its legacy counterpart:

    1. **z-pass** — :func:`_label_gather` computes ``z_i = E[i, lab_i]``
       per cluster without building E;
    2. **centroid norms** — the same ``C~ = -0.5 V z`` SpMV the tiled
       pipeline runs (the -0.5 cancels the -2 and is an exact
       power-of-two scaling);
    3. **fused argmin** — :class:`_PopcornArgmin` sweeps
       ``chunk_rows x chunk_cols`` GEMM panels of ``E^T + P~ + C~``,
       thread-parallel over row chunks, and certifies each row against
       the exact SpMM path (falling back to it where it cannot).

    Returns a :class:`FusedDistances`; ``labels``/``min_d`` match the
    legacy pipeline plus row argmin bit for bit, for every chunk shape
    and thread count (property-tested).
    """
    if isinstance(k_mat, KernelOperand):
        op = k_mat
        if dtype is not None and np.dtype(dtype) != op.dtype:
            raise ConfigError(
                f"kernel operand holds {op.dtype} but dtype={np.dtype(dtype)} was requested"
            )
    else:
        op = KernelOperand(k_mat, dtype)
    n = op.km.shape[0]
    lab = check_labels(labels, n, k)
    if weights is None:
        v = selection_matrix(lab, k, dtype=op.dtype)
    else:
        v = weighted_selection_matrix(lab, k, weights, dtype=op.dtype)
    red = _PopcornArgmin(
        op,
        v,
        lab,
        chunk_rows=chunk_rows,
        chunk_cols=chunk_cols,
        n_threads=n_threads,
    )
    red.run()
    return FusedDistances(
        red.labels, red.min_d, v, red.z, red.c_norms, op.km, op.p_norms, red.panel_bytes
    )


# ----------------------------------------------------------------------
# the out-of-sample prediction reduction
# ----------------------------------------------------------------------

class CrossKernelArgmin(ArgminReduction):
    """Certified fused ``argmin_j (-2 K_c V^T + C~)`` for out-of-sample queries.

    ``panel_rows(r0, r1)`` supplies the ``(r1-r0) x n_support``
    cross-kernel block for one query chunk — a slice of a precomputed
    matrix, or a kernel evaluation against the support set — so the full
    ``m x n_support`` cross-kernel and the full ``m x k`` distance block
    are both bounded by the chunk schedule.  The per-query self-kernel
    constant is dropped (it cannot move the argmin), matching
    :class:`repro.engine.base.OutOfSamplePredictor`.

    ``support`` is the support selection matrix V (taken in float64),
    or the float64 :class:`SupportOperand` built from it (the estimators
    cache one per support, so repeated predicts never rebuild it).
    Each query chunk's panels are one GEMM of the cross-kernel chunk
    against the dense ``-2 V^T``; every row's argmin is certified with
    the bound of the fit's panels (each row's max-abs cross-kernel entry
    in place of K's column max-abs), and rows that fail are re-run
    through the exact SpMM panels.  A traced run counts them in
    ``reduction.cross_fallback_rows``.  :meth:`run` returns labels and a
    ``min_d`` that are both bitwise the exact SpMM path's;
    :meth:`run_labels` skips the exact ``min_d`` of certified rows.
    """

    def __init__(
        self,
        n_rows: int,
        panel_rows: Callable[[int, int], np.ndarray],
        support,
        c_norms: np.ndarray,
        **kwargs,
    ) -> None:
        if isinstance(support, SupportOperand):
            op = support
        else:
            v = support if support.dtype == np.float64 else support.astype(np.float64)
            op = SupportOperand(v, np.float64)
        if op.v.dtype != np.float64 or op.neg2v_t.dtype != np.float64:
            raise ConfigError("CrossKernelArgmin needs a float64 support operand")
        super().__init__(n_rows, op.v.nrows, np.float64, **kwargs)
        self._panel_rows = panel_rows
        self._op = op
        self._v = op.v
        self._c = c_norms
        self._with_min_d = True

    def run_labels(self) -> np.ndarray:
        """Run the reduction for labels alone; ``min_d`` is not computed.

        The labels are :meth:`run`'s bit for bit.
        """
        self._with_min_d = False
        return self.run()[0]

    def _row_context(self, r0: int, r1: int) -> np.ndarray:
        kc = np.asarray(self._panel_rows(r0, r1), dtype=np.float64)
        if kc.shape != (r1 - r0, self._v.ncols):
            raise ShapeError(
                f"cross-kernel chunk must be {(r1 - r0, self._v.ncols)}, got {kc.shape}"
            )
        return kc

    def _panel(self, kct, c0, c1) -> np.ndarray:
        """The exact panel: the SpMM of V's cluster chunk on ``(n_support, rows)`` ``kct``."""
        vc = self._v if c0 == 0 and c1 == self.n_cols else csr_row_slice(self._v, c0, c1)
        kvt = spmm(vc, kct)  # (cc, rr)
        panel = -2.0 * kvt.T
        panel += self._c[c0:c1][None, :]
        return panel

    def _process_rows(self, r0: int, r1: int) -> None:
        kc = self._row_context(r0, r1)
        b = self._op.neg2v_t
        maxabs = np.maximum(kc.max(axis=1, initial=0.0), -kc.min(axis=1, initial=0.0))
        arg, certified = _certified_argmin(
            lambda c0, c1: kc @ b[:, c0:c1],
            maxabs[:, None],
            self._c,
            self._op,
            self.col_chunks(),
            self.dtype,
        )
        min_d = np.empty(r1 - r0, dtype=self.dtype)
        fail = np.flatnonzero(~certified)
        if fail.size:
            if trace.enabled:
                metrics.counter("reduction.cross_fallback_rows").inc(fail.size)
            # the exact path on the failing rows, a block at a time
            for f0 in range(0, fail.size, _FALLBACK_COLS):
                f = fail[f0 : f0 + _FALLBACK_COLS]
                arg[f], min_d[f] = self._sweep(kc[f].T, f.size)
        self.labels[r0:r1] = arg
        if not self._with_min_d:
            return
        # exact min_d of certified rows: one SpMM row of their cluster on
        # the chunk entries its members touch (a gather no larger than kc)
        ok = np.flatnonzero(certified)
        for j in np.unique(arg[ok]):
            sel = ok[arg[ok] == j]
            e = spmm_row_entries(self._v, int(j), kc.T, sel)
            min_d[sel] = -2.0 * e + self._c[j]
        self.min_d[r0:r1] = min_d
