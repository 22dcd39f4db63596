"""Artifact-compatible command-line interface (``gpukmeans``).

Mirrors the flag set documented in the paper's Appendix A.4::

    -n INT      number of data points (random data when -i is not set)
    -d INT      dimensionality
    -k INT      number of clusters
    --runs INT  number of clustering repetitions
    -t FLOAT    convergence tolerance
    -m INT      maximum iterations
    -c {0|1}    whether to check convergence
    --init STR  centroid initialisation (random | k-means++)
    -f STR      kernel function (linear | polynomial | sigmoid | gaussian)
    -i STR      input file (libsvm or CSV)
    -s INT      RNG seed
    -l {0|2}    implementation: 0 = naive baseline, 2 = Popcorn
    -o STR      write clustering results to a file

plus reproduction-specific extras (``--device``, ``--backend``,
``--devices`` for the sharded multi-device mode, ``--chunk-rows``,
``--gram-method``, ``--breakdown``).  Prints modeled timings, since the
GPU is simulated.

The benchmark and serving subsystems ship their own console scripts,
``repro-bench`` and ``repro-serve`` (re-exported here as
:func:`bench_main` / :func:`serve_main` for the setup.py entry points);
see :mod:`repro.bench.cli` and :mod:`repro.serve.cli`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from .data import load_dataset, make_random
from .estimators import filter_params, get_estimator_class, make_estimator
from .gpu import Device, named_device
from .kernels import kernel_by_name
from .bench.cli import main as bench_main
from .serve.cli import main as serve_main
from .reporting import fmt_seconds, format_table

__all__ = ["build_parser", "main", "bench_main", "serve_main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``gpukmeans`` argument parser (artifact Appendix A.4 flags)."""
    p = argparse.ArgumentParser(
        prog="gpukmeans",
        description="Popcorn kernel k-means on a simulated GPU (PPoPP'25 reproduction)",
    )
    p.add_argument("-n", type=int, default=1000, help="number of data points")
    p.add_argument("-d", type=int, default=16, help="dimensionality")
    p.add_argument("-k", type=int, default=10, help="number of clusters")
    p.add_argument("--runs", type=int, default=1, help="number of clustering runs")
    p.add_argument("-t", dest="tol", type=float, default=1e-4, help="convergence tolerance")
    p.add_argument("-m", dest="max_iter", type=int, default=30, help="maximum iterations")
    p.add_argument(
        "-c",
        dest="check_convergence",
        type=int,
        choices=(0, 1),
        default=0,
        help="1 = stop at convergence, 0 = run exactly -m iterations",
    )
    p.add_argument(
        "--init", default="random", choices=("random", "k-means++"), help="initialisation"
    )
    p.add_argument(
        "-f",
        dest="kernel",
        default="polynomial",
        choices=("linear", "polynomial", "sigmoid", "gaussian"),
        help="kernel function",
    )
    p.add_argument("-i", dest="input", default=None, help="input file (libsvm or CSV)")
    p.add_argument("-s", dest="seed", type=int, default=0, help="RNG seed")
    p.add_argument(
        "-l",
        dest="impl",
        type=int,
        choices=(0, 2),
        default=2,
        help="0 = naive GPU baseline, 2 = Popcorn",
    )
    p.add_argument("-o", dest="output", default=None, help="write labels to this file")
    p.add_argument("--device", default="a100-80gb", help="simulated device name")
    p.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "host", "device", "sharded"),
        help="execution backend: simulated GPU (device), NumPy/CSR (host), "
        "or SPMD over simulated devices (sharded; see --devices)",
    )
    p.add_argument(
        "--devices",
        type=int,
        default=None,
        metavar="G",
        help="run on G simulated devices (implies --backend sharded; "
        "the row-partitioned SPMD mode with modeled collectives)",
    )
    p.add_argument(
        "--chunk-rows",
        dest="chunk_rows",
        type=int,
        default=None,
        metavar="R",
        help="row granularity of the distance pipeline: streamed kernel-matrix "
        "panels on the device backend (out-of-core mode), row-chunk height of "
        "the fused reduction on host-family backends",
    )
    p.add_argument(
        "--chunk-cols",
        dest="chunk_cols",
        type=int,
        default=None,
        metavar="C",
        help="cluster-axis chunk width of the fused reduction engine",
    )
    p.add_argument(
        "--n-threads",
        dest="n_threads",
        type=int,
        default=None,
        metavar="T",
        help="worker threads for the fused reduction's row-chunk sweep",
    )
    p.add_argument(
        "--gram-method",
        default="auto",
        choices=("auto", "gemm", "syrk"),
        help="kernel-matrix strategy (Popcorn only)",
    )
    p.add_argument(
        "--breakdown", action="store_true", help="print the per-phase runtime breakdown"
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a chrome://tracing JSON of the last run's modeled timeline",
    )
    p.add_argument(
        "--trace-out",
        dest="trace_out",
        default=None,
        metavar="FILE",
        help="enable wall-clock span tracing (repro.obs) and write a combined "
        "Perfetto/chrome-trace of the last run: real fit/pool spans next to "
        "the modeled profiler lanes (one pid per simulated device when "
        "sharded)",
    )
    return p


def _load_points(args) -> np.ndarray:
    if args.input:
        x, _ = load_dataset(args.input)
        return x
    x, _ = make_random(args.n, args.d, rng=args.seed)
    return x


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    trace_mark = 0
    if args.trace_out:
        from .obs import trace

        trace.enable()
        trace_mark = trace.mark()
    x = _load_points(args)
    n, d = x.shape
    spec = named_device(args.device)
    kern = kernel_by_name(args.kernel)

    rows = []
    labels = None
    last = None
    backend = args.backend
    if args.devices is not None:
        if args.devices < 1:
            print("gpukmeans: --devices must be >= 1", file=sys.stderr)
            return 2
        if backend not in ("auto", "sharded"):
            print(
                f"gpukmeans: --devices conflicts with --backend {backend}", file=sys.stderr
            )
            return 2
        backend = f"sharded:{args.devices}"
    sharded = backend.startswith("sharded")
    on_device = not sharded and backend in ("auto", "device")
    # registry-driven construction (no estimator-class switch): the -l
    # flag maps to a registry name, and flags an estimator does not
    # declare (init/chunk_rows/gram_method for the baseline) are dropped
    estimator_name = "popcorn" if args.impl == 2 else "baseline"
    supported = get_estimator_class(estimator_name).param_specs()
    if args.init != "random" and "init" not in supported:
        print("note: the baseline implementation only supports --init random",
              file=sys.stderr)
    for run in range(args.runs):
        device = Device(spec) if on_device else None
        seed = args.seed + run
        offered = {
            "n_clusters": args.k,
            "kernel": kern,
            "device": device,
            "backend": backend,
            "chunk_rows": args.chunk_rows,
            "chunk_cols": args.chunk_cols,
            "n_threads": args.n_threads,
            "gram_method": args.gram_method,
            "max_iter": args.max_iter,
            "tol": args.tol,
            "check_convergence": bool(args.check_convergence),
            "init": args.init,
            "seed": seed,
        }
        algo = make_estimator(estimator_name, **filter_params(estimator_name, offered))
        algo.fit(x)
        labels = algo.labels_
        last = algo
        ph = algo.timings_
        rows.append(
            [
                run,
                algo.n_iter_,
                f"{algo.objective_:.6g}",
                fmt_seconds(ph.get("kernel_matrix", 0.0)),
                fmt_seconds(ph.get("distances", 0.0)),
                fmt_seconds(ph.get("argmin_update", 0.0)),
                fmt_seconds(sum(ph.values())),
            ]
        )

    impl = "Popcorn" if args.impl == 2 else "baseline CUDA"
    if sharded:
        where = f"backend={last.backend_} ({last.n_devices_} simulated devices)"
    elif on_device:
        where = f"device={spec.name}"
    else:
        where = "backend=host"
    print(f"{impl} kernel k-means | n={n} d={d} k={args.k} kernel={args.kernel} "
          f"{where}")
    if args.impl == 2:
        print(f"gram method: {last.gram_method_}")
    if sharded:
        print(
            f"modeled makespan: {fmt_seconds(last.makespan_s_)} "
            f"(comm {fmt_seconds(last.comm_profiler_.total_time())}, "
            f"parallel efficiency {last.parallel_efficiency_ * 100:.0f}%)"
        )
    print(
        format_table(
            ["run", "iters", "objective", "K time", "distances", "argmin+update", "total"],
            rows,
        )
    )
    if args.breakdown:
        kind = "modeled" if (on_device or sharded) else "measured wall-clock"
        print(f"\nper-operation summary ({kind}):")
        summary = last.profiler_.summary()
        print(
            format_table(
                ["op", "count", "time", "GFLOP/s", "AI"],
                [
                    [s["name"], s["count"], fmt_seconds(s["time_s"]),
                     f"{s['gflops']:.0f}", f"{s['ai']:.3f}"]
                    for s in summary
                ],
            )
        )
    if args.trace:
        from .gpu.trace import write_chrome_trace

        write_chrome_trace(last.profiler_, args.trace)
        print(f"\nchrome trace written to {args.trace}")
    if args.trace_out:
        from .obs import trace
        from .obs.export import estimator_profilers, write_combined_trace

        write_combined_trace(
            args.trace_out,
            tracer=trace,
            since=trace_mark,
            profilers=estimator_profilers(last),
        )
        print(f"\ncombined trace written to {args.trace_out}")
    if args.output:
        np.savetxt(args.output, labels, fmt="%d")
        print(f"\nlabels written to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
