"""Host-measured benchmark of the Popcorn reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fit-8k --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` a separate
traced run's per-layer metrics.  The last line of standard output is
the result as one JSON object; the lines before it record the
environment and the sample counts.  ``--smoke`` runs the same code paths
and checks at tiny sizes (see ``selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, same checks")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from harness import cpu_ticks, environment, steal_share
    from metrics import END_TO_END, PER_LAYER, render
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        known = ", ".join(WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    ticks = cpu_ticks()
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, workdir)
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = run.out
    run.e2e["success_rate"] = 1.0 - out.failed / max(out.attempted, 1)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.traced:
        run.spans.write(os.path.join(out_dir, f"spans-{tag}.json"))

    print(f"# perfbench {tag}{' (smoke)' if args.smoke else ''}")
    env = environment()
    env["host.sgemm_gflops"] = run.sgemm
    env["cpu_steal_share"] = steal_share(ticks, cpu_ticks())
    print("# env " + json.dumps(env))
    print("# samples " + json.dumps(out.samples))
    if run.traced:
        names, values, table = list(PER_LAYER), run.layer, PER_LAYER
        for n in names:
            unit, _, moves = PER_LAYER[n]
            print(f"#   {n:36s} {values[n]:14.6g} {unit:8s} -> {moves}")
    else:
        names, values, table = list(END_TO_END), run.e2e, END_TO_END
        for n in names:
            print(f"#   {n:36s} {values[n]:14.6g} {END_TO_END[n][0]}")
    for problem in out.problems:
        print(f"# CHECK FAILED: {problem}")
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": render(names, values, table),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
