"""The benchmark's self-test: every workload at its smoke size, both modes,
on two seeds, with every output check.

Run from the repository root::

    python3 perfbench/selftest.py

It also checks that ``BENCHMARK.json`` and ``metrics.py`` name the same
metrics with the same units, directions and bounds, and that every
workload ``BENCHMARK.json`` names exists.  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def check_manifest(spec: dict, errors: list) -> None:
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    want = {n: (u, b, bound) for n, (u, b, bound, _) in END_TO_END.items()}
    if e2e != want:
        errors.append(f"end_to_end in BENCHMARK.json differs from metrics.py: {e2e} vs {want}")
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if layer != {n: (u, b) for n, (u, b, _) in PER_LAYER.items()}:
        errors.append("per_layer in BENCHMARK.json differs from metrics.py")
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        errors.append(f"BENCHMARK.json names workloads workloads.py lacks: {sorted(unknown)}")


def check_run(spec: dict, workload: str, seed: int, trace: int, errors: list) -> None:
    args = f"--workload {workload} --seed {seed} --seconds 1 --trace {trace} --smoke"
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args.split()]
    tag = f"{workload} seed={seed} trace={trace}"
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems = [ln for ln in proc.stdout.splitlines() if "CHECK FAILED" in ln]
        errors.append(f"{tag}: correct={result['correct']} failed={result['failed']} {problems}")
    table = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in table}
    got = result["metrics"]
    if set(got) != set(units):
        errors.append(f"{tag}: metrics {sorted(set(got) ^ set(units))} missing or extra")
        return
    for name, m in got.items():
        v = m["value"]
        if m["unit"] != units[name] or not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{tag}: bad metric {name}={m}")
        elif not trace and v == 0:
            errors.append(f"{tag}: end-to-end metric {name} is 0")
    print(f"ok  {tag}  attempted={result['attempted']}", flush=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors: list = []
    check_manifest(spec, errors)
    for name in WORKLOADS:  # the gated ones and any kept for runs by hand
        for seed in SEEDS:
            for trace in (0, 1):
                check_run(spec, name, seed, trace, errors)
    for e in errors:
        print("FAIL " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
