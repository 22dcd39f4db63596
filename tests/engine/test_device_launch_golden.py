"""Golden device launch logs: the device backend's modeled launches, pinned.

``data/device_launches_golden.json`` holds, per configuration, the full
launch log of a device-backend fit (name, phase, useful and counted
FLOPs, bytes, modeled seconds, meta) together with the fitted
``labels_``, ``objective_history_`` and ``_c_norms``.  Each configuration
exercises a branch the analytical-model pin in ``tests/test_modeling.py``
does not reach: the Gaussian diag snapshot (GEMM and SYRK), SYRK, a
precomputed kernel matrix (resident and streamed), fp64 streaming with
``chunk_rows``, weighted fits and the baseline estimator.  Everything is compared field
by field and bitwise (JSON round-trips floats exactly).

Regenerate (only when a launch change is intended) with::

    PYTHONPATH=src python tests/engine/test_device_launch_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import PopcornKernelKMeans
from repro.baselines import BaselineCUDAKernelKMeans
from repro.core.weighted import WeightedPopcornKernelKMeans
from repro.kernels import GaussianKernel, PolynomialKernel, kernel_matrix

GOLDEN = Path(__file__).with_name("data") / "device_launches_golden.json"

N, D, K, ITERS = 40, 3, 3, 3


def _inputs():
    rng = np.random.default_rng(2024)
    x = rng.standard_normal((N, D))
    w = rng.uniform(0.5, 2.0, N)
    km = kernel_matrix(x, PolynomialKernel())
    return x, w, km


def _fit(name: str):
    x, w, km = _inputs()
    loop = dict(seed=0, max_iter=ITERS, check_convergence=False, backend="device")
    if name == "gaussian":
        return PopcornKernelKMeans(
            K, kernel=GaussianKernel(gamma=0.5), gram_method="gemm", **loop
        ).fit(x)
    if name == "gaussian_syrk":
        return PopcornKernelKMeans(K, kernel=GaussianKernel(gamma=0.5), **loop).fit(x)
    if name == "gaussian_chunked":
        return PopcornKernelKMeans(
            K, kernel=GaussianKernel(gamma=0.5), chunk_rows=16, **loop
        ).fit(x)
    if name == "syrk":
        return PopcornKernelKMeans(K, gram_method="syrk", **loop).fit(x)
    if name == "precomputed":
        return PopcornKernelKMeans(K, **loop).fit(kernel_matrix=km)
    if name == "precomputed_chunked":
        return PopcornKernelKMeans(K, chunk_rows=12, **loop).fit(kernel_matrix=km)
    if name == "fp64_chunked":
        return PopcornKernelKMeans(K, dtype=np.float64, chunk_rows=16, **loop).fit(x)
    if name == "weighted":
        return PopcornKernelKMeans(K, **loop).fit(x, sample_weight=w)
    if name == "weighted_estimator":
        return WeightedPopcornKernelKMeans(K, **loop).fit(x, sample_weight=w)
    if name == "baseline":
        return BaselineCUDAKernelKMeans(K, **loop).fit(x)
    if name == "baseline_gaussian_fp64":
        return BaselineCUDAKernelKMeans(
            K, kernel=GaussianKernel(gamma=0.5), dtype=np.float64, **loop
        ).fit(x)
    raise KeyError(name)


CONFIGS = (
    "gaussian",
    "gaussian_syrk",
    "gaussian_chunked",
    "syrk",
    "precomputed",
    "precomputed_chunked",
    "fp64_chunked",
    "weighted",
    "weighted_estimator",
    "baseline",
    "baseline_gaussian_fp64",
)


def capture(name: str) -> dict:
    """The launch log and fitted results of one configuration as JSON data."""
    m = _fit(name)
    launches = [
        [
            ln.name,
            ln.phase,
            float(ln.flops),
            float(ln.counted_flops),
            float(ln.bytes),
            float(ln.time_s),
            {key: ln.meta[key] for key in sorted(ln.meta)},
        ]
        for ln in m.profiler_.launches
    ]
    return {
        "launches": launches,
        "labels": [int(v) for v in m.labels_],
        "objective_history": [float(v) for v in m.objective_history_],
        "c_norms": [float(v) for v in m._c_norms],
        "gram_method": m.gram_method_ if hasattr(m, "gram_method_") else None,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CONFIGS)
def test_device_launch_log_matches_golden(golden, name):
    want = golden[name]
    got = json.loads(json.dumps(capture(name)))
    assert len(got["launches"]) == len(want["launches"])
    fields = ("name", "phase", "flops", "counted_flops", "bytes", "time_s", "meta")
    for i, (g, w) in enumerate(zip(got["launches"], want["launches"])):
        for field, gv, wv in zip(fields, g, w):
            assert gv == wv, f"launch {i} ({w[0]}): {field} {gv!r} != {wv!r}"
    for key in ("labels", "objective_history", "c_norms", "gram_method"):
        assert got[key] == want[key], key


def _dump(data: dict) -> str:
    """JSON with one launch per line, so a launch change reads as a line diff."""
    blocks = []
    for name, got in data.items():
        rows = ",\n".join("   " + json.dumps(ln) for ln in got["launches"])
        fields = [f'  "launches": [\n{rows}\n  ]']
        fields += [f"  {json.dumps(k)}: {json.dumps(got[k])}" for k in got if k != "launches"]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(fields) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: capture(name) for name in CONFIGS}
    GOLDEN.write_text(_dump(data))
    print(f"wrote {GOLDEN} ({len(data)} configurations)")
