"""repro — a full Python reproduction of *Popcorn: Accelerating Kernel
K-means on GPUs through Sparse Linear Algebra* (PPoPP 2025).

Layout
------
``repro.engine``
    The shared execution layer every estimator runs on:
    :class:`~repro.engine.BaseKernelKMeans` (the fit scaffolding — device
    plumbing, the init -> distances -> argmin -> convergence loop,
    empty-cluster policy, fitted attributes), pluggable
    :class:`~repro.engine.Backend` substrates (``backend="host"`` for
    NumPy/CSR, ``backend="device"`` for the simulated GPU,
    ``backend="sharded:<g>"`` for SPMD over ``g`` simulated devices —
    identical numerics on all of them, selectable on every estimator),
    and the streamed mode (``chunk_rows=``) that runs kernel matrices
    larger than device memory panel by panel instead of raising.
``repro.core``
    The paper's contribution: :class:`PopcornKernelKMeans` and the
    SpMM/SpMV distance pipeline (each estimator is a distance-step
    strategy on the engine).
``repro.sparse``
    From-scratch CSR substrate (SpMM, SpMV, SpGEMM, selection matrices).
``repro.gpu``
    Simulated A100 device: exact numerics plus an analytically modeled,
    calibration-documented execution clock and Nsight-style profiler.
``repro.kernels``
    Kernel functions and the GEMM/SYRK Gram-matrix dispatch.
``repro.baselines``
    The paper's comparators: the hand-written-kernel CUDA baseline, the
    PRMLT CPU implementation, and classical Lloyd K-means.
``repro.modeling``
    Paper-scale analytical launch models (used by every figure bench).
``repro.distributed`` / ``repro.approx``
    Extensions: multi-GPU Popcorn (the paper's future work) and Nyström
    approximate Kernel K-means.
``repro.estimators`` / ``repro.params``
    The uniform estimator API: every estimator registers under a string
    key (``make_estimator("popcorn", n_clusters=8)``,
    ``available_estimators()``) and implements the introspectable params
    protocol (``get_params`` / ``set_params`` / ``clone`` with nested
    ``kernel__gamma`` access, :class:`~repro.params.ParamSpec`-driven
    validation, ``NotFittedError`` guards) — persistence, the CLIs, the
    bench specs, and model selection all construct estimators through
    the registry.
``repro.select``
    Model selection on top of that contract:
    :class:`~repro.select.GridSearchKernelKMeans` /
    :func:`~repro.select.cross_validate` clone candidate estimators, fan
    fits out process-parallel, and score with :mod:`repro.eval`.
``repro.serve``
    The inference half of the system: versioned, schema-checked model
    artifacts (``save_model`` / ``load_model``, bit-exact round trips;
    headers store the registry name plus ``get_params()``),
    :class:`~repro.serve.PredictionService` — a micro-batching,
    LRU-cached, thread-pooled out-of-sample prediction server — and
    :class:`~repro.serve.AsyncPredictionServer`, the asyncio front door
    for open-loop traffic (admission control with
    :class:`~repro.errors.Overloaded` shedding, cross-request
    coalescing, multi-process shard workers, artifact hot-swap, and an
    autoscaling policy simulator), all configured through one
    declarative :class:`~repro.serve.ServeConfig` and answering with
    :class:`~repro.serve.ServeResult`; driven by the ``repro-serve``
    console script.
``repro.bench``
    The registry-driven benchmark subsystem: every figure/table/ablation
    of the paper's evaluation is a declarative :class:`~repro.bench.ExperimentSpec`,
    executed by the ``repro-bench`` console script (``list`` / ``run`` /
    ``compare``) into per-experiment CSVs plus one schema-versioned
    ``BENCH_results.json``; ``repro-bench compare old.json new.json
    --threshold 0.2`` is the perf-regression gate CI runs on every PR.

Quickstart
----------
>>> import numpy as np
>>> from repro import make_estimator
>>> from repro.data import make_circles
>>> x, y = make_circles(600, rng=0)
>>> model = make_estimator("popcorn", n_clusters=2, kernel="gaussian", seed=0).fit(x)
>>> model.labels_.shape
(600,)

Hyperparameter search rides the same contract::

    from repro import GridSearchKernelKMeans
    search = GridSearchKernelKMeans(
        "popcorn", {"n_clusters": [2], "kernel__gamma": [0.5, 2.0, 5.0]},
        scoring="ari", cv=3,
    ).fit(x, y)
    search.best_params_, search.best_estimator_
"""

from .config import Config, DEFAULT_CONFIG
from .core import (
    OnTheFlyKernelKMeans,
    PopcornKernelKMeans,
    WeightedPopcornKernelKMeans,
)
from .baselines import (
    BaselineCUDAKernelKMeans,
    ElkanKMeans,
    LloydKMeans,
    PRMLTKernelKMeans,
)
from .distributed import DistributedPopcornKernelKMeans
from .approx import NystromKernelKMeans
from .engine import BaseKernelKMeans, available_backends
from .errors import NotFittedError, ReproError
from .estimators import (
    available_estimators,
    get_estimator_class,
    make_estimator,
    register_estimator,
)
from .graph import SpectralKernelKMeans
from .harness import ExperimentResult, TrialStats, run_trials
from .gpu import A100_80GB, Device, DeviceSpec
from .kernels import (
    CosineKernel,
    GaussianKernel,
    Kernel,
    LaplacianKernel,
    LinearKernel,
    PolynomialKernel,
    RationalQuadraticKernel,
    SigmoidKernel,
    kernel_by_name,
)
from .params import ParamSpec, check_is_fitted, clone
from .select import GridSearchKernelKMeans, ParameterGrid, cross_validate
from .serve import (
    AsyncPredictionServer,
    PredictionService,
    ServeConfig,
    ServeResult,
    load_model,
    save_model,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Config",
    "DEFAULT_CONFIG",
    # the ten estimators
    "PopcornKernelKMeans",
    "WeightedPopcornKernelKMeans",
    "OnTheFlyKernelKMeans",
    "BaselineCUDAKernelKMeans",
    "PRMLTKernelKMeans",
    "LloydKMeans",
    "ElkanKMeans",
    "DistributedPopcornKernelKMeans",
    "NystromKernelKMeans",
    "SpectralKernelKMeans",
    # estimator registry / params protocol
    "register_estimator",
    "make_estimator",
    "available_estimators",
    "get_estimator_class",
    "ParamSpec",
    "clone",
    "check_is_fitted",
    "ReproError",
    "NotFittedError",
    # model selection
    "GridSearchKernelKMeans",
    "cross_validate",
    "ParameterGrid",
    # engine + harness
    "BaseKernelKMeans",
    "available_backends",
    "run_trials",
    "TrialStats",
    "ExperimentResult",
    "Device",
    "DeviceSpec",
    "A100_80GB",
    # kernels
    "Kernel",
    "LinearKernel",
    "PolynomialKernel",
    "GaussianKernel",
    "SigmoidKernel",
    "LaplacianKernel",
    "CosineKernel",
    "RationalQuadraticKernel",
    "kernel_by_name",
    # serving
    "PredictionService",
    "AsyncPredictionServer",
    "ServeConfig",
    "ServeResult",
    "save_model",
    "load_model",
]
