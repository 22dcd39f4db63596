"""Simulated GPU substrate: the cost model, the allocator and the profiler.

The paper's CUDA testbed is replaced by an analytical, A100-calibrated
roofline cost model (:mod:`repro.gpu.cost`, calibration notes in
:mod:`repro.gpu.calibration`), a :class:`Device` whose allocator tracks
live bytes against capacity, and an Nsight-like :class:`Profiler`.  The
numerics never run here: the device backend
(:class:`repro.engine.DeviceBackend`) executes the host numerics and
charges the launches of :mod:`repro.modeling`'s per-stage generators.
"""

from .device import Device
from .launch import Launch
from .memory import DeviceArray
from .profiler import Profiler
from .roofline import RooflinePoint, attainable_gflops, op_point, points_from, roofline_series
from .spec import (
    A100_40GB,
    A100_80GB,
    CPUSpec,
    DeviceSpec,
    EPYC_7763,
    H100_80GB,
    V100_32GB,
    named_device,
)
from .trace import to_chrome_trace, write_chrome_trace

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "Device",
    "DeviceArray",
    "Launch",
    "Profiler",
    "DeviceSpec",
    "CPUSpec",
    "A100_80GB",
    "A100_40GB",
    "V100_32GB",
    "H100_80GB",
    "EPYC_7763",
    "named_device",
    "attainable_gflops",
    "roofline_series",
    "RooflinePoint",
    "op_point",
    "points_from",
]
