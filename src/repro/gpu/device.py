"""The simulated GPU device.

A :class:`Device` couples three things:

1. a :class:`~repro.gpu.spec.DeviceSpec` (the hardware parameters),
2. a :class:`~repro.gpu.profiler.Profiler` (the launch log / clock), and
3. an allocator tracking live device memory against capacity.

The device backend (:class:`repro.engine.DeviceBackend`) holds the fit's
buffers against the allocator and charges each stage's modeled launches
through :meth:`Device.record`; the arithmetic itself runs on the host.
"""

from __future__ import annotations

import numpy as np

from ..errors import AllocationError, DeviceError
from . import cost
from .launch import Launch
from .memory import DeviceArray
from .profiler import Profiler
from .spec import A100_80GB, DeviceSpec

__all__ = ["Device"]


class Device:
    """A simulated GPU with memory tracking and a launch profiler."""

    def __init__(self, spec: DeviceSpec = A100_80GB, *, profiler: Profiler | None = None) -> None:
        self.spec = spec
        self.profiler = profiler if profiler is not None else Profiler()
        self.allocated_bytes = 0
        self.peak_allocated_bytes = 0

    # ------------------------------------------------------------------
    # allocator
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return int(self.spec.mem_capacity_gb * 1e9)

    def _reserve(self, nbytes: int) -> None:
        if self.allocated_bytes + nbytes > self.capacity_bytes:
            raise AllocationError(
                f"device OOM on {self.spec.name}: requested {nbytes} B with "
                f"{self.allocated_bytes} B live of {self.capacity_bytes} B"
            )
        self.allocated_bytes += nbytes
        self.peak_allocated_bytes = max(self.peak_allocated_bytes, self.allocated_bytes)

    def _release(self, nbytes: int) -> None:
        self.allocated_bytes -= nbytes
        if self.allocated_bytes < 0:  # pragma: no cover - internal invariant
            raise DeviceError("allocator underflow")

    def empty(self, shape, dtype=np.float32) -> DeviceArray:
        """Allocate an uninitialised device buffer."""
        arr = np.empty(shape, dtype=dtype)
        self._reserve(arr.nbytes)
        return DeviceArray(self, arr)

    def zeros(self, shape, dtype=np.float32) -> DeviceArray:
        """Allocate a zero-filled device buffer."""
        arr = np.zeros(shape, dtype=dtype)
        self._reserve(arr.nbytes)
        return DeviceArray(self, arr)

    def wrap(self, array: np.ndarray) -> DeviceArray:
        """Adopt an existing host array as a device buffer **without** a
        modeled transfer (used by ops constructing trusted output)."""
        self._reserve(array.nbytes)
        return DeviceArray(self, np.ascontiguousarray(array))

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def h2d(self, host: np.ndarray, *, phase: str = "transfer") -> DeviceArray:
        """Copy a host array to the device, charging PCIe time."""
        buf = self.wrap(np.asarray(host))
        with self.profiler.phase(phase):
            self.record(cost.h2d_cost(self.spec, buf.nbytes))
        return buf

    def d2h(self, buf: DeviceArray, *, phase: str = "transfer") -> np.ndarray:
        """Copy a device buffer back to the host, charging PCIe time."""
        self.check_resident(buf)
        with self.profiler.phase(phase):
            self.record(cost.d2h_cost(self.spec, buf.nbytes))
        return np.array(buf.a, copy=True)

    # ------------------------------------------------------------------
    # launch recording
    # ------------------------------------------------------------------
    def record(self, launch: Launch) -> Launch:
        """Charge a launch to this device's profiler clock."""
        return self.profiler.record(launch)

    def check_resident(self, *bufs: DeviceArray) -> None:
        """Validate that every operand is a live buffer of this device."""
        for b in bufs:
            if not isinstance(b, DeviceArray):
                raise DeviceError(f"expected DeviceArray, got {type(b).__name__}")
            if b.device is not self:
                raise DeviceError(
                    f"buffer resident on {b.device.spec.name!r} used on {self.spec.name!r}"
                )
            if not b.alive:
                raise DeviceError("use of freed device buffer")

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def elapsed_s(self) -> float:
        """Total modeled time on this device so far."""
        return self.profiler.total_time()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Device({self.spec.name!r}, live={self.allocated_bytes}B, "
            f"peak={self.peak_allocated_bytes}B, t={self.elapsed_s():.3e}s)"
        )
