"""Tests for the simulated device: allocator, buffers, transfers."""

import numpy as np
import pytest

from repro.errors import AllocationError, DeviceError
from repro.gpu import A100_80GB, Device, DeviceSpec

TINY = DeviceSpec("tiny", peak_fp32_gflops=1000, mem_bw_gbps=100, mem_capacity_gb=1e-6)


class TestAllocator:
    def test_tracks_live_bytes(self, device):
        b = device.zeros((100, 100))
        assert device.allocated_bytes == b.nbytes
        b.free()
        assert device.allocated_bytes == 0

    def test_peak_tracking(self, device):
        a = device.zeros((50, 50))
        peak1 = device.peak_allocated_bytes
        b = device.zeros((50, 50))
        assert device.peak_allocated_bytes == peak1 + b.nbytes
        a.free()
        b.free()
        assert device.peak_allocated_bytes == peak1 + 10000

    def test_oom(self):
        dev = Device(TINY)  # capacity 1000 bytes
        with pytest.raises(AllocationError, match="OOM"):
            dev.zeros((100, 100))

    def test_free_allows_reuse(self):
        dev = Device(TINY)
        a = dev.zeros((10, 10))  # 400 B of 1000
        a.free()
        b = dev.zeros((15, 15))  # 900 B fits after free
        assert b.nbytes == 900

    def test_double_free_is_idempotent(self, device):
        a = device.zeros((4, 4))
        a.free()
        a.free()
        assert device.allocated_bytes == 0


class TestBuffers:
    def test_use_after_free(self, device):
        a = device.zeros((3, 3))
        a.free()
        with pytest.raises(DeviceError, match="freed"):
            _ = a.a

    def test_wrap_copies_to_contiguous(self, device):
        host = np.asfortranarray(np.ones((4, 5), dtype=np.float32))
        buf = device.wrap(host)
        assert buf.a.flags.c_contiguous

    def test_cross_device_rejected(self):
        d1, d2 = Device(A100_80GB), Device(A100_80GB)
        buf = d1.zeros((2, 2))
        with pytest.raises(DeviceError, match="resident"):
            d2.check_resident(buf)

    def test_non_buffer_rejected(self, device):
        with pytest.raises(DeviceError, match="DeviceArray"):
            device.check_resident(np.ones(3))

    def test_shape_dtype_passthrough(self, device):
        b = device.empty((3, 7), dtype=np.float64)
        assert b.shape == (3, 7)
        assert b.dtype == np.float64


class TestTransfers:
    def test_h2d_copies_and_charges(self, device):
        host = np.arange(12, dtype=np.float32).reshape(3, 4)
        buf = device.h2d(host)
        assert np.array_equal(buf.a, host)
        assert device.profiler.count_of("cuda.memcpy_h2d") == 1
        assert device.profiler.time_of("cuda.memcpy_h2d") > 0

    def test_d2h_returns_copy(self, device):
        buf = device.zeros((2, 2))
        out = device.d2h(buf)
        out[0, 0] = 99
        assert buf.a[0, 0] == 0
        assert device.profiler.count_of("cuda.memcpy_d2h") == 1

    def test_transfer_phase_tag(self, device):
        device.h2d(np.ones(4, dtype=np.float32))
        assert device.profiler.phase_times().get("transfer", 0) > 0


class TestClock:
    def test_elapsed_accumulates(self, device):
        assert device.elapsed_s() == 0
        device.h2d(np.ones(1000, dtype=np.float32))
        t1 = device.elapsed_s()
        device.h2d(np.ones(1000, dtype=np.float32))
        assert device.elapsed_s() > t1
