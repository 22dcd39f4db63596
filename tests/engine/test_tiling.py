"""Tests for the row-streamed distance pipeline (``chunk_rows=``).

The device backend streams K in ``chunk_rows x n`` panels laid out by
:func:`repro.engine.reduction.chunk_ranges`; the legacy row-tiled SpMM
pipeline survives as the ext_reduction_engine comparator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import random_labels
from repro.core import PopcornKernelKMeans
from repro.core.distances import popcorn_distances_host
from repro.core.weighted import weighted_distances_host
from repro.bench.experiments.reduction import (
    _tiled_popcorn_distances_host as tiled_popcorn_distances_host,
)
from repro.engine import chunk_ranges, validate_chunk_size
from repro.errors import ConfigError, ShapeError
from repro.kernels import PolynomialKernel, kernel_matrix


class TestRowTiles:
    def test_none_is_monolithic(self):
        assert chunk_ranges(17, None) == [(0, 17)]

    def test_tile_larger_than_n_is_monolithic(self):
        assert chunk_ranges(10, 64) == [(0, 10)]

    def test_exact_divisor(self):
        assert chunk_ranges(12, 4) == [(0, 4), (4, 8), (8, 12)]

    def test_non_divisor_short_last_tile(self):
        assert chunk_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_tile_of_one(self):
        tiles = chunk_ranges(5, 1)
        assert tiles == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]

    def test_tiles_cover_range_exactly(self):
        for n in (1, 7, 31):
            for r in (1, 2, 5, 30, 31, 100):
                tiles = chunk_ranges(n, r)
                assert tiles[0][0] == 0 and tiles[-1][1] == n
                for (a, b), (c, _) in zip(tiles, tiles[1:]):
                    assert b == c

    def test_invalid_tile_rows(self):
        with pytest.raises(ConfigError):
            validate_chunk_size(0, "chunk_rows")
        with pytest.raises(ConfigError):
            chunk_ranges(10, -3)

    def test_invalid_n(self):
        with pytest.raises(ShapeError):
            chunk_ranges(-1, 4)


class TestTiledDistancesBitExact:
    """The tentpole property: tiling never changes a single bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        k=st.integers(min_value=1, max_value=6),
        tile=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_monolithic_bit_for_bit_float64(self, n, k, tile, seed):
        rng = np.random.default_rng(seed)
        k = min(k, n)
        x = rng.standard_normal((n, 3))
        km = kernel_matrix(x, PolynomialKernel())  # float64, PSD, symmetric
        labels = random_labels(n, k, rng)
        mono, _ = popcorn_distances_host(km, labels, k)
        tiled, _ = tiled_popcorn_distances_host(km, labels, k, tile_rows=tile)
        assert np.array_equal(mono, tiled)  # bit-for-bit, not allclose

    @settings(max_examples=30, deadline=None)
    @given(
        tile=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_float32_is_also_bit_exact(self, tile, seed):
        rng = np.random.default_rng(seed)
        n, k = 33, 4
        x = rng.standard_normal((n, 4)).astype(np.float32)
        km = (x @ x.T).astype(np.float32)
        labels = random_labels(n, k, rng)
        mono, _ = popcorn_distances_host(km, labels, k)
        tiled, _ = tiled_popcorn_distances_host(km, labels, k, tile_rows=tile)
        assert np.array_equal(mono, tiled)

    @settings(max_examples=30, deadline=None)
    @given(
        tile=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_weighted_tiled_matches_weighted_host(self, tile, seed):
        rng = np.random.default_rng(seed)
        n, k = 29, 3
        x = rng.standard_normal((n, 3))
        km = kernel_matrix(x, PolynomialKernel())
        labels = random_labels(n, k, rng)
        w = rng.uniform(0.1, 3.0, n)
        mono = weighted_distances_host(km, labels, k, w)
        tiled, _ = tiled_popcorn_distances_host(
            km, labels, k, tile_rows=tile, weights=w
        )
        assert np.array_equal(mono, tiled)

    def test_nonsquare_rejected(self, rng):
        with pytest.raises(ShapeError):
            tiled_popcorn_distances_host(
                rng.standard_normal((4, 5)), np.zeros(4, dtype=np.int32), 2, tile_rows=2
            )


class TestTiledEstimator:
    """PopcornKernelKMeans(chunk_rows=r) on the device streams K and is
    label-identical to monolithic."""

    @pytest.mark.parametrize("tile", [1, 7, 32, 90, 1000])
    def test_labels_identical_for_any_tile(self, blobs, tile):
        x, _, k = blobs  # n = 90; 7 and 1000 exercise non-divisor / oversize
        mono = PopcornKernelKMeans(k, seed=0, max_iter=8).fit(x)
        tiled = PopcornKernelKMeans(k, seed=0, max_iter=8, chunk_rows=tile).fit(x)
        assert np.array_equal(mono.labels_, tiled.labels_)
        assert tiled.objective_ == pytest.approx(mono.objective_)

    def test_tiled_precomputed_kernel(self, rng):
        n, k = 40, 3
        x = rng.standard_normal((n, 4))
        km = kernel_matrix(x, PolynomialKernel())
        init = random_labels(n, k, rng)
        mono = PopcornKernelKMeans(k, dtype=np.float64).fit(
            kernel_matrix=km, init_labels=init
        )
        tiled = PopcornKernelKMeans(k, dtype=np.float64, chunk_rows=13).fit(
            kernel_matrix=km, init_labels=init
        )
        assert np.array_equal(mono.labels_, tiled.labels_)

    def test_tiled_gaussian_from_points(self, circles):
        x, _, k = circles
        mono = PopcornKernelKMeans(k, kernel="gaussian", seed=1, max_iter=10).fit(x)
        tiled = PopcornKernelKMeans(
            k, kernel="gaussian", seed=1, max_iter=10, chunk_rows=50
        ).fit(x)
        assert np.array_equal(mono.labels_, tiled.labels_)

    def test_tiled_charges_streaming_transfers(self, blobs):
        x, _, k = blobs
        mono = PopcornKernelKMeans(k, seed=0, max_iter=4, check_convergence=False).fit(x)
        tiled = PopcornKernelKMeans(
            k, seed=0, max_iter=4, check_convergence=False, chunk_rows=30
        ).fit(x)
        # per-iteration H2D re-streaming of K must show up in the model
        assert tiled.timings_["transfer"] > mono.timings_["transfer"]
        assert tiled.device_.profiler.count_of("cusparse.spmm_tile") == 3 * 4

    def test_tiled_never_allocates_k_on_device(self, blobs):
        x, _, k = blobs  # n=90, fp32: K would be 32.4 KB
        tiled = PopcornKernelKMeans(k, seed=0, max_iter=3, chunk_rows=10).fit(x)
        peak = tiled.device_.peak_allocated_bytes
        assert peak < 4 * 90 * 90  # strictly below a resident K

    def test_syrk_with_tiling_rejected(self, blobs):
        x, _, k = blobs
        with pytest.raises(ConfigError, match="syrk"):
            PopcornKernelKMeans(k, gram_method="syrk", chunk_rows=16).fit(x)

    def test_bad_tile_rows_rejected(self):
        with pytest.raises(ConfigError, match="chunk_rows"):
            PopcornKernelKMeans(2, chunk_rows=0)
        # the retired tile_rows alias is no parameter any more
        with pytest.raises(TypeError, match="tile_rows"):
            PopcornKernelKMeans(2, tile_rows=16)

    def test_model_matches_execution_launch_for_launch(self, rng):
        """The tiled analytical model mirrors the tiled engine exactly."""
        from repro.modeling import model_popcorn_tiled

        n, d, k, iters, tile = 48, 6, 3, 4, 13
        x = rng.standard_normal((n, d)).astype(np.float32)
        init = random_labels(n, k, rng)
        est = PopcornKernelKMeans(
            k, max_iter=iters, check_convergence=False, chunk_rows=tile
        ).fit(x, init_labels=init)
        modeled = model_popcorn_tiled(n, d, k, tile_rows=tile, iters=iters)
        skip = ("cuda.memcpy_h2d", "cuda.memcpy_d2h")
        got = [l for l in est.device_.profiler.launches if l.name not in skip]
        want = [l for l in modeled.profiler.launches if l.name not in skip]
        assert [l.name for l in got] == [l.name for l in want]
        for a, b in zip(got, want):
            assert a.flops == pytest.approx(b.flops), a.name
            assert a.bytes == pytest.approx(b.bytes), a.name
            assert a.time_s == pytest.approx(b.time_s), a.name
