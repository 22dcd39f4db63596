"""Unit tests for SpMM (sparse-dense multiply)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import (
    from_dense,
    random_csr,
    selection_matrix,
    spmm,
    spmm_row_entries,
    spmm_transpose_dense,
)


class TestSpMMCorrectness:
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    def test_matches_scipy(self, rng, density):
        a = random_csr(12, 9, density, rng=rng, dtype=np.float64)
        b = rng.standard_normal((9, 7))
        assert np.allclose(spmm(a, b), a.to_scipy() @ b, atol=1e-12)

    def test_empty_rows_give_zero_rows(self, rng):
        dense = np.zeros((5, 4))
        dense[2] = [1, 0, 2, 0]
        a = from_dense(dense)
        b = rng.standard_normal((4, 3))
        out = spmm(a, b)
        assert np.allclose(out[[0, 1, 3, 4]], 0)
        assert np.allclose(out[2], dense[2] @ b)

    def test_trailing_empty_rows(self, rng):
        dense = np.zeros((6, 3))
        dense[0] = [1, 2, 3]
        a = from_dense(dense)
        b = rng.standard_normal((3, 2))
        out = spmm(a, b)
        assert np.allclose(out[1:], 0)

    def test_single_column_b(self, rng):
        a = random_csr(5, 5, 0.5, rng=rng, dtype=np.float64)
        b = rng.standard_normal((5, 1))
        assert np.allclose(spmm(a, b), a.to_scipy() @ b)

    def test_wide_b_exceeding_block(self, rng):
        # exercises the 128-column blocking path
        a = random_csr(10, 20, 0.3, rng=rng, dtype=np.float64)
        b = rng.standard_normal((20, 300))
        assert np.allclose(spmm(a, b), a.to_scipy() @ b, atol=1e-12)

    def test_alpha_scaling(self, rng):
        a = random_csr(6, 6, 0.5, rng=rng, dtype=np.float64)
        b = rng.standard_normal((6, 4))
        assert np.allclose(spmm(a, b, alpha=-2.0), -2.0 * (a.to_scipy() @ b))

    def test_float32_accumulation(self, rng):
        a = random_csr(20, 20, 0.5, rng=rng, dtype=np.float32)
        b = rng.standard_normal((20, 5)).astype(np.float32)
        assert np.allclose(spmm(a, b), a.to_scipy() @ b, rtol=1e-5, atol=1e-5)

    def test_zero_column_output(self, rng):
        a = random_csr(4, 4, 0.5, rng=rng)
        out = spmm(a, np.zeros((4, 0), dtype=np.float32))
        assert out.shape == (4, 0)


class TestRowEntries:
    """One row of the product on a column subset: bitwise the full product's."""

    @pytest.mark.parametrize("budget", [None, 1, 5, 1000])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_bitwise_equal_to_full_product(self, rng, budget, dtype):
        a = random_csr(6, 40, 0.4, rng=rng, dtype=dtype)
        b = rng.standard_normal((40, 40)).astype(dtype)
        full = spmm(a, b, alpha=-2.0)
        cols = rng.permutation(40)[:17]
        for j in range(a.nrows):
            got = spmm_row_entries(a, j, b, cols, alpha=-2.0, budget_elems=budget)
            assert got.dtype == full.dtype
            assert got.tobytes() == full[j, cols].tobytes()

    def test_empty_row_and_no_columns(self, rng):
        dense = np.zeros((3, 4))
        dense[1] = [1.0, 0.0, 2.0, 0.0]
        a = from_dense(dense)
        b = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(spmm_row_entries(a, 0, b, np.arange(4)), np.zeros(4))
        assert spmm_row_entries(a, 1, b, np.arange(0)).shape == (0,)

    def test_b_promoted_to_a_dtype(self, rng):
        a = random_csr(4, 9, 0.5, rng=rng, dtype=np.float64)
        b = rng.standard_normal((9, 9)).astype(np.float32)
        full = spmm(a, b.astype(np.float64))
        got = spmm_row_entries(a, 2, b, np.arange(9))
        assert got.tobytes() == full[2].tobytes()

    @staticmethod
    def _long_rows(rng, dtype, sizes, n):
        """CSR rows with the given nonzero counts and weighted (non-uniform) values."""
        dense = np.zeros((len(sizes), n), dtype=dtype)
        for j, m in enumerate(sizes):
            idx = np.sort(rng.choice(n, m, replace=False))
            dense[j, idx] = rng.uniform(0.1, 3.0, m)
        return from_dense(dense)

    @pytest.mark.parametrize("budget", [None, 1, 300, 50_000])
    @pytest.mark.parametrize("alpha", [1.0, -2.0])
    @pytest.mark.parametrize(
        "a_dtype,b_dtype",
        [(np.float32, np.float32), (np.float64, np.float64), (np.float64, np.float32)],
        ids=["f32", "f64", "f64a-f32b"],
    )
    def test_long_weighted_rows_keep_the_summation_order(
        self, rng, budget, alpha, a_dtype, b_dtype
    ):
        """Rows past NumPy's 128-element pairwise split (up to 900 nonzeros)
        sum in the full product's order, whatever the gather's width."""
        n = 1000
        a = self._long_rows(rng, a_dtype, [300, 1, 900, 257, 0], n)
        b = rng.standard_normal((n, n)).astype(b_dtype)
        full = spmm(a, b, alpha=alpha)
        cols = rng.permutation(n)[:600]
        for j in range(a.nrows):
            got = spmm_row_entries(a, j, b, cols, alpha=alpha, budget_elems=budget)
            assert got.dtype == full.dtype
            assert got.tobytes() == full[j, cols].tobytes()

    def test_transposed_b_view(self, rng):
        """A transposed (F-ordered) ``b`` gathers to the same bits."""
        a = self._long_rows(rng, np.float32, [400, 130], 500)
        b = rng.standard_normal((500, 500)).astype(np.float32)
        full = spmm(a, b.T, alpha=-2.0)
        cols = rng.permutation(500)[:200]
        for j in range(a.nrows):
            got = spmm_row_entries(a, j, b.T, cols, alpha=-2.0, budget_elems=1000)
            assert got.tobytes() == full[j, cols].tobytes()


class TestSpMMInterface:
    def test_dimension_mismatch(self, rng):
        a = random_csr(3, 4, 0.5, rng=rng)
        with pytest.raises(ShapeError, match="mismatch"):
            spmm(a, np.ones((5, 2), dtype=np.float32))

    def test_b_must_be_2d(self, rng):
        a = random_csr(3, 4, 0.5, rng=rng)
        with pytest.raises(ShapeError):
            spmm(a, np.ones(4, dtype=np.float32))

    def test_out_parameter(self, rng):
        a = random_csr(5, 5, 0.5, rng=rng, dtype=np.float64)
        b = rng.standard_normal((5, 3))
        out = np.empty((5, 3), dtype=np.float64)
        res = spmm(a, b, out=out)
        assert res is out
        assert np.allclose(out, a.to_scipy() @ b)

    def test_out_wrong_shape_rejected(self, rng):
        a = random_csr(5, 5, 0.5, rng=rng, dtype=np.float64)
        b = rng.standard_normal((5, 3))
        with pytest.raises(ShapeError, match="out"):
            spmm(a, b, out=np.empty((5, 4)))

    def test_b_promoted_to_a_dtype(self, rng):
        a = random_csr(4, 4, 0.5, rng=rng, dtype=np.float64)
        b = rng.standard_normal((4, 2)).astype(np.float32)
        out = spmm(a, b)
        assert out.dtype == np.float64


class TestTransposedOrientation:
    def test_kvt_via_vk_transpose(self, rng):
        """E = K V^T equals (V K)^T for symmetric K — Popcorn's trick."""
        n, k = 25, 4
        x = rng.standard_normal((n, 3))
        k_mat = x @ x.T  # symmetric
        labels = rng.integers(0, k, n)
        v = selection_matrix(labels, k, dtype=np.float64)
        e = spmm_transpose_dense(v, k_mat)
        expect = k_mat @ v.to_dense().T
        assert e.shape == (n, k)
        assert np.allclose(e, expect, atol=1e-10)
        assert e.flags.c_contiguous

    def test_alpha_in_transpose(self, rng):
        a = random_csr(4, 6, 0.5, rng=rng, dtype=np.float64)
        b = rng.standard_normal((6, 6))
        got = spmm_transpose_dense(a, b, alpha=-2.0)
        assert np.allclose(got, (-2.0 * (a.to_scipy() @ b)).T)
