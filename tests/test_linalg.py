import tracemalloc

import numpy as np
import pytest

from otfuse.errors import ValidationError
from otfuse.linalg import matmul, row_distance_matrix, transpose


def naive_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), a), a)

    def test_projector(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(matmul(p, b), [[5.0, 6.0], [0.0, 0.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        np.testing.assert_allclose(matmul(a, b), naive_matmul(a, b), atol=1e-12)

    def test_large_random_against_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((64, 33))
        b = rng.standard_normal((33, 64))
        got = matmul(a, b)
        ref = naive_matmul(a, b)
        denom = np.maximum(np.abs(ref), 1.0)
        assert (np.abs(got - ref) / denom).max() <= 1e-12

    def test_dimension_mismatch_reports_both_shapes(self):
        with pytest.raises(ValidationError, match=r"2x3.*4x2"):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            matmul(np.array([[np.nan, 0.0]]), np.zeros((2, 1)))


class TestTranspose:
    def test_small(self):
        assert np.array_equal(
            transpose([[1.0, 2.0], [3.0, 4.0]]), [[1.0, 3.0], [2.0, 4.0]]
        )

    def test_involution(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 7))
        assert np.array_equal(transpose(transpose(a)), a)

    def test_row_to_column(self):
        assert transpose([[1.0, 2.0, 3.0]]).shape == (3, 1)


class TestRowDistanceMatrix:
    def test_swap_example(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[1.0, 1.0], [0.0, 0.0]])
        d = row_distance_matrix(a, b)
        np.testing.assert_allclose(
            d, [[np.sqrt(2.0), 0.0], [0.0, np.sqrt(2.0)]], atol=1e-12
        )
        assert d[0, 1] == 0.0 and d[1, 0] == 0.0

    def test_self_distance_zero_diagonal_exact(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 4))
        d = row_distance_matrix(a, a)
        assert np.array_equal(np.diag(d), np.zeros(6))

    def test_pythagorean(self):
        assert row_distance_matrix([[3.0, 4.0]], [[0.0, 0.0]])[0, 0] == 5.0

    def test_argument_swap_transposes(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((5, 3))
        np.testing.assert_allclose(
            row_distance_matrix(a, b), row_distance_matrix(b, a).T, atol=1e-12
        )

    @pytest.mark.parametrize(
        "m, ks",
        [pytest.param(m, (1, 7, 24), id=str(m)) for m in (1, 15, 16, 17, 33)]
        + [pytest.param(100, (100,), id="100x100"), pytest.param(181, (200,), id="181x200")],
    )
    def test_row_blocks_match_one_shot_formula(self, m, ks):
        # the blocked build must be bit-identical to forming every
        # difference at once: whole-matrix blocks, blocks of 3 rows of a
        # that do not divide m (100x100), and one row of a against part of
        # b (181x200)
        rng = np.random.default_rng(100 + m)
        for k in ks:
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((m, k))
            diff = a[:, None, :] - b[None, :, :]
            expected = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            assert np.array_equal(row_distance_matrix(a, b), expected)

    @pytest.mark.parametrize(
        "m, k",
        [pytest.param(m, 5, id=str(m)) for m in (1, 15, 16, 17, 33)]
        + [pytest.param(m, k, id=f"{m}x{k}") for m, k in ((100, 100), (181, 200), (300, 300))],
    )
    def test_row_blocks_keep_exact_zeros(self, m, k):
        rng = np.random.default_rng(200 + m)
        a = rng.standard_normal((m, k))
        b = a[::-1].copy()
        d = row_distance_matrix(a, b)
        rows = np.arange(m)
        assert (d[rows, m - 1 - rows] == 0.0).all()

    def test_memory_stays_near_the_result(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((512, 512))
        b = rng.standard_normal((512, 512))
        tracemalloc.start()
        try:
            row_distance_matrix(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 512 * 8 + 2**20  # the 2 MiB result plus 1 MiB

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            row_distance_matrix(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            row_distance_matrix(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_non_negative_and_finite(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.uniform(-10, 10, (4, 6))
            b = rng.uniform(-10, 10, (4, 6))
            d = row_distance_matrix(a, b)
            assert (d >= 0).all() and np.isfinite(d).all()
