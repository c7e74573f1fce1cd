"""The row-distance cost ``otfuse.transport.row_distance_matrix``: the one
piece of dense linear algebra otfuse computes beyond plain numpy products."""

import tracemalloc

import numpy as np
import pytest

from helpers import trained_pair
from otfuse.errors import ValidationError
from otfuse.transport import row_distance_matrix, solve_exact

U = 2.0**-53  # float64 unit roundoff


def explicit_distances(a, b):
    """The oracle: each distance from its explicit difference, a row at a time."""
    out = np.empty((len(a), len(b)))
    for i in range(len(a)):
        diff = a[i] - b
        out[i] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return out


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
    def test_matches_explicit_differences(self, m, ks):
        # rows of norm 1e-6 to 1e3; b permutes a's rows, nudging each by a
        # relative 1e-14 to 1, so the repaired, near-threshold and Gram-form
        # entries all occur; every third row of both is zero
        rng = np.random.default_rng(100 + m)
        for k in ks:
            a = 10.0 ** rng.uniform(-6, 3, (m, 1)) * rng.standard_normal((m, k))
            b = a[rng.permutation(m)]
            nudge = 10.0 ** rng.uniform(-14, 0, (m, 1)) * rng.standard_normal((m, k))
            b = b + nudge * np.abs(b).max(axis=1, keepdims=True)
            b[: m // 3] = a[: m // 3]  # exact duplicates
            a[::3] = 0.0
            b[1::3] = 0.0
            got, ref = row_distance_matrix(a, b), explicit_distances(a, b)
            assert np.array_equal(got[ref == 0.0], ref[ref == 0.0])
            # the docstring's bound, plus the oracle's own rounding
            rtol = 2e6 * (k + 2) * U + U + (k + 2) * U
            assert (np.abs(got - ref) <= rtol * ref).all()

    @pytest.mark.parametrize("m", [128, 256])
    @pytest.mark.parametrize("panel", ["tie_heavy", "trained"])
    def test_exact_assignments_match_explicit_costs(self, m, panel):
        if panel == "tie_heavy":
            rng = np.random.default_rng(m)
            a = rng.standard_normal((m, m))
            a[rng.permutation(m)[: m // 2]] = 0.0
            pairs = [(a, a[rng.permutation(m)])]
        else:
            net_a, net_b, _ = trained_pair(seed=m, epochs=10, hidden=m)
            pairs = [(la.w, lb.w) for la, lb in zip(net_a.layers[:-1], net_b.layers[:-1])]
        for a, b in pairs:
            got = solve_exact(row_distance_matrix(a, b)).map
            assert np.array_equal(got, solve_exact(explicit_distances(a, b)).map)

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
