import dataclasses
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

import otfuse.transport as transport
from otfuse.errors import NumericalError, SinkhornUnderflowError, ValidationError
from otfuse.transport import (
    OtSolution,
    _jonker_volgenant,
    _lex_smallest_assignment,
    brute_force_ot,
    hard_permutation,
    identity_map,
    ot_objective,
    solve_exact,
    solve_sinkhorn,
    validate_transport_map,
)
from helpers import _lex_smallest_assignment as kuhn_lex_assignment
from helpers import reference_jonker_volgenant, reference_lap, reference_sinkhorn, sweeps_only_sinkhorn


def tie_panel_cost(rng, m: int, kind: int) -> np.ndarray:
    """An m x m cost of one of six kinds, most of them rich in ties."""
    if kind == 0:
        return rng.uniform(0, 1, (m, m))
    if kind == 1:
        return rng.integers(0, 3, (m, m)).astype(np.float64)
    if kind == 2:
        return np.zeros((m, m))
    if kind == 3:
        return rng.uniform(0, 1, (m, m))[rng.integers(0, m, m)]
    if kind == 4:
        return rng.uniform(0, 1, m)[:, None] + rng.uniform(0, 1, m)[None, :]
    # pruned-like: half the rows of A are zero and B permutes A's rows
    a = rng.standard_normal((m, 6))
    a[rng.permutation(m)[: m // 2]] = 0.0
    b = a[rng.permutation(m)]
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def naive_objective(t, d):
    acc = 0.0
    for i in range(t.shape[0]):
        for j in range(t.shape[1]):
            acc += t[i, j] * d[i, j]
    return acc


class TestObjective:
    def test_uniform_map_unit_cost(self):
        m = 4
        t = np.full((m, m), 1.0 / (m * m))
        assert ot_objective(t, np.ones((m, m))) == 1.0

    def test_identity_map_zero_diag(self):
        d = np.array([[0.0, 3.0], [4.0, 0.0]])
        assert ot_objective(identity_map(2), d) == 0.0

    def test_against_double_loop(self):
        rng = np.random.default_rng(7)
        t = rng.uniform(0, 1, (5, 5))
        d = rng.uniform(0, 9, (5, 5))
        assert abs(ot_objective(t, d) - naive_objective(t, d)) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ot_objective(identity_map(2), np.zeros((3, 3)))


class TestSolveExact:
    def test_zero_cost_diagonal(self):
        sol = solve_exact([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(sol.map, [[0.5, 0.0], [0.0, 0.5]])
        assert sol.objective == 0.0

    def test_zero_cost_anti_diagonal(self):
        sol = solve_exact([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(sol.map, [[0.0, 0.5], [0.5, 0.0]])
        assert sol.objective == 0.0

    def test_matches_brute_force_on_random(self):
        rng = np.random.default_rng(12)
        for m in range(2, 7):
            for _ in range(25):
                d = rng.uniform(0, 10, (m, m))
                a, b = solve_exact(d), brute_force_ot(d)
                assert abs(a.objective - b.objective) <= 1e-9
                assert np.array_equal(a.map, b.map)

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1.0, 1e3])
    def test_optimal_at_every_cost_scale(self, scale):
        rng = np.random.default_rng(16)
        for _ in range(40):
            m = int(rng.integers(2, 8))
            d = scale * rng.uniform(0, 1, (m, m))
            a, b = solve_exact(d), brute_force_ot(d)
            assert a.objective <= b.objective + 1e-9 * d.max()

    def test_tiny_costs_are_not_ties(self):
        sol = solve_exact(1e-10 * np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(sol.assignment, [1, 0])
        assert sol.objective == 0.0

    def test_vertex_property(self):
        rng = np.random.default_rng(13)
        for m in (2, 5, 9):
            d = rng.uniform(0, 5, (m, m))
            t = solve_exact(d).map
            assert ((t > 0).sum(axis=0) == 1).all()
            assert ((t > 0).sum(axis=1) == 1).all()
            assert np.array_equal(np.unique(t[t > 0]), [1.0 / m])

    def test_tie_break_lowest_index(self):
        # every assignment costs 2; identity is the lexicographically smallest
        sol = solve_exact(np.full((3, 3), 2.0 / 3.0))
        assert np.array_equal(sol.map, np.eye(3) / 3)

    def test_scale_equivariance_of_argmin(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            d = rng.uniform(0, 3, (5, 5))
            base = solve_exact(d)
            scaled = solve_exact(4.0 * d)
            assert np.array_equal(base.map, scaled.map)
            assert abs(scaled.objective - 4.0 * base.objective) <= 1e-9

    def test_marginals_always_feasible(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            m = int(rng.integers(1, 10))
            sol = solve_exact(rng.uniform(0, 1, (m, m)))
            validate_transport_map(sol.map)

    def test_objective_consistent_with_map(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            d = rng.uniform(0, 5, (m, m))
            for sol in (solve_exact(d), brute_force_ot(d), solve_sinkhorn(d, eps=0.2)):
                assert abs(sol.objective - ot_objective(sol.map, d)) <= 1e-10

    def test_iterations_count_searches_left_by_reductions(self):
        # column reduction alone assigns every row of a cost whose zero
        # diagonal is its only column minimum
        rng = np.random.default_rng(5)
        d = rng.uniform(0.5, 2, (12, 12))
        np.fill_diagonal(d, 0.0)
        assert solve_exact(d).iterations == 0

    @pytest.mark.parametrize("kind", ["uniform", "row distance"])
    def test_peak_memory_beyond_the_input(self, kind):
        # at width 256 the solve peaks at 1.36-1.42 m^2 float64 beyond its
        # input, all in the tie refinement's peel: the reduced costs
        # (1 m^2) and their bool zero graph (0.125 m^2) are held while the
        # peel gathers the dropped columns' and rows' slices of that graph
        # and sums them (0.21-0.28 m^2).  _jonker_volgenant's column-
        # permuted cost copy (1.06-1.11 m^2) is freed before them.
        # Forming the reduced costs as d - u - v in one expression kept a
        # second m x m temporary alive and peaked at 2.15 m^2
        m = 256
        rng = np.random.default_rng(13)
        if kind == "uniform":
            d = rng.uniform(0, 1, (m, m))
        else:
            x = rng.standard_normal((m, 32))
            d = transport.row_distance_matrix(x, x[rng.permutation(m)] + 0.3 * rng.standard_normal((m, 32)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve_exact(d)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * d.nbytes

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            solve_exact(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            solve_exact(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            solve_exact(np.array([[-1.0, 0.0], [0.0, 1.0]]))


class TestTieRefinement:
    def test_matches_kuhn_oracle_on_tie_heavy_integer_costs(self):
        rng = np.random.default_rng(31)
        for trial in range(80):
            m = int(rng.integers(2, 41))
            d = rng.integers(0, 1 + trial % 3, (m, m)).astype(np.float64)
            # integer costs keep the duals exact, so the zero graph is exact
            _, u, v, _ = _jonker_volgenant(d)
            zero = d - u[:, None] - v[None, :] <= 1e-9 * max(1.0, float(d.max()))
            assert np.array_equal(solve_exact(d).assignment, kuhn_lex_assignment(zero))

    def test_all_zero_cost_is_identity(self):
        for m in (1, 2, 17, 64, 256):
            sol = solve_exact(np.zeros((m, m)))
            assert np.array_equal(sol.map, np.eye(m) / m)
        # every assignment of a_i + b_j costs is optimal; rounding breaks
        # the ties by ulps, and at this draw the row reduction's bidding
        # rounds keep moving rows until their cap of 4 m row visits stops them
        rng = np.random.default_rng(2)
        d = rng.uniform(0, 1, 256)[:, None] + rng.uniform(0, 1, 256)[None, :]
        assert np.array_equal(solve_exact(d).map, np.eye(256) / 256)

    def test_warm_start_matches_reference_lap(self):
        rng = np.random.default_rng(41)
        panel = [(int(rng.integers(1, 49)), trial % 5) for trial in range(250)]
        # wider draws of the tie-heavy kinds; a_i + b_j only at m = 96, as
        # the reference is by far slowest on it
        panel += [(int(rng.integers(64, 257)), kind) for kind in (1, 3, 5, 1, 3, 5)]
        panel += [(96, 4)]
        for m, kind in panel:
            d = tie_panel_cost(rng, m, kind)
            tol = 1e-9 * max(1.0, float(d.max()))
            col, u, v, _ = _jonker_volgenant(d)
            reduced = d - u[:, None] - v[None, :]
            assert reduced.min() >= -tol
            assert np.abs(reduced[np.arange(m), col]).max() <= tol
            ref_col, ref_u, ref_v = reference_lap(d)
            ref_zero = d - ref_u[1:, None] - ref_v[None, 1:] <= tol
            expected = _lex_smallest_assignment(ref_zero, ref_col)
            assert np.array_equal(solve_exact(d).assignment, expected)

    def test_matching_outside_zero_graph_rejected(self):
        zero = np.eye(4, dtype=bool)
        with pytest.raises(NumericalError):
            _lex_smallest_assignment(zero, np.array([1, 0, 2, 3]))
        # a chain graph trims to no column; the matching check runs first
        zero = np.eye(5, dtype=bool) | np.eye(5, k=-1, dtype=bool)
        with pytest.raises(NumericalError):
            _lex_smallest_assignment(zero, np.array([0, 1, 3, 2, 4]))

    def test_chain_of_tight_edges_keeps_the_matching(self):
        # row i may also take row i - 1's column, but the alternating graph
        # is a chain with no cycle, so no row can move
        m = 9
        col = np.random.default_rng(3).permutation(m)  # relabels column c as col[c]
        zero = np.zeros((m, m), dtype=bool)
        zero[:, col] = np.eye(m, dtype=bool) | np.eye(m, k=-1, dtype=bool)
        assert np.array_equal(_lex_smallest_assignment(zero, col), col)
        assert np.array_equal(kuhn_lex_assignment(zero), col)

    def test_cycle_in_one_part_only_matches_kuhn_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(40):
            # columns 0-5 carry a chain, and columns 6-11 hold a dense tie
            # block around a random matching.  In the first 20 draws the
            # chain's rows have one-way edges into the block's columns; in
            # the last 20 the block's rows have one-way edges into the
            # chain's columns, which the peel drops while the rows stay
            m, k = 12, 6
            zero = np.zeros((m, m), dtype=bool)
            zero[np.arange(k), np.arange(k)] = True
            zero[np.arange(1, k), np.arange(k - 1)] = True
            if trial < 20:
                zero[:k, k:] = rng.random((k, m - k)) < 0.3
            else:
                zero[k:, :k] = rng.random((m - k, k)) < 0.3
            zero[k:, k:] = rng.random((m - k, m - k)) < 0.4
            col = np.arange(m)
            col[k:] = k + rng.permutation(m - k)
            zero[np.arange(m), col] = True
            given = zero.tobytes()
            assert np.array_equal(_lex_smallest_assignment(zero, col), kuhn_lex_assignment(zero))
            assert zero.tobytes() == given

    @pytest.mark.parametrize("m", [64, 128, 256])
    def test_twin_groups_give_one_result_from_any_start(self, m):
        rng = np.random.default_rng(1000 + m)
        planted = rng.permutation(m)
        zero = rng.random((m, m)) < 1.5 / m
        zero[np.arange(m), planted] = True
        rows = rng.permutation(m)
        # twin rows: a complete block of m // 4, as a pruned layer gives, and
        # two small groups sharing their edges; then twin columns, in two
        # groups matched to rows outside the block
        block = rows[: m // 4]
        zero[block] = False
        zero[np.ix_(block, planted[block])] = True
        row_groups = [block, *np.split(rows[m // 4 : m // 4 + 12], [2])]
        col_groups = np.split(planted[rows[m // 4 + 12 : m // 4 + 30]], [3])
        for g in row_groups[1:]:
            zero[g] = zero[g].any(axis=0)
        for g in col_groups:
            zero[:, g] = zero[:, g].any(axis=1)[:, None]
        expected = kuhn_lex_assignment(zero)
        given = zero.tobytes()
        for shuffle_rows, shuffle_cols in ((False, False), (True, False), (False, True), (True, True)):
            col = planted.copy()
            if shuffle_rows:
                for g in row_groups:
                    col[g] = col[rng.permutation(g)]
            if shuffle_cols:
                row_of = np.argsort(col)
                for g in col_groups:
                    row_of[g] = row_of[rng.permutation(g)]
                col[row_of] = np.arange(m)
            assert np.array_equal(_lex_smallest_assignment(zero, col), expected)
            assert zero.tobytes() == given

    @pytest.mark.parametrize("m", [96, 128])
    def test_one_side_pruned_matches_reference_lap(self, m):
        # half of A's rows zeroed against a dense B: the zeroed rows have one
        # cost row, so they are twin rows; B against A gives twin columns.
        # The Kuhn oracle takes about 24 s at m = 256, so m stays small
        rng = np.random.default_rng(2000 + m)
        a, b = rng.standard_normal((m, 8)), rng.standard_normal((m, 8))
        a[rng.permutation(m)[: m // 2]] = 0.0
        for d in (transport.row_distance_matrix(a, b), transport.row_distance_matrix(b, a)):
            tol = 1e-9 * float(d.max())
            _, ref_u, ref_v = reference_lap(d)
            ref_zero = d - ref_u[1:, None] - ref_v[None, 1:] <= tol
            assert np.array_equal(solve_exact(d).assignment, kuhn_lex_assignment(ref_zero))

    @pytest.mark.parametrize("m", [64, 256, 1024])
    def test_objective_matches_scipy(self, m):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(m)
        for d in (rng.uniform(0, 1, (m, m)), rng.integers(0, m, (m, m)).astype(np.float64)):
            rows, cols = scipy_optimize.linear_sum_assignment(d)
            expected = d[rows, cols].sum() / m
            assert solve_exact(d).objective == pytest.approx(expected, rel=1e-9, abs=0.0)


def assert_matches_jv_oracle(d: np.ndarray) -> int:
    """``_jonker_volgenant`` returns the oracle's assignment, duals and
    search count, bit for bit; returns the search count."""
    got = _jonker_volgenant(d)
    want = reference_jonker_volgenant(d)
    assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2].tobytes() == want[2].tobytes()
    assert got[3] == want[3]
    return got[3]


class TestJonkerVolgenantOracle:
    """Phase 3 scans reordered columns and rebuilds predecessors after each
    search; its output must not move by a bit."""

    def test_tie_panel_matches_oracle_bit_for_bit(self):
        rng = np.random.default_rng(43)
        panel = [(int(rng.integers(1, 49)), trial % 6) for trial in range(300)]
        panel += [(int(rng.integers(64, 257)), kind) for kind in (1, 3, 5)] + [(96, 4)]
        searches = [assert_matches_jv_oracle(tie_panel_cost(rng, m, kind)) for m, kind in panel]
        assert sum(s > 0 for s in searches) > 100

    def test_benchmark_shaped_costs_match_oracle(self):
        rng = np.random.default_rng(7)
        # width-256 dense layers, input width 8 and 256, as align_wide's
        for k in (8, 256):
            d = transport.row_distance_matrix(rng.standard_normal((256, k)), rng.standard_normal((256, k)))
            assert assert_matches_jv_oracle(d) > 0
        # width-128 layers with half the units zeroed, as align_pruned's
        for _ in range(2):
            a, b = rng.standard_normal((2, 128, 128))
            a[rng.permutation(128)[:64]] = 0.0
            b[rng.permutation(128)[:64]] = 0.0
            assert assert_matches_jv_oracle(transport.row_distance_matrix(a, b)) > 0

    def test_tie_repick_matches_oracle(self):
        # A search's argmin lands on a column that was free when phase 3
        # began and is assigned now; the tie rule must pick a free column
        # tied with it, or a lower assigned one.  Skipping either half of
        # that repick changes the output.
        d = np.array([
            [0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0],
            [0, 2, 2, 2, 0, 2, 1, 1, 2, 0, 2],
            [1, 2, 2, 0, 0, 0, 0, 0, 1, 2, 2],
            [2, 0, 0, 1, 1, 1, 1, 2, 1, 2, 0],
            [2, 2, 0, 0, 0, 0, 0, 2, 2, 1, 2],
            [1, 1, 0, 1, 1, 2, 1, 0, 0, 1, 2],
            [0, 0, 2, 1, 2, 2, 1, 2, 0, 1, 0],
            [0, 1, 0, 1, 0, 0, 2, 2, 2, 0, 2],
            [1, 2, 1, 0, 0, 1, 1, 2, 2, 0, 2],
            [0, 0, 1, 1, 2, 1, 2, 0, 2, 1, 0],
            [2, 0, 0, 1, 0, 2, 2, 2, 2, 0, 1],
        ], dtype=np.float64)
        assert assert_matches_jv_oracle(d) > 0


class TestBruteForce:
    def test_single_entry(self):
        sol = brute_force_ot([[3.5]])
        assert np.array_equal(sol.map, [[1.0]])
        assert sol.objective == 3.5

    def test_matches_exact_small(self):
        sol = brute_force_ot([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(sol.map, solve_exact([[0.0, 1.0], [1.0, 0.0]]).map)

    def test_minimizes_over_all_permutations(self):
        import itertools

        rng = np.random.default_rng(16)
        d = rng.uniform(0, 7, (4, 4))
        best = brute_force_ot(d).objective
        rows = np.arange(4)
        for perm in itertools.permutations(range(4)):
            assert best <= d[rows, perm].sum() / 4 + 1e-12

    def test_side_limit(self):
        with pytest.raises(ValidationError):
            brute_force_ot(np.zeros((9, 9)))


class TestPermutationRecord:
    def test_record_is_its_assignment(self):
        # continuous, tie-heavy integer and repeated-row costs; the last
        # are tied by whole rows
        rng = np.random.default_rng(23)
        draws = []
        for m in (1, 2, 5, 31, 128, 256):
            rows = rng.uniform(0, 10, (max(1, m // 4), m))
            draws += [
                (solve_exact, rng.uniform(0, 10, (m, m))),
                (solve_exact, rng.integers(0, 3, (m, m)).astype(np.float64)),
                (solve_exact, rows[rng.integers(0, len(rows), m)]),
            ]
        for m in range(1, 9):
            draws += [
                (brute_force_ot, rng.uniform(0, 10, (m, m))),
                (brute_force_ot, rng.integers(0, 3, (m, m)).astype(np.float64)),
            ]
        for solve, d in draws:
            sol = solve(d)
            m = len(d)
            assert all(np.ndim(getattr(sol, f.name)) < 2 for f in dataclasses.fields(sol))
            assert sol.objective == float(d[np.arange(m), sol.assignment].sum()) / m
            t = np.zeros((m, m))
            t[np.arange(m), sol.assignment] = 1.0 / m
            assert sol.map.tobytes() == t.tobytes()


class TestSinkhorn:
    def test_all_zero_cost_max_entropy(self):
        sol = solve_sinkhorn(np.zeros((2, 2)))
        assert np.allclose(sol.map, 0.25, atol=1e-12)
        assert sol.converged

    def test_small_eps_approaches_exact(self):
        sol = solve_sinkhorn([[0.0, 1.0], [1.0, 0.0]], eps=0.01)
        exact = solve_exact([[0.0, 1.0], [1.0, 0.0]])
        assert np.abs(sol.map - exact.map).max() <= 1e-3

    def test_objective_lower_bounded_by_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            m = int(rng.integers(2, 7))
            d = rng.uniform(0, 4, (m, m))
            eps = float(rng.uniform(0.005, 0.5)) * float(d.mean())
            sink = solve_sinkhorn(d, eps=eps, max_iter=20000)
            assert sink.objective >= solve_exact(d).objective - 1e-9

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(18)
        for _ in range(15):
            d = rng.uniform(0, 4, (4, 4))
            obj = [
                solve_sinkhorn(d, eps=e, max_iter=50000).objective
                for e in (0.01, 0.05, 0.2, 1.0)
            ]
            for small, big in zip(obj, obj[1:]):
                assert small <= big + 1e-9

    def test_marginals_within_tol(self):
        rng = np.random.default_rng(19)
        d = rng.uniform(0, 2, (6, 6))
        sol = solve_sinkhorn(d, eps=0.1, tol=1e-10)
        t = sol.map
        assert np.abs(t.sum(axis=1) - 1 / 6).max() <= 1e-10
        assert np.abs(t.sum(axis=0) - 1 / 6).max() <= 1e-10

    @pytest.mark.parametrize("eps", [
        float("nan"), float("inf"), 0.0, -1.0, "0.1", True, 1 + 0j, pytest.param(10**400, id="int-past-float"),
    ])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(ValidationError):
            solve_sinkhorn(np.eye(3), eps=eps)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0, "1e-9", [1e-9]])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValidationError):
            solve_sinkhorn(np.eye(3), tol=tol)

    @pytest.mark.parametrize("max_iter", [2.5, 10.0, "10", None, 0, -1, True, False])
    def test_max_iter_must_be_a_positive_integer(self, max_iter):
        with pytest.raises(ValidationError):
            solve_sinkhorn(np.eye(3), max_iter=max_iter)

    @pytest.mark.parametrize("breakdown", ["zero row", "inf entry"])
    def test_breakdown_in_the_sweeps_raises(self, monkeypatch, breakdown):
        # a kernel row of zeros makes a row sum 0; an inf entry makes one
        # overflow.  Either reaches the residual in the first sweep: the
        # solve raises long before max_iter, and no RuntimeWarning escapes
        kernel = transport._kernel

        def broken(*a):
            k = kernel(*a)
            if breakdown == "zero row":
                k[1] = 0.0
            else:
                k[1, 2] = np.inf
            return k

        monkeypatch.setattr(transport, "_kernel", broken)
        d = np.random.default_rng(25).uniform(0, 1, (6, 6))
        for max_iter in (2, 10000):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SinkhornUnderflowError, match="row or column sum"):
                    solve_sinkhorn(d, eps=0.1, max_iter=max_iter)

    def test_max_iter_exhaustion_flags_not_raises(self):
        rng = np.random.default_rng(20)
        d = rng.uniform(0, 2, (5, 5))
        sol = solve_sinkhorn(d, eps=0.001, tol=1e-14, max_iter=2)
        assert isinstance(sol, OtSolution)
        assert not sol.converged
        assert sol.iterations == 2

    def test_log_domain_handles_tiny_eps(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        sol = solve_sinkhorn(d, eps=1e-4)
        assert sol.converged
        assert np.abs(sol.map - [[0.5, 0.0], [0.0, 0.5]]).max() <= 1e-6

    def test_underflow_reports_eps_too_small(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SinkhornUnderflowError):
            solve_sinkhorn(d, eps=1e-310)

    def test_adaptive_eps_default(self):
        rng = np.random.default_rng(21)
        d = rng.uniform(0.5, 2, (4, 4))
        sol = solve_sinkhorn(d)
        assert sol.solver.startswith("sinkhorn(eps=")
        # whatever the convergence flag says, the returned map is feasible
        validate_transport_map(sol.map)

    def test_unconverged_map_still_feasible(self):
        rng = np.random.default_rng(22)
        d = rng.uniform(0, 3, (5, 5))
        sol = solve_sinkhorn(d, eps=0.003, tol=1e-12, max_iter=5)
        assert not sol.converged
        validate_transport_map(sol.map)
        assert sol.objective >= solve_exact(d).objective - 1e-9


def gibbs_misfit(t, scaled):
    """Least-squares fit of ``log t_ij + scaled_ij = f_i + g_j`` over the
    entries of ``t`` above underflow: the largest residual, and how many
    equations the fit leaves over (none when the entries form a forest, and
    any ``t`` fits)."""
    m = t.shape[0]
    i, j = np.nonzero(t >= np.finfo(np.float64).tiny)
    a = np.zeros((i.size, 2 * m))
    a[np.arange(i.size), i] = 1.0
    a[np.arange(i.size), m + j] = 1.0
    b = np.log(t[i, j]) + scaled[i, j]
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    return np.abs(a @ x - b).max(), i.size - rank


class TestSinkhornReference:
    def test_matches_two_path_reference(self, monkeypatch):
        # eps from 1e-5 to 1 times the mean cost covers both of the
        # reference's paths (plain kernel, and log domain past
        # max(cost) / eps = 700) and draws where the scalings are absorbed;
        # half the costs are uniform, half compare rows with a noisy
        # permutation of themselves, as alignment does; max_iter=1000 keeps
        # the draws that never converge cheap
        builds, polishes, unrounded = [], [], []
        kernel, polish, round_ = transport._kernel, transport._newton_polish, transport._round_to_polytope

        def uncounted_polish(*a):
            # the polish forms its own couplings; only the kernel rebuilt
            # after it is counted, so builds past that are absorptions
            polishes.append(1)
            with monkeypatch.context() as inner:
                inner.setattr(transport, "_kernel", kernel)
                return polish(*a)

        monkeypatch.setattr(transport, "_kernel", lambda *a: builds.append(1) or kernel(*a))
        monkeypatch.setattr(transport, "_newton_polish", uncounted_polish)
        monkeypatch.setattr(transport, "_round_to_polytope", lambda t: unrounded.append(t) or round_(t))
        rng = np.random.default_rng(23)
        log_domain = absorbed = converged = polished = certified = 0
        for k in range(40):
            m = int(rng.integers(2, 33))
            if k % 2:
                d = rng.uniform(0, 1, (m, m))
            else:
                x = rng.standard_normal((m, 4))
                y = x[rng.permutation(m)] + 0.1 * rng.standard_normal((m, 4))
                d = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
            eps = float(10 ** rng.uniform(-5, 0)) * float(d.mean())
            builds.clear()
            polishes.clear()
            unrounded.clear()
            sol = solve_sinkhorn(d, eps=eps, max_iter=1000)
            ref = reference_sinkhorn(d, eps=eps, max_iter=1000)
            log_domain += d.max() / eps > 700
            absorbed += len(builds) > 1 + len(polishes)
            if ref.converged:
                converged += 1
                assert sol.converged
                assert np.abs(sol.map - ref.map).max() <= 1e-7 / m
            elif sol.converged:
                # the Newton polish converges draws that 1000 reference
                # sweeps leave short: the map meets tol before rounding and
                # is a scaled Gibbs kernel exp(f_i + g_j - d_ij / eps), the
                # unique entropic optimum with these marginals (Sinkhorn,
                # 1967); a coupling off that form fails the fit
                polished += 1
                (t,) = unrounded
                assert np.abs(t.sum(axis=1) - 1 / m).max() <= 1e-9
                assert np.abs(t.sum(axis=0) - 1 / m).max() <= 1e-9
                misfit, spare = gibbs_misfit(t, d / eps)
                assert misfit <= 1e-9
                if spare:
                    certified += 1
                    noise = np.random.default_rng(k).standard_normal(t.shape)
                    mutated = t * np.exp(1e-6 * noise)
                    assert gibbs_misfit(mutated, d / eps)[0] > 1e-7
        assert 0 < log_domain < 40 and absorbed > 0 and converged > 0
        assert polished > 0 and certified > 0


class TestNewtonPolish:
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_default_eps_converges_in_few_sweeps(self, m):
        # the sweeps alone need over 1000 on each of these draws, and five
        # of them run all 10000 without converging
        rng = np.random.default_rng(m)
        for _ in range(3):
            sol = solve_sinkhorn(rng.uniform(0, 1, (m, m)))
            assert sol.converged
            assert sol.iterations < 1000

    @pytest.mark.parametrize("m, eps", [(6, 0.5), (32, 0.01)])
    def test_unstalled_solve_matches_sweeps_bit_for_bit(self, monkeypatch, m, eps):
        # (6, 0.5) converges before the first stall check; (32, 0.01) takes
        # 185 sweeps, over-relaxed from sweep 51 on, and each later check
        # finds the residual about 200 times smaller
        def no_polish(*a):
            raise AssertionError("the stall test fired")

        monkeypatch.setattr(transport, "_newton_polish", no_polish)
        d = np.random.default_rng(24).uniform(0, 1, (m, m))
        sol = solve_sinkhorn(d, eps=eps)
        t, sweeps, converged = sweeps_only_sinkhorn(d, eps=eps)
        assert sol.converged and converged
        assert sol.iterations == sweeps
        assert np.array_equal(sol.map, t)
        if m == 32:
            assert sweeps > 3 * transport._STALL_EVERY

    def test_underflowed_entry_still_converges(self):
        # exp(-1000) underflows to 0, so the kernel is triangular and the
        # sweeps close the gap only sublinearly; Newton drives the last
        # off-diagonal entry to zero
        sol = solve_sinkhorn([[0.0, 0.0], [1.0, 0.0]], eps=1e-3)
        assert sol.converged
        assert sol.iterations < 1000
        assert np.abs(sol.map - np.eye(2) / 2).max() <= 1e-9

    def test_disconnected_blocks_converge(self):
        # two such triangular blocks with exactly zero coupling between
        # them: the Schur complement has a second null direction, which
        # the ridge damps
        block = np.array([[0.0, 0.0], [1.0, 0.0]])
        d = np.block([[block, np.ones((2, 2))], [np.ones((2, 2)), block]])
        sol = solve_sinkhorn(d, eps=1e-3)
        assert sol.converged
        assert sol.iterations < 1000
        assert np.abs(sol.map - np.eye(4) / 4).max() <= 1e-9

    def test_failed_polish_falls_back_to_sweeps(self, monkeypatch):
        # at eps = 1e-3 * mean(cost) the kernel entries of the optimal
        # assignment underflow and no halving of the first Newton step
        # lowers the residual, so the sweeps carry on to max_iter: the map
        # comes back feasible but flagged
        calls = []
        polish = transport._newton_polish
        monkeypatch.setattr(transport, "_newton_polish", lambda *a: calls.append(1) or polish(*a))
        d = np.array([[0.94, 0.51, 0.98], [0.08, 0.61, 0.38], [0.8, 0.17, 0.87]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_sinkhorn(d, eps=1e-3 * d.mean(), max_iter=1000)
        assert calls == [1]
        assert not sol.converged
        assert sol.iterations == 1000
        validate_transport_map(sol.map)


class TestOverRelaxation:
    def test_tie_heavy_cost_converges_at_default_eps(self):
        # pruned-style rows: half the rows of each side are zero, so a
        # quarter of the cost is exactly 0.  Plain sweeps and the polish
        # ran all 10000 sweeps on this cost without converging
        rng = np.random.default_rng(1)
        a = rng.standard_normal((64, 16))
        b = a[rng.permutation(64)] + rng.standard_normal((64, 16))
        a[rng.permutation(64)[:32]] = 0.0
        b[rng.permutation(64)[:32]] = 0.0
        d = transport.row_distance_matrix(a, b)
        assert (d == 0).mean() == 0.25
        sol = solve_sinkhorn(d)
        assert sol.converged
        assert sol.iterations < 1000

    def test_default_eps_draw_takes_fewer_sweeps(self, monkeypatch):
        # the residual falls 22-fold by the first check, so the sweeps are
        # over-relaxed from then on; plain sweeps take 171 on this draw
        def no_polish(*a):
            raise AssertionError("the stall test fired")

        monkeypatch.setattr(transport, "_newton_polish", no_polish)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((32, 16))
        y = x[rng.permutation(32)] + 3.0 * rng.standard_normal((32, 16))
        d = transport.row_distance_matrix(x, y)
        sol = solve_sinkhorn(d)
        assert sol.converged
        assert sol.iterations == 93
        _, plain, converged = sweeps_only_sinkhorn(d, eps=0.01 * float(d.mean()), relax=False)
        assert converged and plain == 171

    def test_absorption_while_relaxed_matches_sweeps_bit_for_bit(self, monkeypatch):
        # over-relaxed from sweep 51, the scalings pass _ABSORB_ABOVE in
        # sweep 68, and the next sweep reads the rebuilt kernel's row sums;
        # 99 sweeps stop short of the second stall check
        builds = []
        kernel = transport._kernel
        monkeypatch.setattr(transport, "_kernel", lambda *a: builds.append(1) or kernel(*a))
        d = np.random.default_rng(1).uniform(0, 1, (12, 12))
        eps = 1e-3 * float(d.mean())
        sol = solve_sinkhorn(d, eps=eps, max_iter=99)
        t, sweeps, converged = sweeps_only_sinkhorn(d, eps=eps, max_iter=99)
        assert len(builds) == 2
        assert not sol.converged and not converged
        assert sol.iterations == sweeps == 99
        assert np.array_equal(sol.map, t)
        assert not np.array_equal(t, sweeps_only_sinkhorn(d, eps=eps, max_iter=99, relax=False)[0])

    def test_non_finite_relaxed_step_falls_back_to_plain_sweeps(self, monkeypatch):
        # a NaN in the first over-relaxed sweep's column sums: the solve
        # neither raises nor keeps it, but redoes that sweep plain from the
        # iterate before it and stays plain, so it matches the plain sweeps
        # bit for bit (155 sweeps, where over-relaxed ones converge in 79)
        calls = []

        class Flaky(np.ndarray):
            def __matmul__(self, other):
                out = np.asarray(self) @ other
                if not self.flags.c_contiguous:  # kernel.T, once per sweep
                    calls.append(1)
                    if len(calls) == transport._STALL_EVERY + 1:
                        out[0] = np.nan
                return out

        kernel = transport._kernel
        monkeypatch.setattr(transport, "_kernel", lambda *a: kernel(*a).view(Flaky))
        d = np.random.default_rng(24).uniform(0, 1, (32, 32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_sinkhorn(d, eps=0.02)
        t, sweeps, converged = sweeps_only_sinkhorn(d, eps=0.02, relax=False)
        assert len(calls) == sweeps + 1  # one per plain sweep, and the failed step's
        assert sol.converged and converged
        assert sol.iterations == sweeps == 155
        assert np.array_equal(sol.map, t)


# sha256 of the coupling's bytes, the objective, the sweeps and the
# converged flag of solve_sinkhorn on uniform(0, 1) costs, recorded before
# the sweep loop dropped its per-sweep checks of kv and ku; "stall and
# polish" and "exhausts max_iter" were re-recorded when the sweeps past the
# first stall check became over-relaxed.  Each case takes one path of the
# loop; like the CLI Sinkhorn pins, these also fix numpy's
# exp and log, and the BLAS matrix-vector sums, to the last bit.
SINKHORN_PANEL = {
    "converges early": (
        (1, 2, 1.0, 10000),
        ("dcc5e121f336391b118088b285841bce5e4b94e6e8d099389e0a15d8a737fbc1", 0.6257665071640023, 6, True),
    ),
    "stall and polish": (
        (3, 16, None, 10000),
        ("b01d5835be659050539eb840658eb53b439370328d3c5afa17dda91f155072e7", 0.10191119550922725, 201, True),
    ),
    "absorbed": (
        (0, 32, 1e-4, 400),
        ("95f1c3f8639d7954e407a6241933543cb8b6e3208783c77670255530276beaeb", 0.07587002968257874, 400, False),
    ),
    "exhausts max_iter": (
        (8, 64, None, 60),
        ("3227f59aefa5f4f3c1cc7293f55a631309d78b3e1a40bf77b6ff24f3bc270e7d", 0.03275722996322747, 60, False),
    ),
}


class TestSinkhornPanelPin:
    @pytest.mark.parametrize("case", list(SINKHORN_PANEL))
    def test_panel_is_bit_identical(self, monkeypatch, case):
        (seed, m, rel_eps, max_iter), pinned = SINKHORN_PANEL[case]
        builds, polishes = [], []
        kernel, polish = transport._kernel, transport._newton_polish

        def uncounted_polish(*a):
            polishes.append(1)
            with monkeypatch.context() as inner:
                inner.setattr(transport, "_kernel", kernel)
                return polish(*a)

        monkeypatch.setattr(transport, "_kernel", lambda *a: builds.append(1) or kernel(*a))
        monkeypatch.setattr(transport, "_newton_polish", uncounted_polish)
        d = np.random.default_rng(seed).uniform(0, 1, (m, m))
        eps = None if rel_eps is None else rel_eps * float(d.mean())
        sol = solve_sinkhorn(d, eps=eps, max_iter=max_iter)
        digest = hashlib.sha256(sol.map.tobytes()).hexdigest()
        assert (digest, sol.objective, sol.iterations, sol.converged) == pinned
        # the case takes the path its name says
        if case == "converges early":
            assert sol.iterations < transport._STALL_EVERY and not polishes
        elif case == "stall and polish":
            assert polishes == [1] and len(builds) == 2
        elif case == "absorbed":
            assert len(builds) > 1 + len(polishes)
        else:
            assert not polishes and builds == [1]


class TestTransportMapValidation:
    def test_negative_entry_rejected(self):
        t = np.eye(2) / 2
        t[0, 1] = -1e-3
        t[0, 0] += 1e-3
        with pytest.raises(ValidationError):
            validate_transport_map(t)

    def test_bad_marginals_rejected(self):
        with pytest.raises(ValidationError):
            validate_transport_map(np.eye(2))

    def test_hard_permutation_detection(self):
        sol = solve_exact([[0.0, 1.0], [1.0, 0.0]])
        p = hard_permutation(sol.map)
        assert np.array_equal(p, np.eye(2))
        soft = solve_sinkhorn(np.zeros((2, 2)))
        assert hard_permutation(soft.map) is None

    def test_hard_permutation_of_one_by_one_map(self):
        assert np.array_equal(hard_permutation(identity_map(1)), np.eye(1))

    @pytest.mark.parametrize("check", [solve_exact, brute_force_ot, solve_sinkhorn, validate_transport_map])
    def test_empty_matrix_rejected(self, check):
        with pytest.raises(ValidationError):
            check(np.zeros((0, 0)))
