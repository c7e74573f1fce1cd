import numpy as np
import pytest

from helpers import forward, permutation_matrix, permuted_twin, random_checkpoint, trained_pair
from otfuse import fusion
from otfuse.errors import ValidationError
from otfuse.fusion import (
    AlignmentOptions,
    align,
    direct_average,
    fuse,
)
from otfuse.nets import LayerSpec, max_weight_difference
from otfuse.transport import (
    brute_force_ot,
    solve_exact,
    solve_sinkhorn,
    validate_transport_map,
)


def three_layer_specs(in_dim=6, hidden=10, classes=4, activation="relu"):
    return (
        LayerSpec(in_dim, hidden, activation),
        LayerSpec(hidden, hidden, activation),
        LayerSpec(hidden, classes, "identity"),
    )


class TestSelfAlignment:
    def test_maps_are_identity_and_model_reproduced(self):
        rng = np.random.default_rng(0)
        m = random_checkpoint(rng, three_layer_specs())
        result = align(m, m)
        for layer in result.layers:
            assert np.array_equal(layer.map, np.eye(len(layer.map)) / len(layer.map))
        assert max_weight_difference(result.aligned, m) <= 1e-12
        assert all(layer.objective == 0.0 for layer in result.layers)

    def test_self_fusion_is_bit_exact(self):
        rng = np.random.default_rng(1)
        m = random_checkpoint(rng, three_layer_specs())
        fused = fuse(align(m, m).aligned, m, 0.5)
        for la, lb in zip(fused.layers, m.layers):
            assert np.array_equal(la.w, lb.w)
            assert np.array_equal(la.b, lb.b)
        x = rng.standard_normal(6)
        assert np.array_equal(forward(fused, x), forward(m, x))


class TestPermutationRecovery:
    def test_exact_recovery_of_hidden_permutations(self):
        rng = np.random.default_rng(2)
        original = random_checkpoint(rng, three_layer_specs(hidden=16))
        perms = [rng.permutation(16), rng.permutation(16)]
        twin = permuted_twin(original, perms)
        result = align(twin, original)
        for layer, perm in zip(result.layers[:-1], perms):
            assert np.array_equal(layer.map, permutation_matrix(perm) / 16)
        assert max_weight_difference(result.aligned, original) <= 1e-9
        for _ in range(20):
            x = rng.standard_normal(6)
            assert np.abs(forward(result.aligned, x) - forward(original, x)).max() <= 1e-9

    def test_aligned_twin_preserves_function_of_twin(self):
        # hard maps only permute units, so the aligned model computes the
        # same function as the model it was built from
        rng = np.random.default_rng(3)
        original = random_checkpoint(rng, three_layer_specs(hidden=12))
        twin = permuted_twin(original, [rng.permutation(12), rng.permutation(12)])
        aligned = align(twin, original).aligned
        for _ in range(20):
            x = rng.standard_normal(6)
            assert np.abs(forward(aligned, x) - forward(twin, x)).max() <= 1e-9

    def test_sinkhorn_recovers_permutation_softly(self):
        rng = np.random.default_rng(4)
        original = random_checkpoint(rng, three_layer_specs(hidden=8))
        perms = [rng.permutation(8), rng.permutation(8)]
        twin = permuted_twin(original, perms)
        opts = AlignmentOptions(solver="sinkhorn", sinkhorn_eps=1e-3)
        result = align(twin, original, opts)
        for layer, perm in zip(result.layers[:-1], perms):
            assert np.abs(layer.map - permutation_matrix(perm) / 8).max() <= 1e-3
        assert max_weight_difference(result.aligned, original) <= 1e-2


class TestAlignmentObjectives:
    def test_objective_beats_random_permutations(self):
        a, b, _ = trained_pair(seed=1)
        result = align(a, b)
        rng = np.random.default_rng(5)
        from otfuse.linalg import row_distance_matrix

        prev = np.arange(a.specs[0].in_dim)
        for l, layer in enumerate(result.layers[:-1]):
            w_hat = a.layers[l].w[:, prev]
            cost = row_distance_matrix(w_hat, b.layers[l].w)
            m = cost.shape[0]
            for _ in range(1000):
                perm = rng.permutation(m)
                random_obj = cost[np.arange(m), perm].sum() / m
                assert layer.objective <= random_obj + 1e-12
            prev = np.argsort(layer.assignment)

    def test_converged_per_layer(self, monkeypatch):
        a, b, _ = trained_pair(seed=2)
        assert [layer.converged for layer in align(a, b).layers] == [True, True, True]
        # at the default eps both hidden layers converge, where the sweeps
        # alone run all 10000 without; the pinned output layer counts as
        # converged
        solved = []
        solve = fusion.solve_sinkhorn
        monkeypatch.setattr(fusion, "solve_sinkhorn", lambda *a, **k: solved.append(solve(*a, **k)) or solved[-1])
        soft = align(a, b, AlignmentOptions(solver="sinkhorn"))
        assert [layer.converged for layer in soft.layers] == [True, True, True]
        assert len(solved) == 2 and max(sol.iterations for sol in solved) < 1000
        loose = align(a, b, AlignmentOptions(solver="sinkhorn", sinkhorn_eps=0.1))
        assert [layer.converged for layer in loose.layers] == [True, True, True]

    def test_maps_satisfy_marginals(self):
        a, b, _ = trained_pair(seed=2)
        for solver in ("exact", "sinkhorn"):
            result = align(a, b, AlignmentOptions(solver=solver))
            for layer in result.layers:
                validate_transport_map(layer.map)

    def test_hard_alignment_preserves_model_function(self):
        # exact maps are permutations, and permuting hidden units (applied
        # consistently to the next layer's inputs) cannot change the function
        a, b, _ = trained_pair(seed=7)
        aligned = align(a, b).aligned
        rng = np.random.default_rng(77)
        for _ in range(100):
            x = rng.standard_normal(6)
            assert np.abs(forward(aligned, x) - forward(a, x)).max() <= 1e-9


class TestAlignmentFlags:
    def test_cost_on_raw_rows_still_recovers_first_layer(self):
        rng = np.random.default_rng(9)
        original = random_checkpoint(rng, three_layer_specs(hidden=9))
        perms = [rng.permutation(9), rng.permutation(9)]
        twin = permuted_twin(original, perms)
        opts = AlignmentOptions(cost_on_aligned_inputs=False)
        result = align(twin, original, opts)
        assert np.array_equal(result.layers[0].map, permutation_matrix(perms[0]) / 9)

    def test_bias_in_cost_runs_and_preserves_recovery(self):
        rng = np.random.default_rng(10)
        original = random_checkpoint(rng, three_layer_specs(hidden=7))
        perms = [rng.permutation(7), rng.permutation(7)]
        twin = permuted_twin(original, perms)
        result = align(twin, original, AlignmentOptions(bias_in_cost=True))
        assert max_weight_difference(result.aligned, original) <= 1e-9

    def test_free_last_layer_solves_output_map(self):
        rng = np.random.default_rng(11)
        m = random_checkpoint(rng, three_layer_specs())
        result = align(m, m, AlignmentOptions(fix_last_layer=False))
        last = result.layers[-1].map
        assert np.array_equal(last, np.eye(len(last)) / len(last))

    def test_spec_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        a = random_checkpoint(rng, three_layer_specs(hidden=8))
        b = random_checkpoint(rng, three_layer_specs(hidden=9))
        with pytest.raises(ValidationError):
            align(a, b)

    def test_sinkhorn_eps_needs_the_sinkhorn_solver(self):
        for opts in ({}, {"solver": "exact"}):
            with pytest.raises(ValidationError, match="sinkhorn_eps"):
                AlignmentOptions(sinkhorn_eps=0.05, **opts)
        assert AlignmentOptions(solver="sinkhorn", sinkhorn_eps=0.05).sinkhorn_eps == 0.05

    def test_sinkhorn_eps_must_be_finite_and_positive(self):
        for eps in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValidationError, match="sinkhorn_eps must be finite and positive"):
                AlignmentOptions(solver="sinkhorn", sinkhorn_eps=eps)

    @pytest.mark.parametrize("solver", ["exact", "sinkhorn"])
    def test_pinned_output_layer_is_its_own_record(self, solver):
        rng = np.random.default_rng(13)
        specs = three_layer_specs(hidden=8)
        a, b = random_checkpoint(rng, specs), random_checkpoint(rng, specs)
        pinned = align(a, b, AlignmentOptions(solver=solver)).layers[-1]
        m = specs[-1].out_dim
        assert (pinned.solver, pinned.iterations, pinned.converged) == ("pinned", 0, True)
        assert np.array_equal(pinned.assignment, np.arange(m))
        assert pinned.map.tobytes() == (np.eye(m) / m).tobytes()


class TestFuse:
    def test_endpoints_bit_exact(self):
        rng = np.random.default_rng(13)
        specs = three_layer_specs()
        a = random_checkpoint(rng, specs)
        b = random_checkpoint(rng, specs)
        at0 = fuse(a, b, 0.0)
        at1 = fuse(a, b, 1.0)
        for la, ref in zip(at0.layers, a.layers):
            assert np.array_equal(la.w, ref.w) and np.array_equal(la.b, ref.b)
        for lb, ref in zip(at1.layers, b.layers):
            assert np.array_equal(lb.w, ref.w) and np.array_equal(lb.b, ref.b)

    def test_fuse_self_is_identity(self):
        rng = np.random.default_rng(14)
        m = random_checkpoint(rng, three_layer_specs())
        fused = fuse(m, m, 0.5)
        assert max_weight_difference(fused, m) == 0.0

    def test_lambda_out_of_range(self):
        rng = np.random.default_rng(15)
        m = random_checkpoint(rng, three_layer_specs())
        with pytest.raises(ValidationError):
            fuse(m, m, 1.5)

    def test_fused_output_is_not_output_average(self):
        a, b, _ = trained_pair(seed=3)
        fused = fuse(align(a, b).aligned, b, 0.5)
        rng = np.random.default_rng(16)
        diffs = []
        for _ in range(10):
            x = rng.standard_normal(6)
            avg_out = 0.5 * (forward(a, x) + forward(b, x))
            diffs.append(np.abs(forward(fused, x) - avg_out).max())
        assert max(diffs) > 1e-6  # nonlinearity: weight blend != output blend

    def test_direct_average_equals_fuse_without_alignment(self):
        rng = np.random.default_rng(17)
        specs = three_layer_specs()
        a = random_checkpoint(rng, specs)
        b = random_checkpoint(rng, specs)
        lam = 0.3
        da = direct_average(a, b, lam)
        manual = fuse(a, b, lam)  # fuse with aligned == a is the same blend
        assert max_weight_difference(da, manual) == 0.0

    def test_architecture_preserved(self):
        a, b, _ = trained_pair(seed=4, epochs=5)
        for out in (align(a, b).aligned, fuse(a, b, 0.5), direct_average(a, b, 0.5)):
            assert out.specs == a.specs



class TestMapApplication:
    def test_sinkhorn_map_is_applied_as_reported(self):
        # self-alignment at width 128 gives couplings within 1e-9/m of the
        # identity (off the diagonal, about 1e-11/m in each row of the first)
        # that are not the identity; each is applied as m * T
        rng = np.random.default_rng(0)
        m = random_checkpoint(rng, three_layer_specs(in_dim=9, hidden=128))
        result = align(m, m, AlignmentOptions(solver="sinkhorn"))
        first = result.layers[0].map
        assert result.layers[0].assignment is None
        assert np.abs(first - np.eye(128) / 128).max() <= 1e-9 / 128
        assert not np.array_equal(first, np.eye(128) / 128)
        prev = np.eye(m.specs[0].in_dim)
        for layer, aligned, solution in zip(m.layers, result.aligned.layers, result.layers):
            carrier = len(solution.map) * solution.map
            w_hat = layer.w @ prev
            want_w, want_b = carrier.T @ w_hat, carrier.T @ layer.b
            assert np.abs(aligned.w - want_w).max() <= 1e-14 * np.abs(want_w).max()
            assert np.abs(aligned.b - want_b).max() <= 1e-14 * np.abs(want_b).max()
            prev = carrier

    def test_exact_map_is_applied_as_its_zero_one_matrix(self):
        # 49 * (1/49) != 1, so only the 0/1 matrix keeps the weights' bits
        assert 49 * (1.0 / 49) != 1.0
        rng = np.random.default_rng(19)
        a = random_checkpoint(rng, three_layer_specs(hidden=49))
        b = random_checkpoint(rng, three_layer_specs(hidden=49))
        result = align(a, b)
        assert not np.array_equal(result.layers[0].map, np.eye(49) / 49)
        prev = np.eye(a.specs[0].in_dim)
        for layer, aligned, solution in zip(a.layers, result.aligned.layers, result.layers):
            carrier = (solution.map > 0).astype(np.float64)
            w_hat = layer.w @ prev
            assert np.array_equal(aligned.w, carrier.T @ w_hat)
            assert np.array_equal(aligned.b, carrier.T @ layer.b)
            prev = carrier

    def test_assignment_is_the_support_of_the_map(self):
        rng = np.random.default_rng(20)
        cost = rng.random((7, 7))
        cost[:, 3] = cost[:, 5]  # ties between two columns
        for sol in (solve_exact(cost), brute_force_ot(cost)):
            rows, cols = np.nonzero(sol.map)
            assert np.array_equal(rows, np.arange(7))
            assert np.array_equal(sol.assignment, cols)
        assert solve_sinkhorn(cost).assignment is None
