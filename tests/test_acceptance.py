"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Criteria 7 and 8 share one 10-seed experiment, computed once per session.
"""

import itertools
import json
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

from helpers import (
    checkpoints_equal,
    forward,
    permutation_matrix,
    permuted_twin,
    random_checkpoint,
    random_specs,
)
from otfuse.data import Dataset, DomainMixtureConfig, gen_synthetic
from otfuse.errors import CheckpointFormatError, CheckpointVersionError
from otfuse.experiment import ExperimentConfig, run_experiment
from otfuse.fusion import align, fuse
from otfuse.nets import (
    LayerSpec,
    LayerWeights,
    TrainConfig,
    init_checkpoint,
    loss,
    loss_gradients,
    make_checkpoint,
    max_weight_difference,
    train,
)
from otfuse.scoring import Hypothesis, HypothesisSet, edit_distance, error_rate, landscape, oracle_select
from otfuse.serialize import load_checkpoint, save_checkpoint
from otfuse.transport import (
    brute_force_ot,
    solve_exact,
    solve_sinkhorn,
    validate_transport_map,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {num:2d} ({name}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {num:2d} ({name}): PASS")


@pytest.fixture(scope="module")
def tendseed_experiment():
    start = time.monotonic()
    report = run_experiment(ExperimentConfig(seeds=tuple(range(10))))
    return report, time.monotonic() - start


def test_criterion_01_ot_exactness():
    with criterion(1, "OT exactness vs brute force"):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        for m in range(2, 7):
            for _ in range(100):
                d = rng.uniform(0.0, 10.0, (m, m))
                exact = solve_exact(d)
                brute = brute_force_ot(d)
                assert abs(exact.objective - brute.objective) <= 1e-9
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_marginal_feasibility():
    with criterion(2, "uniform marginals on every map"):
        rng = np.random.default_rng(102)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            d = rng.uniform(0.0, 5.0, (m, m))
            validate_transport_map(solve_exact(d).map)
            sol = solve_sinkhorn(d, eps=float(rng.uniform(0.01, 0.5)))
            validate_transport_map(sol.map)
            # deliberately starved iterations: the map must still be feasible
            starved = solve_sinkhorn(d, eps=0.01, tol=1e-13, max_iter=3)
            validate_transport_map(starved.map)


def test_criterion_03_sinkhorn_convergence():
    with criterion(3, "Sinkhorn approaches the exact optimum"):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        sink = solve_sinkhorn(d, eps=0.01)
        exact = solve_exact(d)
        assert np.abs(sink.map - exact.map).max() <= 1e-3
        rng = np.random.default_rng(103)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            cost = rng.uniform(0.0, 4.0, (m, m))
            eps = float(rng.uniform(0.02, 0.5)) * float(cost.mean())
            sink = solve_sinkhorn(cost, eps=eps)
            assert sink.objective >= solve_exact(cost).objective - 1e-9


def test_criterion_04_self_fusion_identity():
    with criterion(4, "self-fusion reproduces the model bit-level"):
        cfg = DomainMixtureConfig(num_classes=3, feature_dim=8, domains=(0,))
        tr, _ = gen_synthetic(cfg, 7)
        specs = (
            LayerSpec(8, 16, "relu"),
            LayerSpec(16, 16, "relu"),
            LayerSpec(16, 3, "identity"),
        )
        model = train(specs, tr, TrainConfig(epochs=30, seed=7))
        fused = fuse(align(model, model).aligned, model, 0.5)
        assert max_weight_difference(fused, model) <= 1e-12
        rng = np.random.default_rng(104)
        for _ in range(100):
            x = rng.standard_normal(8)
            assert np.array_equal(forward(fused, x), forward(model, x))


def test_criterion_05_permutation_recovery():
    with criterion(5, "hidden-unit permutations recovered exactly"):
        start = time.monotonic()
        rng = np.random.default_rng(105)
        specs = (
            LayerSpec(8, 16, "relu"),
            LayerSpec(16, 16, "relu"),
            LayerSpec(16, 4, "identity"),
        )
        original = random_checkpoint(rng, specs)
        perms = [rng.permutation(16), rng.permutation(16)]
        twin = permuted_twin(original, perms)
        result = align(twin, original)
        for layer, perm in zip(result.layers[:-1], perms):
            assert np.array_equal(layer.map, permutation_matrix(perm) / 16)
        for _ in range(100):
            x = rng.standard_normal(8)
            assert np.abs(forward(result.aligned, x) - forward(original, x)).max() <= 1e-9
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_06_gradient_correctness():
    with criterion(6, "backprop matches central differences"):
        h = 1e-5
        for trial in range(20):
            rng = np.random.default_rng(1060 + trial)
            specs = random_specs(rng, max_layers=3, max_units=8, activation="tanh")
            ckpt = random_checkpoint(rng, specs)
            n = 5
            data = Dataset(
                rng.standard_normal((n, specs[0].in_dim)),
                rng.integers(0, specs[-1].out_dim, n),
                specs[-1].out_dim,
            )
            grads = loss_gradients(ckpt, data)
            for li, layer in enumerate(ckpt.layers):
                for arr, garr in ((layer.w, grads[li].w), (layer.b, grads[li].b)):
                    flat = arr.ravel()
                    for k in range(flat.size):
                        plus = [LayerWeights(l.w.copy(), l.b.copy()) for l in ckpt.layers]
                        minus = [LayerWeights(l.w.copy(), l.b.copy()) for l in ckpt.layers]
                        tp = plus[li].w if arr is layer.w else plus[li].b
                        tm_ = minus[li].w if arr is layer.w else minus[li].b
                        tp.ravel()[k] += h
                        tm_.ravel()[k] -= h
                        fd = (
                            loss(make_checkpoint(ckpt.specs, plus), data)
                            - loss(make_checkpoint(ckpt.specs, minus), data)
                        ) / (2 * h)
                        assert abs(garr.ravel()[k] - fd) <= 1e-4


def test_criterion_07_direct_vs_aligned_averaging(tendseed_experiment):
    with criterion(7, "aligned beats direct averaging across seeds"):
        report, elapsed = tendseed_experiment
        assert elapsed < 180.0, f"experiment took {elapsed:.0f}s"
        aligned = 100.0 - report.metric_array("aligned_avg", "err_union")
        direct = 100.0 - report.metric_array("direct_avg", "err_union")
        target = 100.0 - report.metric_array("target", "err_union")
        broad = 100.0 - report.metric_array("broad", "err_union")
        assert (aligned > direct).all()
        assert ((direct < target) & (direct < broad)).sum() >= 9


def test_criterion_08_pipeline_benefit(tendseed_experiment):
    with criterion(8, "fused + moderate finetune wins (qualitative analog)"):
        report, _ = tendseed_experiment
        fused_ft = report.metric_array("aligned_avg_ft", "loss_union")
        direct_ft = report.metric_array("direct_avg_ft", "loss_union")
        cmin = np.minimum(
            report.metric_array("target", "loss_union"),
            report.metric_array("broad", "loss_union"),
        )
        assert (fused_ft <= direct_ft).sum() >= 8
        assert (fused_ft <= 1.10 * cmin).sum() >= 6


def _random_fixture(rng, n_systems, n_utts, vocab=("a", "b", "c", "d")):
    refs = {
        f"u{i}": tuple(rng.choice(vocab, int(rng.integers(1, 6))))
        for i in range(n_utts)
    }
    sets = []
    for s in range(n_systems):
        items = {}
        for u, ref in refs.items():
            if rng.uniform() < 0.4:
                toks = ref  # sometimes perfect
            else:
                toks = tuple(rng.choice(vocab, int(rng.integers(0, 6))))
            items[u] = Hypothesis(u, toks)
        sets.append(HypothesisSet(f"s{s}", items))
    return refs, sets


def test_criterion_09_oracle_bound():
    with criterion(9, "oracle selection is a lower bound"):
        rng = np.random.default_rng(109)
        for trial in range(1000):
            n_systems = int(rng.integers(1, 4))
            n_utts = int(rng.integers(1, 8))
            refs, sets = _random_fixture(rng, n_systems, n_utts)
            oracle = oracle_select(sets, refs)
            per_utt_min = {
                u: min(
                    edit_distance(refs[u], hs.items[u].tokens).total for hs in sets
                )
                for u in refs
            }
            for hs in sets:
                wer = error_rate(refs, hs)
                assert oracle.wer <= wer
                dominates = all(
                    edit_distance(refs[u], hs.items[u].tokens).total == per_utt_min[u]
                    for u in refs
                )
                assert (oracle.wer == wer) == dominates
        # exhaustive agreement for small selection spaces
        for trial in range(50):
            n_systems = 2
            n_utts = int(rng.integers(1, 11))
            refs, sets = _random_fixture(rng, n_systems, n_utts)
            ref_len = sum(len(t) for t in refs.values())
            best = min(
                sum(
                    edit_distance(refs[u], sets[pick].items[u].tokens).total
                    for u, pick in zip(refs, choice)
                )
                for choice in itertools.product(range(n_systems), repeat=n_utts)
            )
            assert oracle_select(sets, refs).wer == best / ref_len


def test_criterion_10_edit_distance_oracle():
    with criterion(10, "edit distance matches memoized recursion"):

        def memo_distance(ref, hyp):
            @lru_cache(maxsize=None)
            def go(i, j):
                if i == len(ref):
                    return len(hyp) - j
                if j == len(hyp):
                    return len(ref) - i
                return min(
                    go(i + 1, j + 1) + (ref[i] != hyp[j]),
                    go(i + 1, j) + 1,
                    go(i, j + 1) + 1,
                )

            return go(0, 0)

        rng = np.random.default_rng(110)
        vocab = [str(i) for i in range(7)]
        for _ in range(1000):
            a = tuple(rng.choice(vocab, int(rng.integers(0, 13))))
            b = tuple(rng.choice(vocab, int(rng.integers(0, 13))))
            counts = edit_distance(a, b)
            assert counts.total == memo_distance(a, b)
            assert counts.subs + counts.dels + counts.ins == counts.total


def test_criterion_11_landscape_endpoints():
    with criterion(11, "landscape endpoints are exact; training descends"):
        cfg = DomainMixtureConfig(num_classes=3, feature_dim=6, domains=(0,))
        tr, he = gen_synthetic(cfg, 19)
        specs = (LayerSpec(6, 12, "relu"), LayerSpec(12, 3, "identity"))
        theta0 = init_checkpoint(specs, 19)
        theta = train(specs, tr, TrainConfig(epochs=120, seed=19))
        curve = landscape(theta0, theta, he, num_points=21)
        assert curve.losses[0] == loss(theta0, he)
        assert curve.losses[-1] == loss(theta, he)
        assert curve.losses[-1] < curve.losses[0]


def test_criterion_12_checkpoint_roundtrip(tmp_path):
    with criterion(12, "checkpoint round-trip and rejection codes"):
        rng = np.random.default_rng(112)
        for i in range(50):
            ckpt = random_checkpoint(rng)
            path = tmp_path / f"c{i}.json"
            save_checkpoint(ckpt, path)
            assert checkpoints_equal(load_checkpoint(path), ckpt)
        good = tmp_path / "c0.json"
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text(good.read_text()[:100])
        with pytest.raises(CheckpointFormatError) as fmt_exc:
            load_checkpoint(corrupt)
        versioned = tmp_path / "versioned.json"
        doc = json.loads(good.read_text())
        doc["format_version"] = 2
        versioned.write_text(json.dumps(doc))
        with pytest.raises(CheckpointVersionError) as ver_exc:
            load_checkpoint(versioned)
        assert type(fmt_exc.value) is not type(ver_exc.value)
