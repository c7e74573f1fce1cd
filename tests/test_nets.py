import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

import otfuse.experiment as experiment
import otfuse.nets as nets
from helpers import checkpoints_equal, forward, random_checkpoint, random_specs
from otfuse.data import Dataset, seeded_rng
from otfuse.errors import NumericalError, ValidationError
from otfuse.experiment import (
    ExperimentConfig,
    format_report_csv,
    format_report_text,
    run_experiment,
)
from otfuse.nets import (
    Checkpoint,
    CheckpointMeta,
    LayerSpec,
    LayerWeights,
    TrainConfig,
    accuracy,
    finetune,
    finetune_stack,
    init_checkpoint,
    interpolate,
    loss,
    loss_gradients,
    make_checkpoint,
    train,
    validate_spec_chain,
)


def scalar_forward(ckpt, x):
    """Per-element oracle for the layer stack."""
    a = list(x)
    for spec, layer in zip(ckpt.specs, ckpt.layers):
        out = []
        for i in range(spec.out_dim):
            z = layer.b[i]
            for j in range(spec.in_dim):
                z += layer.w[i, j] * a[j]
            if spec.activation == "relu":
                z = max(z, 0.0)
            elif spec.activation == "tanh":
                z = math.tanh(z)
            out.append(z)
        a = out
    return np.array(a)


def two_blob_dataset(rng, n_per_class=60, sep=2.0, noise=0.5):
    x0 = rng.normal((-sep, 0.0), noise, (n_per_class, 2))
    x1 = rng.normal((sep, 0.0), noise, (n_per_class, 2))
    feats = np.vstack([x0, x1])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return Dataset(feats, labels, 2)


def logistic_regression_accuracy(data, steps=800, lr=0.5):
    """Independent check that a linear separator exists."""
    x = np.hstack([data.features, np.ones((len(data.labels), 1))])
    y = data.labels.astype(np.float64)
    w = np.zeros(x.shape[1])
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        w -= lr * (x.T @ (p - y)) / len(y)
    pred = (x @ w) > 0
    return float(np.mean(pred == data.labels))


class TestSpecValidation:
    def test_chain_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            validate_spec_chain(
                (LayerSpec(2, 3, "relu"), LayerSpec(4, 2, "identity"))
            )

    def test_final_layer_must_be_identity(self):
        with pytest.raises(ValidationError):
            validate_spec_chain((LayerSpec(2, 2, "relu"),))

    def test_unknown_activation(self):
        with pytest.raises(ValidationError):
            validate_spec_chain((LayerSpec(2, 2, "sigmoid"),))

    @pytest.mark.parametrize("dims", [(2.5, 3), (True, 3)], ids=["float", "bool"])
    def test_dimension_must_be_an_integer(self, dims):
        with pytest.raises(ValidationError, match="layer 0 in_dim must be an integer"):
            validate_spec_chain((LayerSpec(*dims, "identity"),))

    def test_layer_too_large_for_one_array(self):
        with pytest.raises(ValidationError, match="too large for one float64 array"):
            validate_spec_chain((LayerSpec(2, 10**30, "relu"), LayerSpec(10**30, 2, "identity")))


class TestCheckpointConstruction:
    @pytest.mark.parametrize("specs, w, b", [
        ((LayerSpec(2, 3, "identity"),), np.zeros((3, 3)), np.zeros(3)),
        ((LayerSpec(2, 3, "identity"),), np.zeros((3, 2)), np.zeros(2)),
        ((LayerSpec(2, 3, "identity"),), np.full((3, 2), np.nan), np.zeros(3)),
        ((LayerSpec(2, 3, "identity"),), np.zeros((3, 2)), np.array([0.0, np.inf, 0.0])),
        ((LayerSpec(2, 3, "relu"),), np.zeros((3, 2)), np.zeros(3)),
        ((LayerSpec(2, 3, "identity"), LayerSpec(4, 3, "identity")), np.zeros((3, 2)), np.zeros(3)),
    ], ids=["weight-shape", "bias-shape", "nan-weight", "inf-bias", "relu-logits", "broken-chain"])
    def test_direct_build_is_validated(self, specs, w, b):
        with pytest.raises(ValidationError):
            Checkpoint(specs, tuple(LayerWeights(w, b) for _ in specs))

    @pytest.mark.parametrize("meta", [
        CheckpointMeta(seed="x"), CheckpointMeta(seed=1.5), CheckpointMeta(seed=True),
        CheckpointMeta(training_epochs=-1), CheckpointMeta(training_epochs=2.0), CheckpointMeta(tag=5),
    ], ids=["str-seed", "float-seed", "bool-seed", "negative-epochs", "float-epochs", "int-tag"])
    def test_meta_is_validated(self, meta):
        layers = (LayerWeights(np.zeros((3, 2)), np.zeros(3)),)
        with pytest.raises(ValidationError, match="meta"):
            Checkpoint((LayerSpec(2, 3, "identity"),), layers, meta)

    def test_keeps_read_only_copies_of_its_inputs(self):
        w, b = np.ones((3, 2)), np.zeros(3)
        ckpt = Checkpoint((LayerSpec(2, 3, "identity"),), (LayerWeights(w, b),))
        w[0, 0], b[0] = 5.0, 5.0
        layer = ckpt.layers[0]
        assert np.array_equal(layer.w, np.ones((3, 2))) and np.array_equal(layer.b, np.zeros(3))
        assert not layer.w.flags.writeable and not layer.b.flags.writeable
        assert layer.w.dtype == layer.b.dtype == np.float64
        assert not ckpt.params.flags.writeable and ckpt.params.dtype == np.float64
        assert np.array_equal(ckpt.params, [1, 1, 1, 1, 1, 1, 0, 0, 0])  # _layout order
        assert np.shares_memory(layer.w, ckpt.params) and np.shares_memory(layer.b, ckpt.params)
        assert not any(np.shares_memory(a, x) for a in (ckpt.params, layer.w, layer.b) for x in (w, b))


class TestForward:
    def test_identity_layer_passthrough(self):
        ckpt = make_checkpoint(
            (LayerSpec(3, 3, "identity"),),
            [LayerWeights(np.eye(3), np.zeros(3))],
        )
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(forward(ckpt, x), x)

    def test_relu_kills_negated_positive_input(self):
        ckpt = make_checkpoint(
            (LayerSpec(3, 3, "relu"), LayerSpec(3, 3, "identity")),
            [
                LayerWeights(-np.eye(3), np.zeros(3)),
                LayerWeights(np.eye(3), np.zeros(3)),
            ],
        )
        assert np.array_equal(forward(ckpt, np.array([1.0, 2.0, 3.0])), np.zeros(3))

    def test_two_layer_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        specs = (LayerSpec(4, 5, "tanh"), LayerSpec(5, 3, "identity"))
        ckpt = random_checkpoint(rng, specs)
        for _ in range(10):
            x = rng.standard_normal(4)
            np.testing.assert_allclose(
                forward(ckpt, x), scalar_forward(ckpt, x), atol=1e-12
            )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        ckpt = random_checkpoint(rng, (LayerSpec(4, 2, "identity"),))
        with pytest.raises(ValidationError):
            forward(ckpt, np.zeros(3))


class TestLoss:
    def test_confident_correct_logits_near_zero(self):
        ckpt = make_checkpoint(
            (LayerSpec(2, 2, "identity"),),
            [LayerWeights(100.0 * np.eye(2), np.zeros(2))],
        )
        data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), 2)
        assert loss(ckpt, data) < 1e-6

    def test_uniform_logits_give_log_c_exactly(self):
        c, n = 3, 8
        ckpt = make_checkpoint(
            (LayerSpec(2, c, "identity"),),
            [LayerWeights(np.zeros((c, 2)), np.zeros(c))],
        )
        rng = np.random.default_rng(1)
        data = Dataset(rng.standard_normal((n, 2)), rng.integers(0, c, n), c)
        assert loss(ckpt, data) == math.log(c)

    def test_against_independent_summation_oracle(self):
        rng = np.random.default_rng(33)
        specs = random_specs(rng, in_dim=4)
        ckpt = random_checkpoint(rng, specs)
        c = specs[-1].out_dim
        n = 17
        data = Dataset(rng.standard_normal((n, 4)), rng.integers(0, c, n), c)
        expected_terms = []
        for i in range(n):
            z = [float(v) for v in forward(ckpt, data.features[i])]
            denom = math.fsum(math.exp(v) for v in z)
            expected_terms.append(-math.log(math.exp(z[data.labels[i]]) / denom))
        expected = math.fsum(reversed(expected_terms)) / n
        assert abs(loss(ckpt, data) - expected) <= 1e-10

    def test_empty_dataset_rejected(self):
        rng = np.random.default_rng(0)
        ckpt = random_checkpoint(rng, (LayerSpec(2, 2, "identity"),))
        with pytest.raises(ValidationError):
            loss(ckpt, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2))


class TestTrain:
    def test_zero_epochs_returns_seeded_init(self):
        rng = np.random.default_rng(2)
        data = two_blob_dataset(rng)
        specs = (LayerSpec(2, 4, "relu"), LayerSpec(4, 2, "identity"))
        cfg = TrainConfig(epochs=0, seed=9)
        out = train(specs, data, cfg)
        ref = init_checkpoint(specs, 9)
        assert all(
            np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
            for a, b in zip(out.layers, ref.layers)
        )

    def test_data_mismatch_rejected_before_weights_exist(self, monkeypatch):
        def no_init(*args, **kwargs):
            raise AssertionError("init_checkpoint called")

        monkeypatch.setattr(nets, "init_checkpoint", no_init)
        data = Dataset(np.zeros((2, 3)), np.array([0, 1]), 2)
        with pytest.raises(ValidationError, match="feature_dim"):
            train((LayerSpec(2, 2, "identity"),), data, TrainConfig(epochs=1))

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(3)
        data = two_blob_dataset(rng)
        specs = (LayerSpec(2, 4, "relu"), LayerSpec(4, 2, "identity"))
        cfg = TrainConfig(epochs=5, batch_size=8, learning_rate=0.1, seed=4)
        assert checkpoints_equal(train(specs, data, cfg), train(specs, data, cfg))

    def test_separable_blobs_reach_high_accuracy(self):
        rng = np.random.default_rng(4)
        data = two_blob_dataset(rng)
        # independent oracle: a logistic fit separates this data
        assert logistic_regression_accuracy(data) >= 0.99
        specs = (LayerSpec(2, 8, "relu"), LayerSpec(8, 2, "identity"))
        cfg = TrainConfig(epochs=200, batch_size=16, learning_rate=0.1, seed=0)
        model = train(specs, data, cfg)
        assert accuracy(model, data) >= 0.99

    def test_divergence_raises_numerical_error(self):
        from otfuse.data import DomainMixtureConfig, gen_synthetic
        from otfuse.errors import NumericalError

        data, _ = gen_synthetic(DomainMixtureConfig(), 0)
        specs = (LayerSpec(8, 16, "relu"), LayerSpec(16, 3, "identity"))
        with pytest.raises(NumericalError):
            train(specs, data, TrainConfig(epochs=50, learning_rate=1e9, seed=0))

    @pytest.mark.parametrize("field, value", [
        ("epochs", -1), ("batch_size", 0), ("learning_rate", 0.0), ("learning_rate", -0.1),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", "0.1"), ("learning_rate", True), ("epochs", True), ("epochs", 1.5),
        ("batch_size", 2.5), ("seed", "x"), ("seed", 1.5), ("seed", True), ("shuffle", "no"),
        ("shuffle", 1),
    ])
    def test_config_rejects_bad_values(self, field, value):
        with pytest.raises(ValidationError):
            TrainConfig(**{field: value})

    def test_init_rejects_a_non_integer_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            init_checkpoint((LayerSpec(2, 3, "identity"),), "x")

    def test_config_accepts_numpy_scalars(self):
        # a float32 rate is compared as a Python float: no overflow warning
        cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), learning_rate=np.float32(0.1))
        assert cfg.learning_rate == np.float32(0.1)

    def test_records_seed_in_meta(self):
        rng = np.random.default_rng(5)
        data = two_blob_dataset(rng)
        specs = (LayerSpec(2, 3, "relu"), LayerSpec(3, 2, "identity"))
        out = train(specs, data, TrainConfig(epochs=1, seed=77))
        assert out.meta.seed == 77 and out.meta.training_epochs == 1


class TestFinetune:
    def test_zero_epochs_identity(self):
        rng = np.random.default_rng(6)
        data = two_blob_dataset(rng)
        specs = (LayerSpec(2, 4, "relu"), LayerSpec(4, 2, "identity"))
        model = train(specs, data, TrainConfig(epochs=3, seed=1))
        assert finetune(model, data, TrainConfig(epochs=0)) is model

    def test_converged_model_changes_little_on_heldout(self):
        from otfuse.data import DomainMixtureConfig, gen_synthetic

        cfg = DomainMixtureConfig(
            num_classes=5, train_per_class=150, heldout_per_class=60,
            domains=(0,), noise_scale=1.3, mean_scale=1.6,
        )
        tr, he = gen_synthetic(cfg, 4)
        specs = (
            LayerSpec(8, 16, "relu"),
            LayerSpec(16, 16, "relu"),
            LayerSpec(16, 5, "identity"),
        )
        model = train(specs, tr, TrainConfig(epochs=150, batch_size=64,
                                             learning_rate=0.1, seed=4))
        before = loss(model, he)
        after = loss(
            finetune(model, tr, TrainConfig(epochs=10, batch_size=64,
                                            learning_rate=0.01, seed=1004)),
            he,
        )
        assert abs(after - before) / before < 0.05

    def test_descends_on_train_set_for_fresh_models(self):
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            data = two_blob_dataset(rng)
            specs = (LayerSpec(2, 6, "relu"), LayerSpec(6, 2, "identity"))
            model = init_checkpoint(specs, seed)
            before = loss(model, data)
            after = loss(
                finetune(model, data, TrainConfig(epochs=10, batch_size=16,
                                                  learning_rate=0.1, seed=seed)),
                data,
            )
            wins += after <= before
        assert wins >= 6  # majority of 10 seeds


class TestGradients:
    def test_backprop_matches_central_differences(self):
        h = 1e-5
        for trial in range(10):
            rng = np.random.default_rng(trial)
            specs = random_specs(rng, max_layers=3, max_units=8, activation="tanh")
            ckpt = random_checkpoint(rng, specs)
            n = 6
            data = Dataset(
                rng.standard_normal((n, specs[0].in_dim)),
                rng.integers(0, specs[-1].out_dim, n),
                specs[-1].out_dim,
            )
            grads = loss_gradients(ckpt, data)
            ok_rel, total = 0, 0
            for li, layer in enumerate(ckpt.layers):
                for arr, garr in ((layer.w, grads[li].w), (layer.b, grads[li].b)):
                    flat = arr.ravel()
                    for k in range(flat.size):
                        orig = flat[k]
                        plus = [LayerWeights(l.w.copy(), l.b.copy()) for l in ckpt.layers]
                        minus = [LayerWeights(l.w.copy(), l.b.copy()) for l in ckpt.layers]
                        tgt_p = plus[li].w if arr is layer.w else plus[li].b
                        tgt_m = minus[li].w if arr is layer.w else minus[li].b
                        tgt_p.ravel()[k] = orig + h
                        tgt_m.ravel()[k] = orig - h
                        lp = loss(make_checkpoint(ckpt.specs, plus), data)
                        lm = loss(make_checkpoint(ckpt.specs, minus), data)
                        fd = (lp - lm) / (2 * h)
                        an = garr.ravel()[k]
                        assert abs(an - fd) <= 1e-4
                        total += 1
                        if abs(an - fd) <= 1e-6 * max(1.0, abs(fd)):
                            ok_rel += 1
            assert ok_rel / total >= 0.95

    def test_second_call_leaves_first_result_unchanged(self):
        rng = np.random.default_rng(5)
        specs = random_specs(rng, max_layers=3, max_units=6, activation="tanh")
        ckpt = random_checkpoint(rng, specs)

        def batch(seed):
            r = np.random.default_rng(seed)
            return Dataset(r.standard_normal((7, specs[0].in_dim)),
                           r.integers(0, specs[-1].out_dim, 7), specs[-1].out_dim)

        first = loss_gradients(ckpt, batch(0))
        kept = [(g.w.copy(), g.b.copy()) for g in first]
        loss_gradients(ckpt, batch(1))
        for g, (w, b) in zip(first, kept):
            assert np.array_equal(g.w, w) and np.array_equal(g.b, b)


class TestInterpolate:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(9)
        specs = random_specs(rng, in_dim=3)
        a = random_checkpoint(rng, specs)
        b = random_checkpoint(rng, specs)
        at0 = interpolate(a, b, 0.0)
        at1 = interpolate(a, b, 1.0)
        assert all(np.array_equal(x.w, y.w) for x, y in zip(at0.layers, a.layers))
        assert all(np.array_equal(x.w, y.w) for x, y in zip(at1.layers, b.layers))

    def test_spec_mismatch(self):
        rng = np.random.default_rng(10)
        a = random_checkpoint(rng, (LayerSpec(2, 3, "identity"),))
        b = random_checkpoint(rng, (LayerSpec(2, 4, "identity"),))
        with pytest.raises(ValidationError):
            interpolate(a, b, 0.5)

    @pytest.mark.parametrize("alpha", ["0.5", True, 10**400, float("nan"), float("inf")],
                             ids=["str", "bool", "huge-int", "nan", "inf"])
    def test_alpha_must_be_a_finite_real(self, alpha):
        rng = np.random.default_rng(11)
        specs = random_specs(rng, in_dim=3)
        a, b = random_checkpoint(rng, specs), random_checkpoint(rng, specs)
        with pytest.raises(ValidationError, match="alpha"):
            interpolate(a, b, alpha)

    def test_alpha_outside_the_unit_interval_extrapolates(self):
        rng = np.random.default_rng(12)
        specs = random_specs(rng, in_dim=3)
        a, b = random_checkpoint(rng, specs), random_checkpoint(rng, specs)
        for alpha in (-0.5, 2, np.float32(1.5)):
            out = interpolate(a, b, alpha)
            assert np.array_equal(out.layers[0].w, (1.0 - alpha) * a.layers[0].w + alpha * b.layers[0].w)


def reference_sgd(ckpt, data, cfg):
    """Minibatch SGD written against the public API: one ``loss_gradients``
    call per batch on a freshly built checkpoint and dataset."""
    rng = seeded_rng(cfg.seed)
    ws = [layer.w.copy() for layer in ckpt.layers]
    bs = [layer.b.copy() for layer in ckpt.layers]
    n = len(data.labels)
    for _ in range(cfg.epochs):
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            current = Checkpoint(
                ckpt.specs, tuple(LayerWeights(w, b) for w, b in zip(ws, bs)), ckpt.meta
            )
            batch = Dataset(data.features[idx], data.labels[idx], data.num_classes)
            for i, g in enumerate(loss_gradients(current, batch)):
                ws[i] -= cfg.learning_rate * g.w
                bs[i] -= cfg.learning_rate * g.b
    return [LayerWeights(w, b) for w, b in zip(ws, bs)]


class TestSgdMatchesReference:
    SPECS = (
        LayerSpec(3, 6, "relu"),
        LayerSpec(6, 5, "tanh"),
        LayerSpec(5, 4, "identity"),
        LayerSpec(4, 3, "identity"),
    )

    @staticmethod
    def dataset():
        rng = np.random.default_rng(41)
        n = 50  # batches of 16 leave a short last batch of 2
        return Dataset(rng.standard_normal((n, 3)), rng.integers(0, 3, n), 3)

    @pytest.mark.parametrize("shuffle", [True, False])
    def test_train(self, shuffle):
        data = self.dataset()
        cfg = TrainConfig(epochs=4, batch_size=16, learning_rate=0.2, seed=12, shuffle=shuffle)
        start = init_checkpoint(self.SPECS, cfg.seed, tag="trained")
        meta = CheckpointMeta(seed=cfg.seed, training_epochs=cfg.epochs, tag="trained")
        expected = make_checkpoint(self.SPECS, reference_sgd(start, data, cfg), meta)
        assert checkpoints_equal(train(self.SPECS, data, cfg), expected)

    @pytest.mark.parametrize("shuffle", [True, False])
    def test_finetune(self, shuffle):
        data = self.dataset()
        model = random_checkpoint(np.random.default_rng(42), self.SPECS, scale=0.5)
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.05, seed=5, shuffle=shuffle)
        meta = replace(model.meta, training_epochs=model.meta.training_epochs + cfg.epochs)
        expected = make_checkpoint(self.SPECS, reference_sgd(model, data, cfg), meta)
        assert checkpoints_equal(finetune(model, data, cfg), expected)

    @pytest.mark.parametrize(
        "specs, n, batch_size",
        [
            (SPECS, 49, 16),
            ((LayerSpec(8, 64, "relu"), LayerSpec(64, 64, "relu"), LayerSpec(64, 5, "identity")),
             200, 64),
        ],
        ids=["last-batch-of-one-row", "8-64-64-5-relu-batch-64"],
    )
    @pytest.mark.parametrize("shuffle", [True, False])
    def test_train_shapes(self, specs, n, batch_size, shuffle):
        rng = np.random.default_rng(43)
        classes = specs[-1].out_dim
        data = Dataset(rng.standard_normal((n, specs[0].in_dim)), rng.integers(0, classes, n), classes)
        cfg = TrainConfig(epochs=3, batch_size=batch_size, learning_rate=0.1, seed=7, shuffle=shuffle)
        start = init_checkpoint(specs, cfg.seed, tag="trained")
        meta = CheckpointMeta(seed=cfg.seed, training_epochs=cfg.epochs, tag="trained")
        expected = make_checkpoint(specs, reference_sgd(start, data, cfg), meta)
        assert checkpoints_equal(train(specs, data, cfg), expected)

    def test_result_shares_no_memory_with_training_vector(self, monkeypatch):
        # _params makes the views of the (K, P) stack first, then of each row
        params, stacks = nets._params, []
        monkeypatch.setattr(nets, "_params", lambda specs, theta: stacks.append(theta) or params(specs, theta))
        rng = np.random.default_rng(42)
        models = [random_checkpoint(rng, self.SPECS, scale=0.5) for _ in range(2)]
        cfgs = [TrainConfig(epochs=2, seed=5), TrainConfig(epochs=2, seed=6)]
        outs = finetune_stack(models, [self.dataset()] * 2, cfgs)
        theta = stacks[0]
        assert np.array_equal(theta, np.stack([out.params for out in outs]))  # the stack SGD updated
        assert not any(
            np.shares_memory(a, theta)
            for out in outs for layer in out.layers for a in (out.params, layer.w, layer.b)
        )


class TestFinetuneStack:
    """Each model of a stack against ``reference_sgd`` run on it alone."""

    SPECS = TestSgdMatchesReference.SPECS  # has a tanh layer

    @staticmethod
    def dataset(n, seed):
        rng = np.random.default_rng(seed)
        return Dataset(rng.standard_normal((n, 3)), rng.integers(0, 3, n), 3)

    @staticmethod
    def check(models, datas, cfgs):
        outs = finetune_stack(models, datas, cfgs)
        for model, data, cfg, out in zip(models, datas, cfgs, outs):
            meta = replace(model.meta, training_epochs=model.meta.training_epochs + cfg.epochs)
            expected = make_checkpoint(model.specs, reference_sgd(model, data, cfg), meta)
            assert checkpoints_equal(out, expected)

    @pytest.mark.parametrize("shuffle", [True, False])
    def test_three_datasets_with_partial_batches_in_different_rounds(self, shuffle):
        # batches of 16: 50 rows end in 2, 41 in 9 and 64 in none, so the
        # three epochs are 4, 3 and 4 rounds long; 3 epochs against 5 and 4
        # make the first model finish early
        rng = np.random.default_rng(44)
        models = [random_checkpoint(rng, self.SPECS, scale=0.5) for _ in range(3)]
        datas = [self.dataset(n, n) for n in (50, 41, 64)]
        cfgs = [
            TrainConfig(epochs=e, batch_size=16, learning_rate=lr, seed=s, shuffle=shuffle)
            for e, lr, s in ((3, 0.05, 1), (5, 0.2, 2), (4, 0.1, 3))
        ]
        self.check(models, datas, cfgs)

    @pytest.mark.parametrize("shuffle", [True, False])
    def test_shared_batches_with_different_rates_and_epochs(self, shuffle):
        rng = np.random.default_rng(45)
        models = [random_checkpoint(rng, self.SPECS, scale=0.5) for _ in range(3)]
        data = self.dataset(50, 7)
        cfgs = [
            TrainConfig(epochs=e, batch_size=16, learning_rate=lr, seed=9, shuffle=shuffle)
            for e, lr in ((2, 0.05), (3, 0.2), (3, 0.1))
        ]
        self.check(models, [data] * 3, cfgs)

    @pytest.mark.parametrize("shuffle", [True, False])
    def test_one_dataset_in_three_batch_orders(self, shuffle):
        # two seeds and two batch sizes on one dataset: no two models share batches
        rng = np.random.default_rng(48)
        models = [random_checkpoint(rng, self.SPECS, scale=0.5) for _ in range(3)]
        data = self.dataset(50, 10)
        cfgs = [
            TrainConfig(epochs=3, batch_size=b, learning_rate=0.1, seed=s, shuffle=shuffle)
            for b, s in ((16, 1), (16, 2), (10, 1))
        ]
        self.check(models, [data] * 3, cfgs)

    def test_zero_epoch_model_comes_back_unchanged(self):
        rng = np.random.default_rng(46)
        models = [random_checkpoint(rng, self.SPECS, scale=0.5) for _ in range(2)]
        data = self.dataset(50, 8)
        cfgs = [TrainConfig(epochs=0), TrainConfig(epochs=2, batch_size=16, seed=3)]
        outs = finetune_stack(models, [data] * 2, cfgs)
        assert outs[0] is models[0]
        self.check(models[1:], [data], cfgs[1:])

    def test_zero_epoch_model_stays_out_of_the_stack(self, monkeypatch):
        backprop, calls = nets._backprop, []
        monkeypatch.setattr(nets, "_backprop", lambda *args: calls.append(1) or backprop(*args))
        rng = np.random.default_rng(53)
        models = [random_checkpoint(rng, self.SPECS, scale=0.5) for _ in range(3)]
        data = self.dataset(50, 14)
        cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.1, seed=6)
        outs = finetune_stack(models, [data] * 3, [cfg, TrainConfig(epochs=0), cfg])
        assert len(calls) == 2 * 4  # one stacked step per round: 2 epochs of 4 batches
        assert outs[1] is models[1]
        for k in (0, 2):
            meta = replace(models[k].meta, training_epochs=models[k].meta.training_epochs + cfg.epochs)
            expected = make_checkpoint(self.SPECS, reference_sgd(models[k], data, cfg), meta)
            assert checkpoints_equal(outs[k], expected)
        calls.clear()
        outs = finetune_stack(models, [data] * 3, [TrainConfig(epochs=0)] * 3)
        assert not calls and all(out is model for out, model in zip(outs, models))

    def test_divergence_of_one_model_raises_numerical_error(self):
        from otfuse.data import DomainMixtureConfig, gen_synthetic

        data, _ = gen_synthetic(DomainMixtureConfig(), 0)
        specs = (LayerSpec(8, 16, "relu"), LayerSpec(16, 3, "identity"))
        models = [init_checkpoint(specs, seed) for seed in (0, 1)]
        cfgs = [TrainConfig(epochs=50, seed=0), TrainConfig(epochs=50, learning_rate=1e9, seed=1)]
        with pytest.raises(NumericalError, match="diverged"):
            finetune_stack(models, [data] * 2, cfgs)

    def test_rejects_mismatched_inputs(self):
        rng = np.random.default_rng(47)
        model = random_checkpoint(rng, self.SPECS)
        other = random_checkpoint(rng, (LayerSpec(3, 4, "relu"), LayerSpec(4, 3, "identity")))
        data, cfg = self.dataset(50, 9), TrainConfig(epochs=1)
        for args in (([], [], []), ([model], [data] * 2, [cfg]), ([model, other], [data] * 2, [cfg] * 2)):
            with pytest.raises(ValidationError):
                finetune_stack(*args)


class TestBatchStreams:
    """One ``_minibatches`` stream per distinct (dataset, config) pair."""

    @staticmethod
    def streams_opened(monkeypatch, models, datas, cfgs):
        minibatches, opened = nets._minibatches, []
        monkeypatch.setattr(
            nets, "_minibatches", lambda data, cfg: opened.append((data, cfg)) or minibatches(data, cfg)
        )
        return finetune_stack(models, datas, cfgs), opened

    def test_one_dataset_and_config_open_one_stream(self, monkeypatch):
        rng = np.random.default_rng(50)
        models = [random_checkpoint(rng, TestFinetuneStack.SPECS, scale=0.5) for _ in range(4)]
        data, cfg = TestFinetuneStack.dataset(50, 11), TrainConfig(epochs=2, batch_size=16, seed=4)
        _, opened = self.streams_opened(monkeypatch, models, [data] * 4, [cfg] * 4)
        assert len(opened) == 1

    def test_configs_that_differ_in_seed_open_two_streams(self, monkeypatch):
        rng = np.random.default_rng(51)
        models = [random_checkpoint(rng, TestFinetuneStack.SPECS, scale=0.5) for _ in range(2)]
        data = TestFinetuneStack.dataset(50, 12)
        cfgs = [TrainConfig(epochs=2, batch_size=16, seed=s) for s in (1, 2)]
        _, opened = self.streams_opened(monkeypatch, models, [data] * 2, cfgs)
        assert len(opened) == 2

    def test_zero_epoch_model_in_a_mixed_stack_is_returned_as_is(self, monkeypatch):
        rng = np.random.default_rng(52)
        models = [random_checkpoint(rng, TestFinetuneStack.SPECS, scale=0.5) for _ in range(3)]
        data = TestFinetuneStack.dataset(41, 13)
        cfgs = [TrainConfig(epochs=2, batch_size=16, seed=1), TrainConfig(epochs=0),
                TrainConfig(epochs=3, batch_size=16, seed=2)]
        outs, opened = self.streams_opened(monkeypatch, models, [data] * 3, cfgs)
        assert len(opened) == 2
        assert outs[1] is models[1]
        for k in (0, 2):
            meta = replace(models[k].meta, training_epochs=models[k].meta.training_epochs + cfgs[k].epochs)
            expected = make_checkpoint(models[k].specs, reference_sgd(models[k], data, cfgs[k]), meta)
            assert checkpoints_equal(outs[k], expected)


def test_default_experiment_report_is_pinned():
    """The report's bytes at the default configuration and seed 0.  Values
    print with 6 significant digits, so BLAS thread count does not move it."""
    report = run_experiment(ExperimentConfig(seeds=(0,)))
    csv = format_report_csv(report)
    digest = hashlib.sha256(csv.encode("utf-8")).hexdigest()
    assert digest == "de5599babef3fceaf5afb0cc38e4cef83846512ce7585a7b68cf031dbac7f7fe"
    text = format_report_text(report)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "710d2e103eb95f507a5113bbb3dc8961a1afdb4301ae6a9168f209e5a7363cfb"


# each case is the keyword arguments of a config, built inside the test:
# ExperimentConfig rejects them when it is built
@pytest.mark.parametrize("cfg", [
    dict(lam=2.0), dict(solver="bogus"), dict(lam="0.5"),
    dict(train_epochs=0.5), dict(seeds=(0.5,)), dict(seeds=(True,)),
    dict(seeds=("1",)), dict(domain_shift="2"),
    dict(seeds=np.arange(2)), dict(seeds=5), dict(seeds=0),
])
def test_experiment_rejects_bad_config_before_training(cfg, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the configuration was checked")

    monkeypatch.setattr(experiment, "finetune_stack", no_training)
    with pytest.raises(ValidationError):
        run_experiment(ExperimentConfig(**cfg))


def test_negative_seed_wraps_to_64_bits():
    cfg = ExperimentConfig(train_epochs=1, finetune_epochs=1)
    wrapped = run_experiment(replace(cfg, seeds=(-1,)))
    unsigned = run_experiment(replace(cfg, seeds=(2**64 - 1,)))
    for method, scores in wrapped.per_seed.items():
        assert np.array_equal(scores, unsigned.per_seed[method])
