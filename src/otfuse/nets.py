"""Small deterministic feed-forward networks.

Everything here is seeded and single-threaded: given the same inputs and the
same seed, ``train``/``finetune`` return bit-identical checkpoints.  Layers
are affine maps followed by elementwise activations (relu, tanh, identity);
the final layer always produces raw logits.

A ``Checkpoint`` checks itself when it is built, so nothing that takes one
checks it again.  It stores its parameters once, as one read-only vector
whose views are its layers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, seeded_rng
from .errors import FINITE, NumericalError, ValidationError, check_int, check_real

ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass(frozen=True)
class LayerSpec:
    """Shape and activation of one affine layer."""

    in_dim: int
    out_dim: int
    activation: str = "relu"


@dataclass(frozen=True, eq=False)
class LayerWeights:
    """Weight matrix (out_dim x in_dim) and bias vector (out_dim,)."""

    w: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class CheckpointMeta:
    seed: int = 0
    training_epochs: int = 0
    tag: str = ""


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """Layer specs, metadata and ``params``, one read-only float64 vector in
    ``_layout`` order whose views are ``layers``.  Building one validates the
    given arrays as float64, then packs them into ``params``, one copy."""

    specs: tuple[LayerSpec, ...]
    layers: tuple[LayerWeights, ...]
    meta: CheckpointMeta = CheckpointMeta()
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        layers = tuple(LayerWeights(np.asarray(l.w, np.float64), np.asarray(l.b, np.float64)) for l in self.layers)
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "layers", layers)
        validate_checkpoint(self)  # the shapes, before they are packed
        params = np.concatenate([a.ravel() for layer in layers for a in (layer.w, layer.b)])
        params.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "layers", tuple(LayerWeights(w, b) for w, b in _layout(self.specs, params)))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 16
    learning_rate: float = 0.1
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        check_int("epochs", self.epochs, 0)
        check_int("batch_size", self.batch_size, 1)
        check_real("learning_rate", self.learning_rate)
        check_int("seed", self.seed)  # no lower bound: negative seeds wrap
        if not isinstance(self.shuffle, (bool, np.bool_)):
            raise ValidationError(f"shuffle must be a bool, got {self.shuffle!r}")


def validate_spec_chain(specs) -> tuple[LayerSpec, ...]:
    """Check that layer dimensions chain and the last activation is identity."""
    specs = tuple(specs)
    if not specs:
        raise ValidationError("spec chain is empty")
    for i, spec in enumerate(specs):
        check_int(f"layer {i} in_dim", spec.in_dim, 1)
        check_int(f"layer {i} out_dim", spec.out_dim, 1)
        if spec.out_dim * spec.in_dim > np.iinfo(np.intp).max // 8:
            raise ValidationError(f"layer {i} is too large for one float64 array: {spec}")
        if spec.activation not in ACTIVATIONS:
            raise ValidationError(
                f"layer {i} has unknown activation {spec.activation!r}; "
                f"expected one of {ACTIVATIONS}"
            )
        if i > 0 and spec.in_dim != specs[i - 1].out_dim:
            raise ValidationError(
                f"layer {i} in_dim {spec.in_dim} does not match "
                f"layer {i - 1} out_dim {specs[i - 1].out_dim}"
            )
    if specs[-1].activation != "identity":
        raise ValidationError("final layer activation must be identity (logits)")
    return specs


def validate_checkpoint(ckpt: Checkpoint) -> None:
    """The checks ``Checkpoint`` runs on itself when it is built."""
    check_int("meta seed", ckpt.meta.seed)
    check_int("meta training_epochs", ckpt.meta.training_epochs, 0)
    if not isinstance(ckpt.meta.tag, str):
        raise ValidationError(f"meta tag must be a string, got {ckpt.meta.tag!r}")
    validate_spec_chain(ckpt.specs)
    if len(ckpt.layers) != len(ckpt.specs):
        raise ValidationError(
            f"checkpoint has {len(ckpt.layers)} weight layers for "
            f"{len(ckpt.specs)} specs"
        )
    for i, (spec, layer) in enumerate(zip(ckpt.specs, ckpt.layers)):
        if layer.w.shape != (spec.out_dim, spec.in_dim):
            raise ValidationError(
                f"layer {i} weight shape {layer.w.shape} does not match spec "
                f"({spec.out_dim}, {spec.in_dim})"
            )
        if layer.b.shape != (spec.out_dim,):
            raise ValidationError(
                f"layer {i} bias shape {layer.b.shape} does not match spec "
                f"({spec.out_dim},)"
            )
        if not (np.isfinite(layer.w).all() and np.isfinite(layer.b).all()):
            raise ValidationError(f"layer {i} contains non-finite values")


def make_checkpoint(specs, layers, meta: CheckpointMeta = CheckpointMeta()) -> Checkpoint:
    """``Checkpoint(...)`` under the name the benchmark's tracer wraps (ROADMAP item 1b)."""
    return Checkpoint(specs, layers, meta)


def check_same_specs(a: Checkpoint, b: Checkpoint, op: str) -> None:
    """The one architecture check of an operation on two checkpoints."""
    if a.specs != b.specs:
        raise ValidationError(f"{op} requires identical layer specs: {a.specs} vs {b.specs}")


def max_weight_difference(a: Checkpoint, b: Checkpoint) -> float:
    """Largest absolute difference over all weights and biases."""
    check_same_specs(a, b, "max_weight_difference")
    return float(np.abs(a.params - b.params).max())


def init_checkpoint(specs, seed: int, tag: str = "init") -> Checkpoint:
    """Seeded initialization: weights uniform in +-1/sqrt(in_dim), zero biases."""
    specs = validate_spec_chain(specs)
    check_int("seed", seed)
    rng = seeded_rng(seed)
    layers = []
    for spec in specs:
        bound = 1.0 / np.sqrt(spec.in_dim)
        w = rng.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim))
        b = np.zeros(spec.out_dim)
        layers.append(LayerWeights(w, b))
    meta = CheckpointMeta(seed=seed, training_epochs=0, tag=tag)
    return make_checkpoint(specs, layers, meta)


def _layer_forward(a: np.ndarray, wt: np.ndarray, b: np.ndarray, kind: str) -> np.ndarray:
    """One layer's output ``activation(a @ w.T + b)``; the bias add and the
    activation run in place on the product's fresh array."""
    z = a @ wt
    z += b
    if kind == "relu":
        np.maximum(z, 0.0, out=z)
    elif kind == "tanh":
        np.tanh(z, out=z)
    return z


def forward_batch(ckpt: Checkpoint, x: np.ndarray) -> np.ndarray:
    """Logits for a batch of feature rows (num_samples x in_dim)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != ckpt.specs[0].in_dim:
        raise ValidationError(
            f"input shape {x.shape} does not match in_dim {ckpt.specs[0].in_dim}"
        )
    a = x
    for spec, layer in zip(ckpt.specs, ckpt.layers):
        a = _layer_forward(a, layer.w.T, layer.b, spec.activation)
    return a


def cross_entropy_from_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy, stabilized with the log-sum-exp trick."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    m = logits.max(axis=1)
    # log softmax denominator, grouped so that uniform logits give ln(C) exactly
    lse = np.log(np.exp(logits - m[:, None]).sum(axis=1))
    picked = logits[np.arange(len(labels)), labels]
    per_sample = lse + (m - picked)
    return float(per_sample.mean())


def accuracy_from_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == np.asarray(labels)))


def check_model_data(specs: tuple[LayerSpec, ...], data: Dataset) -> None:
    if data.features.shape[1] != specs[0].in_dim:
        raise ValidationError(
            f"dataset feature_dim {data.features.shape[1]} does not match "
            f"model in_dim {specs[0].in_dim}"
        )
    if data.num_classes != specs[-1].out_dim:
        raise ValidationError(
            f"dataset num_classes {data.num_classes} does not match "
            f"model out_dim {specs[-1].out_dim}"
        )


def loss(ckpt: Checkpoint, data: Dataset) -> float:
    """Mean cross-entropy of the model on the dataset."""
    check_model_data(ckpt.specs, data)
    return cross_entropy_from_logits(forward_batch(ckpt, data.features), data.labels)


def accuracy(ckpt: Checkpoint, data: Dataset) -> float:
    """Fraction of samples whose argmax logit equals the label."""
    check_model_data(ckpt.specs, data)
    return accuracy_from_logits(forward_batch(ckpt, data.features), data.labels)


def _layout(specs, theta: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(w, b)`` views of each layer in one flat parameter vector (P,), or
    in every row of a (K, P) stack: ``w`` is ([K,] out_dim, in_dim) and
    ``b`` is ([K,] out_dim).  A vector holds the layers in order, each as its
    row-major weight matrix followed by its bias."""
    lead = theta.shape[:-1]
    views, start = [], 0
    for spec in specs:
        mid = start + spec.out_dim * spec.in_dim
        stop = mid + spec.out_dim
        views.append((
            theta[..., start:mid].reshape(*lead, spec.out_dim, spec.in_dim),
            theta[..., mid:stop],
        ))
        start = stop
    return views


def _backprop(specs, params, grads, x: np.ndarray, onehot: np.ndarray) -> None:
    """Write the gradients of each model's mean cross-entropy into ``grads``.

    ``params`` holds ``(w, w.T, b)`` and ``grads`` holds ``(gw, gb)`` per
    layer, ``_layout`` views of one vector or of a (K, P) stack.  ``x`` and
    ``onehot`` (the one-hot labels of x's rows) are a (B, ...) minibatch, or
    for a stack one (K, B, ...) minibatch per model.  Each model's slice of
    every stacked product and sum is the single-model operation, so a
    stack's results are bit-identical to its models' alone.  Works on raw
    arrays and checks nothing; callers validate first.
    """
    acts = [x]  # post-activations, acts[0] is the input
    for spec, (_, wt, b) in zip(specs, params):
        acts.append(_layer_forward(acts[-1], wt, b, spec.activation))

    # the class max column by column: over so short an axis a few
    # elementwise maxima cost less than one reduce
    logits = acts[-1]
    top = logits[..., :1]
    for c in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., c : c + 1])
    delta = logits - top
    np.exp(delta, out=delta)
    delta /= delta.sum(axis=-1, keepdims=True)
    delta -= onehot
    delta /= x.shape[-2]  # gradient of the mean cross-entropy wrt logits

    for i in range(len(params) - 1, -1, -1):
        # derivatives from the layer's output, so no pre-activations are kept
        a = acts[i + 1]
        if specs[i].activation == "relu":
            delta *= a > 0.0
        elif specs[i].activation == "tanh":
            delta *= 1.0 - a * a
        gw, gb = grads[i]
        np.matmul(delta.swapaxes(-1, -2), acts[i], out=gw)
        delta.sum(axis=-2, out=gb)
        if i > 0:
            delta = delta @ params[i][0]


def _params(specs, theta: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The ``(w, w.T, b)`` views ``_backprop`` reads, made once per vector or
    stack; a stack's biases get a batch axis, (K, 1, out_dim), to broadcast."""
    return [
        (w, w.swapaxes(-1, -2), b if b.ndim == 1 else b[:, None, :])
        for w, b in _layout(specs, theta)
    ]


def loss_gradients(ckpt: Checkpoint, data: Dataset) -> list[LayerWeights]:
    """Backprop gradients of ``loss`` with respect to every weight and bias.

    Returned as one ``LayerWeights`` of gradient views per layer, in layer order.
    """
    check_model_data(ckpt.specs, data)
    grads = _layout(ckpt.specs, np.empty_like(ckpt.params))
    _backprop(ckpt.specs, _params(ckpt.specs, ckpt.params), grads, data.features, np.eye(data.num_classes)[data.labels])
    return [LayerWeights(gw, gb) for gw, gb in grads]


def train(specs, data: Dataset, cfg: TrainConfig) -> Checkpoint:
    """Minibatch SGD from a seeded initialization; deterministic in cfg.seed."""
    specs = validate_spec_chain(specs)
    check_model_data(specs, data)  # before init_checkpoint allocates the weights
    return finetune(init_checkpoint(specs, cfg.seed, tag="trained"), data, cfg)


def finetune(ckpt: Checkpoint, data: Dataset, cfg: TrainConfig) -> Checkpoint:
    """Continue minibatch SGD from an existing checkpoint for ``cfg.epochs``
    epochs; deterministic in cfg.seed.  A stack of one in ``finetune_stack``."""
    return finetune_stack([ckpt], [data], [cfg])[0]


def _minibatches(data: Dataset, cfg: TrainConfig):
    """``cfg.epochs`` epochs of (features, one-hot labels) minibatches in the
    batch order ``cfg`` sets.  A shuffled epoch gathers its rows once, so a
    minibatch is two slices."""
    rng = seeded_rng(cfg.seed)
    x, y = data.features, np.eye(data.num_classes)[data.labels]
    n, size = x.shape[0], cfg.batch_size
    for _ in range(cfg.epochs):
        if cfg.shuffle:
            order = rng.permutation(n)
            ex, ey = x[order], y[order]
        else:
            ex, ey = x, y
        for start in range(0, n, size):
            yield ex[start : start + size], ey[start : start + size]


def finetune_stack(ckpts, datas, cfgs) -> list[Checkpoint]:
    """``finetune`` of K same-spec checkpoints, model ``i`` on ``datas[i]``
    with ``cfgs[i]``.  Each result is bit-identical to ``finetune`` run alone,
    and a model with 0 epochs comes back as the same object.

    The ``params`` of the K models that train are one (K, P) stack, and a
    0-epoch model stays out of it.  Each distinct pair of dataset and config
    among them is one ``_minibatches`` stream, shared by the models that have
    that pair, and a model has finished when its stream runs out.  The streams
    advance in lockstep, one minibatch each per round.  A round in which no
    stacked model has finished and every batch has the same row count is one
    stacked step: (K, B, k) @ (K, k, h) products (one shared stream's batch
    broadcasts), then one multiply by the K x 1 learning-rate column and one
    subtract.  Any other round (a partial last batch, or a finished model)
    steps each model that has a batch alone on its row, as every round of a
    stack of one does, with one model's 2-D products.  One finiteness check of
    the stack after the last round catches divergence.
    """
    ckpts, datas, cfgs = list(ckpts), list(datas), list(cfgs)
    if not ckpts or len(datas) != len(ckpts) or len(cfgs) != len(ckpts):
        raise ValidationError(
            f"finetune_stack needs one dataset and config per checkpoint, got "
            f"{len(ckpts)} checkpoints, {len(datas)} datasets, {len(cfgs)} configs"
        )
    specs = ckpts[0].specs
    for ckpt, data in zip(ckpts, datas):
        check_same_specs(ckpts[0], ckpt, "finetune_stack")
        check_model_data(specs, data)
    trained = [k for k, cfg in enumerate(cfgs) if cfg.epochs > 0]  # the stack's models
    if not trained:
        return ckpts
    streams = {}  # (dataset, config) -> index of its batch stream
    src = [streams.setdefault((datas[k], cfgs[k]), len(streams)) for k in trained]
    rates = [cfgs[k].learning_rate for k in trained]

    theta = np.stack([ckpts[k].params for k in trained])
    grad = np.empty_like(theta)
    params, grads = _params(specs, theta), _layout(specs, grad)
    rate = np.array([[lr] for lr in rates])
    alone = [  # each model's rows, for the rounds it steps alone
        (_params(specs, theta[k]), _layout(specs, grad[k]), theta[k], grad[k], lr)
        for k, lr in enumerate(rates)
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for drawn in itertools.zip_longest(*(_minibatches(*pair) for pair in streams)):
            batches = [drawn[s] for s in src]
            # a stack of one steps alone, so a single model runs the 2-D kernel
            if len(src) > 1 and None not in batches and len({len(x) for x, _ in batches}) == 1:
                x, y = drawn[0] if len(streams) == 1 else map(np.array, zip(*batches))
                _backprop(specs, params, grads, x, y)
                grad *= rate
                theta -= grad
                continue
            for (p, g, th, gr, lr), batch in zip(alone, batches):
                if batch is not None:
                    _backprop(specs, p, g, *batch)
                    gr *= lr
                    th -= gr
    if not np.isfinite(theta).all():
        raise NumericalError(
            "training diverged to non-finite weights; lower the learning rate"
        )
    rows = iter(theta)  # the trained models' rows, in order
    return [
        ckpt if cfg.epochs == 0 else make_checkpoint(  # copies, so theta is not shared
            specs,
            [LayerWeights(w, b) for w, b in _layout(specs, next(rows))],
            replace(ckpt.meta, training_epochs=ckpt.meta.training_epochs + cfg.epochs),
        )
        for ckpt, cfg in zip(ckpts, cfgs)
    ]


def blend_layers(ckpt0: Checkpoint, ckpt1: Checkpoint, alpha: float) -> list[LayerWeights]:
    """The layers of ``interpolate``, for callers that set their own meta and
    have checked that the specs match."""
    theta = (1.0 - alpha) * ckpt0.params + alpha * ckpt1.params
    return [LayerWeights(w, b) for w, b in _layout(ckpt0.specs, theta)]


def interpolate(ckpt0: Checkpoint, ckpt1: Checkpoint, alpha: float) -> Checkpoint:
    """Affine blend ``(1 - alpha) * ckpt0 + alpha * ckpt1``, layer by layer."""
    check_same_specs(ckpt0, ckpt1, "interpolate")
    check_real("alpha", alpha, FINITE)
    meta = CheckpointMeta(
        seed=ckpt0.meta.seed,
        training_epochs=0,
        tag=f"blend({ckpt0.meta.tag}|{ckpt1.meta.tag},{alpha:g})",
    )
    return make_checkpoint(ckpt0.specs, blend_layers(ckpt0, ckpt1, alpha), meta)
