"""Two-domain fusion experiment.

Desk-scale stand-in for the full ablation: a "target" model is trained on
domain A only (the in-domain specialist) and a "broad" model on the union
of domains A and B (the generalist, which sees twice the data per epoch).
Both are then combined four ways -- direct averaging, transport-aligned
averaging, and each followed by a short fine-tune on the union training
set -- and every variant is scored on held-out data from each domain.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .data import DomainMixtureConfig, Dataset, concat_datasets, gen_synthetic
from .errors import ValidationError
from .fusion import AlignmentOptions, align, direct_average, fuse
from .nets import Checkpoint, LayerSpec, TrainConfig, accuracy, finetune, loss, train

METHOD_ORDER = (
    "target",
    "target_ft",
    "broad",
    "broad_ft",
    "direct_avg",
    "direct_avg_ft",
    "aligned_avg",
    "aligned_avg_ft",
)

METHOD_LABELS = {
    "target": "target-domain model",
    "target_ft": "  + finetune",
    "broad": "broad-domain model",
    "broad_ft": "  + finetune",
    "direct_avg": "direct avg.",
    "direct_avg_ft": "  + finetune",
    "aligned_avg": "aligned avg.",
    "aligned_avg_ft": "  + finetune (fused)",
}


# The study's fixed recipe.  The task and rates are tuned so constituents
# converge without memorizing the class overlap and ten epochs of
# fine-tuning stay genuinely moderate: enough steps to polish a good
# initialization, far too few to rescue a collapsed one.  The fine-tune rate
# is deliberately below the training rate, standing in for the decayed tail
# of a schedule.
TASK = DomainMixtureConfig(
    num_classes=5,
    feature_dim=8,
    train_per_class=150,
    heldout_per_class=40,
    noise_scale=1.3,
    mean_scale=1.6,
)
HIDDEN = (16, 16)
LEARNING_RATE = 0.1
FINETUNE_LR = 0.01
BATCH_SIZE = 64


@dataclass(frozen=True)
class ExperimentConfig:
    """What one study run varies; the rest of the recipe is the constants above."""

    seeds: tuple[int, ...] = (0,)
    domain_shift: float = 2.0
    train_epochs: int = 150
    finetune_epochs: int = 10
    lam: float = 0.5
    solver: str = "exact"
    output_dir: str | None = None


@dataclass(frozen=True)
class MethodMetrics:
    """Held-out error rates (percent) per domain plus union loss."""

    err_a: float
    err_b: float
    err_union: float
    loss_union: float


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    config: ExperimentConfig
    per_seed: dict[str, list[MethodMetrics]]  # method -> metrics in seed order

    def metric_array(self, method: str, field: str) -> np.ndarray:
        return np.array([getattr(m, field) for m in self.per_seed[method]])


def _child_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([int(seed) % 2**64, stream]).generate_state(1)[0])


def _model_specs() -> tuple[LayerSpec, ...]:
    dims = (TASK.feature_dim, *HIDDEN, TASK.num_classes)
    specs = [
        LayerSpec(dims[i], dims[i + 1], "relu") for i in range(len(dims) - 2)
    ]
    specs.append(LayerSpec(dims[-2], dims[-1], "identity"))
    return tuple(specs)


def _score(model: Checkpoint, held_a: Dataset, held_b: Dataset, held_u: Dataset) -> MethodMetrics:
    return MethodMetrics(
        err_a=100.0 * (1.0 - accuracy(model, held_a)),
        err_b=100.0 * (1.0 - accuracy(model, held_b)),
        err_union=100.0 * (1.0 - accuracy(model, held_u)),
        loss_union=loss(model, held_u),
    )


def run_seed(cfg: ExperimentConfig, seed: int) -> dict[str, MethodMetrics]:
    """Train the constituents and every fusion variant for one seed."""
    base = replace(TASK, domain_shift=cfg.domain_shift)
    train_a, held_a = gen_synthetic(replace(base, domains=(0,)), seed)
    train_b, held_b = gen_synthetic(replace(base, domains=(1,)), seed)
    train_u = concat_datasets(train_a, train_b)
    held_u = concat_datasets(held_a, held_b)

    specs = _model_specs()
    target = train(
        specs,
        train_a,
        TrainConfig(cfg.train_epochs, BATCH_SIZE, LEARNING_RATE, _child_seed(seed, 1)),
    )
    broad = train(
        specs,
        train_u,
        TrainConfig(cfg.train_epochs, BATCH_SIZE, LEARNING_RATE, _child_seed(seed, 2)),
    )

    ft = TrainConfig(cfg.finetune_epochs, BATCH_SIZE, FINETUNE_LR, _child_seed(seed, 3))
    opts = AlignmentOptions(solver=cfg.solver)

    direct = direct_average(target, broad, cfg.lam)
    aligned = fuse(align(target, broad, opts).aligned, broad, cfg.lam)

    models = {
        "target": target,
        "target_ft": finetune(target, train_u, ft),
        "broad": broad,
        "broad_ft": finetune(broad, train_u, ft),
        "direct_avg": direct,
        "direct_avg_ft": finetune(direct, train_u, ft),
        "aligned_avg": aligned,
        "aligned_avg_ft": finetune(aligned, train_u, ft),
    }
    return {name: _score(model, held_a, held_b, held_u) for name, model in models.items()}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    if not cfg.seeds:
        raise ValidationError("experiment needs at least one seed")
    if len(set(cfg.seeds)) != len(cfg.seeds):
        raise ValidationError(f"experiment seeds must be distinct, got {list(cfg.seeds)}")
    if cfg.train_epochs < 0 or cfg.finetune_epochs < 0:
        raise ValidationError("epoch counts must be >= 0")
    per_seed: dict[str, list[MethodMetrics]] = {m: [] for m in METHOD_ORDER}
    for seed in cfg.seeds:
        results = run_seed(cfg, seed)
        for method in METHOD_ORDER:
            per_seed[method].append(results[method])
    report = ExperimentReport(cfg, per_seed)
    if cfg.output_dir is not None:
        os.makedirs(cfg.output_dir, exist_ok=True)
        with open(os.path.join(cfg.output_dir, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write(format_report_text(report))
        with open(os.path.join(cfg.output_dir, "report.csv"), "w", encoding="utf-8") as fh:
            fh.write(format_report_csv(report))
    return report


def _mean_half_range(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float((values.max() - values.min()) / 2.0)


FIELDS = ("err_a", "err_b", "err_union", "loss_union")
FIELD_HEADERS = ("heldout-A err%", "heldout-B err%", "union err%", "union loss")


def format_report_text(report: ExperimentReport) -> str:
    cfg = report.config
    lines = [
        f"two-domain fusion experiment: seeds={list(cfg.seeds)} "
        f"shift={cfg.domain_shift:g} train_epochs={cfg.train_epochs} "
        f"finetune_epochs={cfg.finetune_epochs} solver={cfg.solver} "
        f"lam={cfg.lam:g}",
        "values are mean +- half-range over seeds",
        "",
    ]
    header = f"{'method':<24}" + "".join(f"{h:>26}" for h in FIELD_HEADERS)
    lines.append(header)
    lines.append("-" * len(header))
    for method in METHOD_ORDER:
        cells = []
        for field in FIELDS:
            mean, half = _mean_half_range(report.metric_array(method, field))
            cells.append(f"{mean:.6g} +- {half:.3g}")
        lines.append(f"{METHOD_LABELS[method]:<24}" + "".join(f"{c:>26}" for c in cells))
    return "\n".join(lines) + "\n"


def format_report_csv(report: ExperimentReport) -> str:
    cols = ["method"]
    for field in FIELDS:
        cols += [f"{field}_mean", f"{field}_half_range"]
    rows = [",".join(cols)]
    for method in METHOD_ORDER:
        cells = [method]
        for field in FIELDS:
            mean, half = _mean_half_range(report.metric_array(method, field))
            cells += [f"{mean:.6g}", f"{half:.6g}"]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"
