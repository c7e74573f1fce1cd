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
from .errors import ValidationError, check_int, check_real
from .fusion import AlignmentOptions, align, direct_average, fuse
from .nets import (
    Checkpoint,
    LayerSpec,
    TrainConfig,
    accuracy,
    finetune,  # unused; perfbench/tracer.py TARGETS binds it here (ROADMAP item 1b)
    finetune_stack,
    init_checkpoint,
    loss,
    train,  # unused; perfbench/tracer.py TARGETS binds it here (ROADMAP item 1b)
)
from .serialize import check_writable

# method key -> report label, in report order
METHODS = {
    "target": "target-domain model",
    "target_ft": "  + finetune",
    "broad": "broad-domain model",
    "broad_ft": "  + finetune",
    "direct_avg": "direct avg.",
    "direct_avg_ft": "  + finetune",
    "aligned_avg": "aligned avg.",
    "aligned_avg_ft": "  + finetune (fused)",
}

# score field -> report header: held-out error rates (percent) per domain,
# then the union loss
COLUMNS = {
    "err_a": "heldout-A err%",
    "err_b": "heldout-B err%",
    "err_union": "union err%",
    "loss_union": "union loss",
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


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    config: ExperimentConfig
    per_seed: dict[str, np.ndarray]  # method -> seeds x COLUMNS scores

    def metric_array(self, method: str, field: str) -> np.ndarray:
        return self.per_seed[method][:, list(COLUMNS).index(field)].copy()


def _child_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([int(seed) % 2**64, stream]).generate_state(1)[0])


def _model_specs() -> tuple[LayerSpec, ...]:
    dims = (TASK.feature_dim, *HIDDEN, TASK.num_classes)
    specs = [
        LayerSpec(dims[i], dims[i + 1], "relu") for i in range(len(dims) - 2)
    ]
    specs.append(LayerSpec(dims[-2], dims[-1], "identity"))
    return tuple(specs)


def _score(model: Checkpoint, held_a: Dataset, held_b: Dataset, held_u: Dataset) -> list[float]:
    return [
        100.0 * (1.0 - accuracy(model, held_a)),
        100.0 * (1.0 - accuracy(model, held_b)),
        100.0 * (1.0 - accuracy(model, held_u)),
        loss(model, held_u),
    ]


def run_seed(cfg: ExperimentConfig, seed: int) -> dict[str, list[float]]:
    """Train the constituents and every fusion variant for one seed; each
    method's scores are in ``COLUMNS`` order."""
    base = replace(TASK, domain_shift=cfg.domain_shift)
    train_a, held_a = gen_synthetic(replace(base, domains=(0,)), seed)
    train_b, held_b = gen_synthetic(replace(base, domains=(1,)), seed)
    train_u = concat_datasets(train_a, train_b)
    held_u = concat_datasets(held_a, held_b)

    specs = _model_specs()
    train_cfgs = [
        TrainConfig(cfg.train_epochs, BATCH_SIZE, LEARNING_RATE, _child_seed(seed, stream))
        for stream in (1, 2)
    ]
    target, broad = finetune_stack(
        [init_checkpoint(specs, c.seed, tag="trained") for c in train_cfgs],
        [train_a, train_u],
        train_cfgs,
    )

    ft = TrainConfig(cfg.finetune_epochs, BATCH_SIZE, FINETUNE_LR, _child_seed(seed, 3))
    opts = AlignmentOptions(solver=cfg.solver)

    direct = direct_average(target, broad, cfg.lam)
    aligned = fuse(align(target, broad, opts).aligned, broad, cfg.lam)

    target_ft, broad_ft, direct_ft, aligned_ft = finetune_stack(
        [target, broad, direct, aligned], [train_u] * 4, [ft] * 4
    )
    models = {
        "target": target,
        "target_ft": target_ft,
        "broad": broad,
        "broad_ft": broad_ft,
        "direct_avg": direct,
        "direct_avg_ft": direct_ft,
        "aligned_avg": aligned,
        "aligned_avg_ft": aligned_ft,
    }
    return {name: _score(model, held_a, held_b, held_u) for name, model in models.items()}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    if not isinstance(cfg.seeds, (tuple, list)) or not cfg.seeds:
        raise ValidationError(f"experiment seeds must be a non-empty tuple or list, got {cfg.seeds!r}")
    for seed in cfg.seeds:
        check_int("experiment seed", seed)  # negatives wrap to 64 bits
    if len(set(cfg.seeds)) != len(cfg.seeds):
        raise ValidationError(f"experiment seeds must be distinct, got {list(cfg.seeds)}")
    check_int("train_epochs", cfg.train_epochs, 0)
    check_int("finetune_epochs", cfg.finetune_epochs, 0)
    check_real("lam", cfg.lam, (0.0, 1.0))
    AlignmentOptions(solver=cfg.solver)  # rejects an unknown solver before any training
    if cfg.output_dir is not None:
        os.makedirs(cfg.output_dir, exist_ok=True)
        text_path = os.path.join(cfg.output_dir, "report.txt")
        csv_path = os.path.join(cfg.output_dir, "report.csv")
        check_writable(text_path, csv_path)
    rows = [run_seed(cfg, seed) for seed in cfg.seeds]
    report = ExperimentReport(cfg, {m: np.array([r[m] for r in rows]) for m in METHODS})
    if cfg.output_dir is not None:
        with open(text_path, "w", encoding="utf-8") as fh:
            fh.write(format_report_text(report))
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(format_report_csv(report))
    return report


def _summary(report: ExperimentReport) -> dict[str, list[tuple[float, float]]]:
    """Per method, the mean and half-range over seeds of every column."""
    summary = {}
    for method in METHODS:
        cells = []
        for field in COLUMNS:
            values = report.metric_array(method, field)
            cells.append((float(values.mean()), float((values.max() - values.min()) / 2.0)))
        summary[method] = cells
    return summary


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
    header = f"{'method':<24}" + "".join(f"{h:>26}" for h in COLUMNS.values())
    lines.append(header)
    lines.append("-" * len(header))
    for method, cells in _summary(report).items():
        texts = [f"{mean:.6g} +- {half:.3g}" for mean, half in cells]
        lines.append(f"{METHODS[method]:<24}" + "".join(f"{t:>26}" for t in texts))
    return "\n".join(lines) + "\n"


def format_report_csv(report: ExperimentReport) -> str:
    cols = ["method"]
    for field in COLUMNS:
        cols += [f"{field}_mean", f"{field}_half_range"]
    rows = [",".join(cols)]
    for method, cells in _summary(report).items():
        rows.append(",".join([method] + [f"{x:.6g}" for cell in cells for x in cell]))
    return "\n".join(rows) + "\n"
