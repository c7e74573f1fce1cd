"""Labeled datasets and the synthetic two-domain classification task.

The synthetic task emulates the in-domain vs. broad-data asymmetry that the
fusion experiments need: every domain shares the same class structure, but
each non-canonical domain's class means are shifted by a fixed amount in a
random direction.  Sampling uses one independent, seeded stream per domain,
so generating domain 0 alone yields exactly the domain-0 rows of a joint
generation.

A ``Dataset`` checks itself and freezes copies of its arrays when it is
built, so nothing that takes one checks it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FINITE, DataFormatError, ValidationError, check_int, check_real

_SEED_SPACE = 2**64


def seeded_rng(*keys: int) -> np.random.Generator:
    """Generator keyed by one or more 64-bit integers (negatives wrap)."""
    return np.random.default_rng([int(k) % _SEED_SPACE for k in keys])


def frozen_copy(values, dtype=np.float64) -> np.ndarray:
    """A read-only, C-contiguous copy of ``values`` as ``dtype``."""
    out = np.array(values, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature rows with integer class labels in ``[0, num_classes)``.  Building
    one stores read-only float64 features and int64 labels, then validates them."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        labels = np.asarray(self.labels)
        check_int("num_classes", self.num_classes, 1)
        object.__setattr__(self, "num_classes", int(self.num_classes))
        if self.num_classes > np.iinfo(np.int64).max:  # its labels must fit the int64 copy
            raise ValidationError(f"num_classes must fit int64, got {self.num_classes}")
        if labels.size:
            # an object array of Python ints holds labels past 64 bits
            if labels.dtype.kind not in "iu" and {type(v) for v in labels.flat} != {int}:
                raise ValidationError(f"labels must be integers, got dtype {labels.dtype}")
            # on the values as given: the int64 copy would wrap 2**63 to -2**63
            if labels.min() < 0 or labels.max() >= self.num_classes:
                raise ValidationError(
                    f"labels must lie in [0, {self.num_classes}), "
                    f"got range [{labels.min()}, {labels.max()}]"
                )
        object.__setattr__(self, "features", frozen_copy(self.features))
        object.__setattr__(self, "labels", frozen_copy(labels, np.int64))
        if self.features.ndim != 2:
            raise ValidationError(f"features must be 2-D, got {self.features.shape}")
        if self.features.shape[0] == 0:
            raise ValidationError("dataset is empty")
        if not np.isfinite(self.features).all():
            raise ValidationError("features contain non-finite values")
        if self.labels.shape != (self.features.shape[0],):
            raise ValidationError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.features.shape[0]} samples"
            )


def concat_datasets(*parts: Dataset) -> Dataset:
    """Stack datasets with identical feature dims and class counts."""
    if not parts:
        raise ValidationError("concat_datasets needs at least one dataset")
    dims = {p.features.shape[1] for p in parts}
    classes = {p.num_classes for p in parts}
    if len(dims) != 1 or len(classes) != 1:
        raise ValidationError("datasets disagree on feature_dim or num_classes")
    return Dataset(
        np.vstack([p.features for p in parts]),
        np.concatenate([p.labels for p in parts]),
        parts[0].num_classes,
    )


@dataclass(frozen=True)
class DomainMixtureConfig:
    """Gaussian-mixture task with one shifted copy of the classes per domain.

    ``domains`` selects which domains to emit; domain 0 is unshifted and
    domain k >= 1 moves every class mean by ``domain_shift`` along a random
    unit direction drawn per (domain, class).
    """

    num_classes: int = 3
    feature_dim: int = 8
    domains: tuple[int, ...] = (0, 1)
    train_per_class: int = 50
    heldout_per_class: int = 25
    domain_shift: float = 2.0
    noise_scale: float = 0.6
    mean_scale: float = 2.5


def _class_means(cfg: DomainMixtureConfig, seed: int) -> np.ndarray:
    rng = seeded_rng(seed, 101)
    return cfg.mean_scale * rng.standard_normal((cfg.num_classes, cfg.feature_dim))


def _domain_offsets(cfg: DomainMixtureConfig, seed: int, domain: int) -> np.ndarray:
    if domain == 0 or cfg.domain_shift == 0.0:
        return np.zeros((cfg.num_classes, cfg.feature_dim))
    rng = seeded_rng(seed, 211, domain)
    dirs = rng.standard_normal((cfg.num_classes, cfg.feature_dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return cfg.domain_shift * dirs


def gen_synthetic(cfg: DomainMixtureConfig, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic (train, heldout) pair for the configured domains."""
    check_int("num_classes", cfg.num_classes, 2)
    for name in ("feature_dim", "train_per_class", "heldout_per_class"):
        check_int(name, getattr(cfg, name), 1)
    check_real("noise_scale", cfg.noise_scale)
    check_real("domain_shift", cfg.domain_shift, FINITE)
    check_real("mean_scale", cfg.mean_scale, FINITE)
    if not cfg.domains:
        raise ValidationError("need at least 1 domain")
    for d in cfg.domains:
        check_int("domain index", d, 0)

    means = _class_means(cfg, seed)
    train_x, train_y, held_x, held_y = [], [], [], []
    for domain in cfg.domains:
        centers = means + _domain_offsets(cfg, seed, domain)
        for split, per_class, xs, ys in (
            ("train", cfg.train_per_class, train_x, train_y),
            ("heldout", cfg.heldout_per_class, held_x, held_y),
        ):
            rng = seeded_rng(seed, 307, domain, 0 if split == "train" else 1)
            for c in range(cfg.num_classes):
                pts = centers[c] + cfg.noise_scale * rng.standard_normal(
                    (per_class, cfg.feature_dim)
                )
                xs.append(pts)
                ys.append(np.full(per_class, c, dtype=np.int64))

    train = Dataset(np.vstack(train_x), np.concatenate(train_y), cfg.num_classes)
    heldout = Dataset(np.vstack(held_x), np.concatenate(held_y), cfg.num_classes)
    return train, heldout


def save_dataset_csv(ds: Dataset, path) -> None:
    """Write ``f0,...,f{d-1},label`` rows under the standard header."""
    dim = ds.features.shape[1]
    header = ",".join(f"f{i}" for i in range(dim)) + ",label"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row, label in zip(ds.features, ds.labels):
            cells = [repr(float(v)) for v in row]
            fh.write(",".join(cells) + f",{int(label)}\n")


def read_lines(path) -> list[str]:
    """Lines of a UTF-8 text file without their newlines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def load_dataset_csv(path, num_classes: int) -> Dataset:
    """Read a dataset file whose labels lie in ``[0, num_classes)``; a file
    that lacks the highest classes still loads."""
    lines = read_lines(path)
    if not lines:
        raise DataFormatError(f"{path}: empty dataset file")
    header = lines[0].split(",")
    if header[-1] != "label" or any(not h.startswith("f") for h in header[:-1]):
        raise DataFormatError(f"{path}: bad header {lines[0]!r}")
    dim = len(header) - 1
    feats, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise DataFormatError(
                f"{path}:{lineno}: expected {dim + 1} columns, got {len(cells)}"
            )
        try:
            feats.append([float(c) for c in cells[:-1]])
            labels.append(int(cells[-1]))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        if not np.isfinite(feats[-1]).all():
            raise DataFormatError(f"{path}:{lineno}: non-finite feature value")
    if not feats:
        raise DataFormatError(f"{path}: no samples")
    try:
        # as Python ints, so a label past 64 bits reaches Dataset's check as itself
        return Dataset(np.asarray(feats), np.array(labels, dtype=object), num_classes)
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
