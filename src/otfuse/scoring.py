"""Measurement machinery: edit-distance error rates, hypothesis selection,
logit ensembling, and loss-landscape interpolation.

Edit counts are canonicalized: among all minimal-cost alignments the one
with the fewest non-diagonal moves is reported, which fixes the
substitution / deletion / insertion split and makes scoring symmetric
(swapping reference and hypothesis swaps deletions with insertions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import Dataset, read_lines
from .errors import DataFormatError, ValidationError, check_int, check_real
from .nets import (
    Checkpoint,
    accuracy_from_logits,
    check_model_data,
    cross_entropy_from_logits,
    forward_batch,
    interpolate,
    loss,
)


@dataclass(frozen=True)
class EditCounts:
    subs: int
    dels: int
    ins: int

    @property
    def total(self) -> int:
        return self.subs + self.dels + self.ins


@dataclass(frozen=True)
class Hypothesis:
    """One system's token sequence for one utterance, with an optional
    confidence in [0, 1] per token, checked when it is built."""

    utt_id: str
    tokens: tuple[str, ...]
    confidences: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.confidences is not None and len(self.confidences) != len(self.tokens):
            raise ValidationError(
                f"hypothesis {self.utt_id!r} has {len(self.confidences)} confidences "
                f"for {len(self.tokens)} tokens"
            )
        for c in self.confidences or ():
            check_real(f"hypothesis {self.utt_id!r} confidence", c, (0.0, 1.0))


@dataclass(frozen=True)
class HypothesisSet:
    system_name: str
    items: Mapping[str, Hypothesis]


@dataclass(frozen=True)
class OracleSelection:
    selection: dict[str, str]  # utt_id -> system_name
    wer: float


@dataclass(frozen=True)
class EnsembleMetrics:
    loss: float
    accuracy: float


@dataclass(frozen=True, eq=False)
class LandscapeCurve:
    alphas: np.ndarray
    losses: np.ndarray


def edit_distance(ref: Sequence[str], hyp: Sequence[str]) -> EditCounts:
    """Minimal substitutions + deletions + insertions turning ref into hyp."""
    # DP over (cost, non-diagonal moves), minimized lexicographically, kept
    # one reference row at a time
    prev = [(j, j) for j in range(len(hyp) + 1)]
    for i, r in enumerate(ref, start=1):
        row = [(i, i)]
        for j, h in enumerate(hyp, start=1):
            diag, up, left = prev[j - 1], prev[j], row[j - 1]
            row.append(min(
                (diag[0] + (r != h), diag[1]),  # match or substitution
                (up[0] + 1, up[1] + 1),  # deletion
                (left[0] + 1, left[1] + 1),  # insertion
            ))
        prev = row
    total, nondiag = prev[-1]
    diff = len(ref) - len(hyp)  # deletions minus insertions is fixed by the lengths
    dels = (nondiag + diff) // 2
    ins = (nondiag - diff) // 2
    return EditCounts(subs=total - nondiag, dels=dels, ins=ins)


def _reference_length(sets: Iterable[HypothesisSet], refs: Mapping[str, Sequence[str]]) -> int:
    """Check that every set covers exactly the referenced utterances, then
    return the total reference length, which must be positive."""
    ref_ids = set(refs)
    for hs in sets:
        missing = ref_ids - set(hs.items)
        extra = set(hs.items) - ref_ids
        if missing:
            raise ValidationError(
                f"system {hs.system_name!r} lacks hypotheses for {sorted(missing)[:5]}"
            )
        if extra:
            raise ValidationError(
                f"system {hs.system_name!r} has hypotheses without references: "
                f"{sorted(extra)[:5]}"
            )
    ref_len = sum(len(tokens) for tokens in refs.values())
    if ref_len == 0:
        raise ValidationError("total reference length is zero")
    return ref_len


def _check_systems(sets: Sequence[HypothesisSet]) -> None:
    """Selections name systems, so each set needs a distinct name."""
    if not sets:
        raise ValidationError("need at least one hypothesis set")
    names = [hs.system_name for hs in sets]
    if len(set(names)) != len(names):
        raise ValidationError(f"hypothesis sets need distinct system names, got {names}")


def error_rate(refs: Mapping[str, Sequence[str]], hyps: HypothesisSet) -> float:
    """Sum of edit totals over the sum of reference lengths (may exceed 1)."""
    ref_len = _reference_length([hyps], refs)
    total = sum(
        edit_distance(refs[utt], hyps.items[utt].tokens).total for utt in refs
    )
    return total / ref_len


def oracle_select(sets: Sequence[HypothesisSet], refs: Mapping[str, Sequence[str]]) -> OracleSelection:
    """Per utterance, pick the system with the fewest edits against the
    reference (ties go to the earliest system)."""
    _check_systems(sets)
    ref_len = _reference_length(sets, refs)
    selection: dict[str, str] = {}
    total = 0
    for utt in refs:
        edits = [edit_distance(refs[utt], hs.items[utt].tokens).total for hs in sets]
        best = edits.index(min(edits))
        selection[utt] = sets[best].system_name
        total += edits[best]
    return OracleSelection(selection, total / ref_len)


def mean_confidence(hyp: Hypothesis) -> float:
    """Average token confidence; an empty hypothesis scores 0."""
    if hyp.confidences is None:
        raise ValidationError(f"hypothesis {hyp.utt_id!r} carries no confidences")
    if not hyp.confidences:
        return 0.0
    return float(np.mean(hyp.confidences))


def confidence_select(sets: Sequence[HypothesisSet]) -> dict[str, str]:
    """Per utterance, pick the system with the highest mean confidence
    (ties go to the earliest system)."""
    _check_systems(sets)
    utt_ids = set(sets[0].items)
    for hs in sets[1:]:
        if set(hs.items) != utt_ids:
            raise ValidationError("hypothesis sets cover different utterances")
    selection: dict[str, str] = {}
    for utt in sets[0].items:
        confs = [mean_confidence(hs.items[utt]) for hs in sets]
        selection[utt] = sets[confs.index(max(confs))].system_name
    return selection


def selected_set(sets: Sequence[HypothesisSet], selection: Mapping[str, str], name: str = "selected") -> HypothesisSet:
    """Assemble the per-utterance winners into a new hypothesis set."""
    _check_systems(sets)
    by_name = {hs.system_name: hs for hs in sets}
    items = {utt: by_name[sys].items[utt] for utt, sys in selection.items()}
    return HypothesisSet(name, items)


def ensemble_logits(models: Sequence[Checkpoint], data: Dataset) -> EnsembleMetrics:
    """Classify by the unweighted mean of the models' output logits."""
    if not models:
        raise ValidationError("need at least one model")
    for m in models:
        check_model_data(m.specs, data)
    stacked = np.stack([forward_batch(m, data.features) for m in models])
    mean_logits = stacked.mean(axis=0)
    return EnsembleMetrics(
        loss=cross_entropy_from_logits(mean_logits, data.labels),
        accuracy=accuracy_from_logits(mean_logits, data.labels),
    )


def landscape(theta0: Checkpoint, theta: Checkpoint, data: Dataset, num_points: int = 21) -> LandscapeCurve:
    """Loss along the straight line between two checkpoints.

    The grid is uniform over [0, 1] and always contains both endpoints, so
    the first and last losses equal direct evaluations of the inputs.
    """
    check_int("num_points", num_points, 2)
    if num_points > np.iinfo(np.intp).max // 8:
        raise ValidationError(f"num_points is too large for one float64 array: {num_points}")
    alphas = np.linspace(0.0, 1.0, num_points)
    losses = np.array(
        [loss(interpolate(theta0, theta, float(a)), data) for a in alphas]
    )
    return LandscapeCurve(alphas, losses)


# --- file formats ---------------------------------------------------------


def _split_tokens(field: str) -> tuple[str, ...]:
    """Space-separated fields, dropping the empty ones that repeated,
    leading or trailing spaces leave."""
    return tuple(t for t in field.split(" ") if t)


def _read_tsv(path, layout: str, max_fields: int, what: str) -> dict[str, tuple[str, list[str]]]:
    """``utt_id -> (path:lineno, fields after the utt_id)`` for a file of
    ``utt_id<TAB>...`` lines.

    Blank lines are skipped; every other line has 2 to ``max_fields`` fields
    (``layout`` names them in the error), no utt_id repeats, and the file
    holds at least one record (``what`` names them in the error).
    """
    records: dict[str, tuple[str, list[str]]] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        where = f"{path}:{lineno}"
        parts = line.split("\t")
        if not 2 <= len(parts) <= max_fields:
            raise DataFormatError(f"{where}: expected '{layout}', got {len(parts)} fields")
        if parts[0] in records:
            raise DataFormatError(f"{where}: duplicate utt_id {parts[0]!r}")
        records[parts[0]] = (where, parts[1:])
    if not records:
        raise DataFormatError(f"{path}: no {what}")
    return records


def read_references(path) -> dict[str, tuple[str, ...]]:
    """Lines of ``utt_id<TAB>token token token``."""
    records = _read_tsv(path, "utt_id<TAB>tokens", 2, "references")
    return {utt: _split_tokens(fields[0]) for utt, (_, fields) in records.items()}


def read_hypotheses(path, system_name: str) -> HypothesisSet:
    """Lines of ``utt_id<TAB>tokens[<TAB>c1 c2 c3]`` with optional confidences."""
    items: dict[str, Hypothesis] = {}
    for utt, (where, fields) in _read_tsv(
        path, "utt_id<TAB>tokens[<TAB>confidences]", 3, "hypotheses"
    ).items():
        try:
            confidences = tuple(float(c) for c in _split_tokens(fields[1])) if len(fields) == 2 else None
            items[utt] = Hypothesis(utt, _split_tokens(fields[0]), confidences)
        except (ValueError, ValidationError) as exc:
            raise DataFormatError(f"{where}: {exc}") from exc
    return HypothesisSet(system_name, items)


def write_landscape_csv(curve: LandscapeCurve, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("alpha,loss\n")
        for a, l in zip(curve.alphas, curve.losses):
            fh.write(f"{a:.6g},{l:.6g}\n")
