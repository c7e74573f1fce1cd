"""Output checks, written against the file formats rather than otfuse's code.

Checkpoints and maps are decoded here from their JSON/base64 form, logits
come from this module's own forward pass, and every cost matrix is rebuilt
with plain numpy and solved by ``scipy.optimize.linear_sum_assignment``, so
a defect in the program cannot hide behind the same defect in its check.
"""

from __future__ import annotations

import base64
import csv
import json
import math

import numpy as np

LOGIT_ATOL = 1e-9
OBJECTIVE_RTOL = 1e-9
MARGINAL_ATOL = 1e-8
STUDY_METHODS = (
    "target",
    "target_ft",
    "broad",
    "broad_ft",
    "direct_avg",
    "direct_avg_ft",
    "aligned_avg",
    "aligned_avg_ft",
)


def _f8(text: str, shape) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f8").reshape(shape).astype(np.float64)


def read_checkpoint(path) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(activation, w, b) per layer."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    out = []
    for spec, layer in zip(doc["specs"], doc["layers"], strict=True):
        shape = (spec["out_dim"], spec["in_dim"])
        out.append((spec["activation"], _f8(layer["w"], shape), _f8(layer["b"], shape[:1])))
    return out


def read_maps(path) -> tuple[list[np.ndarray], list[float]]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    maps = [_f8(m["coupling"], (m["side"], m["side"])) for m in doc["maps"]]
    return maps, [float(x) for x in doc["objectives"]]


def forward(layers, x: np.ndarray) -> np.ndarray:
    for act, w, b in layers:
        x = x @ w.T + b
        if act == "relu":
            x = np.maximum(x, 0.0)
        elif act == "tanh":
            x = np.tanh(x)
    return x


def error_pct(layers, x: np.ndarray, y: np.ndarray) -> float:
    return 100.0 * float(np.mean(np.argmax(forward(layers, x), axis=1) != y))


def row_costs(a: np.ndarray, b: np.ndarray, chunk: int = 16) -> np.ndarray:
    """Euclidean distances between rows, from explicit differences so that
    identical rows cost exactly zero; row chunks bound the memory."""
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(0, a.shape[0], chunk):
        d = a[i : i + chunk, None, :] - b[None, :, :]
        out[i : i + chunk] = np.sqrt((d * d).sum(axis=2))
    return out


def _permutation_of(t: np.ndarray) -> np.ndarray | None:
    """Column index per row if ``t`` is a permutation scaled by 1/m, to the
    same 1e-9 relative tolerance the program uses to detect one."""
    m = t.shape[0]
    cols = np.argmax(t, axis=1)
    p = np.zeros_like(t)
    p[np.arange(m), cols] = 1.0 / m
    if len(set(cols.tolist())) != m or np.abs(t - p).max() > 1e-9 / m:
        return None
    return cols


def _close(x: float, ref: float, rtol: float) -> bool:
    return abs(x - ref) <= rtol * max(abs(ref), 1e-300)


def check_alignment(model_a, model_b, aligned_path, maps_path, held_x, exact: bool):
    """Check one ``otfuse align`` output against the pair it was given.

    Returns (problems, tied_rows, solved_rows).  The last layer is pinned to
    the identity map, so only hidden layers count towards the tie share.
    """
    from scipy.optimize import linear_sum_assignment

    problems: list[str] = []
    maps, objectives = read_maps(maps_path)
    if len(maps) != len(model_a) or len(objectives) != len(model_a):
        return [f"{len(maps)} maps / {len(objectives)} objectives for {len(model_a)} layers"], 0, 0
    tied = solved = 0
    carrier = None  # puts A's inputs in B's unit order, as the program does
    for l, ((_, wa, _), (_, wb, _), t, obj) in enumerate(zip(model_a, model_b, maps, objectives)):
        m = wa.shape[0]
        w_hat = wa if carrier is None else wa @ carrier
        cost = row_costs(w_hat, wb)
        last = l == len(maps) - 1
        if not last:
            mins = cost.min(axis=1, keepdims=True)
            tied += int(((cost == mins).sum(axis=1) > 1).sum())
            solved += m
        rows, cols = linear_sum_assignment(cost)
        optimum = float(cost[rows, cols].sum()) / m
        if (t < 0).any():
            problems.append(f"layer {l}: negative coupling entries")
        row_err = np.abs(t.sum(axis=1) - 1.0 / m).max()
        col_err = np.abs(t.sum(axis=0) - 1.0 / m).max()
        if max(row_err, col_err) > MARGINAL_ATOL:
            problems.append(f"layer {l}: marginals off by {max(row_err, col_err):.2e}")
        own = float((t * cost).sum())
        if not _close(obj, own, OBJECTIVE_RTOL):
            problems.append(f"layer {l}: reported objective {obj!r} != coupling cost {own!r}")
        perm = _permutation_of(t)
        if last:
            if perm is None or (perm != np.arange(m)).any():
                problems.append(f"layer {l}: output layer map is not the identity")
        elif exact:
            if perm is None:
                problems.append(f"layer {l}: exact map is not a scaled permutation")
            if not _close(obj, optimum, OBJECTIVE_RTOL):
                problems.append(f"layer {l}: objective {obj!r} != assignment optimum {optimum!r}")
        elif obj < optimum * (1.0 - OBJECTIVE_RTOL):
            problems.append(f"layer {l}: soft objective {obj!r} below exact optimum {optimum!r}")
        if perm is not None:
            carrier = np.zeros((m, m))
            carrier[np.arange(m), perm] = 1.0
        else:
            carrier = m * t
    if exact and not problems:
        aligned = read_checkpoint(aligned_path)
        diff = np.abs(forward(aligned, held_x) - forward(model_a, held_x)).max()
        if not diff <= LOGIT_ATOL:
            problems.append(f"aligned logits differ from A's by {diff:.2e}")
    return problems, tied, solved


def check_report(path) -> tuple[list[str], float]:
    """All eight method rows present and finite; returns the fused model's
    union error (``aligned_avg_ft``, ``err_union_mean``)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if tuple(r["method"] for r in rows) != STUDY_METHODS:
        problems.append(f"report rows {[r['method'] for r in rows]}")
    for r in rows:
        for key, value in r.items():
            if key != "method" and not math.isfinite(float(value)):
                problems.append(f"{r['method']}.{key} = {value}")
    fused = [float(r["err_union_mean"]) for r in rows if r["method"] == "aligned_avg_ft"]
    return problems, fused[0] if fused else math.nan
