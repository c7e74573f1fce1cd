"""Layer-wise transport alignment and weight averaging of two networks.

``align`` walks the layers of model A in order.  For each layer it first
re-expresses A's input weights in B's coordinates using the previous layer's
map, then solves a transport problem between the (aligned) rows of A and
the rows of B, and finally applies the new map to A's output side, bias
included.  ``fuse`` blends the aligned model with B; ``direct_average`` is
the no-alignment baseline.  The short fine-tuning that completes the recipe
is ``nets.finetune``, run on the fused model by its caller.

Each layer's map is an ``OtSolution``.  An exact or pinned layer is its
assignment alone, applied as an index gather, so aligning a model with
itself is the identity and hidden unit permutations are undone exactly; a
Sinkhorn layer keeps its m x m coupling ``T``, applied as the doubly
stochastic matrix ``m * T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import matmul, row_distance_matrix, transpose
from .nets import (
    Checkpoint,
    CheckpointMeta,
    LayerWeights,
    blend_layers,
    check_same_specs,
    interpolate,  # unused; perfbench/tracer.py TARGETS binds it here (ROADMAP item 1b)
    make_checkpoint,
    validate_checkpoint,  # unused; perfbench/tracer.py TARGETS binds it here (ROADMAP item 1b)
)
from .transport import (
    OtSolution,
    hard_permutation,  # unused; perfbench/tracer.py TARGETS binds it here (ROADMAP item 1b)
    identity_map,  # unused; perfbench/tracer.py TARGETS binds it here (ROADMAP item 1b)
    ot_objective,  # unused; perfbench/tracer.py TARGETS binds it here (ROADMAP item 1b)
    permutation_solution,
    solve_exact,
    solve_sinkhorn,
)

SOLVERS = ("exact", "sinkhorn")


@dataclass(frozen=True)
class AlignmentOptions:
    """Knobs for the layer-wise alignment.

    ``fix_last_layer`` pins the output layer's map to the identity so class
    logits keep their meaning.  ``cost_on_aligned_inputs`` computes the row
    distances after input alignment; turning it off compares raw rows.
    ``bias_in_cost`` appends the bias as an extra column when building the
    cost matrix.
    """

    solver: str = "exact"
    sinkhorn_eps: float | None = None  # None -> 0.01 * mean(cost), per layer
    cost_on_aligned_inputs: bool = True
    fix_last_layer: bool = True
    bias_in_cost: bool = False

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ValidationError(f"unknown solver {self.solver!r}; expected one of {SOLVERS}")
        eps = self.sinkhorn_eps
        if eps is not None and self.solver != "sinkhorn":
            raise ValidationError(
                f"sinkhorn_eps applies to the sinkhorn solver only, not to {self.solver!r}"
            )
        if eps is not None and not (np.isfinite(eps) and eps > 0):
            raise ValidationError(f"sinkhorn_eps must be finite and positive, got {eps}")


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    """Aligned copy of model A and each layer's transport solution, in layer
    order.  A pinned output layer is ``solver == "pinned"``: the identity
    map, which always converges."""

    aligned: Checkpoint
    layers: tuple[OtSolution, ...]


def _solve_layer(cost: np.ndarray, opts: AlignmentOptions, pinned: bool) -> OtSolution:
    if pinned:
        return permutation_solution(cost, np.arange(cost.shape[0]), "pinned", 0)
    if opts.solver == "exact":
        return solve_exact(cost)
    return solve_sinkhorn(cost, eps=opts.sinkhorn_eps)


def align(model_a: Checkpoint, model_b: Checkpoint, opts: AlignmentOptions = AlignmentOptions()) -> AlignmentResult:
    """Align model A's units onto model B's, layer by layer.

    Model B is kept fixed; the returned checkpoint is A expressed in B's
    unit ordering, suitable for elementwise averaging with B.
    """
    check_same_specs(model_a, model_b, "align")

    num_layers = len(model_a.specs)
    # the previous layer's map as applied: a source index, or m * T; layer
    # 0's input coordinates are shared
    prev = np.arange(model_a.specs[0].in_dim)
    aligned_layers: list[LayerWeights] = []
    layers: list[OtSolution] = []

    for l in range(num_layers):
        spec = model_a.specs[l]
        wa, ba = model_a.layers[l].w, model_a.layers[l].b
        wb, bb = model_b.layers[l].w, model_b.layers[l].b

        w_hat = wa[:, prev] if prev.ndim == 1 else matmul(wa, prev)

        cost_rows_a = w_hat if opts.cost_on_aligned_inputs else wa
        if opts.bias_in_cost:
            cost_a = np.hstack([cost_rows_a, ba[:, None]])
            cost_b = np.hstack([wb, bb[:, None]])
        else:
            cost_a, cost_b = cost_rows_a, wb
        cost = row_distance_matrix(cost_a, cost_b)

        solution = _solve_layer(cost, opts, opts.fix_last_layer and l == num_layers - 1)
        layers.append(solution)

        if solution.assignment is not None:
            prev = np.argsort(solution.assignment)  # B's unit j comes from A's unit prev[j]
            aligned_layers.append(LayerWeights(w_hat[prev], ba[prev]))
        else:
            prev = spec.out_dim * solution.coupling
            aligned_layers.append(LayerWeights(matmul(transpose(prev), w_hat), prev.T @ ba))

    meta = CheckpointMeta(
        seed=model_a.meta.seed,
        training_epochs=model_a.meta.training_epochs,
        tag="aligned",
    )
    aligned = make_checkpoint(model_a.specs, aligned_layers, meta)
    return AlignmentResult(aligned, tuple(layers))


def _blend(a: Checkpoint, b: Checkpoint, lam: float, tag: str) -> Checkpoint:
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lam must lie in [0, 1], got {lam}")
    meta = CheckpointMeta(seed=b.meta.seed, training_epochs=0, tag=tag)
    return make_checkpoint(a.specs, blend_layers(a, b, lam), meta)


def fuse(aligned_a: Checkpoint, model_b: Checkpoint, lam: float = 0.5) -> Checkpoint:
    """Per-layer blend ``(1 - lam) * aligned_a + lam * model_b``."""
    check_same_specs(aligned_a, model_b, "fuse")
    return _blend(aligned_a, model_b, lam, "fused")


def direct_average(model_a: Checkpoint, model_b: Checkpoint, lam: float = 0.5) -> Checkpoint:
    """Elementwise parameter average with no alignment; the failing baseline."""
    check_same_specs(model_a, model_b, "direct_average")
    return _blend(model_a, model_b, lam, "direct-average")
