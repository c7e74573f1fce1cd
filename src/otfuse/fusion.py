"""Layer-wise transport alignment and weight averaging of two networks.

``align`` walks the layers of model A in order.  For each layer it first
re-expresses A's input weights in B's coordinates using the previous layer's
map, then solves a transport problem between the (aligned) rows of A and
the rows of B, on the Euclidean cost ``transport.row_distance_matrix``, and
finally applies the new map to A's output side, bias included.  ``fuse``
blends the aligned model with B; ``direct_average`` is the no-alignment
baseline.  The short fine-tuning that completes the recipe runs in the
caller: the study fine-tunes the fused model together with its
constituents and the direct average through ``nets.finetune_stack``.

Each layer's map is an ``OtSolution``.  An exact or pinned layer is its
assignment alone, applied as an index gather, so aligning a model with
itself is the identity and hidden unit permutations are undone exactly; a
Sinkhorn layer keeps its m x m coupling ``T``, applied as the doubly
stochastic matrix ``m * T``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy import (
    matmul,  # unused; perfbench/tracer.py TARGETS binds it here (ROADMAP item 1b)
    transpose,  # unused; perfbench/tracer.py TARGETS binds it here (ROADMAP item 1b)
)

from .errors import ValidationError, check_real
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
    row_distance_matrix,
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
        if eps is not None:
            check_real("sinkhorn_eps", eps)


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

        # take gives a C-order copy where wa[:, prev] may be F-order, and a
        # Sinkhorn layer's prev.T @ w_hat rounds differently on the two
        w_hat = wa.take(prev, axis=1) if prev.ndim == 1 else wa @ prev

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
            aligned_layers.append(LayerWeights(prev.T @ w_hat, prev.T @ ba))

    aligned = make_checkpoint(model_a.specs, aligned_layers, replace(model_a.meta, tag="aligned"))
    return AlignmentResult(aligned, tuple(layers))


def _blend(a: Checkpoint, b: Checkpoint, lam: float, tag: str) -> Checkpoint:
    check_real("lam", lam, (0.0, 1.0))
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
