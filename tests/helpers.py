"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from otfuse.errors import NumericalError
from otfuse.nets import (
    Checkpoint,
    CheckpointMeta,
    LayerSpec,
    LayerWeights,
    make_checkpoint,
)


def random_specs(rng, max_layers: int = 3, max_units: int = 8, in_dim: int | None = None,
                 activation: str = "tanh") -> tuple[LayerSpec, ...]:
    depth = int(rng.integers(1, max_layers + 1))
    dims = [in_dim or int(rng.integers(1, max_units + 1))]
    dims += [int(rng.integers(1, max_units + 1)) for _ in range(depth)]
    specs = [
        LayerSpec(dims[i], dims[i + 1], activation) for i in range(depth - 1)
    ]
    specs.append(LayerSpec(dims[-2], dims[-1], "identity"))
    return tuple(specs)


def random_checkpoint(rng, specs=None, scale: float = 1.0, **spec_kwargs) -> Checkpoint:
    if specs is None:
        specs = random_specs(rng, **spec_kwargs)
    layers = [
        LayerWeights(
            scale * rng.standard_normal((s.out_dim, s.in_dim)),
            scale * rng.standard_normal(s.out_dim),
        )
        for s in specs
    ]
    meta = CheckpointMeta(seed=int(rng.integers(0, 2**31)), tag="random")
    return make_checkpoint(specs, layers, meta)


def permutation_matrix(perm: np.ndarray) -> np.ndarray:
    """P with P[i, perm[i]] = 1, so (P @ W)[i] = W[perm[i]]."""
    m = len(perm)
    p = np.zeros((m, m))
    p[np.arange(m), perm] = 1.0
    return p


def permuted_twin(ckpt: Checkpoint, perms: list[np.ndarray]) -> Checkpoint:
    """Permute each hidden layer's output units; function is preserved.

    ``perms`` holds one permutation per hidden layer (all layers except the
    last).  Layer l's rows and bias are reordered by P_l and layer l+1's
    columns by P_l^T.
    """
    assert len(perms) == len(ckpt.layers) - 1
    ws = [l.w.copy() for l in ckpt.layers]
    bs = [l.b.copy() for l in ckpt.layers]
    for l, perm in enumerate(perms):
        p = permutation_matrix(perm)
        ws[l] = p @ ws[l]
        bs[l] = p @ bs[l]
        ws[l + 1] = ws[l + 1] @ p.T
    layers = [LayerWeights(w, b) for w, b in zip(ws, bs)]
    return make_checkpoint(ckpt.specs, layers, ckpt.meta)


# The lexicographic tie-refinement oracle: one Kuhn matching per candidate
# edge of the zero graph.  Slow, but independent of the alternating-cycle
# refinement that solve_exact uses.
def _has_perfect_matching(adj: np.ndarray) -> bool:
    """Kuhn's algorithm on a boolean rows-by-cols adjacency matrix."""
    nrows, ncols = adj.shape
    match_col = np.full(ncols, -1, dtype=np.int64)

    def try_row(r: int, visited: np.ndarray) -> bool:
        for c in np.nonzero(adj[r])[0]:
            if not visited[c]:
                visited[c] = True
                if match_col[c] < 0 or try_row(int(match_col[c]), visited):
                    match_col[c] = r
                    return True
        return False

    for r in range(nrows):
        if not try_row(r, np.zeros(ncols, dtype=bool)):
            return False
    return True


def _lex_smallest_assignment(zero: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching inside the zero graph.

    ``zero[i, j]`` marks edges of zero reduced cost; by complementary
    slackness these are exactly the edges optimal assignments may use.
    """
    n = zero.shape[0]
    free_cols: list[int] = list(range(n))
    assign = np.empty(n, dtype=np.int64)
    for i in range(n):
        rest = np.arange(i + 1, n)
        for pos, j in enumerate(free_cols):
            if not zero[i, j]:
                continue
            rem = free_cols[:pos] + free_cols[pos + 1 :]
            if rest.size == 0 or _has_perfect_matching(zero[np.ix_(rest, np.asarray(rem, dtype=np.int64))]):
                assign[i] = j
                free_cols.pop(pos)
                break
        else:
            raise NumericalError("tie refinement lost feasibility; duals inconsistent")
    return assign
