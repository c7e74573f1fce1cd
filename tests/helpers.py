"""Shared builders for the test suite."""

from __future__ import annotations

import math

import numpy as np

from otfuse.data import Dataset, DomainMixtureConfig, gen_synthetic
from otfuse.errors import NumericalError, SinkhornUnderflowError, ValidationError
from otfuse.nets import (
    Checkpoint,
    CheckpointMeta,
    LayerSpec,
    LayerWeights,
    TrainConfig,
    forward_batch,
    make_checkpoint,
    train,
)
from otfuse.transport import (
    _ABSORB_ABOVE,
    _STALL_EVERY,
    OtSolution,
    _check_cost,
    _kernel,
    _round_to_polytope,
    ot_objective,
    validate_transport_map,
)


def checkpoints_equal(a: Checkpoint, b: Checkpoint) -> bool:
    """Bit-exact equality of specs, weights, and metadata."""
    if a.specs != b.specs or a.meta != b.meta:
        return False
    return all(
        np.array_equal(la.w, lb.w) and np.array_equal(la.b, lb.b)
        for la, lb in zip(a.layers, b.layers)
    )


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    return (
        a.num_classes == b.num_classes
        and np.array_equal(a.features, b.features)
        and np.array_equal(a.labels, b.labels)
    )


def forward(ckpt: Checkpoint, x) -> np.ndarray:
    """Logits for a single feature vector."""
    return forward_batch(ckpt, np.asarray(x, dtype=np.float64)[None, :])[0]


def nearest_centroid_accuracy(train: Dataset, test: Dataset) -> float:
    """Accuracy of classifying by the nearest training-class centroid."""
    centroids = np.stack(
        [train.features[train.labels == c].mean(axis=0) for c in range(train.num_classes)]
    )
    d = np.linalg.norm(test.features[:, None, :] - centroids[None, :, :], axis=2)
    return float(np.mean(np.argmin(d, axis=1) == test.labels))


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


def trained_pair(seed=0, epochs=40, hidden=10):
    """Two 6-hidden-hidden-4 relu nets trained on one synthetic set from
    different initialisations; returns (a, b, train_set)."""
    cfg = DomainMixtureConfig(num_classes=4, feature_dim=6, domains=(0, 1))
    tr, _ = gen_synthetic(cfg, seed)
    specs = (
        LayerSpec(6, hidden, "relu"),
        LayerSpec(hidden, hidden, "relu"),
        LayerSpec(hidden, 4, "identity"),
    )
    a = train(specs, tr, TrainConfig(epochs=epochs, batch_size=32, learning_rate=0.1, seed=seed * 2 + 1))
    b = train(specs, tr, TrainConfig(epochs=epochs, batch_size=32, learning_rate=0.1, seed=seed * 2 + 2))
    return a, b, tr


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


# The assignment oracle: the earlier cold-start solver, one shortest
# augmenting path search per row from zero duals, updating every dual at
# each step.  Independent of the Jonker-Volgenant reductions solve_exact
# now starts from.
def reference_lap(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min-cost perfect assignment via successive shortest augmenting paths.

    Returns (col_for_row, u, v) where u, v are 1-indexed dual potentials
    (index 0 is a sentinel).  Each row's search scans unassigned columns
    first, so a tied minimum that includes a free column ends the search
    there instead of growing the path (Jonker & Volgenant, 1987).
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    row_for_col = np.zeros(n + 1, dtype=np.int64)  # 1-indexed, 0 = unassigned
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        assigned = row_for_col[1:] != 0
        order = np.concatenate((np.flatnonzero(~assigned), np.flatnonzero(assigned))) + 1
        row_for_col[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = row_for_col[j0]
            idx = order[~used[order]]
            cur = cost[i0 - 1, idx - 1] - u[i0] - v[idx]
            better = cur < minv[idx]
            minv[idx] = np.where(better, cur, minv[idx])
            way[idx[better]] = j0
            k = int(np.argmin(minv[idx]))  # ties resolve to a free column first
            j1 = int(idx[k])
            delta = minv[j1]
            u[row_for_col[used]] += delta
            v[used] -= delta
            minv[idx] -= delta
            j0 = j1
            if row_for_col[j0] == 0:
                break
        while j0:
            j1 = int(way[j0])
            row_for_col[j0] = row_for_col[j1]
            j0 = j1
    col_for_row = np.zeros(n, dtype=np.int64)
    col_for_row[row_for_col[1:] - 1] = np.arange(n)
    return col_for_row, u, v


# The Jonker-Volgenant oracle: solve_exact's solver before its phase-3
# steps reordered columns and rebuilt predecessors after each search.
# Its output, duals included, is what that solver must reproduce bit
# for bit.
def reference_jonker_volgenant(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The Jonker-Volgenant solver as it was before its Dijkstra steps ran
    on reordered columns: each step tests the free columns for a tie and
    scatters predecessors.  Same phases 1 and 2 as ``_jonker_volgenant``,
    and the same (col_for_row, u, v, searches)."""
    n = cost.shape[0]
    col_for_row = np.full(n, -1, dtype=np.int64)
    row_for_col = np.full(n, -1, dtype=np.int64)
    v = cost.min(axis=0)
    # the last column with argmin row i is the first one the reversed scan meets
    rows, first = np.unique(cost.argmin(axis=0)[::-1], return_index=True)
    col_for_row[rows] = n - 1 - first
    row_for_col[n - 1 - first] = rows
    free = np.flatnonzero(col_for_row < 0)

    visits = 0
    while free.size and visits < 4 * n:
        visits += free.size
        rk = np.arange(free.size)
        h = cost[free] - v
        j1 = h.argmin(axis=1)
        h1 = h[rk, j1]
        h[rk, j1] = np.inf
        j2 = h.argmin(axis=1)
        h2 = h[rk, j2]
        strict = h1 < h2
        j = np.where(strict | (row_for_col[j1] < 0), j1, j2)
        bid = np.where(strict, v[j1] - (h2 - h1), v[j])
        # each column goes to its lowest bid, ties to the lowest row
        order = np.lexsort((free, bid, j))
        win = order[np.unique(j[order], return_index=True)[1]]
        cols, rows = j[win], free[win]
        v[cols] = bid[win]
        held = row_for_col[cols]
        col_for_row[held[held >= 0]] = -1
        row_for_col[cols] = rows
        col_for_row[rows] = cols
        free = np.flatnonzero(col_for_row < 0)

    pred = np.empty(n, dtype=np.int64)
    h = np.empty(n)
    for f in free:
        free_cols = np.flatnonzero(row_for_col < 0)
        d = cost[f] - v  # tentative distances; +inf once a column is scanned
        w = v.copy()  # -inf on scanned columns, so relaxing never reaches them
        pred[:] = f
        scanned, dist = [], []
        while True:
            j = int(d.argmin())
            mu = d[j]
            if row_for_col[j] >= 0:
                at_free = d[free_cols]
                k = int(at_free.argmin())
                if at_free[k] <= mu:
                    j = int(free_cols[k])
            if row_for_col[j] < 0:
                break
            scanned.append(j)
            dist.append(mu)
            d[j] = np.inf
            w[j] = -np.inf
            i = row_for_col[j]
            np.subtract(cost[i], w, out=h)
            h += mu - (cost[i, j] - v[j])
            better = h < d
            np.minimum(d, h, out=d)
            pred[better] = i
        v[scanned] += np.asarray(dist) - mu
        while True:
            i = int(pred[j])
            row_for_col[j] = i
            j, col_for_row[i] = int(col_for_row[i]), j
            if i == f:
                break

    u = cost[np.arange(n), col_for_row] - v[col_for_row]
    return col_for_row, u, v, len(free)


# The Sinkhorn oracle: the earlier two-path solver, a plain kernel loop and a
# log-domain loop chosen by max(cost) / eps, each forming the full coupling
# and checking both marginals every iteration.
_LOG_DOMAIN_THRESHOLD = 700.0  # exp(-x) underflows to subnormals past this


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - m).sum(axis=axis)) + np.squeeze(m, axis=axis)


def _marginal_residuals(t: np.ndarray) -> tuple[float, float]:
    m = t.shape[0]
    target = 1.0 / m
    return (
        float(np.abs(t.sum(axis=1) - target).max()),
        float(np.abs(t.sum(axis=0) - target).max()),
    )


def reference_sinkhorn(cost, eps: float | None = None, tol: float = 1e-9, max_iter: int = 10000) -> OtSolution:
    """Entropic-regularized coupling via alternating marginal scaling.

    ``eps`` defaults to 0.01 * mean(cost) so the softness is scale free.
    Iteration stops once both marginal residuals (max norm) drop to ``tol``;
    hitting ``max_iter`` first returns the last iterate flagged as
    unconverged rather than raising.  Either way the final iterate is
    rounded onto the uniform-marginal polytope before being returned.
    """
    d = _check_cost(cost)
    n = d.shape[0]
    if eps is None:
        mean = float(d.mean())
        eps = 0.01 * mean if mean > 0 else 1.0
    if eps <= 0:
        raise ValidationError("sinkhorn eps must be positive")
    if tol <= 0 or max_iter < 1:
        raise ValidationError("sinkhorn tol must be positive and max_iter >= 1")

    with np.errstate(over="ignore"):
        scaled = d / eps
    if not np.isfinite(scaled).all():
        raise SinkhornUnderflowError(
            f"eps={eps:g} is too small for this cost matrix: kernel exponent overflows"
        )
    target = np.full(n, 1.0 / n)
    log_domain = float(scaled.max()) > _LOG_DOMAIN_THRESHOLD
    iterations = 0
    converged = False

    if log_domain:
        log_kernel = -scaled
        log_target = np.log(target)
        f = np.zeros(n)
        g = np.zeros(n)
        t = np.exp(log_kernel)
        for iterations in range(1, max_iter + 1):
            f = log_target - _logsumexp(log_kernel + g[None, :], axis=1)
            g = log_target - _logsumexp(log_kernel + f[:, None], axis=0)
            if not (np.isfinite(f).all() and np.isfinite(g).all()):
                raise SinkhornUnderflowError(
                    f"eps={eps:g} is too small: scaling potentials diverged"
                )
            t = np.exp(log_kernel + f[:, None] + g[None, :])
            row_res, col_res = _marginal_residuals(t)
            if row_res <= tol and col_res <= tol:
                converged = True
                break
    else:
        kernel = np.exp(-scaled)
        u = np.full(n, 1.0)
        v = np.full(n, 1.0)
        t = kernel / (n * n)
        for iterations in range(1, max_iter + 1):
            kv = kernel @ v
            if (kv <= 0).any() or not np.isfinite(kv).all():
                raise SinkhornUnderflowError(
                    f"eps={eps:g} is too small: kernel column sums underflowed"
                )
            u = target / kv
            ku = kernel.T @ u
            if (ku <= 0).any() or not np.isfinite(ku).all():
                raise SinkhornUnderflowError(
                    f"eps={eps:g} is too small: kernel row sums underflowed"
                )
            v = target / ku
            t = u[:, None] * kernel * v[None, :]
            row_res, col_res = _marginal_residuals(t)
            if row_res <= tol and col_res <= tol:
                converged = True
                break

    if not np.isfinite(t).all():
        raise SinkhornUnderflowError(f"eps={eps:g} produced a non-finite coupling")
    # the last iterate is near-feasible (within the stopping residuals);
    # rounding it onto the polytope keeps every returned map a valid
    # coupling and its objective a true upper bound on the exact optimum
    tm = validate_transport_map(_round_to_polytope(t))
    return OtSolution(
        tm,
        ot_objective(tm, d),
        solver=f"sinkhorn(eps={eps:g})",
        iterations=iterations,
        converged=converged,
    )


def sweeps_only_sinkhorn(cost, eps: float, tol: float = 1e-9, max_iter: int = 10000, relax: bool = True):
    """``solve_sinkhorn``'s stabilized scaling loop without the stall test
    and Newton polish: plain sweeps, over-relaxed from the first check on
    when ``relax`` and the residual has halved since sweep 1.  Returns
    (rounded coupling, sweeps, converged); a solve whose stall test never
    fires must match it bit for bit."""
    scaled = _check_cost(cost) / eps
    n = scaled.shape[0]
    target = 1.0 / n
    f = scaled.min(axis=1)
    g = (scaled - f[:, None]).min(axis=0)
    kernel = _kernel(scaled, f, g)
    u = v = np.ones(n)
    kv = kernel @ v
    omega = 1.0
    converged = False
    for iterations in range(1, max_iter + 1):
        if omega == 1.0:
            u = target / kv
            ku = kernel.T @ u
            v = target / ku
        else:
            u = u * (target / (u * kv)) ** omega
            ku = kernel.T @ u
            v = v * (target / (v * ku)) ** omega
        kv = kernel @ v
        residual = np.abs(u * kv - target).max()
        if residual <= tol and omega > 1.0:
            v = target / ku
            kv = kernel @ v
            residual = np.abs(u * kv - target).max()
        if residual <= tol:
            converged = True
            break
        if iterations == 1:
            first = residual
        if relax and iterations == _STALL_EVERY and residual <= first / 2:
            theta = (residual / first) ** (1 / (_STALL_EVERY - 1))
            omega = 2 / (1 + math.sqrt(1 - theta))
        if max(u.max(), v.max()) > _ABSORB_ABOVE:
            f = f + np.log(u)
            g = g + np.log(v)
            kernel = _kernel(scaled, f, g)
            u = v = np.ones(n)
            kv = kernel @ v
    return _round_to_polytope(u[:, None] * kernel * v[None, :]), iterations, converged
