"""Discrete optimal transport between weight rows under uniform marginals.

The ground cost between two m x k weight matrices is the m x m matrix of
Euclidean distances between their rows, built by ``row_distance_matrix``
from one BLAS Gram product.  A coupling (a map) is a plain float64 m x m
array whose rows and columns each sum to 1/m.  Costs and maps pass one
check on the way in: a non-empty, finite, square, non-negative matrix,
else ``ValidationError``.

With both marginals uniform and a square cost matrix, the transport problem
is a linear assignment problem: its optimum is a permutation matrix scaled
by 1/m, so an exact or brute-force ``OtSolution`` stores just that
permutation (``assignment``) and builds its map only when ``.map`` is read.
``solve_exact`` finds that vertex with the Jonker-Volgenant
algorithm (Computing 38, 1987): column reduction and augmenting row
reduction warm-start the duals and assign most rows, then one Dijkstra
shortest augmenting path search per row still free completes the
matching.  The row reduction runs in rounds in which every free row bids
at once, as in Bertsekas' auction (Annals of OR 14, 1988).  The searches
run on a copy of the cost with the free columns first, so a step is one
``argmin`` and one relaxation; paths are traced back when a search ends.
The solve then refines ties to the lexicographically smallest optimal
assignment by alternating-cycle search, so results are bit-reproducible;
columns on no alternating cycle are trimmed first, as no other optimal
assignment moves them.  The search skips their rows and never offers them,
so it reads the tight graph as built, with no copy or mask.  Rows with one
neighbourhood in that graph take their columns in index order first:
twins can swap columns, so the smallest assignment holds them in order,
and the search reaches it from any start.  That costs one sort of the
graph packed into m^2/8 bytes and spares a pruned layer's block of
identical units a search per row.  The whole solve, tie refinement
included, is O(m^3).
``solve_sinkhorn`` returns the entropic soft coupling from one scaling loop
on a kernel that log potentials keep in range for any eps; its sweeps are
over-relaxed at a factor measured from their own contraction rate, and when
they stall near a hard assignment, Newton's method on the log potentials
(Brauer, Clason, Lorenz & Wirth, 2017) finishes the solve in a few steps.
``brute_force_ot`` enumerates all m! permutations and exists purely as an
oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SinkhornUnderflowError, ValidationError, check_int, check_real

MARGINAL_TOL = 1e-8
BRUTE_FORCE_MAX_SIDE = 8
_ABSORB_ABOVE = 1e50  # Sinkhorn scalings past this fold into the log potentials
_STALL_EVERY = 50  # sweeps between checks that the row residual still falls at pace
_NEWTON_STEPS = 50  # cap on the steps of one Newton polish
_HALVINGS = 30  # cap on the line search of one Newton step
_RIDGE = 1e-12  # Schur diagonal added, relative to its largest entry


@dataclass(frozen=True, eq=False)
class OtSolution:
    coupling: np.ndarray | None  # a Sinkhorn solution's dense map; None for a permutation
    objective: float
    solver: str
    iterations: int
    converged: bool = True
    assignment: np.ndarray | None = None  # row i's column in a permutation map; None from Sinkhorn

    @property
    def side(self) -> int:
        return len(self.coupling if self.assignment is None else self.assignment)

    @property
    def map(self) -> np.ndarray:
        """The dense coupling; a permutation's is built anew on each read."""
        if self.assignment is None:
            return self.coupling
        t = np.zeros((self.side, self.side))
        t[np.arange(self.side), self.assignment] = 1.0 / self.side
        return t


def _as_matrix(a, name: str) -> np.ndarray:
    """Coerce ``a`` to a non-empty, finite, C-contiguous 2-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def row_distance_matrix(a, b) -> np.ndarray:
    """Pairwise Euclidean distances between the rows of ``a`` and ``b``.

    Both inputs must have the same m x k shape; the result ``D`` is square
    with ``D[i, j] = ||a_i - b_j||_2``.  The squares come from the Gram form
    ``||a_i||^2 + ||b_j||^2 - 2 a_i . b_j``, one BLAS ``a @ b.T`` written into
    the result.  Its rounding error, up to ``2 (k + 2) u (||a_i||^2 +
    ||b_j||^2)`` with ``u = 2**-53``, swamps small distances, so each square
    below ``1e-6 * max(||a_i||^2, ||b_j||^2)`` is recomputed from the explicit
    difference ``a_i - b_j``: identical rows give exactly 0.0.  Every other
    entry keeps a relative error of at most ``2e6 (k + 2) u + u`` (5.7e-8 at
    k = 256).  The test is strict, so no pair with a zero row is repaired:
    the Gram form already gives the other row's squared norm, or 0 for two
    zero rows.  Memory: the m x m result, an m x m bool mask and O(m k).
    """
    a = _as_matrix(a, "first matrix")
    b = _as_matrix(b, "second matrix")
    if a.shape != b.shape:
        raise ValidationError(
            f"row_distance_matrix needs two matrices of one shape, got {a.shape} vs {b.shape}"
        )
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    out = a @ b.T
    out *= -2.0
    out += sq_a[:, None]
    out += sq_b
    near = out < 1e-6 * sq_a[:, None]
    near |= out < 1e-6 * sq_b
    for i in np.flatnonzero(near.any(axis=1)):
        cols = np.flatnonzero(near[i])
        diff = a[i] - b[cols]
        out[i, cols] = np.einsum("ij,ij->i", diff, diff)
    np.sqrt(out, out=out)
    if not np.isfinite(out).all():
        raise NumericalError("row_distance_matrix produced non-finite entries")
    return out


def _check_cost(a, name: str = "cost matrix") -> np.ndarray:
    """What costs and maps share: a non-empty, finite, square, non-negative
    float64 matrix."""
    d = _as_matrix(a, name)
    if d.shape[0] != d.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {d.shape}")
    if (d < 0).any():
        raise ValidationError(f"{name} has negative entries")
    return d


def validate_transport_map(t) -> np.ndarray:
    t = _check_cost(t, "transport map")
    target = 1.0 / t.shape[0]
    row_err = np.abs(t.sum(axis=1) - target).max()
    col_err = np.abs(t.sum(axis=0) - target).max()
    mass_err = abs(t.sum() - 1.0)
    if max(row_err, col_err, mass_err) > MARGINAL_TOL:
        raise ValidationError(
            f"transport map marginals violate uniform constraints: "
            f"row {row_err:.3e}, col {col_err:.3e}, mass {mass_err:.3e} (atol {MARGINAL_TOL:g})"
        )
    return t


def identity_map(m: int) -> np.ndarray:
    if m < 1:
        raise ValidationError("map side must be positive")
    return np.eye(m) / m


def hard_permutation(t: np.ndarray) -> np.ndarray | None:
    """Exact 0/1 permutation matrix if the map is a scaled permutation (every
    entry within 1e-9/m of 0 or 1/m), else None."""
    m = t.shape[0]
    nonzero = t > (0.5 / m)
    if not (
        (nonzero.sum(axis=0) == 1).all()
        and (nonzero.sum(axis=1) == 1).all()
        and np.abs(t[nonzero] - 1.0 / m).max() <= 1e-9 / m
        and np.abs(t[~nonzero]).max(initial=0.0) <= 1e-9 / m
    ):
        return None
    return nonzero.astype(np.float64)


def ot_objective(t, cost) -> float:
    """Frobenius inner product of the coupling and the cost matrix."""
    t = _as_matrix(t, "coupling")
    cost = _as_matrix(cost, "cost")
    if t.shape != cost.shape:
        raise ValidationError(
            f"coupling shape {t.shape} does not match cost shape {cost.shape}"
        )
    return float(np.sum(t * cost))


def _jonker_volgenant(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Min-cost perfect assignment in the three phases of Jonker & Volgenant,
    *A shortest augmenting path algorithm for dense and sparse linear
    assignment problems*, Computing 38 (1987).

    1. Column reduction: v_j = min_i c_ij; scanning columns from last to
       first, each column takes its argmin row while that row is free.
    2. Augmenting row reduction in bidding rounds, where every free row
       bids at once (the Jacobi form of Bertsekas' auction, *The auction
       algorithm: a distributed relaxation method*, Annals of OR 14, 1988).
       With h1 <= h2 its two smallest reduced costs c_ij - v_j, a row bids
       for the column j1 of h1 at v_j1 - (h2 - h1); on a tie it bids the
       current v, for j1 if j1 is free, else for the column of h2.  Each
       column that draws bids goes to the lowest, ties to the lowest row;
       the winner sets v, takes the column and frees the row that held it.
       Rounds stop when no row is free, or once they have visited 4 m rows
       in total, so they cannot cycle.
    3. One Dijkstra search on reduced costs per row f still free.
       Columns tied at the minimum end the search at a free column, else
       the lowest column is scanned; the duals of the scanned columns are
       updated once, when the search ends.  The searches run on a copy of
       the cost whose columns free when phase 3 starts come first, each
       block in ascending order, so ``argmin`` already lands on the lowest
       free column tied at the minimum.  The tie rule reruns only when it
       lands on a first-block column a search has since assigned.  A step
       records its row and offset instead of predecessors: after the
       search, a path column's predecessor is the first row, in scan order
       from f, that minimises (c_ij - v_j) + offset over the rows scanned
       before that column, the row whose relaxation last strictly lowered
       its distance.

    Throughout, every assigned row's column minimises c_ij - v_j over j,
    so u_i = c_i,col(i) - v_col(i) completes a feasible dual that is tight
    on the matching.  Phase 2 keeps this because v only falls: a winner's
    column now holds its second smallest reduced cost, still a minimum as
    every other column's reduced cost only rose, and every other assigned
    row's reduced cost on its own column is unchanged.  Returns
    (col_for_row, u, v, searches) where ``searches`` counts phase 3's
    searches.
    """
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
        h = cost.take(free, axis=0)
        h -= v
        j1 = h.argmin(axis=1)
        h1 = h[rk, j1]
        h[rk, j1] = np.inf
        j2 = h.argmin(axis=1)
        h2 = h[rk, j2]
        strict = h1 < h2
        j = np.where(strict | (row_for_col[j1] < 0), j1, j2)
        bid = np.where(strict, v[j1] - (h2 - h1), v[j])
        # each column goes to its lowest bid, ties to the lowest row: the
        # first entry of its run in the sorted order
        order = np.lexsort((free, bid, j))
        js = j[order]
        win = order[np.flatnonzero(np.concatenate(([True], js[1:] != js[:-1])))]
        cols, rows = j[win], free[win]
        v[cols] = bid[win]
        held = row_for_col[cols]
        col_for_row[held[held >= 0]] = -1
        row_for_col[cols] = rows
        col_for_row[rows] = cols
        free = np.flatnonzero(col_for_row < 0)

    # Phase 3 runs on positions: position p holds column perm[p], the
    # `lead` columns free now first, each block in ascending order.  take
    # keeps the copy's rows contiguous, where c[:, perm] is F-ordered.
    lead = int(np.count_nonzero(row_for_col < 0))
    perm = np.argsort(row_for_col >= 0, kind="stable")
    c = cost.take(perm, axis=1)
    vp = v[perm]
    row_at = row_for_col[perm].tolist()
    pos_for_row = np.argsort(perm)[col_for_row].tolist()  # stale for free rows until assigned
    open_pos = list(range(lead))  # positions of the columns still free
    h = np.empty(n)
    inf = math.inf
    for f in free.tolist():
        d = c[f] - vp  # tentative distances; +inf once a position is scanned
        w = vp.copy()  # -inf on scanned positions, so relaxing never reaches them
        rows, offs, scanned, dist = [f], [0.0], [], []
        while True:
            j = int(d.argmin())
            mu = d.item(j)
            i = row_at[j]
            if i >= 0 and j < lead:
                # a first-block column a search has since assigned: rerun
                # the tie rule, the lowest free column at mu, else the
                # lowest column, which is j or the second block's first
                at_free = d[open_pos]
                k = int(at_free.argmin())
                if at_free[k] <= mu:
                    j = open_pos[k]
                else:
                    k = lead + int(d[lead:].argmin())
                    if d[k] == mu and perm[k] < perm[j]:
                        j = k
                i = row_at[j]
            if i < 0:
                break
            off = mu - (c.item(i, j) - vp.item(j))
            scanned.append(j)
            dist.append(mu)
            rows.append(i)
            offs.append(off)
            d[j] = inf
            w[j] = -inf
            np.subtract(c[i], w, out=h)
            h += off
            np.minimum(d, h, out=d)
        # A position's predecessor is the first row, in scan order, whose
        # relaxation gave its final distance; only the rows scanned before
        # it reached it.  rows[t] is the row that held scanned[t - 1].
        open_pos.remove(j)
        rows_a, offs_a = np.array(rows), np.array(offs)
        t = len(rows)
        while t:
            if t > 1:
                h_j = c[rows_a[:t], j] - vp[j]
                h_j += offs_a[:t]
                t = int(h_j.argmin())
            else:
                t = 0
            i = rows[t]
            row_at[j] = i
            j, pos_for_row[i] = pos_for_row[i], j
        if scanned:
            vp[scanned] += np.asarray(dist) - mu

    col_for_row = perm[pos_for_row]
    v[perm] = vp
    u = cost[np.arange(n), col_for_row] - v[col_for_row]
    return col_for_row, u, v, len(free)


def _lex_smallest_assignment(zero: np.ndarray, col_for_row: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching inside the zero graph.

    ``zero[i, j]`` marks edges of zero reduced cost; by complementary
    slackness these are exactly the edges optimal assignments may use.
    ``col_for_row`` is a perfect matching inside that graph.  Rows are fixed
    in order: row i may move to a smaller unfixed column j exactly when an
    alternating cycle i -> j -> ... -> col[i] exists, where column c leads to
    c' when ``zero[row_of[c], c']``.  One backward search from col[i] finds
    every such j, so each row costs O(m) without a smaller candidate and
    O(m^2) at worst, O(m^3) in total.

    Before the row loop, columns with no in-edge or no out-edge among the
    columns left are dropped, again and again, until every column left has
    both.  A dropped column lies on no alternating cycle, so every perfect
    matching gives it the same row (Dulmage-Mendelsohn); no search path from
    a kept candidate passes it, as that path would close a cycle; and its
    row has no twin, as twins can swap.  So the loop skips its row and never
    offers it, and reads ``zero`` as given.  Each peel costs O(m) plus O(m)
    per dropped column, O(m^2) in all; if no column is kept, col is returned.

    Twin rows (rows with one neighbourhood) then take their columns in
    ascending order, the lowest row the lowest column.  Two twins can swap
    columns and the matching stays perfect, so the smallest matching holds
    every twin group in order; and the row loop reaches it from any perfect
    matching, so the step changes no result, only how many rows move.  A
    pruned layer's zeroed units are one such group, which the loop would
    otherwise sort one backward search at a time.  The step packs the graph
    into m^2/8 bytes and groups its rows with one sort.
    """
    n = zero.shape[0]
    col = np.array(col_for_row, dtype=np.int64)
    if not zero[np.arange(n), col].all():
        raise NumericalError("assignment is not inside the zero reduced-cost graph; duals inconsistent")
    row_of = np.empty(n, dtype=np.int64)
    row_of[col] = np.arange(n)
    # peel to columns with an in- and an out-edge; column c's out-edges are
    # row_of[c]'s tight edges and its in-edges c's, each less (row_of[c], c)
    outs, ins = zero.sum(axis=1)[row_of] - 1, zero.sum(axis=0) - 1
    keep = np.ones(n, dtype=bool)
    while True:
        drop = np.flatnonzero(keep & ((outs == 0) | (ins == 0)))
        if not drop.size:
            break
        keep[drop] = False
        outs -= zero[:, drop].sum(axis=1)[row_of]
        ins -= zero[row_of[drop]].sum(axis=0)
    if not keep.any():
        return col
    # each group of twin rows takes its columns in ascending order
    packed = np.packbits(zero, axis=1)
    twins = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_inverse=True)[1]
    col[np.argsort(twins, kind="stable")] = col[np.lexsort((col, twins))]
    row_of[col] = np.arange(n)
    free = keep.copy()
    succ = np.empty(n, dtype=np.int64)
    for i in np.flatnonzero(keep[col]):
        c0 = int(col[i])
        cand = np.flatnonzero(zero[i, :c0] & free[:c0])
        if cand.size:
            # backward search over unfixed columns: successors lead toward c0
            reached = np.zeros(n, dtype=bool)
            reached[c0] = True
            frontier = np.array([c0])
            while frontier.size and not reached[cand[0]]:
                pending = i + 1 + np.flatnonzero(~reached[col[i + 1 :]])
                hits = zero[np.ix_(pending, frontier)]
                found = hits.any(axis=1)
                nxt = col[pending[found]]
                succ[nxt] = frontier[hits[found].argmax(axis=1)]
                reached[nxt] = True
                frontier = nxt
            ok = cand[reached[cand]]
            if ok.size:
                path = [int(ok[0])]
                while path[-1] != c0:
                    path.append(int(succ[path[-1]]))
                path = np.asarray(path)
                movers = np.concatenate(([i], row_of[path[:-1]]))
                col[movers] = path
                row_of[path] = movers
        free[col[i]] = False
    return col


def permutation_solution(cost: np.ndarray, assign: np.ndarray, solver: str, iterations: int) -> OtSolution:
    """The coupling sending row i's 1/m to column ``assign[i]``, feasible by
    construction, so neither built nor checked; priced along ``assign``."""
    m = len(assign)
    objective = float(cost[np.arange(m), assign].sum()) / m
    return OtSolution(None, objective, solver, iterations, assignment=assign)


def solve_exact(cost) -> OtSolution:
    """Globally optimal coupling under uniform marginals.

    The optimum is a permutation matrix scaled by 1/m; ties between equally
    cheap assignments break toward the lowest row index, then the lowest
    column index.  The tie refinement may use any edge whose reduced cost
    is at most ``1e-9 * max(cost)``, a tolerance relative to the cost's own
    scale, so the returned objective is within ``1e-9 * max(cost)`` of the
    optimum at every scale.  ``iterations`` counts the shortest-path
    searches left after the Jonker-Volgenant reductions (0 when they assign
    every row).
    """
    d = _check_cost(cost)
    col_for_row, u, v, searches = _jonker_volgenant(d)
    tol = 1e-9 * float(d.max())
    reduced = d - u[:, None]
    reduced -= v  # in place: one m x m temporary fewer
    assign = _lex_smallest_assignment(reduced <= tol, col_for_row)
    return permutation_solution(d, assign, "exact", iterations=searches)


def brute_force_ot(cost) -> OtSolution:
    """Exhaustive m! enumeration; the independent oracle for solve_exact."""
    d = _check_cost(cost)
    n = d.shape[0]
    if n > BRUTE_FORCE_MAX_SIDE:
        raise ValidationError(
            f"brute_force_ot is limited to side <= {BRUTE_FORCE_MAX_SIDE}, got {n}"
        )
    rows = np.arange(n)
    best_perm = None
    best_total = np.inf
    count = 0
    for perm in itertools.permutations(range(n)):
        count += 1
        total = float(d[rows, perm].sum())
        if total < best_total:
            best_total = total
            best_perm = perm
    return permutation_solution(
        d, np.asarray(best_perm, dtype=np.int64), "brute-force", iterations=count
    )


def _round_to_polytope(t: np.ndarray) -> np.ndarray:
    """Project a near-feasible coupling onto exact uniform marginals.

    Algorithm 2 of Altschuler, Weed & Rigollet, *Near-linear time
    approximation algorithms for optimal transport via Sinkhorn iteration*
    (NeurIPS 2017): rows and columns are scaled down to at most the target
    mass and the remaining deficiency is spread as a rank-one non-negative
    correction, so the result is feasible up to float rounding.  The
    perturbation is of the order of the marginal residuals.
    """
    m = t.shape[0]
    target = 1.0 / m
    rows = t.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(rows > target, target / rows, 1.0)
    t = t * scale[:, None]
    cols = t.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(cols > target, target / cols, 1.0)
    t = t * scale[None, :]
    err_r = np.maximum(target - t.sum(axis=1), 0.0)
    err_c = np.maximum(target - t.sum(axis=0), 0.0)
    deficit = err_r.sum()
    if deficit > 0.0:
        t = t + np.outer(err_r, err_c) / deficit
    return t


def _kernel(scaled: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.exp(f[:, None] + g[None, :] - scaled)


def _marginal_residual(p: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    target = 1.0 / p.shape[0]
    rows, cols = p.sum(axis=1), p.sum(axis=0)
    return max(np.abs(rows - target).max(), np.abs(cols - target).max()), rows, cols


def _newton_polish(scaled: np.ndarray, f: np.ndarray, g: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Newton's method on the marginal equations of the coupling
    ``P = exp(f_i + g_j - scaled_ij)`` (Brauer, Clason, Lorenz & Wirth, *A
    Sinkhorn-Newton method for entropic optimal transport*, 2017).

    The Jacobian ``[[diag(P1), P], [P^T, diag(P^T 1)]]`` is eliminated to its
    Schur complement in ``f``, the Laplacian of the row weights
    ``(P diag(1/P^T 1) P^T)_ik``, whose diagonal is summed from the
    off-diagonal weights so no entry cancels.  Pinning ``f_0`` removes the
    (1, -1) null direction.  Where kernel entries underflow, groups of rows
    share almost no column and the Laplacian has further near-null
    directions, in which the solve returns rounding noise times 1e20 or
    more; a ridge of ``_RIDGE`` times the largest diagonal entry (a
    Levenberg-Marquardt damping) bounds those components and leaves the
    others, which have far more curvature, as they are.  Each step halves
    its length until the max-norm marginal residual falls, and iteration
    stops once that residual is at most ``tol``.  A singular or non-finite
    system, or a step that no halving makes descend, ends the polish early.
    Returns the potentials of the last accepted step.
    """
    target = 1.0 / f.shape[0]
    p = _kernel(scaled, f, g)
    res, rows, cols = _marginal_residual(p)
    # trial steps may overflow; the finiteness and descent tests decide
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            if res <= tol:
                break
            schur = (p / -cols) @ p.T
            np.fill_diagonal(schur, 0.0)
            degree = -schur.sum(axis=1)
            np.fill_diagonal(schur, degree + _RIDGE * degree.max())
            rhs = target - rows + p @ ((cols - target) / cols)
            try:
                df = np.linalg.solve(schur[1:, 1:], rhs[1:])
            except np.linalg.LinAlgError:
                break
            df = np.concatenate(([0.0], df))
            dg = (target - cols - p.T @ df) / cols
            if not (np.isfinite(df).all() and np.isfinite(dg).all()):
                break
            step = 1.0
            for _ in range(_HALVINGS):
                trial = _kernel(scaled, f + step * df, g + step * dg)
                trial_res = _marginal_residual(trial)
                if trial_res[0] < res:
                    break
                step /= 2
            else:
                break
            f, g, p, (res, rows, cols) = f + step * df, g + step * dg, trial, trial_res
    return f, g


def solve_sinkhorn(cost, eps: float | None = None, tol: float = 1e-9, max_iter: int = 10000) -> OtSolution:
    """Entropic-regularized coupling via alternating marginal scaling.

    ``eps`` defaults to 0.01 * mean(cost) so the softness is scale free.
    The scalings run on the kernel ``exp(f_i + g_j - cost_ij / eps)``, whose
    log potentials start at the row and column minima (an exact 1 in every
    row and column) and absorb the scalings once they pass ``_ABSORB_ABOVE``
    (Schmitzer, 2019).  A sweep scales rows then columns, and iteration stops
    once the row residual (max norm) drops to ``tol``.  Arguments are checked
    on entry only; a sweep also tests that its residual is finite, which a
    kernel row or column sum of 0 or inf breaks, and raises if it is not.

    Near a hard assignment the sweeps converge slowly, so every
    ``_STALL_EVERY`` sweeps the row residual is compared with the last
    check.  Plain sweeps have stalled if it has not at least halved, and
    over-relaxed ones (below) if it has not fallen by ``theta **
    _STALL_EVERY``, the pace measured for plain sweeps.  On a stall the
    scalings are folded into the potentials and ``_newton_polish`` takes
    them to marginal residuals of ``tol / 100``, after which the sweeps
    resume on the rebuilt kernel and their own residual test decides
    convergence.  The polish runs at most once per solve; where it cannot
    descend (a singular system, or an underflowed kernel) the sweeps simply
    carry on.

    The first check never stalls.  If its residual r_50 is at most half the
    first sweep's r_1, the sweeps from then on are over-relaxed (Thibault,
    Chizat, Dossal & Papadakis, Algorithms 14(5), 2021): ``u <- u * ((1/m) /
    (u * Kv))**w``, then the same for ``v``, with the row sums ``u * Kv`` the
    residual already formed.  ``w = 2 / (1 + sqrt(1 - theta))`` is the
    optimal factor for the plain sweeps' contraction rate theta (Lehmann,
    von Renesse, Sambale & Uschmajew, Optim. Lett. 16, 2022), measured as
    ``(r_50 / r_1) ** (1 / 49)``.  An over-relaxed sweep's columns are not
    exact, so once its row residual reaches ``tol`` a plain column update
    follows and the row residual is tested again: a solve converges on the
    same test as a plain one.  Relaxed sweeps that fall behind the plain
    rate have lost what relaxing was for, so a later check that stalls
    returns the loop to plain sweeps and the polish.  An over-relaxed step
    that is not finite also returns it to plain sweeps, redone from the
    iterate before it and checked by halving.  A solve that converges
    before the first check, or whose residual has not halved by then, runs
    exactly the plain sweeps.

    ``iterations`` counts sweeps.  Hitting ``max_iter`` sweeps first
    returns the last iterate flagged as unconverged rather than raising.
    Either way the coupling is rounded onto the uniform-marginal polytope
    before being returned.
    """
    d = _check_cost(cost)
    n = d.shape[0]
    if eps is None:
        mean = float(d.mean())
        eps = 0.01 * mean if mean > 0 else 1.0
    check_real("sinkhorn eps", eps)
    check_real("sinkhorn tol", tol)
    check_int("sinkhorn max_iter", max_iter, 1)

    with np.errstate(over="ignore"):
        scaled = d / eps
    if not np.isfinite(scaled).all():
        raise SinkhornUnderflowError(
            f"eps={eps:g} is too small for this cost matrix: kernel exponent overflows"
        )
    target = 1.0 / n
    f = scaled.min(axis=1)
    g = (scaled - f[:, None]).min(axis=0)
    kernel = _kernel(scaled, f, g)
    u = v = np.ones(n)
    kv = rows = kernel @ v  # rows = u * kv, what the over-relaxed step reads
    omega = 1.0  # the over-relaxation factor; 1 runs plain sweeps
    polished = False
    first = checked = np.inf  # the row residual after sweep 1, and at the last stall check
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for iterations in range(1, max_iter + 1):
            if omega > 1.0:
                u1 = u * (target / rows) ** omega
                ku = kernel.T @ u1
                v1 = v * (target / (v * ku)) ** omega
                kv1 = kernel @ v1
                rows1 = u1 * kv1
                residual = np.abs(rows1 - target).max()
                if math.isfinite(residual):
                    u, v, kv, rows = u1, v1, kv1, rows1
                else:
                    omega = 1.0  # redo the sweep plain, and stay plain
            if omega == 1.0:
                u = target / kv
                ku = kernel.T @ u
                v = target / ku
                kv = kernel @ v
                # columns are exact after the v update, so only rows are tested
                rows = u * kv
                residual = np.abs(rows - target).max()
                if not math.isfinite(residual):
                    raise SinkhornUnderflowError(f"eps={eps:g} is too small: a kernel row or column sum hit 0 or inf")
            elif residual <= tol:
                # convergence is judged as in a plain sweep: columns exact
                v = target / ku
                kv = kernel @ v
                rows = u * kv
                residual = np.abs(rows - target).max()
            if residual <= tol:
                break
            if iterations == 1:
                first = residual
            stalled = False
            if not polished and iterations % _STALL_EVERY == 0:
                # relaxed sweeps must keep the plain sweeps' measured pace
                stalled = residual > checked * (theta**_STALL_EVERY if omega > 1.0 else 0.5)
                if iterations == _STALL_EVERY and residual <= first / 2:
                    theta = (residual / first) ** (1 / (_STALL_EVERY - 1))
                    omega = 2 / (1 + math.sqrt(1 - theta))
                checked = residual
            if stalled or np.maximum(u, v).max() > _ABSORB_ABOVE:
                # a tiny scaling forces a huge one on the other side, so
                # bounding the maxima keeps both in range
                f, g = f + np.log(u), g + np.log(v)
                if stalled:
                    polished = True
                    omega = 1.0
                    f, g = _newton_polish(scaled, f, g, tol / 100)
                kernel = _kernel(scaled, f, g)
                u = v = np.ones(n)
                kv = rows = kernel @ v

    t = u[:, None] * kernel * v[None, :]
    if not np.isfinite(t).all():
        raise SinkhornUnderflowError(f"eps={eps:g} produced a non-finite coupling")
    # the last iterate is near-feasible (within the stopping residuals);
    # rounding it onto the polytope keeps every returned map a valid
    # coupling and its objective a true upper bound on the exact optimum
    t = validate_transport_map(_round_to_polytope(t))
    return OtSolution(
        t,
        float(np.sum(t * d)),
        solver=f"sinkhorn(eps={eps:g})",
        iterations=iterations,
        converged=bool(residual <= tol),
    )
