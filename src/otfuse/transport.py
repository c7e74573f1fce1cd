"""Discrete optimal transport between weight rows under uniform marginals.

A coupling (a map) is a plain float64 m x m array whose rows and columns
each sum to 1/m.  Costs and maps pass one check on the way in: a non-empty,
finite, square, non-negative matrix, else ``ValidationError``.

With both marginals uniform and a square cost matrix, the transport problem
is a linear assignment problem: its optimum is a permutation matrix scaled
by 1/m, so an exact or brute-force ``OtSolution`` stores just that
permutation (``assignment``) and builds its map only when ``.map`` is read.
``solve_exact`` finds that vertex with the Jonker-Volgenant
algorithm (Computing 38, 1987): column reduction and augmenting row
reduction warm-start the duals and assign most rows, then one Dijkstra
shortest augmenting path search per row still free completes the
matching.  The row reduction runs in rounds in which every free row bids
at once, as in Bertsekas' auction (Annals of OR 14, 1988).  The solve then
refines ties to the lexicographically smallest optimal assignment by
alternating-cycle search, so results are bit-reproducible; columns on no
alternating cycle are trimmed first, as no other optimal assignment moves
them.  The whole solve, tie refinement included, is O(m^3).
``solve_sinkhorn`` returns the entropic soft coupling from one scaling loop
on a kernel that log potentials keep in range for any eps; when the sweeps
stall near a hard assignment, Newton's method on the log potentials
(Brauer, Clason, Lorenz & Wirth, 2017) finishes the solve in a few steps.
``brute_force_ot`` enumerates all m! permutations and exists purely as an
oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SinkhornUnderflowError, ValidationError
from .linalg import as_matrix

MARGINAL_TOL = 1e-8
BRUTE_FORCE_MAX_SIDE = 8
_ABSORB_ABOVE = 1e50  # Sinkhorn scalings past this fold into the log potentials
_STALL_EVERY = 50  # sweeps between checks that the row residual still halves
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


def _check_cost(a, name: str = "cost matrix") -> np.ndarray:
    """What costs and maps share: a non-empty, finite, square, non-negative
    float64 matrix."""
    d = as_matrix(a, name)
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
    t = as_matrix(t, "coupling")
    cost = as_matrix(cost, "cost")
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
    3. One Dijkstra search on reduced costs per row still free.  Columns
       tied at the minimum end the search at a free column, and the duals
       of the scanned columns are updated once, when the search ends.

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
    both.  An edge that touches a dropped column lies on no alternating
    cycle, so it is in no other perfect matching, whichever one the search
    starts from (Dulmage-Mendelsohn); those edges leave ``zero`` and the
    matched ones stay.  Each peel costs O(m) plus O(m) per dropped column, O(m^2) in
    all, and when no column is left the matching is returned as it is.
    """
    n = zero.shape[0]
    col = np.array(col_for_row, dtype=np.int64)
    if not zero[np.arange(n), col].all():
        raise NumericalError("assignment is not inside the zero reduced-cost graph; duals inconsistent")
    row_of = np.empty(n, dtype=np.int64)
    row_of[col] = np.arange(n)
    # peel the alternating graph down to columns with an in- and an out-edge
    step = zero[row_of]
    step[np.arange(n), np.arange(n)] = False
    outs, ins = step.sum(axis=1), step.sum(axis=0)
    keep = np.ones(n, dtype=bool)
    while True:
        drop = np.flatnonzero(keep & ((outs == 0) | (ins == 0)))
        if not drop.size:
            break
        keep[drop] = False
        outs -= step[:, drop].sum(axis=1)
        ins -= step[drop].sum(axis=0)
    if not keep.any():
        return col
    zero = zero & keep[col][:, None] & keep[None, :]
    zero[np.arange(n), col] = True
    free = np.ones(n, dtype=bool)
    succ = np.empty(n, dtype=np.int64)
    for i in range(n):
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
    column index.  ``iterations`` counts the shortest-path searches left
    after the Jonker-Volgenant reductions (0 when they assign every row).
    """
    d = _check_cost(cost)
    col_for_row, u, v, searches = _jonker_volgenant(d)
    tol = 1e-9 * max(1.0, float(d.max()))
    reduced = d - u[:, None] - v[None, :]
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


def _marginal_residual(p: np.ndarray) -> float:
    target = 1.0 / p.shape[0]
    return max(np.abs(p.sum(axis=1) - target).max(), np.abs(p.sum(axis=0) - target).max())


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
    res = _marginal_residual(p)
    # trial steps may overflow; the finiteness and descent tests decide
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            if res <= tol:
                break
            rows, cols = p.sum(axis=1), p.sum(axis=0)
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
                if trial_res < res:
                    break
                step /= 2
            else:
                break
            f, g, p, res = f + step * df, g + step * dg, trial, trial_res
    return f, g


def solve_sinkhorn(cost, eps: float | None = None, tol: float = 1e-9, max_iter: int = 10000) -> OtSolution:
    """Entropic-regularized coupling via alternating marginal scaling.

    ``eps`` defaults to 0.01 * mean(cost) so the softness is scale free.
    The scalings run on the kernel ``exp(f_i + g_j - cost_ij / eps)``, whose
    log potentials start at the row and column minima (an exact 1 in every
    row and column) and absorb the scalings once they pass ``_ABSORB_ABOVE``
    (Schmitzer, 2019).  A sweep scales rows then columns, and iteration stops
    once the row residual (max norm) drops to ``tol``.

    Near a hard assignment the sweeps converge slowly, so every
    ``_STALL_EVERY`` sweeps the row residual is compared with the last
    check: if it has not at least halved, the scalings are folded into the
    potentials and ``_newton_polish`` takes them to marginal residuals of
    ``tol / 100``, after which the sweeps resume on the rebuilt kernel and
    their own residual test decides convergence.  The polish runs at most
    once per solve; where it cannot descend (a singular system, or an
    underflowed kernel) the sweeps simply carry on.  ``iterations`` counts
    sweeps.  Hitting ``max_iter`` sweeps first returns the last iterate
    flagged as unconverged rather than raising.  Either way the coupling is
    rounded onto the uniform-marginal polytope before being returned.
    """
    d = _check_cost(cost)
    n = d.shape[0]
    if eps is None:
        mean = float(d.mean())
        eps = 0.01 * mean if mean > 0 else 1.0
    if not (np.isfinite(eps) and eps > 0):
        raise ValidationError(f"sinkhorn eps must be finite and positive, got {eps}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValidationError(f"sinkhorn tol must be finite and positive, got {tol}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValidationError(f"sinkhorn max_iter must be an integer >= 1, got {max_iter!r}")

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
    kv = kernel @ v
    converged = polished = False
    checked = np.inf  # the row residual at the last stall check
    for iterations in range(1, max_iter + 1):
        if (kv <= 0).any() or not np.isfinite(kv).all():
            raise SinkhornUnderflowError(f"eps={eps:g} is too small: kernel column sums underflowed")
        u = target / kv
        ku = kernel.T @ u
        if (ku <= 0).any() or not np.isfinite(ku).all():
            raise SinkhornUnderflowError(f"eps={eps:g} is too small: kernel row sums underflowed")
        v = target / ku
        kv = kernel @ v
        # columns are exact after the v update, so only rows are tested
        residual = np.abs(u * kv - target).max()
        if residual <= tol:
            converged = True
            break
        stalled = False
        if not polished and iterations % _STALL_EVERY == 0:
            stalled = residual > checked / 2
            checked = residual
        if stalled or max(u.max(), v.max()) > _ABSORB_ABOVE:
            # a tiny scaling forces a huge one on the other side, so
            # bounding the maxima keeps both in range
            f = f + np.log(u)
            g = g + np.log(v)
            if stalled:
                polished = True
                f, g = _newton_polish(scaled, f, g, tol / 100)
            kernel = _kernel(scaled, f, g)
            u = v = np.ones(n)
            kv = kernel @ v

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
        converged=converged,
    )
