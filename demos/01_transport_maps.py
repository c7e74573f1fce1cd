"""Transport maps between weight rows: exact, brute-force, and Sinkhorn.

Walks through the building block everything else uses: given a square
matrix of distances between two sets of row vectors, find the cheapest way
to move uniform mass from one set onto the other.  With uniform marginals
the exact optimum is always a permutation scaled by 1/m; the entropic
(Sinkhorn) solution softens that permutation, and the softness vanishes as
the regularization shrinks.
"""

import numpy as np

from otfuse import brute_force_ot, ot_objective, solve_exact, solve_sinkhorn

rng = np.random.default_rng(0)

print("== a hand-readable 2x2 case")
cost = np.array([[0.0, 1.0], [1.0, 0.0]])
sol = solve_exact(cost)
print("cost:\n", cost)
print("optimal coupling (rows of A matched straight across):\n", sol.map)
print("objective:", sol.objective)

print("\n== exact solver agrees with exhaustive enumeration")
for m in (3, 5, 7):
    d = rng.uniform(0, 10, (m, m))
    exact = solve_exact(d)
    brute = brute_force_ot(d)
    print(f"m={m}: exact {exact.objective:.6f}  brute force {brute.objective:.6f} "
          f"({brute.iterations} permutations checked)")

print("\n== Sinkhorn softness as a function of the regularization")
d = rng.uniform(0, 4, (4, 4))
exact = solve_exact(d)
print(f"exact optimum: {exact.objective:.6f}")
for eps in (2.0, 0.5, 0.1, 0.02):
    sink = solve_sinkhorn(d, eps=eps, max_iter=50000)
    gap = sink.objective - exact.objective
    spread = (sink.map > 1e-6).sum()
    print(f"eps={eps:<5} objective {sink.objective:.6f} (gap {gap:.2e}), "
          f"{spread} couplings above 1e-6, {sink.iterations} iterations")

print("\nthe soft map's objective never drops below the exact optimum, and")
print("shrinking eps recovers the hard assignment")

print("\n== a map is just a matrix you can price against any cost")
uniform = np.full((4, 4), 1.0 / 16)
print("uniform coupling priced on the same cost:",
      f"{ot_objective(uniform, d):.6f} (worse than {exact.objective:.6f})")
