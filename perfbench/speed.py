"""Machine-speed probes, used to scale timed regions to a fixed speed.

This benchmark runs on a few cores of a shared host.  The other tenants'
load changes a CPU's speed within seconds, by up to 1.75x between its fast
and slow states, so the median wall time of one run moved by up to 30%
between runs of the same code.  A probe is a fixed piece of work, written
here and never taken from ``src/``, of the same kind as the layer a
workload stresses:

- ``lap``: successive shortest augmenting paths on a 40 x 40 matrix, small
  numpy calls in a Python loop, as ``solve_exact`` spends its time;
- ``sinkhorn``: kernel-domain scaling sweeps on a 128 x 128 kernel
  (matrix-vector products, the coupling and its marginals), as
  ``solve_sinkhorn`` does at the default eps;
- ``sgd``: one epoch of minibatch SGD of an 8-16-16-5 ReLU net, batches of
  16 rows, with a small frozen object per layer and step, as ``nets``
  training does at the default configuration.

Different code slows down by different amounts on the same machine, so
each workload is scaled by the probe of its own kind.  The probe runs right
before and right after each timed region.  The region's time is multiplied
by ``NOMINAL_S / probe``, where ``probe`` is the mean of those two probe
times: it reads as the wall time the region would have taken at the speed
at which the probe takes ``NOMINAL_S``.  A change in the program moves the
region's time and not the probe's, so it shows in full.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# About each probe's time in the fast state of the machine README.md names,
# so that scaled times read close to wall times there.  A fixed constant:
# scaled times from different runs and commits compare.
NOMINAL_S = 0.025

_rng = np.random.default_rng(12345)
_LAP_COST = _rng.random((40, 40))
_KERNEL = np.exp(-3.0 * _rng.random((128, 128)))
_TARGET = np.full(128, 1.0 / 128)
_X = _rng.standard_normal((320, 8))
_Y = _rng.integers(0, 5, 320)
_BATCH = 16
_W = [0.3 * _rng.standard_normal(s) for s in ((16, 8), (16, 16), (5, 16))]


def _lap() -> float:
    cost = _LAP_COST
    n = cost.shape[0]
    u, v = np.zeros(n + 1), np.zeros(n + 1)
    row_for_col = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        row_for_col[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = row_for_col[j0]
            free = ~used
            free[0] = False
            idx = np.nonzero(free)[0]
            cur = cost[i0 - 1, idx - 1] - u[i0] - v[idx]
            better = cur < minv[idx]
            minv[idx] = np.where(better, cur, minv[idx])
            way[idx[better]] = j0
            j1 = int(idx[int(np.argmin(minv[idx]))])
            delta = minv[j1]
            u[row_for_col[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
            if row_for_col[j0] == 0:
                break
        while j0:
            j1 = int(way[j0])
            row_for_col[j0] = row_for_col[j1]
            j0 = j1
    return float(u.sum())


def _sinkhorn() -> float:
    v = np.ones(128)
    t = _KERNEL
    for _ in range(100):
        kv = _KERNEL @ v
        u = _TARGET / kv
        ku = _KERNEL.T @ u
        v = _TARGET / ku
        t = u[:, None] * _KERNEL * v[None, :]
        np.abs(t.sum(axis=1) - _TARGET).max()
        np.abs(t.sum(axis=0) - _TARGET).max()
    return float(t.sum())


@dataclass(frozen=True)
class _Layer:
    w: np.ndarray
    b: np.ndarray


def _sgd() -> float:
    ws = [w.copy() for w in _W]
    bs = [np.zeros(w.shape[0]) for w in _W]
    order = np.random.default_rng(0).permutation(_X.shape[0])
    for start in range(0, _X.shape[0], _BATCH):
        idx = order[start : start + _BATCH]
        x, y = _X[idx], _Y[idx]
        layers = tuple(_Layer(w, b) for w, b in zip(ws, bs))
        acts, pre, a = [x], [], x
        for k, layer in enumerate(layers):
            z = a @ layer.w.T + layer.b
            pre.append(z)
            a = np.maximum(z, 0.0) if k < len(layers) - 1 else z
            acts.append(a)
        e = np.exp(a - a.max(axis=1, keepdims=True))
        delta = e / e.sum(axis=1, keepdims=True)
        delta[np.arange(len(idx)), y] -= 1.0
        delta /= len(idx)
        for k in range(len(layers) - 1, -1, -1):
            if k < len(layers) - 1:
                delta = delta * (pre[k] > 0)
            grad_w, grad_b = delta.T @ acts[k], delta.sum(axis=0)
            if k > 0:
                delta = delta @ layers[k].w
            ws[k] -= 0.1 * grad_w
            bs[k] -= 0.1 * grad_b
    return float(ws[0].sum())


# name -> (work, repetitions per probe); each probe takes about NOMINAL_S
PROBES = {"lap": (_lap, 7), "sinkhorn": (_sinkhorn, 5), "sgd": (_sgd, 26)}


def probe(kind: str) -> float:
    """Wall seconds of one probe of the given kind."""
    work, reps = PROBES[kind]
    start = time.perf_counter()
    for _ in range(reps):
        work()
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the nominal speed, from the probes around it."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
