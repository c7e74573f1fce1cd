"""The console entry point in fresh processes: what one in-process run
cannot show, such as two processes writing the same bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import otfuse
from otfuse.nets import CheckpointMeta, LayerSpec, LayerWeights, make_checkpoint
from otfuse.serialize import save_checkpoint

SPECS = (LayerSpec(8, 32, "relu"), LayerSpec(32, 32, "relu"), LayerSpec(32, 5, "identity"))


def _otfuse(*args) -> subprocess.CompletedProcess:
    """``python -m otfuse ARGS`` in a new interpreter that imports this tree's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(otfuse.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "otfuse", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _pruned_net(seed: int, path: Path) -> Path:
    """A random net with the smaller-norm half of each hidden layer's units
    zeroed, weights and bias: its costs hold blocks of exact ties."""
    rng = np.random.default_rng(seed)
    layers = []
    for i, s in enumerate(SPECS):
        w, b = rng.standard_normal((s.out_dim, s.in_dim)), rng.standard_normal(s.out_dim)
        if i < len(SPECS) - 1:
            drop = np.argsort(np.linalg.norm(w, axis=1), kind="stable")[: s.out_dim // 2]
            w[drop] = b[drop] = 0.0
        layers.append(LayerWeights(w, b))
    save_checkpoint(make_checkpoint(SPECS, layers, CheckpointMeta(seed=seed, tag="pruned")), path)
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sinkhorn_align_of_a_pruned_pair_repeats_across_processes(tmp_path):
    a, b = _pruned_net(1, tmp_path / "a.json"), _pruned_net(2, tmp_path / "b.json")
    digests = []
    for run in (1, 2):
        out, maps = tmp_path / f"aligned{run}.json", tmp_path / f"maps{run}.json"
        proc = _otfuse("align", a, b, "--solver", "sinkhorn", "--out", out, "--maps-out", maps)
        assert proc.returncode == 0, proc.stderr
        digests.append((_sha256(out), _sha256(maps)))
    assert digests[0] == digests[1]
