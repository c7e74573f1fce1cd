"""Self-test of the benchmark.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py

It takes about a minute and a half: two short traced runs per workload,
then one run in a directory without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
EXACT_COUNTS = (
    "nets.sgd_steps",
    "transport.solve_exact_calls",
    "transport.sinkhorn_iterations",
    "transport.sinkhorn_converged_share",
    "linalg.row_distance_bytes",
    "cli.bytes_written",
)
FINGERPRINTS = ("inputs_sha256", "report_sha256")


def _run(cwd: Path, workload: str, seed: int):
    return subprocess.run(
        [sys.executable, str(cwd / BENCH.name / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_scaled_time_follows_the_probe():
    sys.path.insert(0, str(BENCH))
    import speed

    assert speed.scale(2.0, speed.NOMINAL_S, speed.NOMINAL_S) == pytest.approx(2.0)
    # a machine twice as slow doubles both the probe and the operation
    assert speed.scale(4.0, speed.NOMINAL_S, 3 * speed.NOMINAL_S) == pytest.approx(2.0)


def test_every_workload_names_a_probe():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import run
    import speed
    from workloads import WORKLOADS

    assert {w.probe for w in WORKLOADS.values()} | {run.SETUP_PROBE} <= set(speed.PROBES)
    for kind in speed.PROBES:
        assert speed.probe(kind) > 0


def test_op_p50_weighs_every_input_once():
    sys.path.insert(0, str(BENCH))
    import run

    ops = [{"key": "a", "scaled_s": 1.0}] * 3 + [{"key": "b", "scaled_s": 2.0}]
    assert run.typical(ops) == (pytest.approx(1.5), {"a": 1.0, "b": 2.0})


@pytest.mark.parametrize("workload", ["study", "align_wide", "align_pruned", "align_soft"])
def test_counts_and_fingerprints_repeat_at_a_seed(workload):
    seed = 5
    results, infos = [], []
    for _ in range(2):
        proc = _run(ROOT, workload, seed)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stdout
        results.append(result["metrics"])
        record = ROOT / ".perfbench" / "runs" / f"{workload}-seed{seed}-trace1.json"
        infos.append(json.loads(record.read_text())["info"])
    for name in EXACT_COUNTS:
        assert results[0][name] == results[1][name], name
    for key in FINGERPRINTS:
        assert infos[0].get(key) == infos[1].get(key), key


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "study", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
