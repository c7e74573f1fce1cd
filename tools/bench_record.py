"""Write BENCH_<tag>.json: the benchmark's end-to-end medians for a parent
checkout and a change checkout, the two numbers per end-to-end metric that
judge a gain claim, the change's Tier-1 pass count and wall time, both
trees' source line counts, and the Python, numpy and BLAS versions.

    python tools/bench_record.py --tag NAME --parent DIR --change DIR \\
        --runs-dir RUNS [--seed 0]

Each of BENCHMARK.json's workloads runs ``perfbench/run.py --trace 0`` for
the file's ``run_seconds`` in both trees, in 10 alternating pairs (parent
first in even pairs, change first in odd ones), the number of pairs a gain
claim is judged on.  Every run's last output line, with ``tree`` and
``pair`` added, is appended to ``RUNS/<workload>.jsonl``; runs already in
that file count toward the 10, so an interrupted record resumes.  Run it from
the change's root with the interpreter the benchmark uses; it writes
``BENCH_<tag>.json`` there.

A gain claim on a metric holds when the change is better, in the direction
of the metric's ``better`` in BENCHMARK.json, in at least 9 of the 10 pairs,
and its median is better by more than the interquartile range of the
parent's runs.  So each workload also records, per end-to-end metric, the
pairs the change won (a tie wins nothing) and the parent runs' quartile
spread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from run import src_lines  # noqa: E402  (perfbench/run.py's line count)

TREES = ("parent", "change")
PAIRS = 10


def load_runs(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def run_pairs(workload: str, dirs: dict, seconds: float, seed: int, path: Path) -> list[dict]:
    runs = load_runs(path)
    with path.open("a") as out:
        for pair in range(max((r["pair"] for r in runs), default=-1) + 1, PAIRS):
            for tree in TREES if pair % 2 == 0 else TREES[::-1]:
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    cwd=dirs[tree], capture_output=True, text=True,
                )
                lines = proc.stdout.strip().splitlines()
                record = {"tree": tree, "pair": pair, "rc": proc.returncode,
                          **(json.loads(lines[-1]) if proc.returncode == 0 and lines else {})}
                out.write(json.dumps(record) + "\n")
                out.flush()
                runs.append(record)
    return runs


def medians(runs: list[dict], tree: str) -> dict:
    mine = [r for r in runs if r["tree"] == tree and "metrics" in r]
    names = mine[0]["metrics"] if mine else {}
    return {
        "runs": len(mine),
        "failed_runs": sum(1 for r in runs if r["tree"] == tree and "metrics" not in r),
        "correct_runs": sum(bool(r.get("correct")) for r in mine),
        **{name: statistics.median(r["metrics"][name]["value"] for r in mine) for name in names},
    }


def gain(runs: list[dict], metrics: list[dict]) -> dict:
    """For each end-to-end metric: the pairs in which both trees ran and the
    change's value was better than the parent's, out of those pairs, and the
    interquartile range of the parent's runs (numpy's linear percentiles)."""
    by_run = {(r["tree"], r["pair"]): r["metrics"] for r in runs if "metrics" in r}
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {key: m[name]["value"] for key, m in by_run.items() if name in m}
        both = [p for tree, p in values if tree == "parent" and ("change", p) in values]
        parent = [v for (tree, _), v in values.items() if tree == "parent"]
        out[name] = {
            "better": metric["better"],
            "pairs_won": sum(sign * (values["parent", p] - values["change", p]) > 0 for p in both),
            "pairs": len(both),
            "parent_iqr": float(np.subtract(*np.percentile(parent, [75, 25]))) if parent else None,
        }
    return out


def tier1(root: Path) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=root, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    wall = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?|skipped)", tail)}
    return {"summary": tail, "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "wall_s": round(wall, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--runs-dir", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    args.runs_dir.mkdir(parents=True, exist_ok=True)
    bench = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    workloads = {}
    for wl in (w["name"] for w in bench["workloads"]):
        runs = run_pairs(wl, dirs, bench["run_seconds"], args.seed, args.runs_dir / f"{wl}.jsonl")
        workloads[wl] = {**{tree: medians(runs, tree) for tree in TREES},
                         "gain": gain(runs, bench["end_to_end"])}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "tag": args.tag,
        "benchmark": {"command": "perfbench/run.py --trace 0", "seed": args.seed,
                      "seconds": bench["run_seconds"], "pairs": PAIRS,
                      "statistic": "median over the runs of each tree"},
        "workloads": workloads,
        "tier1": tier1(dirs["change"]),
        "src_lines": {tree: src_lines(dirs[tree]) for tree in TREES},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}"},
    }
    out = Path.cwd() / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
