"""Closed-loop benchmark of otfuse's command-line operations.

Run from the root of a checkout:

    python3 perfbench/run.py --workload align_wide --seed 0 --seconds 25 --trace 0

One client runs one operation at a time, in this process, each starting when
the previous one returns.  Times are scaled to a fixed machine speed with a
probe from speed.py, run right before and after each timed region.
``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced operations on the same inputs
and prints the per-layer metrics.  The last line of standard output is one
JSON object; a fuller record goes to ``.perfbench/runs/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# One BLAS thread: operations are single-client, and a second thread would
# only compete with the loop for the machine's cores.  Set before numpy loads.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Arrays of 1 MiB or more are mapped on allocation and unmapped on free.
# glibc otherwise raises this threshold as large blocks are freed, and the
# heap's fragmentation then moved peak RSS by 16 MiB between runs of the
# same inputs; a fixed threshold makes it track the program's live arrays.
# The heap is trimmed only past twice that, glibc's own rule when it moves
# the threshold: a fixed threshold alone leaves the trim threshold at
# 128 KiB, and every freed 128 x 128 temporary then gave its pages back,
# for 12,000 page faults and a quarter more time per Sinkhorn solve.
MMAP_THRESHOLD = 1 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, glibc's malloc.h
# Set-up runs three times before the loop and three times after it: the
# machine's speed drifts over tens of seconds, and samples from both ends of
# the run make the median of the six steadier than six back-to-back ones.
SETUP_REPS_BEFORE, SETUP_REPS_AFTER = 3, 3
SETUP_PROBE = "sgd"  # set-up trains networks in every workload
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND
    samples beyond it.  With too few samples for that, it is the order
    statistic just above the middle, so the tail never reads below the median."""
    xs = sorted(samples)
    beyond = min(TAIL_BEYOND, (len(xs) - 1) // 2)
    rank = len(xs) - beyond  # 1-based
    return xs[rank - 1], 100.0 * rank / len(xs)


def typical(ops: list[dict]) -> tuple[float, dict[str, float]]:
    """Mean over the panel's inputs of each input's median scaled time, and
    those medians.  Inputs differ by up to 15% in time, so the median of the
    pooled samples would jump between them with the visit counts."""
    by_key: dict[str, list[float]] = defaultdict(list)
    for o in ops:
        by_key[o["key"]].append(o["scaled_s"])
    medians = {k: statistics.median(v) for k, v in by_key.items()}
    return statistics.fmean(medians.values()), medians


def fix_malloc_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds; False where the C library has
    no mallopt."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
        return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
    except (AttributeError, OSError):
        return False


def src_lines(root: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted((root / "src" / "otfuse").rglob("*.py")))


def run_op(wl, inst, op_id, tracer=None) -> dict:
    """One timed operation, then its check (outside the timed region)."""
    import otfuse.cli as cli
    import speed
    from workloads import quiet

    error = None
    with quiet() as buf:
        before = speed.probe(wl.probe)
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(inst.argv)
            else:
                with tracer.operation(op_id, "cli.main"):
                    rc = cli.main(inst.argv)
        except (Exception, SystemExit) as exc:  # a failed operation, counted below
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        after = speed.probe(wl.probe)
    if error is None and rc != 0:
        error = f"exit code {rc}: {buf.getvalue().strip()[-300:]}"
    if error:
        problems = [error]
    else:
        try:
            problems = wl.check(inst)
        except Exception as exc:  # an unreadable output is a failed operation
            problems = [f"{inst.key}: check raised {type(exc).__name__}: {exc}"]
    return {
        "id": op_id,
        "key": inst.key,
        "traced": tracer is not None,
        "seconds": seconds,
        "scaled_s": speed.scale(seconds, before, after),
        "probe_s": 0.5 * (before + after),
        "problems": problems,
        "bytes_written": 0 if error else wl.output_bytes(inst),
    }


def set_up(wl, work: Path, reps: int, tracer=None) -> list[tuple[float, float]]:
    """``reps`` timed set-ups, each into a fresh directory; the loop uses the
    inputs of the last one before it.  Returns (wall, scaled) seconds of
    each, scaled with the ``sgd`` probe: every set-up is mostly training.
    With a tracer, the last set-up is traced under operation id ``setup``."""
    import speed

    times = []
    for rep in range(reps):
        rep_dir = work / f"setup{len(wl.setup_digests)}"
        before = speed.probe(SETUP_PROBE)
        start = time.perf_counter()
        if tracer is not None and rep == reps - 1:
            with tracer.operation("setup", "bench.setup"):
                wl.setup_digests.append(wl.prepare(rep_dir))
        else:
            wl.setup_digests.append(wl.prepare(rep_dir))
        seconds = time.perf_counter() - start
        times.append((seconds, speed.scale(seconds, before, speed.probe(SETUP_PROBE))))
    return times


def closed_loop(wl, seconds: float, tracer) -> list[dict]:
    """Run until ``seconds`` have passed and every input has been visited.

    With a tracer, each visit runs the input twice, untraced and traced,
    alternating which goes first, so the difference is tracing overhead."""
    ops: list[dict] = []
    deadline = time.perf_counter() + seconds
    n = len(wl.instances)
    visit = 0
    while visit < n or time.perf_counter() < deadline:
        inst = wl.instances[visit % n]
        if tracer is None:
            ops.append(run_op(wl, inst, len(ops)))
        else:
            for traced in ((False, True) if visit % 2 == 0 else (True, False)):
                ops.append(run_op(wl, inst, len(ops), tracer if traced else None))
        visit += 1
    return ops


def end_to_end(wl, ops, setup_times, peak_kib) -> tuple[dict, dict]:
    ok = sum(not o["problems"] for o in ops)
    p50, medians = typical(ops)
    # the tail of each time relative to its input's median, in op_p50_s units
    tail_rel, tail_pct = tail([o["scaled_s"] / medians[o["key"]] for o in ops])
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup_times), "s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (p50 * tail_rel, "s"),
        "ok_share": (ok / len(ops), "share"),
        "fused_err_pct": (wl.fused_err_pct(), "%"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }
    info = {
        "op_samples": len(ops),
        "op_tail_percentile": tail_pct,
        "failed_share": 1.0 - ok / len(ops),
        "op_p50_wall_s": statistics.median(o["seconds"] for o in ops),
        "setup_wall_s": statistics.median(w for w, _ in setup_times),
        "probe_p50_s": statistics.median(o["probe_s"] for o in ops),
    }
    return metrics, info


def per_layer(wl, ops, tracer, tied_share, lines) -> tuple[dict, dict]:
    from tracer import covered_seconds, self_seconds

    spans = tracer.spans
    selfs = self_seconds(spans)
    traced = [o for o in ops if o["traced"]]
    untraced = [o for o in ops if not o["traced"]]
    traced_ids = {o["id"] for o in traced}
    # counts come from the first traced visit of each input, so they are
    # exact for a seed whatever the number of visits the time allowed
    first: dict[str, dict] = {}
    for o in traced:
        first.setdefault(o["key"], o)
    first_ids = {o["id"] for o in first.values()}
    n, nf = len(traced), len(first)

    busy_s, self_s, calls, setup_s, setup_calls = (Counter() for _ in range(5))
    attrs: Counter = Counter()
    for s, own in zip(spans, selfs):
        if s.op in traced_ids:
            busy_s[s.name] += s.seconds
            self_s[s.name] += own
        if s.op in first_ids:
            calls[s.name] += 1
            for key, value in (s.attrs or {}).items():
                attrs[s.name, key] += value
        if s.op == "setup":
            setup_s[s.name] += s.seconds
            setup_calls[s.name] += 1

    def busy(*names):
        return sum(busy_s[x] for x in names) / n

    def self_time(*names):
        return sum(self_s[x] for x in names) / n

    sinkhorn_calls = calls["transport.solve_sinkhorn"]
    # scaled times, as op_p50_s reports them
    p50_untraced, _ = typical(untraced)
    # ops come in (untraced, traced) pairs on the same input, one after
    # the other; the median paired difference is the tracing overhead
    by_id = {o["id"]: o for o in ops}
    overhead = statistics.median(
        o["scaled_s"] - by_id[o["id"] ^ 1]["scaled_s"] for o in traced
    )
    op_seconds = sum(o["seconds"] for o in traced)
    metrics = {
        "nets.sgd_steps": (calls["nets.loss_gradients"] / nf, "count"),
        "nets.loss_gradients_s": (busy("nets.loss_gradients"), "s"),
        "nets.train_s": (busy("nets.train"), "s"),
        "nets.finetune_s": (busy("nets.finetune"), "s"),
        "nets.eval_s": (busy("nets.accuracy", "nets.loss"), "s"),
        "nets.make_checkpoint_s": (
            busy("nets.make_checkpoint", "nets.validate_checkpoint", "nets.init_checkpoint"),
            "s",
        ),
        "data.gen_synthetic_s": (busy("data.gen_synthetic"), "s"),
        "experiment.self_s": (
            self_time(
                "experiment.run_experiment",
                "experiment.run_seed",
                "experiment.format_report_text",
                "experiment.format_report_csv",
            ),
            "s",
        ),
        "fusion.align_s": (busy("fusion.align"), "s"),
        "fusion.align_self_s": (self_time("fusion.align"), "s"),
        "fusion.fuse_s": (busy("fusion.fuse", "fusion.direct_average"), "s"),
        "transport.solve_exact_s": (busy("transport.solve_exact"), "s"),
        "transport.solve_exact_calls": (calls["transport.solve_exact"] / nf, "count"),
        "transport.hard_permutation_s": (busy("transport.hard_permutation"), "s"),
        "transport.solve_sinkhorn_s": (busy("transport.solve_sinkhorn"), "s"),
        "transport.sinkhorn_iterations": (
            attrs["transport.solve_sinkhorn", "iterations"] / nf,
            "count",
        ),
        "transport.sinkhorn_converged_share": (
            attrs["transport.solve_sinkhorn", "converged"] / sinkhorn_calls if sinkhorn_calls else 0.0,
            "share",
        ),
        "linalg.row_distance_s": (busy("linalg.row_distance_matrix"), "s"),
        "linalg.row_distance_bytes": (
            attrs["linalg.row_distance_matrix", "computed_bytes"] / nf,
            "B_computed",
        ),
        "linalg.matmul_s": (busy("linalg.matmul"), "s"),
        "serialize.load_s": (busy("serialize.load_checkpoint"), "s"),
        "serialize.save_s": (busy("serialize.save_checkpoint"), "s"),
        "cli.self_s": (self_time("cli.main"), "s"),
        "cli.bytes_written": (sum(o["bytes_written"] for o in first.values()) / nf, "B"),
        "trace.target_share": (covered_seconds(spans, wl.target, traced_ids) / op_seconds, "share"),
        "trace.untraced_p50_s": (p50_untraced, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead / p50_untraced, "share"),
        "trace.spans_per_op": (sum(calls.values()) / nf, "count"),
        "trace.span_failures": (sum(s.failed for s in spans), "count"),
        "setup.nets.train_s": (setup_s["nets.train"], "s"),
        "setup.nets.sgd_steps": (setup_calls["nets.loss_gradients"], "count"),
        "input.tied_row_share": (tied_share, "share"),
        "src.lines": (lines, "count"),
    }
    info = {"traced_ops": n, "untraced_ops": len(untraced), "first_visit_ops": nf}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "otfuse" / "__init__.py").is_file():
        print(f"error: no otfuse sources under {src}; run from a checkout's root", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    pinned = fix_malloc_thresholds()
    sys.path.insert(0, str(src))
    import otfuse

    if Path(otfuse.__file__).resolve().parent != (src / "otfuse").resolve():
        print(f"error: imported otfuse from {otfuse.__file__}, not {src}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = root / ".perfbench"
    work = out_dir / "work" / f"{args.workload}-{os.getpid()}"
    runs = out_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = Tracer() if args.trace else None
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        setup_times = set_up(wl, work, SETUP_REPS_BEFORE, tracer)
        ops = closed_loop(wl, args.seconds, tracer)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_times += set_up(wl, work, SETUP_REPS_AFTER)
        # every set-up must write the same bytes
        problems = [] if len(set(wl.setup_digests)) == 1 else ["set-up is not deterministic"]
        lines = src_lines(root)
        if tracer is None:
            metrics, info = end_to_end(wl, ops, setup_times, peak_kib)
        else:
            metrics, info = per_layer(wl, ops, tracer, wl.tied_row_share(), lines)
            tracer.write(runs / f"{tag}-spans.jsonl.gz")
        info.update(wl.info())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems += [p for o in ops for p in o["problems"]]
    failed = sum(bool(o["problems"]) for o in ops)
    info.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "blas_threads": BLAS_THREADS,
            "mmap_threshold": MMAP_THRESHOLD if pinned else None,
            "trim_threshold": TRIM_THRESHOLD if pinned else None,
            "src_lines": lines,
            "setup_times_s": setup_times,
            "op_seconds": [[o["key"], o["traced"], o["seconds"], o["scaled_s"]] for o in ops],
            "problems": problems[:20],
        }
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    for key in ("op_samples", "op_tail_percentile", "failed_share", "op_p50_wall_s",
                "setup_wall_s", "probe_p50_s", "tied_row_share",
                "fused_err_pct_before_finetune", "inputs_sha256", "src_lines"):
        if key in info:
            print(f"{key:<36} {info[key]}")
    for p in problems[:5]:
        print(f"problem: {p}")
    record = {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, "info": info}
    (runs / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(ops),
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
