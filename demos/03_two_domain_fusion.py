"""The full two-domain study: specialists, generalists, and their fusions.

Trains a target-domain specialist and a broad-domain generalist from
different random seeds, then compares every way of combining them: direct
weight averaging, transport-aligned averaging, and each followed by ten
epochs of moderate fine-tuning.  The table shows the usual picture: the
direct average collapses, the aligned average keeps working, and the
aligned average plus a short fine-tune beats everything.
"""

from otfuse.experiment import ExperimentConfig, format_report_text, run_experiment

cfg = ExperimentConfig(seeds=(0, 1, 2))
report = run_experiment(cfg)
print(format_report_text(report))

fused = report.metric_array("aligned_avg_ft", "loss_union")
best_single = [
    min(t, b)
    for t, b in zip(
        report.metric_array("target", "loss_union"),
        report.metric_array("broad", "loss_union"),
    )
]
print("per-seed union held-out loss, fused vs best constituent:")
for seed, (f, c) in enumerate(zip(fused, best_single)):
    verdict = "fused wins" if f <= c else "constituent wins"
    print(f"  seed {seed}: fused {f:.4f}  best constituent {c:.4f}  -> {verdict}")
