"""The benchmark's workloads: set-up, one operation's arguments, its check.

An operation is one ``otfuse`` subcommand, called in-process through
``otfuse.cli.main``.  Every input it reads is generated here, and the
workload seed sets where the loop starts.  README.md says why each exists.
"""

from __future__ import annotations

import hashlib
import io
import shutil
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import otfuse.cli as cli
import otfuse.data as data
import otfuse.fusion as fusion
import otfuse.nets as nets
import otfuse.serialize as serialize

import checks

# The inputs are a fixed panel, and the workload seed only sets where the
# closed loop starts in it.  Draws of the task or of the networks differ by
# 10-30% in solve time and far more in fused error (README.md), which would
# hide the changes the benchmark exists to show.
TASK_SEED = 20230604
TASK = data.DomainMixtureConfig(
    num_classes=5,
    feature_dim=8,
    train_per_class=60,
    heldout_per_class=400,
    domain_shift=2.0,
    noise_scale=1.3,
    mean_scale=1.6,
)
PAIR_EPOCHS, PAIR_BATCH, PAIR_LR = 15, 64, 0.1
# the experiment's fine-tune stage (ExperimentConfig defaults)
FINETUNE_EPOCHS, FINETUNE_BATCH, FINETUNE_LR = 10, 64, 0.01
NETS = 2  # networks per align workload, aligned both ways: (0, 1) and (1, 0)
STUDY_PANEL = 8  # experiment seeds 0..7
LOGIT_SAMPLES = 500  # held-out rows used for the logit check


def child_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


@dataclass
class Instance:
    key: str
    argv: list[str]
    outputs: list[Path]
    digest: str | None = None  # sha256 of the outputs, set on the first visit
    extra: dict = field(default_factory=dict)


class Workload:
    """Common loop-facing interface; subclasses fill in the specifics."""

    name = ""
    target: tuple[str, ...] = ()  # span-name prefixes this workload stresses
    probe = "sgd"  # speed.py probe of the same kind of work as the operation

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.instances: list[Instance] = []
        self.setup_digests: list[str] = []  # sha256 of each set-up's inputs

    def check(self, inst: Instance) -> list[str]:
        """Full check on the first visit; later visits must reproduce the
        first visit's output bytes exactly."""
        digest = sha256_files(inst.outputs)
        if inst.digest is None:
            problems = self.first_check(inst)
            if not problems:
                inst.digest = digest
            return problems
        if digest != inst.digest:
            return [f"{inst.key}: output differs from the first visit"]
        return []

    def output_bytes(self, inst: Instance) -> int:
        return sum(p.stat().st_size for p in inst.outputs)

    def tied_row_share(self) -> float:
        return 0.0


class Study(Workload):
    """``otfuse experiment`` for one seed at the default configuration."""

    name = "study"
    target = ("nets.",)

    def __init__(self, seed, work):
        super().__init__(seed, work)
        d = self.out / "study"
        self.panel = [(seed + i) % STUDY_PANEL for i in range(STUDY_PANEL)]
        self.instances = [
            Instance(
                f"seed{s}",
                ["experiment", "--seeds", str(s), "--out-dir", str(d), "--format", "csv"],
                [d / "report.txt", d / "report.csv"],
            )
            for s in self.panel
        ]

    def prepare(self, rep_dir: Path) -> str:
        """No input files: set-up is one warm-up experiment, timed as set-up
        rather than as an operation."""
        argv = ["experiment", "--seeds", str(self.panel[0]), "--out-dir", str(rep_dir), "--format", "csv"]
        with quiet():
            rc = cli.main(argv)
        problems, _ = checks.check_report(rep_dir / "report.csv")
        if rc != 0 or problems:
            raise RuntimeError(f"warm-up experiment failed: rc={rc} {problems}")
        return sha256_files([rep_dir / "report.csv"])

    def first_check(self, inst):
        problems, fused = checks.check_report(inst.outputs[1])
        inst.extra["fused_err_pct"] = fused
        inst.extra["report_sha256"] = sha256_files(inst.outputs[1:])
        return problems

    def fused_err_pct(self) -> float:
        return float(np.mean([i.extra["fused_err_pct"] for i in self.instances]))

    def info(self) -> dict:
        return {
            "experiment_seeds": self.panel,
            "report_sha256": {i.key: i.extra.get("report_sha256") for i in self.instances},
        }


def _prune_half(ckpt):
    """Zero the half of each hidden layer's units whose incoming weights
    have the smallest norm (weights and bias)."""
    layers = []
    for i, layer in enumerate(ckpt.layers):
        w, b = layer.w.copy(), layer.b.copy()
        if i < len(ckpt.layers) - 1:
            norms = np.linalg.norm(w, axis=1)
            drop = np.argsort(norms, kind="stable")[: w.shape[0] // 2]
            w[drop] = 0.0
            b[drop] = 0.0
        layers.append(nets.LayerWeights(w, b))
    return nets.make_checkpoint(ckpt.specs, layers, ckpt.meta)


class Align(Workload):
    """``otfuse align`` on pairs of independently trained networks."""

    width = 0
    depth = 3
    solver = "exact"
    prune = False

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.net_paths: list[Path] = []
        aligned, maps = self.out / "aligned.json", self.out / "maps.json"
        solver = [] if self.solver == "exact" else ["--solver", self.solver]
        self.pairs = [((seed + i) % NETS, (seed + i + 1) % NETS) for i in range(NETS)]
        self.instances = [
            Instance(
                f"pair{j}-{k}",
                [],  # filled in by prepare once the input paths exist
                [aligned, maps],
            )
            for j, k in self.pairs
        ]
        self._tail = ["--out", str(aligned), "--maps-out", str(maps), *solver]
        self.tied_rows = 0
        self.solved_rows = 0
        self.raw_fused_err_pct = None

    def specs(self):
        dims = [TASK.feature_dim] + [self.width] * self.depth + [TASK.num_classes]
        return tuple(
            nets.LayerSpec(dims[i], dims[i + 1], "relu" if i < self.depth else "identity")
            for i in range(len(dims) - 1)
        )

    def prepare(self, rep_dir: Path) -> str:
        rep_dir.mkdir(parents=True, exist_ok=True)
        self.train_set, self.held = data.gen_synthetic(TASK, TASK_SEED)
        paths = []
        for j in range(NETS):
            cfg = nets.TrainConfig(PAIR_EPOCHS, PAIR_BATCH, PAIR_LR, child_seed(TASK_SEED, j))
            ckpt = nets.train(self.specs(), self.train_set, cfg)
            if self.prune:
                ckpt = _prune_half(ckpt)
            paths.append(rep_dir / f"net{j}.json")
            serialize.save_checkpoint(ckpt, paths[-1])
        self.net_paths = paths
        for inst, (j, k) in zip(self.instances, self.pairs):
            inst.argv = ["align", str(paths[j]), str(paths[k]), *self._tail]
        return sha256_files(paths)

    def first_check(self, inst):
        j, k = self.pairs[self.instances.index(inst)]
        model_a = checks.read_checkpoint(self.net_paths[j])
        model_b = checks.read_checkpoint(self.net_paths[k])
        problems, tied, solved = checks.check_alignment(
            model_a,
            model_b,
            inst.outputs[0],
            inst.outputs[1],
            self.held.features[:LOGIT_SAMPLES],
            exact=self.solver == "exact",
        )
        self.tied_rows += tied
        self.solved_rows += solved
        kept = self.work / f"aligned-{inst.key}.json"
        shutil.copyfile(inst.outputs[0], kept)
        inst.extra["aligned"] = kept
        return problems

    def fused_err_pct(self) -> float:
        """Held-out error of fuse(aligned, B, 0.5) after the experiment's
        fine-tune stage, averaged over both directions; outside the timed loop."""
        errs, raw = [], []
        x, y = self.held.features, self.held.labels
        for inst, (j, k) in zip(self.instances, self.pairs):
            aligned = serialize.load_checkpoint(inst.extra["aligned"])
            fused = fusion.fuse(aligned, serialize.load_checkpoint(self.net_paths[k]), 0.5)
            cfg = nets.TrainConfig(
                FINETUNE_EPOCHS, FINETUNE_BATCH, FINETUNE_LR, child_seed(TASK_SEED, 100 + j)
            )
            tuned = nets.finetune(fused, self.train_set, cfg)
            raw.append(checks.error_pct(_layers(fused), x, y))
            errs.append(checks.error_pct(_layers(tuned), x, y))
        self.raw_fused_err_pct = float(np.mean(raw))
        return float(np.mean(errs))

    def tied_row_share(self) -> float:
        return self.tied_rows / self.solved_rows if self.solved_rows else 0.0

    def info(self) -> dict:
        out = {
            "inputs_sha256": sha256_files(self.net_paths),
            "tied_row_share": self.tied_row_share(),
        }
        if self.raw_fused_err_pct is not None:
            out["fused_err_pct_before_finetune"] = self.raw_fused_err_pct
        return out


def _layers(ckpt):
    return [(s.activation, l.w, l.b) for s, l in zip(ckpt.specs, ckpt.layers)]


class AlignWide(Align):
    name = "align_wide"
    target = ("transport.solve_exact", "linalg.row_distance_matrix")
    probe = "lap"
    width = 256


class AlignPruned(Align):
    name = "align_pruned"
    target = ("transport.solve_exact",)
    probe = "lap"
    width = 128
    prune = True


class AlignSoft(Align):
    name = "align_soft"
    target = ("transport.solve_sinkhorn",)
    probe = "sinkhorn"
    width = 128
    solver = "sinkhorn"


WORKLOADS = {w.name: w for w in (Study, AlignWide, AlignPruned, AlignSoft)}


@contextmanager
def quiet():
    """Swallow what the CLI prints; an operation's output is in its files."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        yield buf
