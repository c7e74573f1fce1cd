"""The console entry point in fresh processes: what one in-process run
cannot show, such as two processes writing the same bytes, and the exit
code and stderr that ``python -m otfuse`` hands back to the shell."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import otfuse
from otfuse import cli
from otfuse.nets import CheckpointMeta, LayerSpec, LayerWeights, make_checkpoint
from otfuse.serialize import save_checkpoint

SPECS = (LayerSpec(8, 32, "relu"), LayerSpec(32, 32, "relu"), LayerSpec(32, 5, "identity"))

# a 2-4-2 net and six labelled rows: every command of the chain below runs on them
ARCH = '[{"in_dim": 2, "out_dim": 4}, {"in_dim": 4, "out_dim": 2, "activation": "identity"}]\n'
ROWS = "f0,f1,label\n0.5,1.0,0\n-1.0,0.25,1\n1.5,-0.5,0\n-0.5,-1.5,1\n0.0,2.0,0\n2.0,0.5,1\n"

# train -> finetune -> align -> fuse -> eval, the landscape and the study, each
# command reading the files the earlier ones wrote; paths are relative to one run directory
CHAIN = (
    ("train", "arch.json", "train.csv", "--epochs", "20", "--batch-size", "4", "--out", "model.json"),
    ("train", "arch.json", "train.csv", "--epochs", "20", "--batch-size", "4", "--seed", "1",
     "--out", "other.json"),
    ("finetune", "model.json", "train.csv", "--epochs", "5", "--batch-size", "4", "--out", "tuned.json"),
    ("finetune", "model.json", "train.csv", "--epochs", "0", "--out", "untuned.json"),
    ("align", "model.json", "other.json", "--out", "aligned.json", "--maps-out", "maps.json"),
    ("align", "model.json", "other.json", "--solver", "sinkhorn",
     "--out", "soft.json", "--maps-out", "softmaps.json"),
    ("fuse", "aligned.json", "other.json", "--out", "fused.json"),
    ("eval", "fused.json", "train.csv", "--format", "csv"),
    ("landscape", "model.json", "other.json", "train.csv", "--points", "5", "--out", "curve.csv"),
    ("experiment", "--seeds", "0", "--train-epochs", "1", "--finetune-epochs", "1", "--format", "csv",
     "--out-dir", "exp"),
)
WRITTEN_JSON = ("model", "other", "tuned", "untuned", "aligned", "maps", "soft", "softmaps", "fused")
REPORT_HEADER = ("method,err_a_mean,err_a_half_range,err_b_mean,err_b_half_range,"
                 "err_union_mean,err_union_half_range,loss_union_mean,loss_union_half_range")


def _otfuse(*args, cwd=None) -> subprocess.CompletedProcess:
    """``python -m otfuse ARGS`` in a new interpreter that imports this tree's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(otfuse.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "otfuse", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120, cwd=cwd,
    )


def _in_process(*args, cwd) -> str:
    """``cli.main(ARGS)`` run in ``cwd``; its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.chdir(cwd)
        rc = cli.main(list(args))
    assert rc == 0, (args, err.getvalue())
    return out.getvalue()


def _fresh(*args, cwd) -> str:
    proc = _otfuse(*args, cwd=cwd)
    assert proc.returncode == 0, (args, proc.stderr)
    return proc.stdout


def _files(run_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """``CHAIN`` run once with each command in a fresh process and once
    in-process through ``cli.main``, each run in its own directory.  Any
    state that varies between processes (pid, hash seed, addresses, time)
    also differs between a fresh process and this one, so comparing the two
    runs is no looser than comparing two fresh ones.  Returns, per run, the
    directory and each command's stdout."""
    runs = {}
    for name, run in (("fresh", _fresh), ("in_process", _in_process)):
        run_dir = tmp_path_factory.mktemp(name)
        (run_dir / "arch.json").write_text(ARCH)
        (run_dir / "train.csv").write_text(ROWS)
        runs[name] = run_dir, [run(*argv, cwd=run_dir) for argv in CHAIN]
    return runs


def _stdout(chain, command: str) -> str:
    return chain["fresh"][1][[argv[0] for argv in CHAIN].index(command)]


def test_chain_writes_the_same_bytes_in_a_fresh_process(chain):
    (fresh_dir, fresh_out), (here_dir, here_out) = chain["fresh"], chain["in_process"]
    fresh, here = _files(fresh_dir), _files(here_dir)
    assert fresh.keys() == here.keys()
    assert [name for name in fresh if fresh[name] != here[name]] == []
    assert fresh_out == here_out


def test_finetune_moves_the_model_and_zero_epochs_writes_it_back(chain):
    run_dir = chain["fresh"][0]
    model = (run_dir / "model.json").read_bytes()
    assert (run_dir / "tuned.json").read_bytes() != model
    assert (run_dir / "untuned.json").read_bytes() == model


def test_report_csv_is_the_table_printed_first(chain):
    report = (chain["fresh"][0] / "exp" / "report.csv").read_text()
    lines = report.splitlines()
    assert lines[0] == REPORT_HEADER and len(lines) == 9  # the header and one row per method
    assert _stdout(chain, "experiment") == report + "report files -> exp/report.txt, exp/report.csv\n"


def test_eval_and_landscape_csvs_have_their_headers(chain):
    assert _stdout(chain, "eval").splitlines()[0] == "loss,accuracy"
    curve = (chain["fresh"][0] / "curve.csv").read_text().splitlines()
    assert curve[0] == "alpha,loss"
    assert len(curve) == 1 + 5


@pytest.mark.parametrize("name", WRITTEN_JSON)
def test_written_json_is_indent_one_dumps_and_a_newline(chain, name):
    raw = (chain["fresh"][0] / f"{name}.json").read_bytes()
    assert raw == (json.dumps(json.loads(raw), indent=1) + "\n").encode("utf-8")


@pytest.mark.parametrize("argv, code, prefix", [
    (("fuse", "aligned.json", "other.json", "--out", "missing/x.json"), 2, "error:"),
    (("align", "model.json", "other.json", "--solver", "sinkhorn", "--eps", "1e-310", "--out", "x.json"),
     3, "numerical failure:"),
], ids=["rejected-input", "numerical-failure"])
def test_failure_exit_code_reaches_the_shell(chain, argv, code, prefix):
    run_dir = chain["fresh"][0]
    before = _files(run_dir)
    proc = _otfuse(*argv, cwd=run_dir)
    assert proc.returncode == code
    assert proc.stderr.startswith(prefix) and "Traceback" not in proc.stderr
    assert _files(run_dir) == before


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


def test_sinkhorn_align_of_a_pruned_pair_repeats_across_processes(tmp_path):
    """Exact and Sinkhorn ``align`` of a pruned pair write the same
    ``--out`` and ``--maps-out`` bytes in a fresh process as in this one."""
    _pruned_net(1, tmp_path / "a.json")
    _pruned_net(2, tmp_path / "b.json")
    for solver in ("exact", "sinkhorn"):
        written = []
        for name, run in (("fresh", _fresh), ("in_process", _in_process)):
            out, maps = f"{solver}_{name}.json", f"{solver}_{name}_maps.json"
            run("align", "a.json", "b.json", "--solver", solver, "--out", out, "--maps-out", maps, cwd=tmp_path)
            written.append(((tmp_path / out).read_bytes(), (tmp_path / maps).read_bytes()))
        assert written[0] == written[1], solver
