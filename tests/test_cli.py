import base64
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from otfuse import cli, experiment, fusion, nets, transport
from otfuse.cli import main
from otfuse.data import DomainMixtureConfig, gen_synthetic, save_dataset_csv
from otfuse.fusion import AlignmentOptions, align
from otfuse.nets import CheckpointMeta, LayerSpec, LayerWeights, make_checkpoint
from otfuse.serialize import load_checkpoint, save_checkpoint
from helpers import random_checkpoint


ARCH = [
    {"in_dim": 8, "out_dim": 12, "activation": "relu"},
    {"in_dim": 12, "out_dim": 3, "activation": "identity"},
]


@pytest.fixture
def workdir(tmp_path):
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(ARCH))
    cfg = DomainMixtureConfig(num_classes=3, feature_dim=8, domains=(0,))
    train_ds, held_ds = gen_synthetic(cfg, 11)
    train_csv = tmp_path / "train.csv"
    held_csv = tmp_path / "held.csv"
    save_dataset_csv(train_ds, train_csv)
    save_dataset_csv(held_ds, held_csv)
    return tmp_path


def test_train_eval_roundtrip(workdir, capsys):
    ckpt = workdir / "model.json"
    rc = main([
        "train", str(workdir / "arch.json"), str(workdir / "train.csv"),
        "--epochs", "30", "--seed", "3", "--out", str(ckpt),
    ])
    assert rc == 0
    assert ckpt.exists()
    rc = main(["eval", str(ckpt), str(workdir / "held.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "loss" in out and "accuracy" in out


def test_train_is_deterministic(workdir):
    a, b = workdir / "a.json", workdir / "b.json"
    args = ["train", str(workdir / "arch.json"), str(workdir / "train.csv"),
            "--epochs", "10", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_align_fuse_finetune_chain(workdir, capsys):
    for seed, name in ((1, "m1.json"), (2, "m2.json")):
        main([
            "train", str(workdir / "arch.json"), str(workdir / "train.csv"),
            "--epochs", "30", "--seed", str(seed), "--out", str(workdir / name),
        ])
    aligned = workdir / "aligned.json"
    maps = workdir / "maps.json"
    rc = main([
        "align", str(workdir / "m1.json"), str(workdir / "m2.json"),
        "--out", str(aligned), "--maps-out", str(maps),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "objective" in out
    doc = json.loads(maps.read_text())
    assert len(doc["maps"]) == len(ARCH)

    fused = workdir / "fused.json"
    assert main(["fuse", str(aligned), str(workdir / "m2.json"),
                 "--lam", "0.5", "--out", str(fused)]) == 0
    tuned = workdir / "tuned.json"
    assert main(["finetune", str(fused), str(workdir / "train.csv"),
                 "--epochs", "2", "--out", str(tuned)]) == 0
    assert load_checkpoint(tuned).specs == load_checkpoint(fused).specs


def test_align_self_reports_zero_objectives(workdir, capsys):
    main([
        "train", str(workdir / "arch.json"), str(workdir / "train.csv"),
        "--epochs", "10", "--seed", "7", "--out", str(workdir / "m.json"),
    ])
    capsys.readouterr()
    rc = main([
        "align", str(workdir / "m.json"), str(workdir / "m.json"),
        "--out", str(workdir / "self.json"),
    ])
    assert rc == 0
    lines = [
        line.split() for line in capsys.readouterr().out.splitlines()
        if line and line.split()[0].isdigit()
    ]
    assert lines and all(float(parts[2]) == 0.0 for parts in lines)


def test_align_with_one_unit_output_layer(workdir, capsys):
    specs = (LayerSpec(3, 4, "relu"), LayerSpec(4, 1, "identity"))
    for name, seed in (("a.json", 0), ("b.json", 1)):
        save_checkpoint(random_checkpoint(np.random.default_rng(seed), specs), workdir / name)
    rc = main([
        "align", str(workdir / "a.json"), str(workdir / "b.json"),
        "--out", str(workdir / "aligned.json"),
    ])
    assert rc == 0
    assert load_checkpoint(workdir / "aligned.json").specs == specs


def test_align_warns_on_unconverged_layers(workdir, capsys, monkeypatch):
    for seed, name in ((1, "m1.json"), (2, "m2.json")):
        main([
            "train", str(workdir / "arch.json"), str(workdir / "train.csv"),
            "--epochs", "2", "--seed", str(seed), "--out", str(workdir / name),
        ])
    m1, m2 = str(workdir / "m1.json"), str(workdir / "m2.json")
    capsys.readouterr()
    argv = ["align", m1, m2, "--solver", "sinkhorn", "--out", str(workdir / "a.json")]
    # at the default eps every layer converges, so nothing goes to stderr
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    # one sweep cannot converge layer 0; the pinned output layer counts as converged
    monkeypatch.setattr(fusion, "solve_sinkhorn", functools.partial(transport.solve_sinkhorn, max_iter=1))
    result = align(load_checkpoint(m1), load_checkpoint(m2), AlignmentOptions(solver="sinkhorn"))
    assert [layer.converged for layer in result.layers] == [False, True]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert "warning" not in out
    assert [line.split(":")[0:2] for line in err.splitlines()] == [["warning", " layer 0"]]


def test_sinkhorn_align_of_a_pruned_pair_converges(tmp_path):
    # half of each net's 64 hidden units are pruned (zero in- and out-weights
    # and bias), so a quarter of layer 0's cost is exactly 0; plain sweeps
    # and the polish ran all 10000 sweeps on it and align warned
    rng = np.random.default_rng(1)
    a = rng.standard_normal((64, 16))
    b = a[rng.permutation(64)] + rng.standard_normal((64, 16))
    a[rng.permutation(64)[:32]] = 0.0
    b[rng.permutation(64)[:32]] = 0.0
    specs = (LayerSpec(16, 64, "relu"), LayerSpec(64, 5, "identity"))
    paths = []
    for name, w in (("a.json", a), ("b.json", b)):
        pruned = ~w.any(axis=1)
        bias, out = rng.standard_normal(64), rng.standard_normal((5, 64))
        bias[pruned] = out[:, pruned] = 0.0
        layers = [LayerWeights(w, bias), LayerWeights(out, rng.standard_normal(5))]
        paths.append(str(tmp_path / name))
        save_checkpoint(make_checkpoint(specs, layers, CheckpointMeta(seed=0, tag="pruned")), paths[-1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "otfuse", "align", *paths, "--solver", "sinkhorn",
         "--out", str(tmp_path / "aligned.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "did not converge" not in proc.stderr


@pytest.mark.parametrize("flags, opts", [
    ([], AlignmentOptions()),
    (["--solver", "sinkhorn"], AlignmentOptions(solver="sinkhorn")),
    (["--free-last-layer"], AlignmentOptions(fix_last_layer=False)),
])
def test_maps_out_holds_each_layer_record(workdir, capsys, flags, opts):
    for seed, name in ((1, "m1.json"), (2, "m2.json")):
        main([
            "train", str(workdir / "arch.json"), str(workdir / "train.csv"),
            "--epochs", "2", "--seed", str(seed), "--out", str(workdir / name),
        ])
    m1, m2, maps = workdir / "m1.json", workdir / "m2.json", workdir / "maps.json"
    assert main(["align", str(m1), str(m2), "--out", str(workdir / "a.json"),
                 "--maps-out", str(maps), *flags]) == 0
    result = align(load_checkpoint(m1), load_checkpoint(m2), opts)
    doc = json.loads(maps.read_text())
    assert len(doc["maps"]) == len(doc["objectives"]) == len(result.layers)
    for entry, objective, layer in zip(doc["maps"], doc["objectives"], result.layers):
        coupling = np.frombuffer(base64.b64decode(entry["coupling"]), dtype="<f8")
        assert coupling.tobytes() == layer.map.tobytes()
        assert entry["side"] == layer.map.shape[0]
        assert objective == layer.objective


def test_landscape_command(workdir, capsys):
    for seed, name in ((1, "m1.json"), (2, "m2.json")):
        main([
            "train", str(workdir / "arch.json"), str(workdir / "train.csv"),
            "--epochs", "5", "--seed", str(seed), "--out", str(workdir / name),
        ])
    curve = workdir / "curve.csv"
    rc = main(["landscape", str(workdir / "m1.json"), str(workdir / "m2.json"),
               str(workdir / "held.csv"), "--points", "5", "--out", str(curve)])
    assert rc == 0
    lines = curve.read_text().splitlines()
    assert lines[0] == "alpha,loss"
    assert len(lines) == 6


def test_wer_command_identical_is_zero(workdir, capsys):
    refs = workdir / "refs.txt"
    refs.write_text("u1\tthe cat sat\nu2\thello world\n")
    hyp = workdir / "system_a.txt"
    hyp.write_text("u1\tthe cat sat\nu2\thello world\n")
    rc = main(["wer", str(refs), str(hyp)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "system_a" in out and "0.0%" in out
    assert "oracle" in out


def test_wer_command_ignores_repeated_and_trailing_spaces(workdir, capsys):
    refs = workdir / "refs.txt"
    refs.write_text("u1\thello  world\n")
    hyp = workdir / "sys.txt"
    hyp.write_text("u1\thello world \t0.9 0.8\n")
    assert main(["wer", str(refs), str(hyp), "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "system,wer_percent"
    assert dict(line.split(",") for line in out[1:]) == {
        "sys": "0.0", "oracle": "0.0", "confidence": "0.0",
    }


def test_wer_command_with_confidences_csv(workdir, capsys):
    refs = workdir / "refs.txt"
    refs.write_text("u1\ta b\n")
    s1 = workdir / "good.txt"
    s1.write_text("u1\ta b\t0.6 0.6\n")
    s2 = workdir / "bad.txt"
    s2.write_text("u1\tx y\t0.9 0.9\n")
    rc = main(["wer", str(refs), str(s1), str(s2), "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "system,wer_percent"
    rows = dict(line.split(",") for line in out[1:])
    assert rows["good"] == "0.0" and rows["bad"] == "100.0"
    assert rows["oracle"] == "0.0"
    assert rows["confidence"] == "100.0"  # the overconfident wrong system wins


def test_experiment_smoke_and_stability(workdir, capsys):
    outdir = workdir / "exp"
    args = ["experiment", "--seeds", "0", "--train-epochs", "0",
            "--finetune-epochs", "0", "--out-dir", str(outdir)]
    assert main(args) == 0
    first = (outdir / "report.csv").read_bytes()
    text = (outdir / "report.txt").read_text()
    assert "direct avg." in text and "aligned avg." in text
    assert main(args) == 0
    assert (outdir / "report.csv").read_bytes() == first  # byte-stable


def test_flags_do_not_carry_over_between_calls(workdir):
    """main parses every call with one parser; a flag given in one call is
    unset in the next."""
    args = ["train", str(workdir / "arch.json"), str(workdir / "train.csv"), "--epochs", "3"]
    alone, unshuffled, after = (workdir / f"{name}.json" for name in ("alone", "unshuffled", "after"))
    assert main(args + ["--out", str(alone)]) == 0
    assert main(args + ["--no-shuffle", "--out", str(unshuffled)]) == 0
    assert main(args + ["--out", str(after)]) == 0
    assert unshuffled.read_bytes() != alone.read_bytes()
    assert after.read_bytes() == alone.read_bytes()
    assert cli.build_parser() is cli.build_parser()


def test_experiment_epochs_zero_ordering(workdir, capsys):
    rc = main(["experiment", "--seeds", "0", "--train-epochs", "0",
               "--finetune-epochs", "0", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    idx = header.index("err_union_mean")
    rows = {line.split(",")[0]: float(line.split(",")[idx]) for line in lines[1:]}
    assert set(rows) == {
        "target", "target_ft", "broad", "broad_ft",
        "direct_avg", "direct_avg_ft", "aligned_avg", "aligned_avg_ft",
    }
    assert rows["aligned_avg"] <= rows["direct_avg"]


def test_eval_and_finetune_take_classes_from_model(workdir, capsys):
    """A file with no row of the highest class still matches a model whose
    output width is the class count."""
    ckpt = workdir / "model.json"
    assert main(["train", str(workdir / "arch.json"), str(workdir / "train.csv"),
                 "--epochs", "3", "--out", str(ckpt)]) == 0
    top = ARCH[-1]["out_dim"] - 1
    lines = (workdir / "held.csv").read_text().splitlines()
    partial = workdir / "partial.csv"
    partial.write_text("\n".join(l for l in lines if not l.endswith(f",{top}")) + "\n")
    assert main(["eval", str(ckpt), str(partial)]) == 0
    assert main(["finetune", str(ckpt), str(partial), "--epochs", "1",
                 "--out", str(workdir / "tuned.json")]) == 0



def test_train_takes_classes_from_arch(workdir, capsys):
    """train reads its dataset like eval, with the class count taken from
    the architecture's output width."""
    top = ARCH[-1]["out_dim"] - 1
    lines = (workdir / "train.csv").read_text().splitlines()
    partial = workdir / "partial.csv"
    partial.write_text("\n".join(l for l in lines if not l.endswith(f",{top}")) + "\n")
    ckpt = workdir / "model.json"
    assert main(["train", str(workdir / "arch.json"), str(partial),
                 "--epochs", "1", "--out", str(ckpt)]) == 0
    assert load_checkpoint(ckpt).specs[-1].out_dim == top + 1


def test_landscape_takes_classes_from_model(workdir, capsys):
    """landscape reads its dataset like eval: a file without the highest
    class works, a label past the model's output width exits 2."""
    ckpt = workdir / "model.json"
    assert main(["train", str(workdir / "arch.json"), str(workdir / "train.csv"),
                 "--epochs", "1", "--out", str(ckpt)]) == 0
    top = ARCH[-1]["out_dim"] - 1
    lines = (workdir / "held.csv").read_text().splitlines()
    partial = workdir / "partial.csv"
    partial.write_text("\n".join(l for l in lines if not l.endswith(f",{top}")) + "\n")
    curve = str(workdir / "curve.csv")
    assert main(["landscape", str(ckpt), str(ckpt), str(partial), "--out", curve]) == 0
    bad = workdir / "bad_label.csv"
    lines[1] = lines[1].rsplit(",", 1)[0] + f",{top + 1}"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["landscape", str(ckpt), str(ckpt), str(bad), "--out", curve]) == 2

class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["align", "--bogus-flag"])
        assert exc.value.code == 1

    def test_unknown_command_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_file_is_two(self, workdir, capsys):
        rc = main(["eval", str(workdir / "nope.json"), str(workdir / "held.csv")])
        assert rc == 2

    def test_corrupt_checkpoint_is_two(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        rc = main(["eval", str(bad), str(workdir / "held.csv")])
        assert rc == 2

    @pytest.mark.parametrize("argv, bad", [
        (["train", "arch.json", "train.csv", "--epochs", "1", "--out", "x.json"], "arch.json"),
        (["train", "arch.json", "train.csv", "--epochs", "1", "--out", "x.json"], "train.csv"),
        (["eval", "model.json", "held.csv"], "model.json"),
        (["eval", "model.json", "held.csv"], "held.csv"),
        (["wer", "refs.txt", "hyp.txt"], "refs.txt"),
        (["wer", "refs.txt", "hyp.txt"], "hyp.txt"),
    ], ids=["train-arch", "train-data", "eval-checkpoint", "eval-data", "wer-refs", "wer-hyps"])
    def test_non_utf8_file_is_two(self, workdir, capsys, argv, bad):
        assert main(["train", str(workdir / "arch.json"), str(workdir / "train.csv"),
                     "--epochs", "1", "--out", str(workdir / "model.json")]) == 0
        for name in ("refs.txt", "hyp.txt"):
            (workdir / name).write_text("u1\ta b\n")
        path = workdir / bad
        path.write_bytes(b"\xff" + path.read_bytes())
        capsys.readouterr()
        args = [str(workdir / a) if "." in a else a for a in argv]
        assert main(args) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("argv, bad", [
        (["train", "arch.json", "train.csv", "--epochs", "1", "--out", "x.json"], "arch.json"),
        (["eval", "model.json", "held.csv"], "model.json"),
        (["align", "model.json", "model.json", "--out", "x.json"], "model.json"),
        (["fuse", "model.json", "model.json", "--out", "x.json"], "model.json"),
        (["finetune", "model.json", "train.csv", "--out", "x.json"], "model.json"),
        (["landscape", "model.json", "model.json", "held.csv", "--out", "x.csv"], "model.json"),
    ], ids=["train-arch", "eval", "align", "fuse", "finetune", "landscape"])
    def test_integer_past_digit_limit_is_two(self, workdir, capsys, argv, bad):
        # Python refuses to convert a JSON integer of more than 4300 digits
        assert main(["train", str(workdir / "arch.json"), str(workdir / "train.csv"),
                     "--epochs", "1", "--out", str(workdir / "model.json")]) == 0
        path = workdir / bad
        key, value = ('"in_dim"', 8) if bad == "arch.json" else ('"format_version"', 1)
        text = path.read_text()
        assert f"{key}: {value}" in text
        path.write_text(text.replace(f"{key}: {value}", f"{key}: {'1' * 5000}", 1))
        capsys.readouterr()
        args = [str(workdir / a) if "." in a else a for a in argv]
        assert main(args) == 2
        assert str(path) in capsys.readouterr().err
        assert not (workdir / "x.json").exists() and not (workdir / "x.csv").exists()

    @pytest.mark.parametrize("broken", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize("field, value", [
        ("specs", 5), ("in_dim", 0), ("w", "!!! not base64 !!!"),
    ], ids=["spec-is-a-number", "zero-in-dim", "bad-base64"])
    def test_malformed_align_input_is_two_and_named(self, workdir, capsys, broken, field, value):
        paths = [workdir / "a.json", workdir / "b.json"]
        for seed, path in enumerate(paths):
            assert main(["train", str(workdir / "arch.json"), str(workdir / "train.csv"),
                         "--epochs", "1", "--seed", str(seed), "--out", str(path)]) == 0
        doc = json.loads(paths[broken].read_text())
        if field == "specs":
            doc["specs"][0] = value
        else:
            doc["specs" if field == "in_dim" else "layers"][0][field] = value
        paths[broken].write_text(json.dumps(doc))
        capsys.readouterr()
        out = workdir / "x.json"
        assert main(["align", str(paths[0]), str(paths[1]), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(paths[broken]) in err and str(paths[1 - broken]) not in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("maps_out", ["x.json", "./x.json", "sub/../x.json", "hardlink.json"])
    def test_repeated_output_path_is_two_and_keeps_the_file(self, workdir, capsys, monkeypatch, maps_out):
        model = workdir / "model.json"
        assert main(["train", str(workdir / "arch.json"), str(workdir / "train.csv"),
                     "--epochs", "1", "--out", str(model)]) == 0
        monkeypatch.chdir(workdir)
        (workdir / "sub").mkdir()
        out = workdir / "x.json"
        out.write_text("keep me")
        os.link(out, workdir / "hardlink.json")  # one file under two names

        def not_called(*args, **kwargs):
            raise AssertionError("a checkpoint was read before the outputs were checked")

        monkeypatch.setattr(cli, "load_checkpoint", not_called)
        capsys.readouterr()
        assert main(["align", str(model), str(model), "--out", "x.json", "--maps-out", maps_out]) == 2
        assert "x.json" in capsys.readouterr().err
        assert out.read_text() == "keep me"

    @pytest.mark.parametrize("dim", [8.7, 8.0, "8", True])
    def test_non_integer_arch_dim_is_two(self, workdir, capsys, dim):
        arch = workdir / "arch.json"
        arch.write_text(json.dumps([dict(ARCH[0], in_dim=dim), ARCH[1]]))
        assert main(["train", str(arch), str(workdir / "train.csv"),
                     "--epochs", "1", "--out", str(workdir / "x.json")]) == 2

    @pytest.mark.parametrize("arch", [
        [{"in_dim": 8, "out_dim": 10**30, "activation": "relu"},
         {"in_dim": 10**30, "out_dim": 3, "activation": "identity"}],
        [{"in_dim": 10**30, "out_dim": 3, "activation": "identity"}],
    ], ids=["too-wide", "wrong-in-dim"])
    def test_oversized_arch_is_two(self, workdir, capsys, arch):
        path = workdir / "huge.json"
        path.write_text(json.dumps(arch))
        assert main(["train", str(path), str(workdir / "train.csv"),
                     "--epochs", "1", "--out", str(workdir / "x.json")]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--batch-size", "0"), ("--lr", "0"), ("--lr", "nan"), ("--lr", "inf"),
    ])
    def test_bad_train_setting_is_two(self, workdir, capsys, flag, value):
        assert main(["train", str(workdir / "arch.json"), str(workdir / "train.csv"),
                     "--epochs", "1", flag, value, "--out", str(workdir / "x.json")]) == 2

    def test_label_beyond_model_classes_is_two(self, workdir, capsys):
        ckpt = workdir / "model.json"
        assert main(["train", str(workdir / "arch.json"), str(workdir / "train.csv"),
                     "--epochs", "1", "--out", str(ckpt)]) == 0
        bad = workdir / "bad_label.csv"
        lines = (workdir / "held.csv").read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + f",{ARCH[-1]['out_dim']}"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["eval", str(ckpt), str(bad)]) == 2
        assert main(["finetune", str(ckpt), str(bad), "--out", str(workdir / "t.json")]) == 2
        assert main(["train", str(workdir / "arch.json"), str(bad),
                     "--epochs", "1", "--out", str(workdir / "t.json")]) == 2

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_sinkhorn_eps_is_two(self, workdir, capsys, eps):
        ckpt = str(workdir / "model.json")
        assert main(["train", str(workdir / "arch.json"), str(workdir / "train.csv"),
                     "--epochs", "1", "--out", ckpt]) == 0
        capsys.readouterr()
        assert main(["align", ckpt, ckpt, "--solver", "sinkhorn", "--eps", eps,
                     "--out", str(workdir / "x.json")]) == 2
        assert "eps must be finite and positive" in capsys.readouterr().err

    def test_bad_sinkhorn_eps_is_two_before_any_checkpoint_is_read(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # relative paths keep the test name out of the message
        assert main(["align", "missing_a.json", "missing_b.json", "--solver", "sinkhorn",
                     "--eps", "nan", "--out", "x.json"]) == 2
        err = capsys.readouterr().err
        assert "sinkhorn_eps" in err
        assert "missing_a.json" not in err

    def test_eps_without_the_sinkhorn_solver_is_two(self, workdir, capsys):
        ckpt = str(workdir / "model.json")
        assert main(["train", str(workdir / "arch.json"), str(workdir / "train.csv"),
                     "--epochs", "1", "--out", ckpt]) == 0
        capsys.readouterr()
        out = workdir / "x.json"
        assert main(["align", ckpt, ckpt, "--eps", "0.05", "--out", str(out)]) == 2
        assert "sinkhorn_eps" in capsys.readouterr().err
        assert not out.exists()

    def test_wer_duplicate_system_names_is_two(self, workdir, capsys):
        refs = workdir / "refs.txt"
        refs.write_text("u1\ta b\n")
        for sub, line in (("x", "u1\ta b\t0.6 0.6\n"), ("y", "u1\tc d\t0.9 0.9\n")):
            (workdir / sub).mkdir()
            (workdir / sub / "sys.txt").write_text(line)
        assert main(["wer", str(refs), str(workdir / "x" / "sys.txt"),
                     str(workdir / "y" / "sys.txt")]) == 2
        assert "distinct system names" in capsys.readouterr().err

    def test_duplicate_seeds_is_two(self, workdir, capsys):
        assert main(["experiment", "--seeds", "0,0", "--train-epochs", "0",
                     "--finetune-epochs", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seeds must be distinct" in captured.err

    def test_unusable_out_dir_is_two_before_training(self, workdir, capsys, monkeypatch):
        def no_training(cfg, seed):
            raise AssertionError("run_seed called before the output directory was checked")

        monkeypatch.setattr(experiment, "run_seed", no_training)
        (workdir / "afile").write_text("")
        assert main(["experiment", "--seeds", "0,1",
                     "--out-dir", str(workdir / "afile" / "sub")]) == 2
        assert "Not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--domain-shift", "nan"), ("--lam", "2"), ("--seeds", "0,0"),
    ])
    def test_bad_experiment_setting_is_two_and_makes_no_out_dir(self, workdir, capsys, flag, value):
        out_dir = workdir / "new"
        assert main(["experiment", flag, value, "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().out == ""
        assert not out_dir.exists()

    def test_diverged_experiment_is_three_and_removes_the_out_dir_it_made(self, workdir, capsys):
        diverge = ["experiment", "--domain-shift", "1e300", "--train-epochs", "1", "--finetune-epochs", "1"]
        assert main([*diverge, "--out-dir", str(workdir / "new" / "sub")]) == 3
        assert "diverged" in capsys.readouterr().err
        assert not (workdir / "new").exists()
        # an out-dir that was there before the run stays, with its files
        out_dir = workdir / "old"
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("kept\n")
        assert main([*diverge, "--out-dir", str(out_dir)]) == 3
        assert sorted(p.name for p in out_dir.iterdir()) == ["notes.txt"]
        assert (out_dir / "notes.txt").read_text() == "kept\n"

    def test_empty_out_dir_is_two(self, workdir, capsys):
        assert main(["experiment", "--train-epochs", "0", "--finetune-epochs", "0", "--out-dir", ""]) == 2
        assert "No such file or directory" in capsys.readouterr().err

    def test_unwritable_report_is_two_before_any_seed(self, workdir, capsys, monkeypatch):
        run_seed, seeds = experiment.run_seed, []
        monkeypatch.setattr(experiment, "run_seed", lambda cfg, seed: seeds.append(seed) or run_seed(cfg, seed))
        out_dir = workdir / "d"
        (out_dir / "report.csv").mkdir(parents=True)
        assert main(["experiment", "--seeds", "0,1", "--train-epochs", "1",
                     "--finetune-epochs", "1", "--out-dir", str(out_dir)]) == 2
        assert "report.csv" in capsys.readouterr().err
        assert seeds == []
        assert not (out_dir / "report.txt").exists()

    @pytest.mark.parametrize("command", ["train", "finetune"])
    def test_unwritable_out_is_two_before_training(self, workdir, capsys, monkeypatch, command):
        model = workdir / "model.json"
        assert main(["train", str(workdir / "arch.json"), str(workdir / "train.csv"),
                     "--epochs", "1", "--out", str(model)]) == 0
        backprop, steps = nets._backprop, []
        monkeypatch.setattr(nets, "_backprop", lambda *a: steps.append(1) or backprop(*a))
        before = sorted(workdir.rglob("*"))
        source = workdir / ("arch.json" if command == "train" else "model.json")
        capsys.readouterr()
        assert main([command, str(source), str(workdir / "train.csv"), "--epochs", "2",
                     "--out", str(workdir / "missing" / "x.json")]) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert steps == []
        assert sorted(workdir.rglob("*")) == before

    def test_unwritable_maps_out_is_two_before_aligning(self, workdir, capsys, monkeypatch):
        model = str(workdir / "model.json")
        assert main(["train", str(workdir / "arch.json"), str(workdir / "train.csv"),
                     "--epochs", "1", "--out", model]) == 0
        calls = []
        monkeypatch.setattr(cli, "align", lambda *a: calls.append(1) or align(*a))
        before = sorted(workdir.rglob("*"))
        capsys.readouterr()
        assert main(["align", model, model, "--out", str(workdir / "aligned.json"),
                     "--maps-out", str(workdir / "missing" / "maps.json")]) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert calls == []
        assert sorted(workdir.rglob("*")) == before

    @pytest.mark.parametrize("command", ["fuse", "landscape"])
    def test_unwritable_out_is_two_before_loading(self, workdir, capsys, monkeypatch, command):
        model = str(workdir / "model.json")
        assert main(["train", str(workdir / "arch.json"), str(workdir / "train.csv"),
                     "--epochs", "1", "--out", model]) == 0

        def not_called(*args, **kwargs):
            raise AssertionError(f"{command} ran before its --out was checked")

        monkeypatch.setattr(cli, command, not_called)
        before = sorted(workdir.rglob("*"))
        capsys.readouterr()
        extra = [str(workdir / "held.csv"), "--points", "5"] if command == "landscape" else []
        assert main([command, model, model, *extra, "--out", str(workdir / "missing" / "x.out")]) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert sorted(workdir.rglob("*")) == before

    def test_shape_mismatch_is_two(self, workdir, capsys):
        rng = np.random.default_rng(0)
        ckpt = random_checkpoint(rng, (LayerSpec(4, 2, "identity"),))
        path = workdir / "tiny.json"
        save_checkpoint(ckpt, path)
        rc = main(["eval", str(path), str(workdir / "held.csv")])
        assert rc == 2

    def test_numerical_failure_is_three(self, workdir, capsys):
        for seed, name in ((1, "m1.json"), (2, "m2.json")):
            main([
                "train", str(workdir / "arch.json"), str(workdir / "train.csv"),
                "--epochs", "2", "--seed", str(seed), "--out", str(workdir / name),
            ])
        rc = main([
            "align", str(workdir / "m1.json"), str(workdir / "m2.json"),
            "--solver", "sinkhorn", "--eps", "1e-310",
            "--out", str(workdir / "x.json"),
        ])
        assert rc == 3

    def test_sinkhorn_breakdown_in_the_sweeps_is_three(self, workdir, capsys, monkeypatch):
        # a kernel row of zeros breaks the first sweep, not the entry checks
        kernel = transport._kernel

        def zero_row(*a):
            k = kernel(*a)
            k[0] = 0.0
            return k

        for seed, name in ((1, "m1.json"), (2, "m2.json")):
            main([
                "train", str(workdir / "arch.json"), str(workdir / "train.csv"),
                "--epochs", "2", "--seed", str(seed), "--out", str(workdir / name),
            ])
        monkeypatch.setattr(transport, "_kernel", zero_row)
        capsys.readouterr()
        rc = main([
            "align", str(workdir / "m1.json"), str(workdir / "m2.json"),
            "--solver", "sinkhorn", "--out", str(workdir / "x.json"),
        ])
        assert rc == 3
        assert "row or column sum" in capsys.readouterr().err
        assert not (workdir / "x.json").exists()
