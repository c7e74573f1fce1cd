"""Command-line surface.

Subcommands: train, align, fuse, finetune, eval, wer, landscape, experiment.
Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure.  All numeric report output uses 6 significant digits except error
rates, which print as percentages with one decimal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import load_dataset_csv
from .errors import DataFormatError, NumericalError, ValidationError
from .experiment import ExperimentConfig, format_report_csv, format_report_text, run_experiment
from .fusion import SOLVERS, AlignmentOptions, align, fuse
from .nets import (
    DEFAULT_FINETUNE_EPOCHS,
    DEFAULT_TRAIN_EPOCHS,
    LayerSpec,
    TrainConfig,
    accuracy,
    finetune,
    loss,
    train,
)
from .scoring import (
    confidence_select,
    error_rate,
    landscape,
    oracle_select,
    read_hypotheses,
    read_references,
    selected_set,
    write_landscape_csv,
)
from .serialize import encode_float64, json_int, load_checkpoint, save_checkpoint


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _pct(x: float) -> str:
    return f"{100.0 * x:.1f}"


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; this CLI reserves 2
    for data errors and uses 1 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_arch(path) -> tuple[LayerSpec, ...]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DataFormatError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(doc, list) or not doc:
        raise DataFormatError(f"{path}: architecture file must be a non-empty JSON list")
    try:
        return tuple(
            LayerSpec(
                json_int(e["in_dim"]), json_int(e["out_dim"]), str(e.get("activation", "relu"))
            )
            for e in doc
        )
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}: malformed layer entry ({exc})") from exc


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        seed=args.seed,
        shuffle=not args.no_shuffle,
    )


def _add_train_flags(p, default_epochs: int) -> None:
    p.add_argument("--epochs", type=int, default=default_epochs)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-shuffle", action="store_true")


def _cmd_train(args) -> int:
    specs = _load_arch(args.arch)
    data = load_dataset_csv(args.data, specs[-1].out_dim)
    ckpt = train(specs, data, _train_config(args))
    save_checkpoint(ckpt, args.out)
    print(f"trained {len(specs)} layers for {args.epochs} epochs -> {args.out}")
    print(f"train loss {_fmt(loss(ckpt, data))} accuracy {_fmt(accuracy(ckpt, data))}")
    return 0


def _alignment_options(args) -> AlignmentOptions:
    return AlignmentOptions(
        solver=args.solver,
        sinkhorn_eps=args.eps,
        cost_on_aligned_inputs=not args.cost_on_raw,
        fix_last_layer=not args.free_last_layer,
        bias_in_cost=args.bias_in_cost,
    )


def _write_maps(result, path) -> None:
    doc = {
        "format_version": 1,
        "maps": [
            {"side": layer.side, "coupling": encode_float64(layer.map)}
            for layer in result.layers
        ],
        "objectives": [layer.objective for layer in result.layers],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _cmd_align(args) -> int:
    opts = _alignment_options(args)
    model_a = load_checkpoint(args.ckpt_a)
    model_b = load_checkpoint(args.ckpt_b)
    result = align(model_a, model_b, opts)
    save_checkpoint(result.aligned, args.out)
    if args.maps_out:
        _write_maps(result, args.maps_out)
    print(f"{'layer':>5} {'side':>5} {'objective':>14}")
    for i, layer in enumerate(result.layers):
        print(f"{i:>5} {layer.side:>5} {_fmt(layer.objective):>14}")
    for i, layer in enumerate(result.layers):
        if not layer.converged:
            print(f"warning: layer {i}: Sinkhorn did not converge; using its rounded last iterate",
                  file=sys.stderr)
    print(f"aligned checkpoint -> {args.out}")
    return 0


def _cmd_fuse(args) -> int:
    aligned = load_checkpoint(args.aligned)
    model_b = load_checkpoint(args.ckpt_b)
    fused = fuse(aligned, model_b, args.lam)
    save_checkpoint(fused, args.out)
    print(f"fused with lam={args.lam:g} -> {args.out}")
    return 0


def _cmd_finetune(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    data = load_dataset_csv(args.data, ckpt.specs[-1].out_dim)
    out = finetune(ckpt, data, _train_config(args))
    save_checkpoint(out, args.out)
    print(f"finetuned {args.epochs} epochs -> {args.out}")
    print(f"train loss {_fmt(loss(out, data))} accuracy {_fmt(accuracy(out, data))}")
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    data = load_dataset_csv(args.data, ckpt.specs[-1].out_dim)
    l, a = loss(ckpt, data), accuracy(ckpt, data)
    if args.format == "csv":
        print("loss,accuracy")
        print(f"{_fmt(l)},{_fmt(a)}")
    else:
        print(f"loss {_fmt(l)}")
        print(f"accuracy {_fmt(a)}")
    return 0


def _cmd_wer(args) -> int:
    refs = read_references(args.refs)
    sets = [read_hypotheses(path, Path(path).stem) for path in args.hyps]
    rows = [(hs.system_name, error_rate(refs, hs)) for hs in sets]
    oracle = oracle_select(sets, refs)
    rows.append(("oracle", oracle.wer))
    have_conf = all(
        hyp.confidences is not None for hs in sets for hyp in hs.items.values()
    )
    if have_conf:
        chosen = selected_set(sets, confidence_select(sets), "confidence")
        rows.append(("confidence", error_rate(refs, chosen)))
    if args.format == "csv":
        print("system,wer_percent")
        for name, wer in rows:
            print(f"{name},{_pct(wer)}")
    else:
        for name, wer in rows:
            print(f"{name:<16} {_pct(wer)}%")
        if not have_conf:
            print("(confidence selection skipped: not every hypothesis has confidences)")
    return 0


def _cmd_landscape(args) -> int:
    ckpt0 = load_checkpoint(args.ckpt0)
    ckpt1 = load_checkpoint(args.ckpt1)
    data = load_dataset_csv(args.data, ckpt0.specs[-1].out_dim)
    curve = landscape(ckpt0, ckpt1, data, args.points)
    write_landscape_csv(curve, args.out)
    print(
        f"landscape with {args.points} points -> {args.out} "
        f"(loss {_fmt(curve.losses[0])} at 0, {_fmt(curve.losses[-1])} at 1)"
    )
    return 0


def _cmd_experiment(args) -> int:
    try:
        seeds = tuple(int(s) for s in args.seeds.split(",") if s)
    except ValueError as exc:
        raise ValidationError(f"bad --seeds value {args.seeds!r}: {exc}") from exc
    cfg = ExperimentConfig(
        seeds=seeds,
        domain_shift=args.domain_shift,
        train_epochs=args.train_epochs,
        finetune_epochs=args.finetune_epochs,
        lam=args.lam,
        solver=args.solver,
        output_dir=args.out_dir,
    )
    report = run_experiment(cfg)
    if args.format == "csv":
        sys.stdout.write(format_report_csv(report))
    else:
        sys.stdout.write(format_report_text(report))
    if args.out_dir:
        print(f"report files -> {args.out_dir}/report.txt, {args.out_dir}/report.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="otfuse", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="train a network on a dataset file")
    p.add_argument("arch", help="JSON list of {in_dim, out_dim, activation}")
    p.add_argument("data", help="dataset CSV (header f0,...,label)")
    _add_train_flags(p, default_epochs=DEFAULT_TRAIN_EPOCHS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("align", help="align checkpoint A onto checkpoint B")
    p.add_argument("ckpt_a")
    p.add_argument("ckpt_b")
    p.add_argument("--solver", choices=SOLVERS, default="exact")
    p.add_argument("--eps", type=float, default=None, help="sinkhorn regularization")
    p.add_argument("--cost-on-raw", action="store_true",
                   help="build cost matrices from raw instead of input-aligned rows")
    p.add_argument("--free-last-layer", action="store_true",
                   help="also solve a map for the output layer")
    p.add_argument("--bias-in-cost", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--maps-out", default=None)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("fuse", help="blend an aligned checkpoint with checkpoint B")
    p.add_argument("aligned")
    p.add_argument("ckpt_b")
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("finetune", help="continue training from a checkpoint")
    p.add_argument("ckpt")
    p.add_argument("data")
    _add_train_flags(p, default_epochs=DEFAULT_FINETUNE_EPOCHS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("eval", help="loss and accuracy of a checkpoint on a dataset")
    p.add_argument("ckpt")
    p.add_argument("data")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("wer", help="score hypothesis files against references")
    p.add_argument("refs")
    p.add_argument("hyps", nargs="+")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=_cmd_wer)

    p = sub.add_parser("landscape", help="loss along the line between two checkpoints")
    p.add_argument("ckpt0")
    p.add_argument("ckpt1")
    p.add_argument("data")
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_landscape)

    defaults = ExperimentConfig()
    p = sub.add_parser("experiment", help="run the two-domain fusion study")
    p.add_argument("--seeds", default="0", help="comma-separated seed list")
    p.add_argument("--domain-shift", type=float, default=defaults.domain_shift)
    p.add_argument("--train-epochs", type=int, default=defaults.train_epochs)
    p.add_argument("--finetune-epochs", type=int, default=defaults.finetune_epochs)
    p.add_argument("--lam", type=float, default=defaults.lam)
    p.add_argument("--solver", choices=SOLVERS, default=defaults.solver)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
