"""Command-line interface.

Subcommands: train, cotrain, attack, calibrate, experiment, gen-synthetic.
Exit codes: 0 on success, 2 on validation/configuration errors, 1 on
runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import fields
from pathlib import Path

from .attacks import ATTACK_METHODS, AttackSetting, write_sidecar
from .calibration import (
    RELIABILITY_COLUMNS,
    calibrate,
    fit_temperature,
    nll,
    reliability,
    reliability_by_phase,
)
from .cotrain import cotrain
from .errors import ValidationError
from .experiment import ExperimentConfig, apply_attack, emit_report, run_experiment
from .graph import generate_synthetic, split_nodes
from .io import load_graph_dir, save_dataset_dir, write_csv, write_json
from .models import (
    ALL_KINDS,
    FEATURE_KINDS,
    STRUCTURE_KINDS,
    SubModelSpec,
    build_submodel,
    predict_logits,
    train_submodel,
)
from .nn import TrainHyper, save_params_csv


def _hyper_from_args(args) -> TrainHyper:
    return TrainHyper(
        learning_rate=args.lr,
        weight_decay=args.weight_decay,
        dropout=args.dropout,
        epochs=args.epochs,
    )


def _default(cls, name: str):
    """The library's default for the field name of the dataclass cls."""
    return {f.name: f.default for f in fields(cls)}[name]


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    d = TrainHyper()
    p.add_argument("--epochs", type=int, default=d.epochs)
    p.add_argument("--lr", type=float, default=d.learning_rate)
    p.add_argument("--weight-decay", type=float, default=d.weight_decay)
    p.add_argument("--dropout", type=float, default=d.dropout)


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train-frac", type=float, default=_default(ExperimentConfig, "train_frac"))
    p.add_argument("--val-frac", type=float, default=_default(ExperimentConfig, "val_frac"))


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load_split(args):
    g = load_graph_dir(args.data)
    return g, split_nodes(g, args.train_frac, args.val_frac, args.seed)


def _train_one(args):
    """Load, split and train the single sub-model that args describe."""
    g, split = _load_split(args)
    spec = SubModelSpec(args.model, hidden=args.hidden or None, k=args.k, hyper=_hyper_from_args(args))
    model = train_submodel(
        build_submodel(spec, g), split.labeled, g.labels[split.labeled], seed=args.seed
    )
    return g, split, model


def cmd_gen_synthetic(args) -> int:
    g = generate_synthetic(
        n=args.nodes,
        C=args.classes,
        p_in=args.p_in,
        p_out=args.p_out,
        m=args.feature_dim,
        feature_noise=args.feature_noise,
        seed=args.seed,
    )
    out = Path(args.out or "synthetic")
    save_dataset_dir(g, out)
    meta = {
        "n": g.n,
        "edges": g.num_edges,
        "classes": g.C,
        "feature_dim": g.m,
        "p_in": args.p_in,
        "p_out": args.p_out,
        "feature_noise": args.feature_noise,
        "seed": args.seed,
    }
    write_json(meta, out / "meta.json")
    _emit(meta)
    return 0


def cmd_train(args) -> int:
    g, split, model = _train_one(args)
    correct = predict_logits(model, range(g.n)).argmax(axis=1) == g.labels
    metrics = {
        "model": args.model,
        "seed": args.seed,
        "train_accuracy": float(correct[split.labeled].mean()),
        "val_accuracy": float(correct[split.validation].mean()),
        "test_accuracy": float(correct[split.test].mean()),
        "final_loss": model.loss_history[-1],
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_params_csv(model.params, out / "checkpoint.csv")
        write_json(metrics, out / "metrics.json")
    _emit(metrics)
    return 0


def cmd_cotrain(args) -> int:
    g, split = _load_split(args)
    hyper = _hyper_from_args(args)
    spec_struct = SubModelSpec(args.struct, k=args.struct_k, hyper=hyper)
    spec_feat = SubModelSpec(args.feat, k=args.feat_k, hyper=hyper)
    f_struct, f_feat, state = cotrain(
        g,
        split,
        spec_struct,
        spec_feat,
        n_add=args.n_add,
        max_iters=args.max_iters,
        seed=args.seed,
        calibration=not args.no_calibration,
        class_balancing=not args.no_class_balancing,
    )
    metrics = {
        "struct": args.struct,
        "feat": args.feat,
        "iterations": state.iteration,
        "labeled_final": state.s_size,
        "acc_struct": state.history[-1].acc_struct,
        "acc_feat": state.history[-1].acc_feat,
        "acc_ensemble": state.history[-1].acc_ensemble,
        "temperature_struct": f_struct.temperature,
        "temperature_feat": f_feat.temperature,
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "history.jsonl", "w", encoding="utf-8") as fh:
            for rec in state.history:
                fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")
        save_params_csv(f_struct.params, out / "struct_checkpoint.csv")
        save_params_csv(f_feat.params, out / "feat_checkpoint.csv")
        write_json(metrics, out / "metrics.json")
    _emit(metrics)
    return 0


def cmd_attack(args) -> int:
    g, split = _load_split(args)
    setting = AttackSetting(
        name="cli",
        method=args.method,
        rate=args.rate,
        feature_ratio=args.feature_ratio,
        path=args.external_path,
    )
    perturbed = apply_attack(g, setting, args.seed, split)
    out = Path(args.out or "perturbed")
    save_dataset_dir(perturbed, out)
    record = write_sidecar(out / "perturbation.json", setting, args.seed, g, perturbed)
    _emit(
        {
            "method": args.method,
            "rate": args.rate,
            "feature_ratio": args.feature_ratio,
            "edges_before": g.num_edges,
            "edges_after": perturbed.num_edges,
            "feature_bits_changed": record["feature_bits_changed"],
            "out": str(out),
        }
    )
    return 0


def cmd_calibrate(args) -> int:
    g, split, model = _train_one(args)
    logits = predict_logits(model, range(g.n))
    val_logits = logits[split.validation]
    val_labels = g.labels[split.validation]
    T = fit_temperature(val_logits, val_labels)
    test_logits = logits[split.test]
    test_labels = g.labels[split.test]
    _, ece_before = reliability(calibrate(val_logits, 1.0), val_labels, args.bins)
    _, ece_after = reliability(calibrate(val_logits, T), val_labels, args.bins)
    metrics = {
        "model": args.model,
        "temperature": T,
        "val_nll_before": nll(val_logits, val_labels, 1.0),
        "val_nll_after": nll(val_logits, val_labels, T),
        "val_ece_before": ece_before,
        "val_ece_after": ece_after,
        "test_accuracy": float(
            (test_logits.argmax(axis=1) == test_labels).mean()
        ),
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        rows = [
            {"split": split_name, **row}
            for split_name, logits, labels in (
                ("validation", val_logits, val_labels),
                ("test", test_logits, test_labels),
            )
            for row in reliability_by_phase(logits, labels, T, args.bins)
        ]
        write_csv(("split", "phase", *RELIABILITY_COLUMNS), rows, out / "reliability.csv")
    _emit(metrics)
    return 0


def cmd_experiment(args) -> int:
    if not args.config:
        raise ValidationError("experiment needs --config PATH")
    if args.seed != 0:
        raise ValidationError("experiment ignores --seed; set the config's seeds or --seed-offset")
    overrides = {}
    if args.out:
        overrides["out_dir"] = args.out
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.seed_offset:
        overrides["seed_offset"] = args.seed_offset
    config = ExperimentConfig.from_json(args.config, overrides)
    report = run_experiment(config)
    paths = emit_report(report, config.out_dir)
    _emit({"out": [str(p) for p in paths], "summary": report.summary})
    return 0 if report.summary["complete"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cograph",
        description="Two-view co-training defense for node classification on graphs",
    )
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="write a planted-partition dataset directory")
    p.add_argument("--nodes", type=int, default=300)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--p-in", type=float, default=0.1)
    p.add_argument("--p-out", type=float, default=0.01)
    p.add_argument("--feature-dim", type=int, default=30)
    p.add_argument("--feature-noise", type=float, default=0.05)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("train", help="train a single sub-model and report accuracy")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=ALL_KINDS, required=True)
    p.add_argument("--k", type=int, default=_default(SubModelSpec, "k"))
    p.add_argument("--hidden", type=int, nargs="*", default=None)
    _add_split_flags(p)
    _add_hyper_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cotrain", help="run the two-view co-training loop")
    p.add_argument("--data", required=True)
    p.add_argument("--struct", choices=STRUCTURE_KINDS, default="gcn")
    p.add_argument("--feat", choices=FEATURE_KINDS, default="f-mlp")
    p.add_argument("--struct-k", type=int, default=_default(SubModelSpec, "k"))
    p.add_argument("--feat-k", type=int, default=_default(SubModelSpec, "k"))
    p.add_argument("--n-add", type=int, default=_default(ExperimentConfig, "n_add"))
    p.add_argument("--max-iters", type=int, default=_default(ExperimentConfig, "max_iters"))
    p.add_argument("--no-calibration", action="store_true")
    p.add_argument("--no-class-balancing", action="store_true")
    _add_split_flags(p)
    _add_hyper_flags(p)
    p.set_defaults(func=cmd_cotrain)

    p = sub.add_parser("attack", help="write a perturbed copy of a dataset")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--method", choices=[m for m in ATTACK_METHODS if m != "none"], required=True
    )
    p.add_argument("--rate", type=float, default=0.0)
    p.add_argument("--feature-ratio", type=float, default=0.0)
    p.add_argument("--external-path", default=None)
    _add_split_flags(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("calibrate", help="fit a temperature and report calibration stats")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=ALL_KINDS, default="gcn")
    p.add_argument("--k", type=int, default=_default(SubModelSpec, "k"))
    p.add_argument("--bins", type=int, default=_default(ExperimentConfig, "reliability_bins"))
    _add_split_flags(p)
    _add_hyper_flags(p)
    p.set_defaults(func=cmd_calibrate, hidden=None)

    p = sub.add_parser("experiment", help="run a config-driven experiment sweep")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--seed-offset", type=int, default=0)
    p.set_defaults(func=cmd_experiment)

    return parser


def _check_flag_placement(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Exit 2 naming a non-global flag given before the subcommand, whose
    value argparse would otherwise read, and name, as the subcommand."""
    options = parser._option_string_actions
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-") or token == "--":
            return  # the subcommand, or the end of the flags
        flag = token.split("=", 1)[0]
        # argparse also takes a unique prefix of a global flag
        action = next((a for f, a in options.items() if f.startswith(flag)), None)
        if action is None:
            parser.error(f"{flag} is not a global option; give it after the subcommand")
        if action.nargs != 0 and "=" not in token:
            next(tokens, None)  # the flag's value


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    _check_flag_placement(parser, argv)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 -- surface anything else as a runtime failure
        traceback.print_exc()
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
