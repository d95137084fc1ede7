"""Command-line interface.

Subcommands:
  generate   write a synthetic labeled benchmark to train.csv / test.csv
  train      robust-train one model on a CSV series, emit checkpoint + report
  evaluate   score a test CSV with a checkpoint, print AUC / best F1
  sweep      run the full models x methods x ratios x repetitions grid
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import partial
from pathlib import Path

from .data import (
    SyntheticConfig,
    _csv_rows,
    apply_normalizer,
    generate_synthetic,
    load_csv,
    replacing_file,
    training_windows,
    write_csv,
)
from .errors import ConfigError, ShapeError, ToolkitError
from .experiment import SweepConfig, run_sweep, write_results, write_summary
from .filtering import METHODS, RobustTrainConfig, robust_train
from .metrics import auc_roc, best_f1
from .models import (
    MODEL_KINDS,
    RECONSTRUCTION,
    TrainConfig,
    anomaly_scores,
    build_model,
    load_checkpoint,
    save_checkpoint,
)

# short method names on the command line; internal names also accepted
METHOD_ALIASES = {"m": "m_only", "v": "v_only"}


def _method_name(value: str) -> str:
    name = METHOD_ALIASES.get(value, value)
    if name not in METHODS:
        raise ConfigError(f"unknown method {value!r}; choose from {METHODS} "
                          f"(or {tuple(METHOD_ALIASES)})")
    return name


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type for a comma-separated list of integers."""
    try:
        return tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, "
                                         f"got {text!r}") from None


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(p for p in text.split(",") if p)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="losstrace",
        description="Robust TSAD training via trial-epoch loss-trace filtering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every flag default is read from the dataclass that owns the setting
    gen = sub.add_parser("generate", help="write a synthetic benchmark to CSV")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--channels", type=int, default=SyntheticConfig.channels)
    gen.add_argument("--length", type=int, default=SyntheticConfig.length)
    gen.add_argument("--periods", type=_int_list, default=SyntheticConfig.periods)
    gen.add_argument("--noise-sigma", type=float, default=SyntheticConfig.noise_sigma)
    gen.add_argument("--anomaly-types", type=_str_list,
                     default=SyntheticConfig.anomaly_types)
    gen.add_argument("--anomaly-rate", type=float, default=SyntheticConfig.anomaly_rate)
    gen.add_argument("--seed", type=int, required=True)

    tr = sub.add_parser("train", help="robust-train one model on a CSV series")
    tr.add_argument("--train-csv", required=True)
    tr.add_argument("--model", choices=MODEL_KINDS, default=RECONSTRUCTION)
    tr.add_argument("--window", type=int, default=SweepConfig.window)
    tr.add_argument("--horizon", type=int, default=SweepConfig.horizon)
    tr.add_argument("--hidden", type=_int_list, default=SweepConfig.hidden_sizes)
    tr.add_argument("--stride", type=int, default=SweepConfig.train_stride)
    tr.add_argument("--method", choices=(*METHODS, *METHOD_ALIASES),
                    default=RobustTrainConfig.method)
    tr.add_argument("--tau", type=float, default=RobustTrainConfig.tau)
    tr.add_argument("--trial-epochs", type=int, default=RobustTrainConfig.trial_epochs)
    tr.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    tr.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    tr.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    tr.add_argument("--patience", type=int, default=TrainConfig.patience)
    tr.add_argument("--seed", type=int, required=True)
    tr.add_argument("--checkpoint", required=True, help="model output path (.npz)")
    tr.add_argument("--report", help="filter report output path (JSON)")

    ev = sub.add_parser("evaluate", help="score a test CSV with a checkpoint")
    ev.add_argument("--test-csv", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--scores-out", help="write per-timestep scores CSV here")

    sw = sub.add_parser("sweep", help="run the full experiment grid")
    sw.add_argument("--config", required=True, help="JSON sweep config")
    sw.add_argument("--seed", type=int, required=True,
                    help="base seed; cells derive their own seeds from it")
    sw.add_argument("--out", required=True, help="output directory")
    sw.add_argument("--workers", type=int, default=1)
    sw.add_argument("--record-timing", action="store_true",
                    help="write real wall times (output is then not "
                         "byte-reproducible)")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    # the flags are named after SyntheticConfig's fields
    cfg = SyntheticConfig(**{f.name: getattr(args, f.name)
                             for f in dataclasses.fields(SyntheticConfig)})
    train, test = generate_synthetic(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(train, str(out / "train.csv"))
    write_csv(test, str(out / "test.csv"))
    print(f"wrote {out / 'train.csv'} ({train.length} rows) and "
          f"{out / 'test.csv'} ({test.length} rows, "
          f"{int(test.labels.sum())} anomalous)")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    method = _method_name(args.method)
    series = load_csv(args.train_csv)
    norm, windows = training_windows(series, args.window, args.stride,
                                     args.train_csv)
    config = RobustTrainConfig(
        TrainConfig(args.epochs, args.batch_size, args.learning_rate,
                    args.patience, args.seed),
        args.tau, args.trial_epochs, method)
    factory = partial(build_model, args.model, args.window, series.channels,
                      args.horizon, tuple(args.hidden))
    model, report = robust_train(factory, windows, config)
    save_checkpoint(model, args.checkpoint, normalizer=norm,
                    channel_names=series.channel_names)
    if args.report:
        report.write(args.report)
    kept = len(windows) - report.discard.size
    print(f"trained {args.model} model on {kept}/{len(windows)} windows "
          f"(method={method}, discarded {report.discard.size}); "
          f"checkpoint: {args.checkpoint}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model, norm, channel_names = load_checkpoint(args.checkpoint)
    series = load_csv(args.test_csv)
    if series.channels != model.channels:
        raise ShapeError(
            f"test series has {series.channels} channels but the checkpoint "
            f"expects {model.channels}"
        )
    if channel_names and series.channel_names != channel_names:
        print(f"warning: channel names differ from checkpoint "
              f"({series.channel_names} vs {channel_names})", file=sys.stderr)
    if norm is not None:
        series = apply_normalizer(norm, series)
    scores = anomaly_scores(model, series)
    if args.scores_out:
        with replacing_file(args.scores_out) as fh:
            fh.write("score" + (",label\n" if series.labels is not None else "\n"))
            fh.write(_csv_rows(scores[:, None], series.labels))
    if series.labels is not None and 0 < series.labels.sum() < series.length:
        auc = auc_roc(scores, series.labels)
        f1, threshold = best_f1(scores, series.labels)
        print(f"auc={auc:.6f} best_f1={f1:.6f} (threshold={threshold:.6g})")
    else:
        print(f"scored {series.length} timesteps "
              f"(no usable labels, metrics skipped); "
              f"score range [{scores.min():.6g}, {scores.max():.6g}]")
    return 0


# the JSON type of every sweep config value: [t] is a list of t; a number
# may be an integer; true and false are of no type
SWEEP_TYPES = {
    "dataset": dict, "model_kinds": [str], "methods": [str], "ratios": [float],
    "repetitions": int, "tau": float, "trial_epochs": int, "window": int,
    "horizon": int, "hidden_sizes": [int], "train_stride": int, "train": dict,
}
TRAIN_TYPES = {"epochs": int, "batch_size": int, "learning_rate": float,
               "patience": int}
SYNTHETIC_TYPES = {"channels": int, "length": int, "periods": [int],
                   "noise_sigma": float, "anomaly_types": [str],
                   "anomaly_rate": float, "seed": int}
CSV_TYPES = {"train_csv": str, "test_csv": str}
TYPE_NAMES = {dict: ("an object", "objects"), str: ("a string", "strings"),
              int: ("an integer", "integers"), float: ("a number", "numbers")}


def _has_type(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_type(v, kind[0]) for v in value)
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if kind is float else kind)


def _typed(path: str, where: str, block, types: dict) -> dict:
    """The entries of a JSON object, after checking that every key is in
    types and every value of the type given there; lists become tuples."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: {where} must be an object")
    unknown = set(block) - set(types)
    if unknown:
        raise ConfigError(f"{path}: unknown {where} keys {sorted(unknown)}")
    for key, value in block.items():
        kind = types[key]
        if not _has_type(value, kind):
            name = (f"a list of {TYPE_NAMES[kind[0]][1]}" if isinstance(kind, list)
                    else TYPE_NAMES[kind][0])
            raise ConfigError(f"{path}: {where} value {key!r} must be {name}, "
                              f"got {json.dumps(value)}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in block.items()}


def load_sweep_config(path: str, base_seed: int) -> SweepConfig:
    """Parse the JSON sweep config.

    Every key and the type of every value are checked here, so a config
    that loads can fail only on a value out of range.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    # ValueError: malformed JSON or an integer too long to convert;
    # RecursionError: arrays or objects nested too deeply
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    kwargs = _typed(path, "config", raw, SWEEP_TYPES)
    kwargs.update(_typed(path, "train", kwargs.pop("train", {}), TRAIN_TYPES))
    if "dataset" not in kwargs:
        raise ConfigError(f"{path}: 'dataset' object is required")
    dataset = kwargs.pop("dataset")
    if "synthetic" in dataset:
        synthetic = _typed(path, "dataset", dataset, {"synthetic": dict})["synthetic"]
        kwargs["synthetic"] = SyntheticConfig(
            **_typed(path, "synthetic", synthetic, SYNTHETIC_TYPES))
    else:
        kwargs.update(_typed(path, "dataset", dataset, CSV_TYPES))
    if "methods" in kwargs:
        kwargs["methods"] = tuple(_method_name(m) for m in kwargs["methods"])
    return SweepConfig(base_seed, **kwargs)


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_sweep_config(args.config, args.seed)
    out = Path(args.out)
    raw_path = out / "results.csv"
    result = run_sweep(cfg, raw_path=str(raw_path), workers=args.workers,
                       record_timing=args.record_timing)
    write_results(result, str(raw_path))
    write_summary(result, str(out / "summary.csv"))
    failed = sum(1 for r in result.rows if not r.ok)
    print(f"sweep complete: {len(result.rows)} rows "
          f"({failed} failed), results in {out}")
    if failed:
        print("failed cells keep NA metrics and are retried when the sweep "
              "is re-run with the same output directory", file=sys.stderr)
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse error or --help
        return int(exc.code or 0)
    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (ToolkitError, OSError) as exc:  # OSError: an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
