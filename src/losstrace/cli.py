"""Command-line interface.

Subcommands:
  generate   write a synthetic labeled benchmark to train.csv / test.csv
  train      robust-train one model on a CSV series, emit checkpoint + report
  evaluate   score a test CSV with a checkpoint, print AUC / best F1
  sweep      run the full models x methods x ratios x repetitions grid
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

from .data import (
    SyntheticConfig,
    apply_normalizer,
    fit_normalizer,
    generate_synthetic,
    load_csv,
    make_windows,
    write_csv,
)
from .errors import ConfigError, ShapeError, ToolkitError
from .experiment import (
    OUT_DIR_ENV,
    SweepConfig,
    run_sweep,
    write_results,
    write_summary,
)
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

# glibc's mallopt parameter number (malloc.h) and the size from which every
# allocation gets its own mapping (see _pin_mmap_threshold)
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 1 << 20

# short method names on the command line; internal names also accepted
METHOD_ALIASES = {"m": "m_only", "v": "v_only"}
CLI_METHODS = ("vanilla", "m", "v", "combined")


def _method_name(value: str) -> str:
    name = METHOD_ALIASES.get(value, value)
    if name not in METHODS:
        raise ConfigError(f"unknown method {value!r}; choose from "
                          f"{CLI_METHODS} (or {METHODS})")
    return name


def _number_list(kind: type, what: str):
    """argparse type for a comma-separated list of kind(...) values."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(p) for p in text.split(",") if p)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, "
                                             f"got {text!r}") from None

    return parse


_int_list = _number_list(int, "integers")
_float_list = _number_list(float, "numbers")


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(p for p in text.split(",") if p)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="losstrace",
        description="Robust TSAD training via trial-epoch loss-trace filtering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic benchmark to CSV")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--channels", type=int, default=4)
    gen.add_argument("--length", type=int, default=20000)
    gen.add_argument("--periods", type=_int_list, default=(50, 125))
    gen.add_argument("--noise-sigma", type=float, default=0.3)
    gen.add_argument("--anomaly-types", type=_str_list,
                     default=("spike", "level_shift", "frequency_change"))
    gen.add_argument("--anomaly-rate", type=float, default=0.05)
    gen.add_argument("--seed", type=int, required=True)

    tr = sub.add_parser("train", help="robust-train one model on a CSV series")
    tr.add_argument("--train-csv", required=True)
    tr.add_argument("--model", choices=MODEL_KINDS, default=RECONSTRUCTION)
    tr.add_argument("--window", type=int, default=16)
    tr.add_argument("--horizon", type=int, default=1)
    tr.add_argument("--hidden", type=_int_list, default=(32,))
    tr.add_argument("--stride", type=int, default=1)
    tr.add_argument("--method", choices=CLI_METHODS + ("m_only", "v_only"),
                    default="combined")
    tr.add_argument("--tau", type=float, default=0.2)
    tr.add_argument("--trial-epochs", type=int, default=10)
    tr.add_argument("--epochs", type=int, default=40)
    tr.add_argument("--batch-size", type=int, default=64)
    tr.add_argument("--learning-rate", type=float, default=1e-3)
    tr.add_argument("--patience", type=int, default=5)
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
    sw.add_argument("--out", help=f"output directory (overrides config and "
                                  f"${OUT_DIR_ENV})")
    sw.add_argument("--workers", type=int, default=1)
    sw.add_argument("--record-timing", action="store_true",
                    help="write real wall times (output is then not "
                         "byte-reproducible)")
    sw.add_argument("--ratios", type=_float_list)
    sw.add_argument("--repetitions", type=int)
    sw.add_argument("--methods", type=_str_list)
    sw.add_argument("--model-kinds", type=_str_list)
    sw.add_argument("--tau", type=float)
    sw.add_argument("--trial-epochs", type=int)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = SyntheticConfig(
        channels=args.channels,
        length=args.length,
        periods=tuple(args.periods),
        noise_sigma=args.noise_sigma,
        anomaly_types=tuple(args.anomaly_types),
        anomaly_rate=args.anomaly_rate,
        seed=args.seed,
    )
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
    norm = fit_normalizer(series)
    normalized = apply_normalizer(norm, series)
    windows = make_windows(normalized, args.window, args.stride)
    config = RobustTrainConfig(
        train=TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.learning_rate,
            patience=args.patience,
            seed=args.seed,
        ),
        tau=args.tau,
        trial_epochs=args.trial_epochs,
        method=method,
    )
    channels = series.channels

    def factory(seed: int):
        return build_model(args.model, args.window, channels, args.horizon,
                           tuple(args.hidden), seed)

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
    scores = anomaly_scores(model, series, stride=1)
    if args.scores_out:
        with open(args.scores_out, "w", encoding="utf-8", newline="") as fh:
            fh.write("score" + (",label\n" if series.labels is not None else "\n"))
            for t in range(series.length):
                if series.labels is not None:
                    fh.write(f"{scores[t]!r},{int(series.labels[t])}\n")
                else:
                    fh.write(f"{scores[t]!r}\n")
    if series.labels is not None and 0 < series.labels.sum() < series.length:
        auc = auc_roc(scores, series.labels)
        f1, threshold = best_f1(scores, series.labels)
        print(f"auc={auc:.6f} best_f1={f1:.6f} (threshold={threshold:.6g})")
    else:
        print(f"scored {series.length} timesteps "
              f"(no usable labels, metrics skipped); "
              f"score range [{scores.min():.6g}, {scores.max():.6g}]")
    return 0


SWEEP_CONFIG_KEYS = {
    "dataset", "model_kinds", "methods", "ratios", "repetitions", "tau",
    "trial_epochs", "window", "horizon", "hidden_sizes", "train_stride",
    "train", "out_dir",
}
TRAIN_CONFIG_KEYS = {"epochs", "batch_size", "learning_rate", "patience"}


def load_sweep_config(path: str, base_seed: int) -> tuple[SweepConfig, str | None]:
    """Parse the JSON sweep config; returns (config, out_dir or None)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - SWEEP_CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")

    kwargs: dict = {"base_seed": base_seed}
    dataset = raw.get("dataset")
    if not isinstance(dataset, dict):
        raise ConfigError(f"{path}: 'dataset' object is required")
    if "synthetic" in dataset:
        extra = set(dataset) - {"synthetic"}
        if extra:
            raise ConfigError(f"{path}: unexpected dataset keys {sorted(extra)}")
        try:
            kwargs["synthetic"] = SyntheticConfig(**{
                k: tuple(v) if isinstance(v, list) else v
                for k, v in dataset["synthetic"].items()
            })
        except TypeError as exc:
            raise ConfigError(f"{path}: bad synthetic block: {exc}") from None
    else:
        extra = set(dataset) - {"train_csv", "test_csv"}
        if extra:
            raise ConfigError(f"{path}: unexpected dataset keys {sorted(extra)}")
        kwargs["train_csv"] = dataset.get("train_csv")
        kwargs["test_csv"] = dataset.get("test_csv")

    for key in ("model_kinds", "ratios", "hidden_sizes"):
        if key in raw:
            kwargs[key] = tuple(raw[key])
    if "methods" in raw:
        kwargs["methods"] = tuple(_method_name(m) for m in raw["methods"])
    for key in ("repetitions", "tau", "trial_epochs", "window", "horizon",
                "train_stride"):
        if key in raw:
            kwargs[key] = raw[key]
    train = raw.get("train", {})
    if not isinstance(train, dict) or set(train) - TRAIN_CONFIG_KEYS:
        raise ConfigError(f"{path}: 'train' accepts keys {sorted(TRAIN_CONFIG_KEYS)}")
    kwargs.update(train)
    try:
        return SweepConfig(**kwargs), raw.get("out_dir")
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg, cfg_out_dir = load_sweep_config(args.config, args.seed)
    overrides = {
        "ratios": tuple(args.ratios) if args.ratios else None,
        "repetitions": args.repetitions,
        "methods": tuple(_method_name(m) for m in args.methods)
        if args.methods else None,
        "model_kinds": tuple(args.model_kinds) if args.model_kinds else None,
        "tau": args.tau,
        "trial_epochs": args.trial_epochs,
    }
    updates = {k: v for k, v in overrides.items() if v is not None}
    if updates:
        from dataclasses import replace

        cfg = replace(cfg, **updates)
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or cfg_out_dir
    if not out_dir:
        raise ConfigError("no output directory: pass --out, set "
                          f"${OUT_DIR_ENV}, or put out_dir in the config")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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


def _pin_mmap_threshold() -> None:
    """Give every allocation of 1 MiB or more (numpy's whole-series arrays)
    its own mapping, returned to the system when it is freed.

    By default glibc raises this threshold to the largest block freed so
    far and then serves such blocks from the heap, where a freed one stays
    resident while any block above it lives. Which arrays stay resident
    then depends on the exact order of all earlier allocations, and the
    peak memory of one `evaluate` moved by a whole-batch array (~30 MB at
    60k timesteps) from one run to the next. A fixed threshold keeps the
    peak at the arrays alive together. Does nothing outside Linux.
    """
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)


def cli_main(argv: list[str] | None = None) -> int:
    _pin_mmap_threshold()
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


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
