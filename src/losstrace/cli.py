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
import sys
from functools import partial
from pathlib import Path

from .data import (
    MultivariateSeries,
    SyntheticConfig,
    apply_normalizer,
    generate_synthetic,
    load_csv,
    training_windows,
    write_csv,
)
from .errors import ConfigError, ShapeError, ToolkitError
from .experiment import SweepConfig, load_sweep_config, one_blas_thread, run_sweep
from .filtering import METHOD_ALIASES, METHODS, RobustTrainConfig, robust_train
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
    for path in filter(None, (args.checkpoint, args.report)):
        directory = Path(path).parent
        if not directory.is_dir():  # refused before any training
            raise ConfigError(f"cannot write {path}: {directory} is not a directory")
    method = METHOD_ALIASES.get(args.method, args.method)
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
        write_csv(MultivariateSeries(scores[:, None], series.labels, ["score"]),
                  args.scores_out)
    if series.labels is not None and 0 < series.labels.sum() < series.length:
        auc = auc_roc(scores, series.labels)
        f1, threshold = best_f1(scores, series.labels)
        print(f"auc={auc:.6f} best_f1={f1:.6f} (threshold={threshold:.6g})")
    else:
        print(f"scored {series.length} timesteps "
              f"(no usable labels, metrics skipped); "
              f"score range [{scores.min():.6g}, {scores.max():.6g}]")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_sweep_config(args.config, args.seed)
    out = Path(args.out)
    result = run_sweep(cfg, raw_path=str(out / "results.csv"), workers=args.workers,
                       record_timing=args.record_timing)
    failed = sum(1 for r in result.rows if not r.ok)
    print(f"sweep complete: {len(result.rows)} rows "
          f"({failed} failed), results in {out}")
    if failed:
        print("failed cells keep NA metrics and are retried when the sweep "
              "is re-run with the same output directory", file=sys.stderr)
    return 0


# how numpy's ValueError begins for a shape too large to index; a shape it
# can index but not allocate raises MemoryError
NUMPY_SIZE_ERRORS = ("Maximum allowed dimension exceeded", "array is too big;")


def cli_main(argv: list[str] | None = None) -> int:
    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "sweep": _cmd_sweep,
    }
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse error or --help
            return int(exc.code or 0)
        with one_blas_thread():
            return handlers[args.command](args)
    except (ToolkitError, OSError) as exc:  # OSError: an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(NUMPY_SIZE_ERRORS):
            raise
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
