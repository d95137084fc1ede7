"""Sweep runner: models x training methods x contamination ratios x
repetitions, with deterministic seeds and CSV outputs.

Raw results go to one CSV (one row per cell), aggregates to a companion
summary CSV suitable for plotting metric-vs-ratio curves. The cells of one
(model, ratio, repetition) form a group that shares one seed, derived from
the base seed and those coordinates alone: every method trains on the same
contaminated windows, with the same split and initialisations, so the
methods' rows are paired. The group is the unit of work, serial and
pooled: one function runs its pending cells in turn and holds what they
share, the contaminated windows and the trial trace that its first
filtering method records and every filtering method trains on. Results do
not depend on execution order or worker count, and an interrupted sweep can
be resumed (completed rows are kept, failed or missing cells are
recomputed).
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import logging
import signal
import time
import traceback
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import cache, partial
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .data import (
    ContaminationSpec,
    MultivariateSeries,
    SyntheticConfig,
    WindowSet,
    apply_normalizer,
    generate_synthetic,
    inject_contamination,
    load_csv,
    make_windows,
    replacing_file,
    training_windows,
    unique_keys,
)
from .errors import ConfigError, ParseError, ToolkitError
from .filtering import (
    METHOD_ALIASES, METHODS, VANILLA, LossTrace, ModelFactory, RobustTrainConfig,
    record_trial_traces, robust_train,
)
from .metrics import auc_roc, best_f1, coverage
from .models import (
    DEFAULT_HIDDEN_SIZES, DEFAULT_HORIZON, MODEL_KINDS, TrainConfig, anomaly_scores,
    build_model,
)
from .seeding import derive_seed

logger = logging.getLogger(__name__)

DEFAULT_RATIOS = (0.0, 0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.10, 0.13, 0.16, 0.20)

NA = "NA"

# the SweepConfig fields that the sweep config file nests in an object each
CONFIG_GROUPS = {"train": ("epochs", "batch_size", "learning_rate", "patience"),
                 "dataset": ("synthetic", "train_csv", "test_csv")}


@dataclass
class SweepConfig:
    base_seed: int
    synthetic: SyntheticConfig | None = None
    train_csv: str | None = None
    test_csv: str | None = None
    model_kinds: tuple[str, ...] = MODEL_KINDS
    methods: tuple[str, ...] = METHODS
    ratios: tuple[float, ...] = DEFAULT_RATIOS
    repetitions: int = 5
    tau: float = RobustTrainConfig.tau
    trial_epochs: int = RobustTrainConfig.trial_epochs
    window: int = 16
    horizon: int = DEFAULT_HORIZON
    hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN_SIZES
    train_stride: int = 1
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    patience: int = TrainConfig.patience

    def __post_init__(self) -> None:
        self.check_base_seed(self.base_seed)
        has_synth = self.synthetic is not None
        has_csv = self.train_csv is not None or self.test_csv is not None
        if has_synth == has_csv:
            raise ConfigError(
                "configure exactly one dataset source: synthetic or CSV paths"
            )
        if has_csv and (self.train_csv is None or self.test_csv is None):
            raise ConfigError("CSV datasets need both train_csv and test_csv")
        if not self.model_kinds or set(self.model_kinds) - set(MODEL_KINDS):
            raise ConfigError(f"model kinds must be a non-empty subset of "
                              f"{MODEL_KINDS}, got {self.model_kinds}")
        if not self.methods or set(self.methods) - set(METHODS):
            raise ConfigError(f"methods must be a non-empty subset of "
                              f"{METHODS}, got {self.methods}")
        if not self.ratios or any(not 0.0 <= r <= 0.2 for r in self.ratios):
            raise ConfigError(f"ratios must be a non-empty subset of [0, 0.2], "
                              f"got {self.ratios}")
        # a repeated entry would run its cells again; ratios are compared
        # as results.csv and summary.csv write them
        for key, entries, note in (
                ("model_kinds", self.model_kinds, ""),
                ("methods", self.methods, ""),
                ("ratios", [_cell("ratio", r) for r in self.ratios], " (as %g)")):
            repeated = sorted({e for e in entries if entries.count(e) > 1})
            if repeated:
                raise ConfigError(f"{key} lists {', '.join(repeated)} more "
                                  f"than once{note}")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        self.train_config(self.methods[0], 0)  # bad training values fail here

    @staticmethod
    def check_base_seed(base_seed: int) -> None:
        if base_seed < 0:
            raise ConfigError(f"base seed must be >= 0, got {base_seed}")

    def train_config(self, method: str, seed: int) -> RobustTrainConfig:
        """The robust-training settings of one sweep cell."""
        return RobustTrainConfig(
            TrainConfig(self.epochs, self.batch_size, self.learning_rate,
                        self.patience, seed),
            self.tau, self.trial_epochs, method)


# a number may be an integer; true and false are of no type
TYPE_NAMES = {dict: ("an object", "objects"), str: ("a string", "strings"),
              int: ("an integer", "integers"), float: ("a number", "numbers")}


def _has_type(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_type(v, kind[0]) for v in value)
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if kind is float else kind)


def _typed(where: str, block, hints: dict) -> dict:
    """The entries of a JSON object, lists as tuples, after checking that
    every key is in hints and every value of the JSON type of its hint: [t],
    a list of t, for tuple[t, ...]; t for t | None; and dict, an object of
    the dataclass's own fields, for a dataclass."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {where} keys {sorted(unknown)}")
    for key, value in block.items():
        kind = (get_args(hints[key]) or (hints[key],))[0]
        kind = ([kind] if get_origin(hints[key]) is tuple
                else dict if is_dataclass(kind) else kind)
        if not _has_type(value, kind):
            name = (f"a list of {TYPE_NAMES[kind[0]][1]}" if isinstance(kind, list)
                    else TYPE_NAMES[kind][0])
            raise ConfigError(f"{where} value {key!r} must be {name}, "
                              f"got {json.dumps(value)}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in block.items()}


def load_sweep_config(path: str, base_seed: int) -> SweepConfig:
    """Parse a JSON sweep config file (a leading UTF-8 BOM is skipped). Every
    error is a ConfigError. base_seed is checked before path is read, and
    its error does not name path; every error found after the JSON parses
    does."""
    SweepConfig.check_base_seed(base_seed)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh, object_pairs_hook=unique_keys)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, or a path through a regular file
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    # ValueError: malformed JSON, a repeated key or an integer too long to
    # convert; RecursionError: arrays or objects nested too deeply
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    hints = get_type_hints(SweepConfig)
    del hints["base_seed"]  # --seed sets it
    groups = {group: {name: hints.pop(name) for name in names}
              for group, names in CONFIG_GROUPS.items()}
    try:
        kwargs = _typed("config", raw, {**hints, **dict.fromkeys(groups, dict)})
        for group, group_hints in groups.items():
            kwargs.update(_typed(group, kwargs.pop(group, {}), group_hints))
        if "synthetic" in kwargs:
            kwargs["synthetic"] = SyntheticConfig(**_typed(
                "synthetic", kwargs["synthetic"], get_type_hints(SyntheticConfig)))
        if "methods" in kwargs:
            kwargs["methods"] = tuple(METHOD_ALIASES.get(m, m)
                                      for m in kwargs["methods"])
        return SweepConfig(base_seed, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


MANIFEST = "manifest.json"


def sweep_manifest(cfg: SweepConfig) -> dict:
    """Every setting that can move a row of cfg's sweep, as JSON: the base
    seed, the config nested as the sweep config file nests it, and the
    SHA-256 of each CSV input. An input that cannot be read raises
    ConfigError."""
    config = asdict(cfg)
    base_seed = config.pop("base_seed")
    groups = {group: {name: value for name in names
                      if (value := config.pop(name)) is not None}
              for group, names in CONFIG_GROUPS.items()}
    inputs = ({} if cfg.synthetic is not None else
              {"train_csv": _sha256(cfg.train_csv), "test_csv": _sha256(cfg.test_csv)})
    return json.loads(json.dumps({"base_seed": base_seed,
                                  "config": {**config, **groups},
                                  "csv_sha256": inputs}))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    return digest.hexdigest()


def _check_manifest(directory: Path, manifest: dict) -> bool:
    """Whether directory holds a manifest. One that cannot be read, or that
    differs from manifest, raises a ToolkitError that names directory and,
    for a difference, the first entry that differs."""
    path = directory / MANIFEST
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh, object_pairs_hook=unique_keys)
    except FileNotFoundError:
        return False
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    # ValueError: not UTF-8, malformed JSON, a repeated key or an integer
    # too long to convert; RecursionError: arrays or objects nested too deeply
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: not a readable manifest: {exc}") from None
    if not isinstance(stored, dict):
        raise ParseError(f"{path}: not a readable manifest: not a JSON object")
    key = _first_difference(stored, manifest)
    if key is not None:
        raise ConfigError(
            f"{directory}: its results come from another sweep configuration "
            f"({key!r} differs from {MANIFEST}); re-run with the same config "
            f"and base seed, or write to another output directory")
    return True


_ABSENT = object()


def _first_difference(stored: object, current: object, key: str = "") -> str | None:
    """The dotted name of the first entry in which two JSON values differ,
    current's entries first, or None if they are equal."""
    if not (isinstance(stored, dict) and isinstance(current, dict)):
        return None if stored == current else key
    for name in [*current, *(k for k in stored if k not in current)]:
        found = _first_difference(stored.get(name, _ABSENT),
                                  current.get(name, _ABSENT),
                                  f"{key}.{name}" if key else name)
        if found is not None:
            return found
    return None


@dataclass
class ResultRow:
    model: str
    method: str
    ratio: float
    seed: int
    auc: float | None = None
    best_f1: float | None = None
    coverage: float | None = None
    discard_size: int | None = None
    wall_time_s: float | None = None
    error: str | None = None  # logged, never written

    @property
    def ok(self) -> bool:
        return self.auc is not None


RAW_HEADER = [f.name for f in fields(ResultRow) if f.name != "error"]


@dataclass
class ExperimentResult:
    rows: list[ResultRow] = field(default_factory=list)


@dataclass
class DataBundle:
    """Shared per-sweep dataset artifacts (normalized)."""

    train_windows: WindowSet
    pool: WindowSet  # anomalous test windows, contamination source
    test: MultivariateSeries


def prepare_data(cfg: SweepConfig) -> DataBundle:
    """Load or generate the dataset, normalize it, and cut windows.

    Raises ConfigError for a test series without labels, with one class or
    with another channel count than the training series, for too few
    training windows, and for flagged training windows that a ratio above
    0 would inject into: every cell would fail on them.
    """
    if cfg.synthetic is not None:
        train, test = generate_synthetic(cfg.synthetic)
        train_source = source = "synthetic dataset"
    else:
        assert cfg.train_csv is not None and cfg.test_csv is not None
        train, test = load_csv(cfg.train_csv), load_csv(cfg.test_csv)
        train_source, source = cfg.train_csv, cfg.test_csv
        if test.labels is None:
            raise ConfigError(f"{cfg.test_csv}: test series has no label "
                              f"column; a sweep needs labels to evaluate")
        if test.channels != train.channels:
            raise ConfigError(f"{cfg.test_csv}: test series has {test.channels} "
                              f"channels but training series {cfg.train_csv} "
                              f"has {train.channels}")
        if test.channel_names != train.channel_names:
            logger.warning("channel names differ: %s has %s, %s has %s",
                           cfg.train_csv, train.channel_names, cfg.test_csv,
                           test.channel_names)
    classes = np.unique(test.labels).tolist()
    if classes != [0, 1]:
        raise ConfigError(f"{source}: test labels hold only {classes}; a sweep "
                          f"needs both normal (0) and anomalous (1) timesteps")
    norm, train_windows = training_windows(train, cfg.window, cfg.train_stride,
                                           train_source)
    del train  # freed before the test windows are cut: lower peak memory
    flagged = int(train_windows.flags.sum())
    if flagged and max(cfg.ratios) > 0:
        raise ConfigError(
            f"{train_source}: {flagged} of {len(train_windows)} training "
            f"windows are flagged anomalous; contamination ratios above 0 "
            f"need all of them normal, so run this series at ratio 0 only")
    test = apply_normalizer(norm, test)
    test_windows = make_windows(test, cfg.window, 1)
    pool = test_windows.subset(np.flatnonzero(test_windows.flags == 1))
    return DataBundle(train_windows, pool, test)


CellCoord = tuple[str, str, float, int]


def plan_cells(cfg: SweepConfig) -> list[CellCoord]:
    """Grid of (model kind, method, ratio, repetition index) cells."""
    return [
        (kind, method, float(ratio), rep)
        for kind in cfg.model_kinds
        for method in cfg.methods
        for ratio in cfg.ratios
        for rep in range(cfg.repetitions)
    ]


def cell_seed(cfg: SweepConfig, kind: str, method: str, ratio: float,
              rep: int) -> int:
    """A cell's seed. The method is left out: every method of a (kind,
    ratio, rep) group gets the same seed, hence the same contamination,
    trial trace, split and initialisations."""
    return derive_seed(cfg.base_seed, kind, float(ratio), rep)


def run_cell(cfg: SweepConfig, kind: str, method: str, ratio: float, rep: int,
             bundle: DataBundle) -> ResultRow:
    """Run one sweep cell on prepare_data's bundle as a group of its one
    method: the row the cell gets in a sweep, or its NA row."""
    return _run_group_task((cfg, kind, ratio, rep, (method,)), bundle)[0]


def _model_factory(cfg: SweepConfig, kind: str, bundle: DataBundle) -> ModelFactory:
    """build_model for the sweep's architecture; call it with a seed."""
    return partial(build_model, kind, cfg.window, bundle.test.channels,
                   cfg.horizon, tuple(cfg.hidden_sizes))


# (config, kind, ratio, rep, the group's pending methods in config order)
GroupTask = tuple[SweepConfig, str, float, int, tuple[str, ...]]


def _run_group_task(task: GroupTask, bundle: DataBundle) -> list[ResultRow]:
    """Run a group's pending cells on prepare_data's bundle, one row per
    method: contaminate, record the trial trace (filtering methods),
    robust-train on it, score, evaluate. The first cell that needs the
    contaminated windows makes them, and the first filtering cell the trial
    trace, inside its own wall time; the later cells reuse them.

    A cell that fails is its NA row, and the group goes on. The row's error
    is "<cell>: <message>" for a ToolkitError, and "<cell>: unexpected
    error" with the traceback for any other Exception. KeyboardInterrupt
    propagates."""
    cfg, kind, ratio, rep, methods = task
    seed = cell_seed(cfg, kind, methods[0], ratio, rep)  # the group's seed
    factory = _model_factory(cfg, kind, bundle)
    contaminated: tuple[WindowSet, set[int]] | None = None
    trace: LossTrace | None = None
    rows = []
    for method in methods:
        start = time.perf_counter()
        try:
            if contaminated is None:
                if ratio > 0:
                    spec = ContaminationSpec(ratio, derive_seed(seed, "inject"),
                                             bundle.pool)
                    contaminated = inject_contamination(bundle.train_windows,
                                                        spec)
                else:
                    contaminated = bundle.train_windows, set()
            train_ws, injected = contaminated
            rc = cfg.train_config(method, derive_seed(seed, "train"))
            if method != VANILLA and trace is None:
                trace = record_trial_traces(factory, train_ws, rc)
            model, report = robust_train(factory, train_ws, rc, trace)
            scores = anomaly_scores(model, bundle.test)
            auc = auc_roc(scores, bundle.test.labels)
            f1, _threshold = best_f1(scores, bundle.test.labels)
            cov = (None if method == VANILLA
                   else coverage(injected, report.discard.tolist()))
            wall = time.perf_counter() - start
            rows.append(ResultRow(kind, method, float(ratio), seed, auc, f1, cov,
                                  int(report.discard.size), wall))
            continue
        except ToolkitError as exc:
            error = str(exc)
        except Exception:
            error = f"unexpected error\n{traceback.format_exc().rstrip()}"
        name = f"cell model={kind} method={method} ratio={ratio:g} rep={rep}"
        rows.append(ResultRow(kind, method, float(ratio), seed,
                              error=f"{name}: {error}"))
    return rows


# a pool worker's copy of the sweep's bundle, set once by _init_worker
_worker_bundle: DataBundle | None = None
# signal masks are POSIX-only; elsewhere SIGINT is never held back
_MASKS_SIGNALS = hasattr(signal, "pthread_sigmask")


def _init_worker(bundle: DataBundle) -> None:
    """Keep the bundle, run BLAS on one thread, as one_blas_thread
    explains, and end at SIGINT as the system default does, idle or busy:
    no Python code runs on the way out, so no traceback and no further
    group. A SIGINT that run_sweep's mask held back ends the worker here."""
    global _worker_bundle
    _worker_bundle = bundle
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    if _MASKS_SIGNALS:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    blas = _openblas_threads()
    if blas is not None:
        _get, set_threads = blas
        set_threads(1)


@cache
def _openblas_threads() -> tuple | None:
    """The get and set thread-count functions of the OpenBLAS bundled with
    numpy, or None if there is none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_{}_num_threads64_",
                       "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(handle, symbol.format("get"), None)
            set_ = getattr(handle, symbol.format("set"), None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                return get, set_
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with numpy's bundled OpenBLAS on one thread, and give
    the caller's thread count back however the block ends.

    Every process that trains or scores runs BLAS on one thread; parallel
    work comes only from sweep workers. Only the large loss passes are big
    enough for OpenBLAS to thread, and after each one its idle helper
    threads keep spinning on the other cores. Without OpenBLAS this does
    nothing: that costs speed, never a result.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _run_pooled_group(task: GroupTask) -> list[ResultRow]:
    assert _worker_bundle is not None
    return _run_group_task(task, _worker_bundle)


def run_sweep(
    cfg: SweepConfig,
    raw_path: str,
    workers: int = 1,
    record_timing: bool = False,
) -> ExperimentResult:
    """Execute all planned cells, reusing completed rows from raw_path, then
    write the sweep_manifest, the rows to raw_path (write_results) and their
    summary.csv (write_summary) beside it; a sweep that raises writes none.

    A raw_path that exists is resumed only if the sweep_manifest stored
    beside it equals cfg's: one that differs or cannot be read raises
    before anything is run or written. Without a stored manifest, its rows
    are kept with one warning. Stored rows that match no planned (model,
    method, seed) are dropped with a warning. The pending cells run as
    groups of one (kind, ratio, rep) each. The dataset is prepared, and one
    model of each configured kind is built, once before any cell runs, so
    dataset, label and architecture errors raise instead of failing every
    cell, before raw_path's directory is created. A forking pool starts all
    its workers at once, so at most one per pending group is asked for. A
    cell that fails is the NA row its group returns, its error logged here;
    the sweep goes on, and the next resume retries the cell. A pool worker
    that dies ends the sweep with a ToolkitError, and its rows are lost.
    Ctrl-C (a SIGINT to the process group) ends every pool worker at once;
    a SIGINT to this process alone lets the running groups finish. Either
    way the queued groups are cancelled and KeyboardInterrupt propagates.
    Unless record_timing is set, wall times are written as NA so repeated
    sweeps with the same seed produce byte-identical files.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    plan = plan_cells(cfg)
    manifest = sweep_manifest(cfg)
    directory = Path(raw_path).parent
    has_manifest = Path(raw_path).exists() and _check_manifest(directory, manifest)
    # a stored row names its cell by (model, method, seed); its ratio went
    # through %g, so it may not equal the planned ratio
    by_seed = {(kind, method, cell_seed(cfg, kind, method, ratio, rep)):
               (kind, method, ratio, rep)
               for kind, method, ratio, rep in plan}
    done: dict[CellCoord, ResultRow] = {}
    unplanned = 0
    for row in read_results_if_exists(raw_path):
        coord = by_seed.get((row.model, row.method, row.seed))
        if coord is None:
            unplanned += 1
        elif row.ok:
            row.ratio = coord[2]
            done[coord] = row
    if unplanned:
        logger.warning("%s: dropped %d stored rows that match no planned "
                       "(model, method, seed); their cells are recomputed",
                       raw_path, unplanned)
    if done and not has_manifest:
        logger.warning("%s: no %s beside it, so the configuration of its "
                       "%d stored rows cannot be checked; they are kept",
                       raw_path, MANIFEST, len(done))

    groups: dict[tuple[str, float, int], list[str]] = {}
    for kind, method, ratio, rep in plan:
        if (kind, method, ratio, rep) not in done:
            groups.setdefault((kind, ratio, rep), []).append(method)
    rows: list[ResultRow] = [done[c] for c in plan if c in done]
    if groups:
        bundle = prepare_data(cfg)
        for kind in cfg.model_kinds:  # an impossible architecture fails here
            _model_factory(cfg, kind, bundle)(0)
        directory.mkdir(parents=True, exist_ok=True)
        tasks = [(cfg, kind, ratio, rep, tuple(methods))
                 for (kind, ratio, rep), methods in groups.items()]
        workers = min(workers, len(tasks))
        if workers > 1:
            pool = ProcessPoolExecutor(max_workers=workers,
                                       initializer=_init_worker,
                                       initargs=(bundle,))
            try:
                # the first submit forks every worker: hold SIGINT back so
                # that a worker takes it only after _init_worker
                if _MASKS_SIGNALS:
                    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    futures = [pool.submit(_run_pooled_group, task)
                               for task in tasks]
                finally:
                    if _MASKS_SIGNALS:
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                for future in futures:
                    rows.extend(future.result())
            except BrokenProcessPool:
                raise ToolkitError("a sweep worker process died (killed, or out of "
                                   "memory?); this run's rows are lost and stored "
                                   "results are unchanged: re-run the sweep") from None
            finally:
                # the pool's own thread cancels the queued groups: cancelled
                # from this thread, they would race its marking them broken
                pool.shutdown(cancel_futures=True)
        else:
            with one_blas_thread():
                for task in tasks:
                    rows.extend(_run_group_task(task, bundle))

    for row in rows:
        if row.error:
            logger.error("sweep cell failed: %s", row.error)
        if not record_timing:
            row.wall_time_s = None

    kind_order = {k: i for i, k in enumerate(cfg.model_kinds)}
    method_order = {m: i for i, m in enumerate(cfg.methods)}
    rows.sort(key=lambda r: (kind_order[r.model], method_order[r.method],
                             r.ratio, r.seed))
    result = ExperimentResult(rows)
    with replacing_file(str(directory / MANIFEST)) as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")
    write_results(result, raw_path)
    write_summary(result, str(directory / "summary.csv"))
    return result


def _cell(column: str, value: float | int | str | None) -> str:
    """A table cell as results.csv and summary.csv write it."""
    if value is None:
        return NA
    if column == "ratio":
        return f"{value:g}"
    if column == "wall_time_s":
        return f"{value:.3f}"
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def _write_table(path: str, header: list[str], rows) -> None:
    """Write the header, then the attributes it names of each row, atomically."""
    with replacing_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(k, getattr(row, k)) for k in header]
                         for row in rows)


def write_results(result: ExperimentResult, path: str) -> None:
    """Write the raw per-cell CSV (header: RAW_HEADER), atomically."""
    _write_table(path, RAW_HEADER, result.rows)


def read_results_if_exists(path: str) -> list[ResultRow]:
    """Rows of a write_results file, or none if it does not exist.

    A path that cannot be read or a wrong header raises ConfigError. A file
    that is not UTF-8 CSV raises ParseError naming the file; a data row that
    cannot be parsed (missing or extra cells, a malformed number) or that no
    sweep writes (an auc, best_f1 or coverage outside [0, 1], a negative
    discard_size, exactly one of auc and best_f1 NA), one naming the file
    and the 1-based data row.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
    except FileNotFoundError:
        return []
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: not a readable CSV file: {exc}") from None
    header = lines[0] if lines else None
    if header != RAW_HEADER:
        raise ConfigError(f"{path}: unexpected results header {header}")
    rows = []
    for row_no, cells in enumerate(filter(None, lines[1:]), start=1):
        try:
            if len(cells) != len(RAW_HEADER):
                raise ValueError(f"{len(cells)} cells, expected {len(RAW_HEADER)}")
            row = ResultRow(**{name: _PARSERS[name](cell)
                               for name, cell in zip(RAW_HEADER, cells)})
            for name in ("auc", "best_f1", "coverage"):
                value = getattr(row, name)
                if value is not None and not 0.0 <= value <= 1.0:
                    raise ValueError(f"{name} {value!r} is not in [0, 1]")
            if row.discard_size is not None and row.discard_size < 0:
                raise ValueError(f"discard_size {row.discard_size} is negative")
            if (row.auc is None) != (row.best_f1 is None):
                raise ValueError("auc and best_f1 must be both NA or both "
                                 "numbers")
            rows.append(row)
        except ValueError as exc:
            raise ParseError(f"{path}: data row {row_no}: {exc}") from None
    return rows


def _parser(hint: object) -> Callable[[str], object]:
    """The parser of a stored cell of a ResultRow field of type hint: str,
    int or float, or one of them or None, which is stored as NA."""
    kind, *optional = get_args(hint) or (hint,)
    return (lambda cell: None if cell == NA else kind(cell)) if optional else kind


_PARSERS = {name: _parser(hint) for name, hint in get_type_hints(ResultRow).items()}


@dataclass
class SummaryRow:
    model: str
    method: str
    ratio: float
    auc_mean: float
    auc_std: float
    f1_mean: float
    f1_std: float
    coverage_mean: float | None
    coverage_std: float | None


SUMMARY_HEADER = [f.name for f in fields(SummaryRow)]


def summarize(result: ExperimentResult) -> list[SummaryRow]:
    """Mean and population standard deviation per (model, method, ratio),
    over successful rows; groups keep their order of first appearance."""
    groups: dict[tuple[str, str, float], list[ResultRow]] = {}
    for row in result.rows:
        groups.setdefault((row.model, row.method, row.ratio), []).append(row)
    out = []
    for (model, method, ratio), rows in groups.items():
        good = [r for r in rows if r.ok]
        if not good:
            continue
        aucs = np.array([r.auc for r in good], dtype=np.float64)
        f1s = np.array([r.best_f1 for r in good], dtype=np.float64)
        covs = np.array([r.coverage for r in good if r.coverage is not None],
                        dtype=np.float64)
        out.append(SummaryRow(
            model, method, ratio,
            float(aucs.mean()), float(aucs.std()),
            float(f1s.mean()), float(f1s.std()),
            float(covs.mean()) if covs.size else None,
            float(covs.std()) if covs.size else None,
        ))
    return out


def write_summary(result: ExperimentResult, path: str) -> None:
    """Write summarize's aggregates (header: SUMMARY_HEADER), atomically."""
    _write_table(path, SUMMARY_HEADER, summarize(result))
