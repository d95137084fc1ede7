"""Sample filtering from trial-epoch loss traces, and robust training.

The idea: when a model is trained on contaminated data, losses on normal
samples tend to shrink steadily during the first few epochs, while losses on
anomalous samples stay large or oscillate. We therefore record every
sample's loss across N trial epochs, compute per-sample summary metrics

    m = mean of the N post-epoch losses,
    v = population standard deviation of the N epoch-to-epoch loss updates
        (the first update is measured against the initialization-time loss),

discard samples whose m or v strictly exceeds the corresponding 1-tau
quantile, and retrain from scratch on what remains: record_trial_traces,
select_discard and final_fit, which robust_train runs in turn.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .data import MIN_SPLIT_WINDOWS, WindowSet, replacing_file, split_train_val
from .errors import ConfigError, FilterError, NumericError
from .models import FitResult, TrainConfig, TsadModel, fit, sample_losses, train_epoch
from .nn import init_optimizer
from .seeding import derive_seed

VANILLA = "vanilla"
M_ONLY = "m_only"
V_ONLY = "v_only"
COMBINED = "combined"
FILTER_METHODS = (M_ONLY, V_ONLY, COMBINED)
METHODS = (VANILLA, *FILTER_METHODS)

ModelFactory = Callable[[int], TsadModel]


@dataclass
class LossTrace:
    """Per-sample loss history: column 0 is the loss at initialization,
    column i (1 <= i <= N) the loss at the end of trial epoch i."""

    losses: np.ndarray  # (n, N + 1)

    def __post_init__(self) -> None:
        self.losses = np.asarray(self.losses, dtype=np.float64)
        if self.losses.ndim != 2 or self.losses.shape[1] < 2:
            raise FilterError(
                f"trace must be (n, N + 1) with N >= 1, got {self.losses.shape}"
            )
        if not np.isfinite(self.losses).all() or (self.losses < 0).any():
            raise FilterError("trace losses must be finite and non-negative")


@dataclass
class FilterReport:
    """Everything the discard decision was based on, for audit."""

    method: str
    tau: float
    # the defaults are the report of a vanilla run, which filters nothing;
    # s_m (s_v) holds the sorted indices with m (v) strictly above its
    # threshold, discard the sorted indices the method drops
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    threshold_m: float | None = None
    threshold_v: float | None = None
    s_m: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    s_v: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    discard: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    def to_dict(self) -> dict:
        """The fields in declaration order, arrays as lists."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in values.items()}

    def write(self, path: str) -> None:
        """Write to_dict as indented JSON, atomically: the text of json.dump
        with indent=2, each field encoded by json.dumps without indent, which
        takes the C encoder that indent turns off."""
        items = []
        for key, value in self.to_dict().items():
            if isinstance(value, list) and value:
                body = json.dumps(value, separators=(",\n    ", ": "))[1:-1]
                text = f"[\n    {body}\n  ]"
            else:
                text = json.dumps(value)
            items.append(f"  {json.dumps(key)}: {text}")
        with replacing_file(path) as fh:
            fh.write("{\n" + ",\n".join(items) + "\n}")
            fh.write("\n")


@dataclass
class RobustTrainConfig:
    train: TrainConfig
    tau: float = 0.2
    trial_epochs: int = 10
    method: str = COMBINED

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise ConfigError(f"tau must be in (0, 1), got {self.tau}")
        if 1.0 - self.tau == 1.0:  # 1 - tau is select_discard's quantile level
            raise ConfigError(f"tau {self.tau} is too small: 1 - tau rounds to 1")
        if self.trial_epochs < 1:
            raise ConfigError(f"trial epochs must be >= 1, got {self.trial_epochs}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")


def record_trial_traces(
    model_factory: ModelFactory, windows: WindowSet, config: RobustTrainConfig,
) -> LossTrace:
    """Step 1: train a fresh model for config.trial_epochs epochs on all
    windows, with a seed derived from config.train.seed, and record every
    sample's loss at initialization and after each epoch. Each column is a
    full evaluation pass at one parameter state, not running minibatch
    losses. Method and tau play no part, so every method can share a trace.
    """
    if len(windows) == 0:
        raise ConfigError("cannot record traces on an empty window set")
    trial_cfg = replace(config.train,
                        seed=derive_seed(config.train.seed, "trial"))
    model = model_factory(trial_cfg.seed)
    state = init_optimizer(model.net, trial_cfg.learning_rate)
    losses = np.empty((len(windows), config.trial_epochs + 1))
    losses[:, 0] = sample_losses(model, windows)
    for epoch in range(config.trial_epochs):
        train_epoch(model, state, windows, trial_cfg, epoch)
        losses[:, epoch + 1] = sample_losses(model, windows)
    return LossTrace(losses)


def metric_m(trace: LossTrace) -> np.ndarray:
    """Mean trial-epoch loss per sample (the initialization column is
    excluded: the mean runs over epochs 1..N). A sum that overflows gives
    inf, which select_discard rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        return trace.losses[:, 1:].mean(axis=1)


def metric_v(trace: LossTrace) -> np.ndarray:
    """Population standard deviation of each sample's per-epoch loss updates.

    The N updates are consecutive differences of the trace, the first taken
    against the initialization-time loss. A square that overflows gives
    inf, which select_discard rejects.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.diff(trace.losses, axis=1).std(axis=1)


def quantile_threshold(values: np.ndarray, q: float) -> float:
    """Order statistic at 1-based rank ceil(q * n) of the sorted values."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise FilterError("quantile needs a non-empty vector")
    if not 0.0 < q < 1.0:
        raise FilterError(f"quantile level must be in (0, 1), got {q}")
    rank = math.ceil(q * values.size)
    return float(np.sort(values)[rank - 1])


def select_discard(
    m: np.ndarray, v: np.ndarray, tau: float, method: str = COMBINED
) -> FilterReport:
    """Step 2: pick the discard set from the two metrics.

    S_m holds samples with m strictly above the 1-tau quantile of m, S_v
    likewise for v. The discard set is S_m, S_v or their union, depending
    on the method. Ties at the threshold are retained. Vanilla filters
    nothing, so its report is FilterReport(VANILLA, tau) and it is not a
    method here. An m or v that is not finite raises FilterError.
    """
    m = np.asarray(m, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if m.shape != v.shape or m.ndim != 1 or m.size < 2:
        raise FilterError(f"m and v must be equal-length vectors with n >= 2, "
                          f"got {m.shape} and {v.shape}")
    if method not in FILTER_METHODS:
        raise ConfigError(f"method must be one of {FILTER_METHODS}, got {method!r}")
    if not (np.isfinite(m).all() and np.isfinite(v).all()):
        raise FilterError("m or v is not finite: the trial losses overflow")
    q_m = quantile_threshold(m, 1.0 - tau)
    q_v = quantile_threshold(v, 1.0 - tau)
    s_m = np.flatnonzero(m > q_m)
    s_v = np.flatnonzero(v > q_v)
    if method == M_ONLY:
        discard = s_m
    elif method == V_ONLY:
        discard = s_v
    else:
        discard = np.union1d(s_m, s_v)
    if discard.size == m.size:
        raise FilterError("discard rule would remove every sample")
    return FilterReport(
        method=method,
        tau=tau,
        m=m.copy(),
        v=v.copy(),
        threshold_m=q_m,
        threshold_v=q_v,
        s_m=s_m.astype(np.int64),
        s_v=s_v.astype(np.int64),
        discard=discard.astype(np.int64),
    )


def final_fit(
    model_factory: ModelFactory, windows: WindowSet, config: TrainConfig,
    rows: np.ndarray,
) -> tuple[TsadModel, FitResult]:
    """Step 3: train a fresh model on the given ascending rows of windows,
    with a 4:1 train/validation split of the rows and early stopping. The
    training rows train in place, through fit's mask; only the validation
    fifth is copied. A fit whose best mean validation loss is above the
    untrained model's raises NumericError; with no finite one, it is inf."""
    final_seed = derive_seed(config.seed, "final-model")
    split_seed = derive_seed(config.seed, "train-val-split")
    final_cfg = replace(config, seed=derive_seed(config.seed, "final-train"))
    model = model_factory(final_seed)
    train_rows, val_rows = split_train_val(rows, split_seed)
    val = windows.subset(val_rows)
    untrained = float(np.mean(sample_losses(model, val)))
    result = fit(model, windows, final_cfg, val, mask=train_rows)
    # fit restores its best epoch, if any loss was finite
    best = (result.val_history[result.best_epoch] if result.best_epoch >= 0
            else math.inf)
    if best > untrained:
        raise NumericError(f"training diverged: the best validation loss "
                           f"{best:.6g} is above the untrained model's "
                           f"{untrained:.6g}")
    return model, result


def robust_train(
    model_factory: ModelFactory,
    windows: WindowSet,
    config: RobustTrainConfig,
    trace: LossTrace | None = None,
) -> tuple[TsadModel, FilterReport]:
    """The three steps in one call: record_trial_traces, select_discard on
    its m and v, and final_fit on the retained windows. The vanilla method
    is final_fit on all windows.

    A given trace replaces step 1; it must be what record_trial_traces
    records for these windows and config (any method or tau). A trace whose
    shape does not fit the windows and trial epochs raises FilterError.
    """
    n = len(windows)
    expected = (n, config.trial_epochs + 1)
    if trace is not None and trace.losses.shape != expected:
        raise FilterError(f"trace must be {expected} for {n} windows and "
                          f"{config.trial_epochs} trial epochs, got "
                          f"{trace.losses.shape}")
    rows = np.arange(n, dtype=np.int64)
    if config.method == VANILLA:
        report = FilterReport(VANILLA, config.tau)
    else:
        if trace is None:
            trace = record_trial_traces(model_factory, windows, config)
        report = select_discard(metric_m(trace), metric_v(trace), config.tau,
                                config.method)
        rows = np.setdiff1d(rows, report.discard)
        if rows.size < MIN_SPLIT_WINDOWS:
            raise FilterError(
                f"discarding {report.discard.size} of {n} windows leaves "
                f"{rows.size}; the final fit needs at least {MIN_SPLIT_WINDOWS}")
    model, _ = final_fit(model_factory, windows, config.train, rows)
    return model, report
