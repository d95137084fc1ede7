"""Sample filtering from trial-epoch loss traces, and robust training.

The idea: when a model is trained on contaminated data, losses on normal
samples tend to shrink steadily during the first few epochs, while losses on
anomalous samples stay large or oscillate. We therefore record every
sample's loss across N trial epochs, compute per-sample summary metrics

    m = mean of the N post-epoch losses,
    v = population standard deviation of the N epoch-to-epoch loss updates
        (the first update is measured against the initialization-time loss),

discard samples whose m or v strictly exceeds the corresponding 1-tau
quantile, and retrain from scratch on what remains.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .data import MIN_SPLIT_WINDOWS, WindowSet, replacing_file, split_train_val
from .errors import ConfigError, FilterError
from .models import TrainConfig, TsadModel, fit, sample_losses, train_epoch
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
    # the trial trace m and v came from; not part of the audit record
    trace: LossTrace | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "tau": self.tau,
            "m": None if self.m is None else self.m.tolist(),
            "v": None if self.v is None else self.v.tolist(),
            "threshold_m": self.threshold_m,
            "threshold_v": self.threshold_v,
            "s_m": self.s_m.tolist(),
            "s_v": self.s_v.tolist(),
            "discard": self.discard.tolist(),
        }

    def write(self, path: str) -> None:
        """Write to_dict as indented JSON, atomically."""
        with replacing_file(path) as fh:
            json.dump(self.to_dict(), fh, indent=2)
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
        if self.trial_epochs < 1:
            raise ConfigError(f"trial epochs must be >= 1, got {self.trial_epochs}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")


def record_trial_traces(
    model_factory: ModelFactory,
    windows: WindowSet,
    trial_epochs: int,
    config: TrainConfig,
) -> LossTrace:
    """Train a fresh model for N trial epochs on all windows, recording a
    dedicated full evaluation pass of every sample's loss at initialization
    and after each epoch.

    The per-epoch columns are measured at the epoch-end parameter state, not
    from running minibatch losses, so all samples in a column see the same
    parameters.
    """
    if trial_epochs < 1:
        raise ConfigError(f"trial epochs must be >= 1, got {trial_epochs}")
    if len(windows) == 0:
        raise ConfigError("cannot record traces on an empty window set")
    model = model_factory(config.seed)
    state = init_optimizer(model.net, config.learning_rate)
    losses = np.empty((len(windows), trial_epochs + 1))
    losses[:, 0] = sample_losses(model, windows)
    for epoch in range(trial_epochs):
        train_epoch(model, state, windows, config, epoch)
        losses[:, epoch + 1] = sample_losses(model, windows)
    return LossTrace(losses)


def metric_m(trace: LossTrace) -> np.ndarray:
    """Mean trial-epoch loss per sample (the initialization column is
    excluded: the mean runs over epochs 1..N)."""
    return trace.losses[:, 1:].mean(axis=1)


def metric_v(trace: LossTrace) -> np.ndarray:
    """Population standard deviation of each sample's per-epoch loss updates.

    The N updates are consecutive differences of the trace, the first taken
    against the initialization-time loss.
    """
    deltas = np.diff(trace.losses, axis=1)
    return deltas.std(axis=1)


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
    """Pick the discard set from the two metrics.

    S_m holds samples with m strictly above the 1-tau quantile of m, S_v
    likewise for v. The discard set is S_m, S_v or their union, depending
    on the method. Ties at the threshold are retained. Vanilla filters
    nothing, so its report is FilterReport(VANILLA, tau) and it is not a
    method here.
    """
    m = np.asarray(m, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if m.shape != v.shape or m.ndim != 1 or m.size < 2:
        raise FilterError(f"m and v must be equal-length vectors with n >= 2, "
                          f"got {m.shape} and {v.shape}")
    if method not in FILTER_METHODS:
        raise ConfigError(f"method must be one of {FILTER_METHODS}, got {method!r}")
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


def _train_final(
    model_factory: ModelFactory, windows: WindowSet, config: TrainConfig
) -> TsadModel:
    """The shared final training phase: fresh model, 4:1 train/val split,
    early-stopped fit on the training part."""
    final_seed = derive_seed(config.seed, "final-model")
    split_seed = derive_seed(config.seed, "train-val-split")
    final_cfg = replace(config, seed=derive_seed(config.seed, "final-train"))
    model = model_factory(final_seed)
    train_ws, val_ws = split_train_val(windows, split_seed)
    fit(model, train_ws, final_cfg, val_windows=val_ws)
    return model


def robust_train(
    model_factory: ModelFactory,
    windows: WindowSet,
    config: RobustTrainConfig,
    trace: LossTrace | None = None,
) -> tuple[TsadModel, FilterReport]:
    """Full robust-training pipeline.

    Non-vanilla methods run the trial phase on all windows, discard the
    selected samples, and then train a brand new model (fresh seed, fresh
    optimizer) on the retained windows with a 4:1 train/validation split and
    early stopping. The vanilla method is exactly that final phase applied
    to all windows.

    A given trace replaces the trial phase; it must be the one a trial phase
    would record here (report.trace of an earlier call with these windows
    and the same trial epochs and training seed). The trial phase does not
    depend on the method, so every method can reuse one trace. A trace whose
    shape does not fit the windows and trial epochs raises FilterError.
    """
    n = len(windows)
    expected = (n, config.trial_epochs + 1)
    if trace is not None and trace.losses.shape != expected:
        raise FilterError(f"trace must be {expected} for {n} windows and "
                          f"{config.trial_epochs} trial epochs, got "
                          f"{trace.losses.shape}")
    if config.method == VANILLA:
        model = _train_final(model_factory, windows, config.train)
        return model, FilterReport(VANILLA, config.tau)
    if trace is None:
        trial_cfg = replace(config.train,
                            seed=derive_seed(config.train.seed, "trial"))
        trace = record_trial_traces(model_factory, windows,
                                    config.trial_epochs, trial_cfg)
    report = select_discard(
        metric_m(trace), metric_v(trace), config.tau, config.method
    )
    report.trace = trace
    retained = np.setdiff1d(np.arange(n, dtype=np.int64), report.discard)
    if retained.size < MIN_SPLIT_WINDOWS:
        raise FilterError(
            f"discarding {report.discard.size} of {n} windows leaves "
            f"{retained.size}; the final fit needs at least {MIN_SPLIT_WINDOWS}"
        )
    model = _train_final(model_factory, windows.subset(retained), config.train)
    return model, report
