"""Window-based reconstruction and prediction models for TSAD.

A reconstruction model maps a flattened window to itself through a
bottleneck; a prediction model maps the first w-h steps of a window to the
last h steps. Both expose per-sample training losses (the quantity the
loss-trace filter consumes) and per-timestep anomaly scores.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import (MultivariateSeries, Normalizer, WindowSet, replacing_file,
                   unique_keys)
from .errors import (ConfigError, NumericError, ParseError, ShapeError,
                     ToolkitError, TrainingError)

RECONSTRUCTION = "reconstruction"
PREDICTION = "prediction"
MODEL_KINDS = (RECONSTRUCTION, PREDICTION)

CHECKPOINT_FORMAT = "losstrace-checkpoint"
CHECKPOINT_VERSION = 1

# most windows per slice of a loss pass: bounds its memory, and is above every
# training-side pass (at most 29,993 windows in the benchmarks), since smaller
# slices can change the last bits of a loss; scoring a longer series, such as
# a 60,000-step test series (59,985 windows), runs in slices
LOSS_PASS_ROWS = 1 << 15

# architecture defaults of build_model, which SweepConfig and the train
# flags read
DEFAULT_HORIZON = 1
DEFAULT_HIDDEN_SIZES = (32,)


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 1e-3
    patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning rate must be finite and > 0, "
                              f"got {self.learning_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TsadModel:
    kind: str
    net: nn.DenseNet
    window: int
    channels: int
    horizon: int = 0  # prediction models only

    def __post_init__(self) -> None:
        n_in, n_out = _io_sizes(self.kind, self.window, self.channels, self.horizon)
        if (self.net.input_size, self.net.output_size) != (n_in, n_out):
            raise ConfigError(f"{self.kind} net must map {n_in} -> {n_out}, got "
                              f"{self.net.input_size} -> {self.net.output_size}")


def _io_sizes(kind: str, window: int, channels: int, horizon: int) -> tuple[int, int]:
    """The input and output widths of a kind's net: a reconstruction net
    maps the flattened window to itself, a prediction net its first w-h
    steps to its last h (the horizon counts for prediction only)."""
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    if window < 1 or channels < 1:
        raise ConfigError("window and channels must be positive")
    if kind == RECONSTRUCTION:
        return window * channels, window * channels
    if not 1 <= horizon < window:
        raise ConfigError(f"prediction horizon must satisfy 1 <= h < w, got "
                          f"h={horizon} w={window}")
    return (window - horizon) * channels, horizon * channels


def build_model(
    kind: str,
    window: int,
    channels: int,
    horizon: int = DEFAULT_HORIZON,
    hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN_SIZES,
    seed: int = 0,
) -> TsadModel:
    """Construct a fresh model of the given kind.

    Reconstruction models require a bottleneck: every hidden size must stay
    strictly below the flattened window size w*d.
    """
    n_in, n_out = _io_sizes(kind, window, channels, horizon)
    if not hidden_sizes:
        raise ConfigError("need at least one hidden layer size")
    if kind == RECONSTRUCTION and min(hidden_sizes) >= n_in:
        raise ConfigError(f"reconstruction bottleneck {min(hidden_sizes)} must be "
                          f"smaller than the flattened window size {n_in}")
    net = nn.init_network([n_in, *hidden_sizes, n_out], seed=seed)
    return TsadModel(kind, net, window, channels,
                     horizon if kind == PREDICTION else 0)


def _window_io(model: TsadModel, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a (n, w, d) window batch into flattened (inputs, targets)."""
    n = batch.shape[0]
    if model.kind == RECONSTRUCTION:
        flat = batch.reshape(n, -1)
        return flat, flat
    split = model.window - model.horizon
    return batch[:, :split, :].reshape(n, -1), batch[:, split:, :].reshape(n, -1)


def _check_batch(model: TsadModel, batch: np.ndarray) -> None:
    if batch.ndim != 3 or batch.shape[1:] != (model.window, model.channels):
        raise ShapeError(
            f"window batch shape {batch.shape} != "
            f"(n, {model.window}, {model.channels})"
        )


def sample_losses(model: TsadModel, windows: WindowSet | np.ndarray) -> np.ndarray:
    """Per-sample losses of every window, in equal slices of <= LOSS_PASS_ROWS.
    A loss that overflows is inf or nan, with no numpy warning."""
    batch = windows.data if isinstance(windows, WindowSet) else np.asarray(windows)
    _check_batch(model, batch)
    parts = np.array_split(batch, max(1, math.ceil(len(batch) / LOSS_PASS_ROWS)))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([_slice_losses(model, part) for part in parts])


def _slice_losses(model: TsadModel, part: np.ndarray) -> np.ndarray:
    """Per-sample losses of one slice; its activations are freed on return,
    so a pass holds one slice of them at a time."""
    x, y = _window_io(model, part)
    diff = nn.forward_batch(model.net, x)
    diff -= y
    return np.mean(np.square(diff, out=diff), axis=1)


def train_epoch(
    model: TsadModel,
    state: nn.OptimizerState,
    windows: WindowSet,
    config: TrainConfig,
    epoch: int,
    mask: np.ndarray | list[int] | None = None,
) -> None:
    """One shuffled pass of minibatch Adam steps over the masked windows.

    Only windows listed in mask participate (None means all). The shuffle is
    a function of (config.seed, epoch) and of the mask size only, so training
    with mask M is parameter-identical to training on a dataset physically
    reduced to M. The windows and the optimizer state are checked against the
    model once here, and the parameters once the unchecked steps are done:
    parameters no longer finite raise NumericError naming the epoch, from 1.
    """
    _check_batch(model, windows.data)
    nn._check_mirrors(model.net, state.grads)
    if mask is None:
        order = np.arange(len(windows), dtype=np.int64)
    else:
        order = np.sort(np.asarray(mask, dtype=np.int64))
        if order.size == 0:
            raise TrainingError("empty training mask")
        if order[0] < 0 or order[-1] >= len(windows):
            raise TrainingError(f"mask indices out of range 0..{len(windows) - 1}")
    rng = np.random.default_rng([config.seed, epoch])
    order = order[rng.permutation(order.size)]
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, order.size, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            x, y = _window_io(model, windows.data[batch_idx])
            nn.train_step(model.net, state, x, y)
    if not np.isfinite(model.net.flat).all():
        raise NumericError(f"training diverged in epoch {epoch + 1}: the "
                           f"parameters are no longer finite")


@dataclass
class FitResult:
    epochs_run: int
    best_epoch: int
    val_history: list[float]


def fit(
    model: TsadModel,
    windows: WindowSet,
    config: TrainConfig,
    val_windows: WindowSet,
    mask: np.ndarray | list[int] | None = None,
) -> FitResult:
    """Train for up to config.epochs with early stopping.

    Only the windows listed in mask train (None means all), as in
    train_epoch. Stops once the mean validation loss has not improved for
    config.patience consecutive epochs and restores the best parameters
    seen into model.net. A validation loss that overflows is inf, with no
    warning, and never the best.
    """
    best_val = np.inf
    best_epoch = -1
    best_params = np.empty_like(model.net.flat)
    history: list[float] = []
    state = nn.init_optimizer(model.net, config.learning_rate)
    for epoch in range(config.epochs):
        train_epoch(model, state, windows, config, epoch, mask)
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(np.mean(sample_losses(model, val_windows)))
        history.append(val)
        if val < best_val:
            best_val = val
            best_epoch = epoch
            np.copyto(best_params, model.net.flat)
        elif epoch - best_epoch >= config.patience:
            break
    if best_epoch >= 0:
        np.copyto(model.net.flat, best_params)
    return FitResult(len(history), best_epoch, history)


def anomaly_scores(model: TsadModel, series: MultivariateSeries) -> np.ndarray:
    """Per-timestep anomaly scores over a series.

    The model loss is computed for the window at every origin; a timestep's
    score is the maximum loss over all windows covering it. The windows are
    a read-only view of the series, so only one loss-pass slice of them is
    copied at a time. A loss that is not finite raises NumericError.
    """
    w = model.window
    if series.channels != model.channels:
        raise ShapeError(
            f"series has {series.channels} channels, model expects "
            f"{model.channels}"
        )
    if series.length < w:
        raise ShapeError(
            f"series length {series.length} shorter than window {w}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(
        series.values, w, axis=0).transpose(0, 2, 1)
    losses = sample_losses(model, windows)
    if not np.isfinite(losses).all():
        raise NumericError("anomaly scores are not finite: the model's "
                           "losses overflow")
    scores = np.full(series.length, -np.inf)
    # window j covers timesteps j + shift for shift in 0..w-1
    n = losses.shape[0]
    for shift in range(w):
        seg = scores[shift : shift + n]
        np.maximum(seg, losses, out=seg)
    return scores


def save_checkpoint(model: TsadModel, path: str,
                    normalizer: Normalizer | None = None,
                    channel_names: list[str] | None = None) -> None:
    """Serialize architecture + parameters (and optionally the fitted
    normalizer) for bit-exact reload, atomically."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "window": model.window,
        "channels": model.channels,
        "horizon": model.horizon,
        "seed": model.net.seed,
        "activations": [layer.activation for layer in model.net.layers],
        "channel_names": channel_names,
        "has_normalizer": normalizer is not None,
    }
    arrays: dict[str, np.ndarray] = {"meta": np.array(json.dumps(meta))}
    for i, layer in enumerate(model.net.layers):
        arrays[f"w{i}"] = layer.weights
        arrays[f"b{i}"] = layer.bias
    if normalizer is not None:
        arrays["norm_mean"] = normalizer.mean
        arrays["norm_std"] = normalizer.std
    with replacing_file(path, binary=True) as fh:
        np.savez(fh, **arrays)


def load_checkpoint(
    path: str,
) -> tuple[TsadModel, Normalizer | None, list[str] | None]:
    """Load a save_checkpoint file.

    A path that cannot be opened or read raises ConfigError; a file that is
    not a complete losstrace checkpoint raises ParseError or ConfigError.
    """
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ParseError(f"{path}: not a checkpoint archive")
        with archive:
            arrays = {name: archive[name] for name in archive.files}
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise ParseError(f"{path}: not a readable checkpoint archive (corrupt, "
                         f"truncated, or not an .npz file)") from None
    try:
        meta = json.loads(str(arrays["meta"]), object_pairs_hook=unique_keys)
        if not isinstance(meta, dict):
            raise ParseError("checkpoint metadata is not an object")
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ConfigError("not a losstrace checkpoint")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {meta.get('version')}")
        for key in ("window", "channels", "horizon", "seed"):
            if isinstance(meta[key], bool) or not isinstance(meta[key], int):
                raise ParseError(f"checkpoint metadata {key!r} must be an "
                                 f"integer, got {json.dumps(meta[key])}")
        layers = [
            nn.DenseLayer(arrays[f"w{i}"], arrays[f"b{i}"], act)
            for i, act in enumerate(meta["activations"])
        ]
        norm = None
        if meta["has_normalizer"]:
            norm = Normalizer(arrays["norm_mean"], arrays["norm_std"])
        net = nn.DenseNet(layers, seed=meta["seed"])
        model = TsadModel(
            meta["kind"], net, meta["window"], meta["channels"], meta["horizon"]
        )
        return model, norm, meta["channel_names"]
    except ToolkitError as exc:  # a check of the format, net or normalizer
        raise type(exc)(f"{path}: {exc}") from None
    except KeyError as exc:
        raise ParseError(f"{path}: incomplete checkpoint, no {exc} entry") from None
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{path}: malformed checkpoint: {exc}") from None
