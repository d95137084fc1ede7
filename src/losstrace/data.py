"""Dataset ingestion, normalization, windowing, synthetic benchmarks and
window-level contamination injection.

All randomized operations take an explicit seed and are bit-reproducible.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError

LABEL_COLUMN = "label"


def _round_half_away(x: float) -> int:
    """round() with ties going away from zero (x must be non-negative)."""
    return int(math.floor(x + 0.5))


@dataclass
class MultivariateSeries:
    """A d-channel real-valued series with optional per-timestep 0/1 labels."""

    values: np.ndarray  # (T, d)
    labels: np.ndarray | None = None  # (T,) of {0, 1}
    channel_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ConfigError(f"series values must be 2-D, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ConfigError("series contains non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int8)
            if self.labels.shape != (self.values.shape[0],):
                raise ConfigError(
                    f"labels length {self.labels.shape} != series length "
                    f"{self.values.shape[0]}"
                )
            if not np.isin(self.labels, (0, 1)).all():
                raise ConfigError("labels must be 0 or 1")
        if not self.channel_names:
            self.channel_names = [f"c{i}" for i in range(self.values.shape[1])]
        elif len(self.channel_names) != self.values.shape[1]:
            raise ConfigError("one channel name per channel required")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


@dataclass
class WindowSet:
    """Fixed-length windows cut from a series.

    data is (n, w, d), possibly a read-only view of a series (make_windows);
    flags[i] is 1 iff any timestep covered by window i is labeled anomalous;
    origins are the starting timesteps, strictly increasing.
    """

    window: int
    data: np.ndarray  # (n, w, d)
    flags: np.ndarray  # (n,) of {0, 1}
    origins: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        self.flags = np.asarray(self.flags, dtype=np.int8)
        self.origins = np.asarray(self.origins, dtype=np.int64)
        n = self.data.shape[0]
        if self.data.ndim != 3 or self.data.shape[1] != self.window:
            raise ConfigError(f"window data must be (n, {self.window}, d)")
        if self.flags.shape != (n,) or self.origins.shape != (n,):
            raise ConfigError("flags and origins must have one entry per window")
        if n > 1 and not (np.diff(self.origins) > 0).all():
            raise ConfigError("window origins must be strictly increasing")

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def subset(self, indices: np.ndarray | list[int]) -> "WindowSet":
        """New WindowSet holding a contiguous copy of the given windows, in
        ascending index order."""
        idx = np.sort(np.asarray(indices, dtype=np.int64))
        return WindowSet(self.window, self.data[idx], self.flags[idx],
                         self.origins[idx])


def load_csv(path: str) -> MultivariateSeries:
    """Read a series from CSV: header of channel names, optional trailing
    'label' column of 0/1, one row per timestep. A leading UTF-8 byte-order
    mark is skipped.

    Parse failures name the offending data row (1-based) and column. A path
    that cannot be opened or read raises ConfigError.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            series = _parse_table(fh)
            if series is None:
                fh.seek(0)
                series = _parse_csv(fh, path)
            return series
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: not a readable CSV file: {exc}") from None


def _split_header(header: list[str]) -> tuple[list[str], bool]:
    """(channel names, whether a label column follows them)."""
    has_labels = bool(header) and header[-1] == LABEL_COLUMN
    return (header[:-1] if has_labels else header), has_labels


def _parse_table(fh) -> MultivariateSeries | None:
    """The series parsed by one np.loadtxt call over the body, or None where
    that result could differ from _parse_csv's; _parse_csv then reads the
    file again and gives the result or the error.

    loadtxt skips blank lines and reads nan, inf and 1e400, all of which
    _parse_csv rejects; it rejects 1_5, which _parse_csv reads. It reads
    quoted cells as the csv module does, but a quoted line break makes one
    row of two lines. Its result is kept only when there is one row per
    line, every value is finite and every label is 0 or 1; where both
    parsers accept a cell they give the same float64.
    """
    lines = 0

    def body():
        nonlocal lines
        for line in fh:
            lines += 1
            yield line

    try:
        names, has_labels = _split_header(next(csv.reader(fh), []))
        if not names:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on an empty body
            table = np.loadtxt(body(), delimiter=",", comments=None, ndmin=2,
                               dtype=np.float64, quotechar='"')
    except (ValueError, Warning, csv.Error):  # UnicodeDecodeError included
        return None
    if table.shape != (lines, len(names) + has_labels):
        return None
    if not np.isfinite(table).all():
        return None
    if has_labels and not ((table[:, -1] == 0.0) | (table[:, -1] == 1.0)).all():
        return None
    return _series(table, names, has_labels)


def _parse_csv(fh, path: str) -> MultivariateSeries:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    names, has_labels = _split_header(header)
    if not names:
        raise ParseError(f"{path}: no data columns in header")
    width, d = len(header), len(names)
    rows: list[list[float]] = []

    def error(rownum: int, col: int, problem: str) -> ParseError:
        return ParseError(f"{path}: row {rownum}, column {header[col]!r}: "
                          f"{problem}")

    for rownum, row in enumerate(reader, start=1):
        if len(row) != width:
            raise ParseError(
                f"{path}: ragged row {rownum}: expected {width} cells, "
                f"got {len(row)}"
            )
        parsed = []
        # the first d cells are channels, a cell after them the label
        for col, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise error(rownum, col,
                            f"cannot parse {cell!r} as a number") from None
            if col < d and not math.isfinite(value):
                raise error(rownum, col, "non-finite value")
            if col == d and value not in (0.0, 1.0):
                raise error(rownum, col, f"expected 0 or 1, got {cell!r}")
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return _series(np.array(rows, dtype=np.float64), names, has_labels)


def _series(table: np.ndarray, names: list[str],
            has_labels: bool) -> MultivariateSeries:
    """The series of a parsed (rows, cells) table: the channel cells as a
    C-contiguous copy, so normalizer statistics sum them in the same order
    whichever parser read them, and the label cells, each 0 or 1, as int8."""
    labels = table[:, -1].astype(np.int8) if has_labels else None
    return MultivariateSeries(np.ascontiguousarray(table[:, : len(names)]),
                              labels, list(names))


@contextlib.contextmanager
def replacing_file(path: str, binary: bool = False):
    """An open temp file beside path (UTF-8 text unless binary) that
    replaces path only once the block completes; on any error, Ctrl-C
    included, path is untouched and the temp file removed. A temp file
    that cannot be created raises an OSError naming path."""
    tmp = f"{path}.tmp"
    try:
        fh = (open(tmp, "wb") if binary
              else open(tmp, "w", newline="", encoding="utf-8"))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object_pairs_hook: a key repeated in one object raises ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears more than once")
        obj[key] = value
    return obj


def write_csv(series: MultivariateSeries, path: str) -> None:
    """Write a series in the format load_csv reads, atomically: the repr of
    every value (lossless), then the 0/1 label when there are labels."""
    header = list(series.channel_names)
    row = ",".join(["%r"] * series.channels)
    table = series.values
    if series.labels is not None:
        header.append(LABEL_COLUMN)
        row += ",%d"
        table = np.column_stack([table, series.labels])
    with replacing_file(path) as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        # one %-format over the whole table; %r is repr, so each value is
        # written as repr(float(x))
        fh.write((f"{row}\n" * len(table)) % tuple(table.ravel().tolist()))


@dataclass
class Normalizer:
    """Per-channel standardization fitted on training data."""

    mean: np.ndarray  # (d,)
    std: np.ndarray  # (d,), floored at STD_FLOOR

    STD_FLOOR = 1e-8

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.ndim != 1 or self.std.shape != self.mean.shape:
            raise ConfigError(f"normalizer mean and std must be equal-length "
                              f"vectors, got {self.mean.shape} and {self.std.shape}")
        if not (np.isfinite([self.mean, self.std]).all()
                and (self.std >= self.STD_FLOOR).all()):
            raise ConfigError(f"normalizer values must be finite and every "
                              f"std >= {self.STD_FLOOR:g}")


def fit_normalizer(train: MultivariateSeries) -> Normalizer:
    """Per-channel population mean/std; constant channels get a floored std.
    Statistics that overflow are inf or nan, with no warning, which
    Normalizer rejects."""
    if train.length < 2:
        raise ConfigError("need at least 2 timesteps to fit a normalizer")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.values.mean(axis=0)
        std = train.values.std(axis=0)
    return Normalizer(mean, np.maximum(std, Normalizer.STD_FLOOR))


def apply_normalizer(norm: Normalizer, series: MultivariateSeries) -> MultivariateSeries:
    """The series standardized by norm; a value that overflows is inf, with
    no warning, which MultivariateSeries rejects."""
    if series.channels != norm.mean.shape[0]:
        raise ConfigError(
            f"normalizer has {norm.mean.shape[0]} channels, series has "
            f"{series.channels}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        values = (series.values - norm.mean) / norm.std
    labels = None if series.labels is None else series.labels.copy()
    return MultivariateSeries(values, labels, list(series.channel_names))


def make_windows(series: MultivariateSeries, window: int, stride: int = 1) -> WindowSet:
    """Cut windows at origins 0, stride, 2*stride, ... while they fit.

    The windows are a read-only view of series.values: no timestep is
    copied, however much the windows overlap. A window is flagged anomalous
    iff it overlaps any labeled timestep.
    """
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if window < 1:
        raise ConfigError(f"window length must be >= 1, got {window}")
    if window > series.length:
        raise ConfigError(
            f"window length {window} exceeds series length {series.length}: "
            "no windows can be cut"
        )
    origins = np.arange(0, series.length - window + 1, stride, dtype=np.int64)
    swv = np.lib.stride_tricks.sliding_window_view(series.values, window, axis=0)
    data = swv[::stride].transpose(0, 2, 1)
    if series.labels is not None:
        lab_win = np.lib.stride_tricks.sliding_window_view(series.labels, window)
        flags = (lab_win[origins].max(axis=1) > 0).astype(np.int8)
    else:
        flags = np.zeros(len(origins), dtype=np.int8)
    return WindowSet(window, data, flags, origins)


# each anomaly type with its segment length range [low, high)
SEGMENT_LENGTHS = {"spike": (4, 26), "level_shift": (20, 61),
                   "frequency_change": (30, 81)}
ANOMALY_TYPES = tuple(SEGMENT_LENGTHS)


@dataclass
class SyntheticConfig:
    """Configuration for the bundled seasonal benchmark generator."""

    channels: int = 4
    length: int = 20000
    periods: tuple[int, ...] = (50, 125)
    noise_sigma: float = 0.3
    anomaly_types: tuple[str, ...] = ANOMALY_TYPES
    anomaly_rate: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ConfigError(f"need at least 1 channel, got {self.channels}")
        if not self.periods or any(p < 2 for p in self.periods):
            raise ConfigError(f"periods must all be >= 2, got {self.periods}")
        if self.length < 10 * max(self.periods):
            raise ConfigError(
                f"length {self.length} must be at least 10x the longest "
                f"period {max(self.periods)}"
            )
        if not 0 <= self.noise_sigma < math.inf:
            raise ConfigError(f"noise sigma must be finite and >= 0, "
                              f"got {self.noise_sigma}")
        unknown = set(self.anomaly_types) - set(ANOMALY_TYPES)
        if unknown or not self.anomaly_types:
            raise ConfigError(f"anomaly types must be a non-empty subset of "
                              f"{ANOMALY_TYPES}, got {self.anomaly_types}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.anomaly_rate <= 0.3:
            raise ConfigError(
                f"anomaly rate must be in [0, 0.3], got {self.anomaly_rate}"
            )


def _seasonal_base(
    cfg: SyntheticConfig, amps: np.ndarray, phases: np.ndarray, t: np.ndarray,
    period_scale: float = 1.0,
) -> np.ndarray:
    """Sum-of-sinusoids base signal, shape (len(t), channels)."""
    out = np.zeros((t.shape[0], cfg.channels))
    for k, period in enumerate(cfg.periods):
        angle = 2.0 * np.pi * t[:, None] / (period * period_scale) + phases[k]
        out += amps[k] * np.sin(angle)
    return out


@np.errstate(over="ignore", invalid="ignore")
def generate_synthetic(
    cfg: SyntheticConfig,
) -> tuple[MultivariateSeries, MultivariateSeries]:
    """Generate (train, test) series with shared seasonal dynamics.

    The train split is anomaly-free (labels all zero). The test split gets
    labeled anomaly segments of the configured types: additive spikes of at
    least 5x the noise sigma, level shifts, and local frequency changes.
    Deterministic per seed. A noise sigma so large that values overflow
    gives no warning; MultivariateSeries rejects the values.
    """
    rng = np.random.default_rng(cfg.seed)
    amps = rng.uniform(0.5, 1.0, size=(len(cfg.periods), cfg.channels))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(len(cfg.periods), cfg.channels))

    t_train = np.arange(cfg.length, dtype=np.float64)
    t_test = np.arange(cfg.length, 2 * cfg.length, dtype=np.float64)
    train_vals = _seasonal_base(cfg, amps, phases, t_train) + rng.normal(
        0.0, cfg.noise_sigma, size=(cfg.length, cfg.channels)
    )
    test_vals = _seasonal_base(cfg, amps, phases, t_test) + rng.normal(
        0.0, cfg.noise_sigma, size=(cfg.length, cfg.channels)
    )
    labels = np.zeros(cfg.length, dtype=np.int8)

    sigma = cfg.noise_sigma if cfg.noise_sigma > 0 else 1.0
    target = _round_half_away(cfg.anomaly_rate * cfg.length)
    attempts = 0
    while labels.sum() < target:
        attempts += 1
        if attempts > 1000 * max(1, target):
            raise ConfigError("could not place anomaly segments; rate too high "
                              "for the series length")
        kind = cfg.anomaly_types[rng.integers(len(cfg.anomaly_types))]
        seg_len = int(rng.integers(*SEGMENT_LENGTHS[kind]))
        if seg_len >= cfg.length:  # no start fits: a failed attempt
            continue
        start = int(rng.integers(0, cfg.length - seg_len))
        if labels[start : start + seg_len].any():
            continue
        seg = slice(start, start + seg_len)
        if kind == "spike":
            sign = 1.0 if rng.random() < 0.5 else -1.0
            amp = rng.uniform(5.0, 8.0, size=(seg_len, cfg.channels))
            test_vals[seg] += sign * amp * sigma
        elif kind == "level_shift":
            sign = 1.0 if rng.random() < 0.5 else -1.0
            shift = rng.uniform(3.0, 6.0) * sigma
            test_vals[seg] += sign * shift
        else:  # frequency_change: double the local oscillation frequency
            test_vals[seg] = _seasonal_base(
                cfg, amps, phases, t_test[seg], period_scale=0.5
            ) + rng.normal(0.0, cfg.noise_sigma, size=(seg_len, cfg.channels))
        labels[seg] = 1

    train = MultivariateSeries(train_vals, np.zeros(cfg.length, dtype=np.int8))
    return train, MultivariateSeries(test_vals, labels)


@dataclass
class ContaminationSpec:
    """Window-level contamination: replace a fraction of training windows
    with anomalous windows drawn from a pool."""

    ratio: float
    seed: int
    pool: WindowSet | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.ratio <= 0.2:
            raise ConfigError(f"contamination ratio must be in [0, 0.2], "
                              f"got {self.ratio}")
        if self.ratio > 0:
            if self.pool is None or len(self.pool) == 0:
                raise ConfigError("non-zero contamination needs a non-empty "
                                  "anomaly pool")
            if not (self.pool.flags == 1).all():
                raise ConfigError("anomaly pool must contain only windows "
                                  "flagged anomalous")


def inject_contamination(
    train_windows: WindowSet, spec: ContaminationSpec
) -> tuple[WindowSet, set[int]]:
    """Replace round(ratio * n) uniformly chosen training windows with pool
    windows; returns the contaminated set and the injected indices.

    The total window count is unchanged; non-injected windows are bitwise
    identical to the input. Pool windows are drawn without replacement when
    the pool is large enough, with replacement otherwise.
    """
    if (train_windows.flags != 0).any():
        raise ConfigError("training windows must all be flagged normal "
                          "before injection")
    n = len(train_windows)
    count = _round_half_away(spec.ratio * n)
    data = train_windows.data.copy()
    flags = train_windows.flags.copy()
    origins = train_windows.origins.copy()
    if count == 0:
        return WindowSet(train_windows.window, data, flags, origins), set()
    assert spec.pool is not None
    if spec.pool.window != train_windows.window or (
        spec.pool.channels != train_windows.channels
    ):
        raise ConfigError("pool window shape does not match training windows")
    rng = np.random.default_rng(spec.seed)
    positions = rng.choice(n, size=count, replace=False)
    replace = len(spec.pool) < count
    picks = rng.choice(len(spec.pool), size=count, replace=replace)
    data[positions] = spec.pool.data[picks]
    flags[positions] = 1
    return (
        WindowSet(train_windows.window, data, flags, origins),
        {int(p) for p in positions},
    )


# split_train_val's minimum: one validation window in five
MIN_SPLIT_WINDOWS = 5


def split_train_val(
    rows: np.ndarray | list[int], seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random 4:1 partition of ascending window indices into
    (train rows, val rows), each ascending; |val| = round(n/5)."""
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.size
    if n < MIN_SPLIT_WINDOWS:
        raise ConfigError(f"need at least {MIN_SPLIT_WINDOWS} windows to split "
                          f"4:1, got {n}")
    n_val = round(n / 5)
    rng = np.random.default_rng(seed)
    val_pos = np.sort(rng.choice(n, size=n_val, replace=False))
    return np.delete(rows, val_pos), rows[val_pos]


def training_windows(
    series: MultivariateSeries, window: int, stride: int, source: str
) -> tuple[Normalizer, WindowSet]:
    """The normalizer fitted on a training series and the windows of the
    normalized series; fewer than MIN_SPLIT_WINDOWS windows raise a
    ConfigError that begins with source and names the timesteps needed."""
    norm = fit_normalizer(series)
    windows = make_windows(apply_normalizer(norm, series), window, stride)
    if len(windows) < MIN_SPLIT_WINDOWS:
        need = window + (MIN_SPLIT_WINDOWS - 1) * stride
        raise ConfigError(
            f"{source}: {series.length} timesteps give {len(windows)} "
            f"window(s) of length {window} at stride {stride}; "
            f"training needs at least {MIN_SPLIT_WINDOWS} windows, that is "
            f"at least {need} timesteps"
        )
    return norm, windows
