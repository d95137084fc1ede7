"""Detection and filtering metrics: AUC-ROC, best F1 over all thresholds,
and coverage of injected anomalies by a discard set.

The deliberately excluded point-adjusted F1 variant is a non-goal: it is
known to grossly overestimate detection performance.
"""

from __future__ import annotations

from typing import Collection

import numpy as np

from .errors import MetricError, ShapeError


def _check_scored(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ShapeError(
            f"scores {scores.shape} and labels {labels.shape} must be "
            "equal-length vectors"
        )
    if not np.isin(labels, (0, 1)).all():
        raise MetricError("labels must be 0 or 1")
    if np.isnan(scores).any():
        raise MetricError("scores must not be NaN")
    return scores, labels.astype(np.int8)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their ranks (the
    tie rule of scipy.stats.rankdata, computed the same way)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.append(True, ordered[1:] != ordered[:-1])
    dense = np.empty(values.size, dtype=np.intp)
    dense[order] = np.cumsum(starts)
    count = np.append(np.flatnonzero(starts), values.size)
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def auc_roc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random positive outranks a random negative, ties
    counting one half (the rank-statistic form of the ROC area)."""
    scores, labels = _check_scored(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC needs at least one positive and one negative label")
    ranks = _average_ranks(scores)  # exact half-integers
    pos_rank_sum = ranks[labels == 1].sum()
    u = pos_rank_sum - n_pos * (n_pos + 1) / 2
    return float(u / (n_pos * n_neg))


def best_f1(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Maximum F1 over all thresholds, with the smallest threshold achieving
    it.

    A point is predicted anomalous when score >= threshold; sweeping the
    unique observed scores covers every achievable prediction set (F1 is
    piecewise constant in between, and the empty prediction scores 0).
    """
    scores, labels = _check_scored(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise MetricError("best F1 needs at least one positive label")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    tp_cum = np.cumsum(labels[order])
    # last occurrence of each distinct score in the descending order = the
    # full prediction set {score >= threshold}
    last = np.flatnonzero(
        np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    )
    tp = tp_cum[last].astype(np.float64)
    predicted = (last + 1).astype(np.float64)
    fp = predicted - tp
    fn = n_pos - tp
    f1 = 2.0 * tp / (2.0 * tp + fp + fn)
    best = f1.max()
    # thresholds descend along `last`; the final index with the best F1 is
    # the smallest threshold achieving it
    idx = np.flatnonzero(f1 == best)[-1]
    return float(best), float(sorted_scores[last[idx]])


def coverage(injected: Collection[int], discarded: Collection[int]) -> float | None:
    """Fraction of injected window indices that the discard set caught.

    Returns None when nothing was injected (reported as NA downstream).
    """
    injected = set(injected)
    if not injected:
        return None
    return len(injected & set(discarded)) / len(injected)
