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


def _tie_groups(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """Equal scores as groups, in ascending score order: each group's
    representative index (its highest original index), size and count of
    positive labels. None depends on the order within a group, so the sort
    need not be stable."""
    order = np.argsort(scores)
    ordered = scores[order]
    first = np.flatnonzero(np.append(True, ordered[1:] != ordered[:-1]))
    pos = np.add.reduceat(labels[order], first, dtype=np.int64)
    return np.maximum.reduceat(order, first), np.diff(first, append=scores.size), pos


def auc_roc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random positive outranks a random negative, ties
    counting one half (the rank-statistic form of the ROC area)."""
    scores, labels = _check_scored(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC needs at least one positive and one negative label")
    _, size, pos = _tie_groups(scores, labels)
    neg = size - pos
    # twice the Mann-Whitney U: each positive beats the negatives below its
    # group and ties half of those in it; integers, so exact
    u2 = int(np.dot(pos, 2 * (np.cumsum(neg) - neg) + neg))
    return u2 / 2 / (n_pos * n_neg)


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
    rep, size, pos = _tie_groups(scores, labels)
    # suffix sums: the prediction set {score >= threshold} of each group
    tp = np.cumsum(pos[::-1])[::-1]
    predicted = np.cumsum(size[::-1])[::-1]
    f1 = 2.0 * tp / (predicted + n_pos)  # 2tp + fp + fn = predicted + n_pos
    idx = int(np.argmax(f1))  # the first best is the smallest threshold
    return float(f1[idx]), float(scores[rep[idx]])


def coverage(injected: Collection[int], discarded: Collection[int]) -> float | None:
    """Fraction of injected window indices that the discard set caught.

    Returns None when nothing was injected (reported as NA downstream).
    """
    injected = set(injected)
    if not injected:
        return None
    return len(injected & set(discarded)) / len(injected)
