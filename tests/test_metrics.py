"""AUC / best-F1 / coverage against exhaustive oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losstrace import metrics
from losstrace.errors import MetricError, ShapeError


def pairwise_auc(scores, labels):
    """All positive-negative pairs; ties count one half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def enumerate_best_f1(scores, labels):
    """Try every unique score as threshold (score >= threshold -> anomaly)."""
    n_pos = sum(labels)
    best, best_threshold = 0.0, None
    for threshold in sorted(set(scores)):
        tp = sum(1 for s, l in zip(scores, labels) if s >= threshold and l == 1)
        fp = sum(1 for s, l in zip(scores, labels) if s >= threshold and l == 0)
        fn = n_pos - tp
        f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        if best_threshold is None or f1 > best:
            best, best_threshold = f1, threshold
    return best, best_threshold


class TestAucRoc:
    def test_perfect_separation(self):
        assert metrics.auc_roc([0.9, 0.1], [1, 0]) == 1.0

    def test_inverted(self):
        assert metrics.auc_roc([0.1, 0.9], [1, 0]) == 0.0

    def test_all_ties_give_half(self):
        assert metrics.auc_roc([0.5] * 6, [1, 0, 1, 0, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            metrics.auc_roc([0.1, 0.2], [1, 1])
        with pytest.raises(MetricError):
            metrics.auc_roc([0.1, 0.2], [0, 0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.auc_roc([0.1], [1, 0])

    def test_exact_against_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 200:
            t = int(rng.integers(2, 13))
            labels = rng.integers(0, 2, size=t)
            if labels.sum() in (0, t):
                continue
            # coarse grid provokes plenty of ties
            scores = rng.integers(0, 5, size=t).astype(float)
            expected = pairwise_auc(scores.tolist(), labels.tolist())
            assert metrics.auc_roc(scores, labels) == expected
            checked += 1

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.integers(-50, 50, size=30).astype(float)
        labels = np.array([1, 0] * 15)
        base = metrics.auc_roc(scores, labels)
        assert metrics.auc_roc(2.0 * scores + 1.0, labels) == base
        assert metrics.auc_roc(scores**3, labels) == base

    def test_exact_against_vectorised_oracle_with_ties_and_infinities(self):
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 40, size=2000).astype(float)
        scores[rng.random(2000) < 0.03] = np.inf
        scores[rng.random(2000) < 0.03] = -np.inf
        labels = (rng.random(2000) < 0.2).astype(int)
        pos, neg = scores[labels == 1], scores[labels == 0]
        u = ((pos[:, None] > neg).sum() + 0.5 * (pos[:, None] == neg).sum())
        assert metrics.auc_roc(scores, labels) == u / (pos.size * neg.size)

    def test_infinite_scores_tie(self):
        assert metrics.auc_roc([np.inf, np.inf, -np.inf], [1, 0, 0]) == 0.75

    def test_nan_scores_rejected(self):
        with pytest.raises(MetricError, match="NaN"):
            metrics.auc_roc([0.1, np.nan, 0.3], [1, 0, 0])

    def test_negation_complements(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        assert metrics.auc_roc(-scores, labels) == pytest.approx(
            1.0 - metrics.auc_roc(scores, labels), abs=1e-15
        )


class TestBestF1:
    def test_perfect_separation(self):
        f1, threshold = metrics.best_f1([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        assert f1 == 1.0 and threshold == 0.8

    def test_all_positive_labels(self):
        f1, threshold = metrics.best_f1([0.3, 0.1, 0.7], [1, 1, 1])
        assert f1 == 1.0 and threshold == 0.1

    def test_worked_example(self):
        f1, threshold = metrics.best_f1(
            [0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]
        )
        assert f1 == pytest.approx(0.8)
        assert threshold == 0.35

    def test_no_positive_rejected(self):
        with pytest.raises(MetricError):
            metrics.best_f1([0.1, 0.2], [0, 0])

    def test_nan_scores_rejected(self):
        with pytest.raises(MetricError, match="NaN"):
            metrics.best_f1([0.1, np.nan, 0.3], [1, 0, 0])

    def test_exact_against_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            t = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, size=t)
            labels[int(rng.integers(t))] = 1
            scores = rng.integers(0, 10, size=t).astype(float)
            expected_f1, expected_threshold = enumerate_best_f1(
                scores.tolist(), labels.tolist()
            )
            f1, threshold = metrics.best_f1(scores, labels)
            assert f1 == expected_f1
            assert threshold == expected_threshold

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        caller_threshold=st.floats(min_value=-3, max_value=3,
                                   allow_nan=False),
    )
    def test_dominates_any_fixed_threshold(self, seed, caller_threshold):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=t)
        labels[0] = 1
        scores = rng.normal(size=t)
        best, _ = metrics.best_f1(scores, labels)
        tp = int(((scores >= caller_threshold) & (labels == 1)).sum())
        fp = int(((scores >= caller_threshold) & (labels == 0)).sum())
        fn = int(labels.sum()) - tp
        fixed = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        assert best >= fixed


class TestCoverage:
    def test_partial_overlap(self):
        assert metrics.coverage({1, 2, 3, 4}, {2, 3, 4, 5, 6}) == 0.75

    def test_superset_discard(self):
        assert metrics.coverage({3, 4}, set(range(10))) == 1.0

    def test_disjoint(self):
        assert metrics.coverage({1, 2}, {3, 4}) == 0.0

    def test_empty_injected_is_undefined(self):
        assert metrics.coverage(set(), {1, 2}) is None

    def test_monotone_in_discard(self):
        rng = np.random.default_rng(4)
        injected = set(rng.choice(100, size=20, replace=False).tolist())
        discarded: set[int] = set()
        last = 0.0
        for i in range(100):
            discarded.add(i)
            cov = metrics.coverage(injected, discarded)
            assert cov >= last
            last = cov
        assert last == 1.0
