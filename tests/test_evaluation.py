"""Accuracy scoring against hand-worked tables and permutation search."""

import itertools

import numpy as np
import pytest

from dsirc.core import LabelMap
from dsirc.evaluation import (
    _max_overlap_assignment,
    align_labels,
    cohens_kappa,
    confusion_counts,
    overall_accuracy,
)


def expand(table):
    """Build (pred, gt) arrays realizing a confusion table."""
    pred, gt = [], []
    for i, row in enumerate(table):
        for j, count in enumerate(row):
            pred.extend([i + 1] * count)
            gt.extend([j + 1] * count)
    return np.asarray(pred), np.asarray(gt)


def naive_kappa(pred, gt):
    mask = gt > 0
    p, g = pred[mask], gt[mask]
    n = p.size
    p_o = float(np.mean(p == g))
    p_e = 0.0
    for label in range(1, int(max(p.max(), g.max())) + 1):
        p_e += float(np.sum(p == label)) * float(np.sum(g == label)) / n**2
    if p_e >= 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


def test_confusion_counts_hand_table():
    pred, gt = expand([[40, 10], [20, 30]])
    np.testing.assert_array_equal(confusion_counts(pred, gt), [[40, 10], [20, 30]])


def test_classic_seventy_percent_table():
    pred, gt = expand([[40, 10], [20, 30]])
    assert overall_accuracy(pred, gt) == pytest.approx(0.7)
    assert cohens_kappa(pred, gt) == pytest.approx(0.4)


def test_confusion_ignores_unlabeled():
    pred = np.array([1, 1, 2, 0, 2])
    gt = np.array([1, 0, 2, 2, 0])
    np.testing.assert_array_equal(confusion_counts(pred, gt), [[1, 0], [0, 1]])


def test_alignment_matches_best_permutation():
    rng = np.random.default_rng(0)
    for trial in range(30):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(20, 60))
        gt = rng.integers(1, k + 1, size=n)
        shuffle = rng.permutation(k) + 1
        pred = shuffle[gt - 1]
        flips = rng.random(n) < 0.3
        pred[flips] = rng.integers(1, k + 1, size=int(flips.sum()))
        aligned = align_labels(pred, gt)
        got = overall_accuracy(aligned, gt)
        best = max(
            float(np.mean(np.asarray(perm)[pred - 1] == gt))
            for perm in itertools.permutations(range(1, k + 1))
        )
        assert got == pytest.approx(best)


def best_total(counts):
    """Largest total over every one-to-one matching of the shorter side."""
    n, m = counts.shape
    if n > m:
        return best_total(counts.T)
    perms = np.array(list(itertools.permutations(range(m), n)))
    return int(counts[np.arange(n), perms].sum(axis=1).max())


def test_assignment_matches_brute_force_on_tie_heavy_matrices():
    rng = np.random.default_rng(5)
    for trial in range(400):
        n, m = (int(v) for v in rng.integers(1, 8, size=2))
        # Few distinct values, so many optimal assignments tie.
        counts = rng.integers(0, int(rng.integers(1, 4)), size=(n, m)) * int(rng.integers(1, 50))
        rows, cols = _max_overlap_assignment(counts)
        assert rows.size == min(n, m)
        assert np.array_equal(rows, np.sort(rows)) and np.unique(rows).size == rows.size
        assert np.unique(cols).size == cols.size
        assert int(counts[rows, cols].sum()) == best_total(counts)
        again = _max_overlap_assignment(counts.copy())
        np.testing.assert_array_equal(again[0], rows)
        np.testing.assert_array_equal(again[1], cols)


def test_assignment_of_all_ties_is_the_identity():
    for n, m in [(1, 1), (3, 3), (3, 5), (5, 3), (7, 7)]:
        rows, cols = _max_overlap_assignment(np.full((n, m), 4))
        np.testing.assert_array_equal(rows, np.arange(min(n, m)))
        np.testing.assert_array_equal(cols, np.arange(min(n, m)))


def test_alignment_is_deterministic_under_ties():
    rng = np.random.default_rng(6)
    gt = rng.integers(1, 5, size=200)
    pred = rng.integers(1, 7, size=200)
    first = align_labels(pred, gt).labels
    for _ in range(3):
        np.testing.assert_array_equal(align_labels(pred, gt).labels, first)


def test_alignment_handles_extra_predicted_classes():
    pred = np.array([1, 1, 2, 3, 3])
    gt = np.array([1, 1, 2, 2, 2])
    aligned = align_labels(pred, gt)
    np.testing.assert_array_equal(aligned.labels, [1, 1, 2, 2, 2])
    assert overall_accuracy(aligned, gt) == 1.0


def test_alignment_keeps_unlabeled_predictions():
    pred = np.array([2, 0, 1, 0])
    gt = np.array([1, 1, 2, 2])
    aligned = align_labels(pred, gt)
    assert aligned.labels[1] == 0 and aligned.labels[3] == 0
    np.testing.assert_array_equal(aligned.labels, [1, 0, 2, 0])


def test_unlabeled_prediction_counts_as_error():
    pred = np.array([1, 0, 0, 1])
    gt = np.array([1, 1, 0, 1])
    assert overall_accuracy(pred, gt) == pytest.approx(2 / 3)


def test_kappa_matches_naive_formula():
    rng = np.random.default_rng(1)
    for trial in range(25):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(30, 120))
        gt = rng.integers(0, k + 1, size=n)
        if not (gt > 0).any():
            gt[0] = 1
        pred = rng.integers(1, k + 1, size=n)
        assert cohens_kappa(pred, gt) == pytest.approx(naive_kappa(pred, gt), abs=1e-12)


def test_kappa_degenerate_marginals():
    ones = np.ones(10, dtype=np.int64)
    assert cohens_kappa(ones, ones) == 1.0
    assert cohens_kappa(ones, ones * 2) == 0.0


def test_kappa_zero_for_chance_level_agreement():
    # 50/50 marginals with exactly chance-level agreement
    pred, gt = expand([[25, 25], [25, 25]])
    assert cohens_kappa(pred, gt) == pytest.approx(0.0)


def test_accepts_label_maps():
    pred, gt = expand([[3, 1], [1, 3]])
    assert overall_accuracy(LabelMap(pred), LabelMap(gt)) == pytest.approx(0.75)
    aligned = align_labels(LabelMap(pred), LabelMap(gt))
    assert isinstance(aligned, LabelMap)


def test_validation_errors():
    with pytest.raises(ValueError):
        overall_accuracy(np.array([1, 2]), np.array([1]))
    with pytest.raises(ValueError):
        overall_accuracy(np.array([1]), np.array([0]))
    with pytest.raises(ValueError):
        cohens_kappa(np.array([1]), np.array([0]))
    with pytest.raises(ValueError):
        confusion_counts(np.array([-1]), np.array([1]))
    with pytest.raises(ValueError):
        confusion_counts(np.array([[1]]), np.array([1]))
