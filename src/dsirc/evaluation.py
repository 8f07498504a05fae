"""Clustering evaluation against a partial ground truth.

Ground-truth label 0 marks unlabeled pixels and is excluded everywhere.
Predicted labels are aligned to ground-truth classes by a maximum-overlap
assignment (Hungarian algorithm) before accuracy and Cohen's kappa.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from .core import LabelMap

__all__ = [
    "confusion_counts",
    "align_labels",
    "overall_accuracy",
    "cohens_kappa",
]


def _label_array(labels) -> np.ndarray:
    return (labels if isinstance(labels, LabelMap) else LabelMap(labels)).labels


def confusion_counts(pred, gt) -> np.ndarray:
    """Contingency table over ground-truth-labeled pixels.

    Entry ``(i, j)`` counts pixels with predicted label ``i + 1`` and
    ground-truth label ``j + 1``; rows/columns cover 1..max label.  Pixels
    with ground truth 0 are ignored, as are (in the rows) pixels the
    prediction left unlabeled.
    """
    pred = _label_array(pred)
    gt = _label_array(gt)
    if pred.shape != gt.shape:
        raise ValueError("prediction and ground truth differ in length")
    n_pred = int(pred.max()) if pred.size else 0
    n_gt = int(gt.max()) if gt.size else 0
    counts = np.zeros((n_pred, n_gt), dtype=np.int64)
    mask = (gt > 0) & (pred > 0)
    np.add.at(counts, (pred[mask] - 1, gt[mask] - 1), 1)
    return counts


def align_labels(pred, gt) -> LabelMap:
    """Relabel a prediction to best match the ground-truth classes.

    The Hungarian algorithm maximizes total overlap between predicted and
    ground-truth classes; predicted classes left unmatched (when there are
    more of them than ground-truth classes) map to their own best-overlap
    class.  Unlabeled predictions stay 0.
    """
    pred = _label_array(pred)
    gt = _label_array(gt)
    counts = confusion_counts(pred, gt)
    n_pred, n_gt = counts.shape
    lut = np.zeros(n_pred + 1, dtype=np.int64)
    if n_pred and n_gt:
        rows, cols = scipy.optimize.linear_sum_assignment(-counts)
        lut[rows + 1] = cols + 1
        for r in range(n_pred):
            if lut[r + 1] == 0:
                lut[r + 1] = int(np.argmax(counts[r])) + 1
    elif n_pred:
        lut[1:] = np.arange(1, n_pred + 1)
    return LabelMap(lut[pred])


def overall_accuracy(pred, gt) -> float:
    """Fraction of ground-truth-labeled pixels predicted correctly."""
    pred = _label_array(pred)
    gt = _label_array(gt)
    if pred.shape != gt.shape:
        raise ValueError("prediction and ground truth differ in length")
    mask = gt > 0
    total = int(mask.sum())
    if total == 0:
        raise ValueError("ground truth labels no pixels")
    return float((pred[mask] == gt[mask]).sum() / total)


def cohens_kappa(pred, gt) -> float:
    """Chance-adjusted agreement on ground-truth-labeled pixels.

    ``kappa = (OA - p_e) / (1 - p_e)`` where ``p_e`` is the agreement
    expected from the two label marginals.  When ``p_e == 1`` (both sides
    constant and equal), kappa is 1 for perfect agreement and 0 otherwise.
    """
    oa = overall_accuracy(pred, gt)
    pred = _label_array(pred)
    gt = _label_array(gt)
    mask = gt > 0
    total = int(mask.sum())
    top = int(max(pred.max(), gt.max()))
    pred_marginal = np.bincount(pred[mask], minlength=top + 1)[1:]
    gt_marginal = np.bincount(gt[mask], minlength=top + 1)[1:]
    p_e = float(pred_marginal @ gt_marginal) / total**2
    if p_e >= 1.0:
        return 1.0 if oa == 1.0 else 0.0
    return (oa - p_e) / (1.0 - p_e)
