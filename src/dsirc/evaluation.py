"""Clustering evaluation against a partial ground truth.

Ground-truth label 0 marks unlabeled pixels and is excluded everywhere.
Predicted labels are aligned to ground-truth classes by a maximum-overlap
assignment (Kuhn–Munkres) before accuracy and Cohen's kappa.
"""

from __future__ import annotations

import numpy as np

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


def _max_overlap_assignment(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of an assignment of largest total ``counts``.

    Kuhn–Munkres by shortest augmenting paths with row and column
    potentials (the Jonker–Volgenant form), on the integer matrix, so every
    reduced cost is exact.  The shorter side is matched in full: its
    entries join in index order, each by a shortest augmenting path.

    Tie rule: among the unsettled entries of the longer side at the least
    reduced distance, the search settles the lowest index first, and the
    path to an entry is replaced only by a strictly shorter one.  So among
    equally good assignments the one returned depends on the input alone.
    """
    transposed = counts.shape[0] > counts.shape[1]
    cost = -(counts.T if transposed else counts)
    n, m = cost.shape
    # Index 0 of the columns is a virtual start column; owner[j] is the row
    # (1-based, 0 for none) matched to column j.
    row_potential = np.zeros(n + 1, dtype=np.int64)
    col_potential = np.zeros(m + 1, dtype=np.int64)
    owner = np.zeros(m + 1, dtype=np.intp)
    via = np.zeros(m + 1, dtype=np.intp)
    unreached = np.iinfo(np.int64).max
    for row in range(1, n + 1):
        owner[0] = row
        column = 0
        distance = np.full(m + 1, unreached, dtype=np.int64)
        settled = np.zeros(m + 1, dtype=bool)
        while owner[column]:
            settled[column] = True
            i = owner[column]
            reduced = cost[i - 1] - row_potential[i] - col_potential[1:]
            shorter = ~settled[1:] & (reduced < distance[1:])
            distance[1:][shorter] = reduced[shorter]
            via[1:][shorter] = column
            nearest = np.where(settled[1:], unreached, distance[1:])
            column = int(np.argmin(nearest)) + 1
            delta = nearest[column - 1]
            row_potential[owner[settled]] += delta
            col_potential[settled] -= delta
            distance[~settled] -= delta
        while column:
            previous = via[column]
            owner[column] = owner[previous]
            column = previous
    cols = np.flatnonzero(owner[1:])
    rows = owner[1:][cols] - 1
    if transposed:
        rows, cols = cols, rows
    order = np.argsort(rows)
    return rows[order], cols[order]


def align_labels(pred, gt) -> LabelMap:
    """Relabel a prediction to best match the ground-truth classes.

    A Kuhn–Munkres assignment (:func:`_max_overlap_assignment`) maximizes
    the total overlap between predicted and ground-truth classes, exactly,
    on the integer overlap counts; among equally good assignments its tie
    rule picks one by index order alone, so the result is deterministic.
    Predicted classes left unmatched (when there are more of them than
    ground-truth classes) map to their own best-overlap class, the lowest
    on ties.  Unlabeled predictions stay 0.
    """
    pred = _label_array(pred)
    gt = _label_array(gt)
    counts = confusion_counts(pred, gt)
    n_pred, n_gt = counts.shape
    lut = np.zeros(n_pred + 1, dtype=np.int64)
    if n_pred and n_gt:
        rows, cols = _max_overlap_assignment(counts)
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
