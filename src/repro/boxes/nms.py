"""Non-maximum suppression variants.

CaTDet applies NMS at two points: inside each simulated detector's output
head, and after the refinement network where tracker- and proposal-sourced
duplicates of the same object must be collapsed (Figure 2d of the paper).

The greedy :func:`nms` is fully array-level: boxes are reindexed into
score order once, suppression is IoU-matrix row masking, and the only
Python loop visits the boxes that overlap a lower-ranked one (on
detector outputs, a handful per frame).  Outputs are exactly those of
the original per-box loop (see :mod:`repro.boxes.reference`),
including tie order.  :func:`class_aware_nms` makes the same single
pass over an IoU matrix masked to same-label pairs, rather than one
pass per class.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.boxes.iou import iou_matrix


def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float = 0.5) -> np.ndarray:
    """Greedy non-maximum suppression.

    Parameters
    ----------
    boxes : (N, 4) array
    scores : (N,) array
    iou_threshold:
        Boxes with IoU above this value against an already-kept higher-scoring
        box are suppressed.

    Returns
    -------
    Indices of kept boxes, sorted by descending score.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if boxes.shape[0] != scores.shape[0]:
        raise ValueError(
            f"boxes and scores must have equal length, got {boxes.shape[0]} and {scores.shape[0]}"
        )
    return _greedy(boxes, scores, None, iou_threshold)


def class_aware_nms(
    boxes: np.ndarray,
    scores: np.ndarray,
    labels: np.ndarray,
    iou_threshold: float = 0.5,
) -> np.ndarray:
    """NMS applied independently per class label.

    Returns kept indices into the original arrays (descending score within
    each class, classes interleaved by global score order).  One pass
    in stable global score order over same-label pairs keeps exactly
    what a per-class loop would: within a class the order is unchanged.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if not (boxes.shape[0] == scores.shape[0] == labels.shape[0]):
        raise ValueError("boxes, scores and labels must have equal length")
    if boxes.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return _greedy(boxes, scores, labels, iou_threshold)


def _greedy(
    boxes: np.ndarray, scores: np.ndarray, labels: Optional[np.ndarray], iou_threshold: float
) -> np.ndarray:
    """Greedy suppression in stable score order (within labels if given)."""
    if not (0.0 <= iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold must lie in [0, 1], got {iou_threshold}")
    n = boxes.shape[0]
    if n <= 1:
        return np.zeros(n, dtype=np.int64)

    order = np.argsort(-scores, kind="stable")
    ranked = boxes[order]
    # Threshold the whole matrix once.  Only a higher-ranked box can
    # suppress a lower one, so the strict upper triangle is all that counts.
    over = (iou_matrix(ranked, ranked) > iou_threshold) & (np.arange(n)[:, None] < np.arange(n))
    if labels is not None:
        ranked_labels = labels[order]
        over &= ranked_labels[:, None] == ranked_labels[None, :]
    suppressed = np.zeros(n, dtype=bool)
    # Visit, in rank order, only the rows that suppress anything: the rest
    # cannot change which boxes survive.
    for p in np.flatnonzero(over.any(axis=1)):
        if not suppressed[p]:
            suppressed |= over[p]
    return order[~suppressed]


def soft_nms(
    boxes: np.ndarray,
    scores: np.ndarray,
    iou_threshold: float = 0.5,
    sigma: float = 0.5,
    score_threshold: float = 1e-3,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian Soft-NMS (Bodla et al., 2017) — provided for ablations.

    Instead of removing overlapping boxes, their scores decay by
    ``exp(-iou^2 / sigma)``.  Returns ``(kept_indices, decayed_scores)``.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1).copy()
    if boxes.shape[0] != scores.shape[0]:
        raise ValueError("boxes and scores must have equal length")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    n = boxes.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)

    ious = iou_matrix(boxes, boxes)
    alive = np.ones(n, dtype=bool)
    keep = []
    kept_scores = []
    while alive.any():
        live_idx = np.flatnonzero(alive)
        best = live_idx[np.argmax(scores[live_idx])]
        if scores[best] < score_threshold:
            break
        keep.append(best)
        kept_scores.append(scores[best])
        alive[best] = False
        overlapping = ious[best] > iou_threshold
        decay = np.exp(-(ious[best] ** 2) / sigma)
        scores = np.where(alive & overlapping, scores * decay, scores)
    return np.asarray(keep, dtype=np.int64), np.asarray(kept_scores)
