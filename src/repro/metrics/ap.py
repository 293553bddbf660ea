"""Average Precision computation (Pascal VOC style).

Supports the classic 11-point interpolation the paper's era used ("11 recall
values ranging from 0 to 1.0 are averaged", §5) as well as the continuous
(every-point) integral.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


#: Recall levels: VOC's 11 points, or KITTI's 40 excluding 0.
_RECALL_LEVELS = {"voc11": np.linspace(0.0, 1.0, 11), "r40": np.linspace(0.025, 1.0, 40)}


def _pr_points(
    scores: np.ndarray, tp: np.ndarray, num_gt: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Cumulative precision/recall arrays ordered by descending score."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    tp = np.asarray(tp, dtype=bool).reshape(-1)
    if scores.shape[0] != tp.shape[0]:
        raise ValueError("scores and tp must have equal length")
    order = np.argsort(-scores, kind="stable")
    tp_sorted = tp[order]
    cum_tp = np.cumsum(tp_sorted)
    cum_fp = np.cumsum(~tp_sorted)
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1)
    recall = cum_tp / max(num_gt, 1)
    return precision, recall


def average_precision(
    scores: np.ndarray,
    tp: np.ndarray,
    num_gt: int,
    *,
    method: str = "r40",
) -> float:
    """AP from pooled detection scores and TP flags.

    Parameters
    ----------
    scores : (D,) array
        Confidence of every non-ignored detection of this class.
    tp : (D,) bool array
        Whether each detection matched a cared ground truth.
    num_gt:
        Number of cared ground-truth instances.
    method:
        ``"voc11"`` (11-point interpolation, the Pascal VOC convention the
        paper cites), ``"r40"`` (40 recall points excluding 0, the official
        KITTI interpolation — finer-grained, the library default), or
        ``"continuous"`` (area under the interpolated PR curve).
    """
    if num_gt < 0:
        raise ValueError(f"num_gt must be >= 0, got {num_gt}")
    if num_gt == 0:
        return 0.0
    if np.asarray(scores).size == 0:
        return 0.0

    precision, recall = _pr_points(scores, tp, num_gt)
    levels = _RECALL_LEVELS.get(method)
    if levels is not None:
        # recall is non-decreasing, so max(precision[recall >= r]) is a
        # suffix max: the reverse running max read at the first such index.
        envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
        ap = 0.0
        for p in envelope[np.searchsorted(recall, levels, side="left")].tolist():
            ap += p / levels.size
        return min(ap, 1.0)  # guard against float accumulation past 1.0
    if method == "continuous":
        # Monotone non-increasing interpolated precision envelope.
        mrec = np.concatenate([[0.0], recall, [1.0]])
        mpre = np.concatenate([[0.0], precision, [0.0]])
        for i in range(mpre.shape[0] - 2, -1, -1):
            mpre[i] = max(mpre[i], mpre[i + 1])
        changes = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
        return float(np.sum((mrec[changes] - mrec[changes - 1]) * mpre[changes]))
    raise ValueError(
        f"unknown AP method {method!r}; use 'voc11', 'r40' or 'continuous'"
    )


def interpolated_precision_at(
    scores: np.ndarray, tp: np.ndarray, num_gt: int, recall_level: float
) -> float:
    """Max precision at recall >= ``recall_level`` (VOC interpolation)."""
    if not (0.0 <= recall_level <= 1.0):
        raise ValueError(f"recall_level must lie in [0, 1], got {recall_level}")
    if num_gt <= 0 or np.asarray(scores).size == 0:
        return 0.0
    precision, recall = _pr_points(scores, tp, num_gt)
    mask = recall >= recall_level
    return float(precision[mask].max()) if mask.any() else 0.0
