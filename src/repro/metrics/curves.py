"""Recall/delay vs. precision curves (paper Figure 7).

For a grid of score thresholds, computes the operating point (precision,
recall, mean delay) of one class — showing the strong correlation between
recall and delay the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.metrics.delay import _at_least, quantiles
from repro.metrics.evaluate import ClassEvaluation


@dataclass(frozen=True)
class CurvePoint:
    """One operating point on the precision/recall/delay trade-off."""

    threshold: float
    precision: float
    recall: float
    mean_delay: float


def precision_recall_delay_curves(
    class_eval: ClassEvaluation,
    *,
    num_points: int = 64,
) -> List[CurvePoint]:
    """Sweep thresholds over one class's detections.

    Thresholds are score quantiles, so points spread evenly over the
    detection set; one :meth:`~repro.metrics.delay.TrackDelays.delays`
    call gives every threshold's mean delay.  Points are returned in
    increasing-threshold order (i.e. increasing precision, decreasing
    recall — left to right matches the paper's x-axis).
    """
    if num_points < 2:
        raise ValueError(f"num_points must be >= 2, got {num_points}")
    if class_eval.scores.size == 0:
        return []
    thresholds = np.unique(quantiles(class_eval.scores, np.linspace(0.0, 1.0, num_points)))
    precision, hits = _at_least(class_eval.scores, class_eval.tp, thresholds)
    recall = hits / class_eval.num_gt if class_eval.num_gt else np.zeros(hits.size)
    tracks = class_eval.tracks
    delay = tracks.delays(thresholds).mean(axis=1) if tracks else np.full(hits.size, np.nan)
    return [
        CurvePoint(*point)
        for point in zip(thresholds.tolist(), precision.tolist(), recall.tolist(), delay.tolist())
    ]
