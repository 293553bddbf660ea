"""The paper's mean Delay metric (§5).

Delay of one ground-truth object = number of frames from its first
(evaluated) appearance to the first frame a detection matches it.  Because
delay only penalizes false negatives, methods are compared at a fixed
precision: ``mD@beta`` selects the confidence threshold ``t_beta`` at which
the *mean precision over classes* equals ``beta`` (equation 5) and reports
the per-class average delay at that threshold (equation 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np


@dataclass
class TrackDelayRecord:
    """Matched-detection scores over one track's evaluated frames.

    ``frames`` are absolute frame indices where the track was annotated
    (delay runs from an object's *first appearance*, §5 — including early
    frames where it is still below the difficulty bar);
    ``matched_scores[i]`` is the confidence of the detection that claimed
    the track in ``frames[i]`` (``-inf`` when missed).  ``ever_cared``
    records whether the track met the difficulty bar in any frame — only
    such tracks enter the delay average.
    """

    frames: List[int] = field(default_factory=list)
    matched_scores: List[float] = field(default_factory=list)
    ever_cared: bool = False

    def append(self, frame: int, score: float, cared: bool = True) -> None:
        self.frames.append(frame)
        self.matched_scores.append(score)
        self.ever_cared = self.ever_cared or cared

    def delay_at(self, threshold: float) -> int:
        """Frames from first appearance to first detection at ``threshold``.

        An object never detected gets the maximal delay: its full evaluated
        length (it was missed for its entire lifetime).
        """
        scores = np.asarray(self.matched_scores)
        hits = np.flatnonzero(scores >= threshold)
        if hits.size == 0:
            return len(self.matched_scores)
        return int(hits[0])

    def exit_delay_at(self, threshold: float) -> int:
        """Exit delay (paper §5): actual exit frame minus predicted exit.

        The system implicitly predicts an object's exit when it stops
        detecting it, so the exit delay is the number of trailing frames
        in which the object was still present but no longer detected.
        Objects never detected get the maximal value, their full length.
        """
        scores = np.asarray(self.matched_scores)
        hits = np.flatnonzero(scores >= threshold)
        if hits.size == 0:
            return len(self.matched_scores)
        return int(len(self.matched_scores) - 1 - hits[-1])

    def __len__(self) -> int:
        return len(self.frames)


@dataclass
class DelayEvaluation:
    """Per-class delay inputs: detection score/TP pools + track records."""

    scores: np.ndarray
    tp: np.ndarray
    tracks: List[TrackDelayRecord]

    def precision_at(self, threshold: float) -> float:
        """Precision of this class's detections at ``threshold``.

        Returns 1.0 when no detections survive (vacuous precision — matches
        the convention that raising the threshold never *lowers* measured
        precision to 0 by emptiness).
        """
        keep = self.scores >= threshold
        total = int(keep.sum())
        if total == 0:
            return 1.0
        return float(self.tp[keep].sum()) / total

    def mean_delay(self, threshold: float) -> float:
        """Average delay over tracks at ``threshold`` (NaN with no tracks)."""
        if not self.tracks:
            return float("nan")
        return float(np.mean([t.delay_at(threshold) for t in self.tracks]))

    def mean_exit_delay(self, threshold: float) -> float:
        """Average exit delay over tracks (NaN with no tracks)."""
        if not self.tracks:
            return float("nan")
        return float(np.mean([t.exit_delay_at(threshold) for t in self.tracks]))


def _at_least(
    scores: np.ndarray, tp: np.ndarray, thresholds: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(precision, TP count)`` of the detections scoring >= t, for each ``t``.

    One stable sort: suffix sums of ``tp`` in ascending score order, read
    at ``searchsorted``.  NaN scores never count as >= t; precision with
    no detections is 1.0, as in :meth:`DelayEvaluation.precision_at`.
    """
    scored = ~np.isnan(scores)
    order = np.argsort(scores[scored], kind="stable")
    ranked = scores[scored][order]
    suffix_tp = np.append(np.cumsum(tp[scored][order][::-1])[::-1], 0)
    first = np.searchsorted(ranked, thresholds, side="left")
    hits, total = suffix_tp[first], ranked.size - first
    return np.where(total == 0, 1.0, hits / np.maximum(total, 1)), hits


def threshold_for_precision(
    per_class: Sequence[DelayEvaluation],
    beta: float,
    *,
    num_candidates: int = 512,
) -> float:
    """Find ``t_beta`` with mean precision over classes closest to ``beta``.

    Candidate thresholds are quantiles of the pooled score distribution
    (plus its extremes); the candidate whose mean precision is nearest to
    ``beta`` wins, with ties broken toward the *lower* threshold (more
    detections, less delay — the conservative choice for comparing methods).
    A later candidate replaces the best only if its error is smaller by
    more than 1e-12, so errors within 1e-12 count as tied.  NaN scores
    never count as >= t.
    """
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if not per_class:
        raise ValueError("per_class must be non-empty")
    pooled = np.concatenate([c.scores for c in per_class])
    if pooled.size == 0:
        return 0.0
    qs = np.quantile(pooled, np.linspace(0.0, 1.0, num_candidates))
    candidates = np.unique(np.concatenate([[0.0], qs, [pooled.max() + 1e-9]]))
    precision = np.stack([_at_least(c.scores, c.tp, candidates)[0] for c in per_class], -1)
    errors = np.abs(precision.mean(axis=-1) - beta)
    best_t = candidates[0]
    best_err = np.inf
    for t, err in zip(candidates.tolist(), errors.tolist()):
        if err < best_err - 1e-12:
            best_err = err
            best_t = t
    return float(best_t)


def delay_at_threshold(per_class: Sequence[DelayEvaluation], threshold: float) -> float:
    """Mean over classes of per-class average delay (equation 4)."""
    values = [c.mean_delay(threshold) for c in per_class if c.tracks]
    if not values:
        return float("nan")
    return float(np.mean(values))


def mean_delay_at_precision(
    per_class: Sequence[DelayEvaluation], beta: float = 0.8
) -> Tuple[float, float]:
    """``mD@beta``: returns ``(mean_delay, t_beta)``."""
    t_beta = threshold_for_precision(per_class, beta)
    return delay_at_threshold(per_class, t_beta), t_beta
