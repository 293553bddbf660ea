"""The paper's mean Delay metric (§5).

Delay of one ground-truth object = number of frames from its first
(evaluated) appearance to the first frame a detection matches it.  Because
delay only penalizes false negatives, methods are compared at a fixed
precision: ``mD@beta`` selects the confidence threshold ``t_beta`` at which
the *mean precision over classes* equals ``beta`` (equation 5) and reports
the per-class average delay at that threshold (equation 4).

A class's tracks are one :class:`TrackDelays` table, a delay a segment
reduction over it; ``t_beta``'s candidates come from :func:`quantiles`,
``np.quantile`` over one sort.  :class:`TrackDelayRecord` is the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

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
        hits = np.flatnonzero(np.asarray(self.matched_scores) >= threshold)
        return int(hits[0]) if hits.size else len(self.matched_scores)

    def exit_delay_at(self, threshold: float) -> int:
        """Exit delay (paper §5): actual exit frame minus predicted exit.

        The system implicitly predicts an object's exit when it stops
        detecting it, so the exit delay is the number of trailing frames
        in which the object was still present but no longer detected.
        Objects never detected get the maximal value, their full length.
        """
        hits = np.flatnonzero(np.asarray(self.matched_scores) >= threshold)
        return int(len(self.matched_scores) - 1 - hits[-1]) if hits.size else len(self.matched_scores)

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True, eq=False)
class TrackDelays:
    """A class's track delay records as one table: track ``i`` is rows
    ``offsets[i]:offsets[i + 1]`` of ``frames`` and ``matched_scores``.
    Iterating yields read-only :class:`TrackDelayRecord` views (tuples)."""

    offsets: np.ndarray
    frames: np.ndarray
    matched_scores: np.ndarray
    ever_cared: np.ndarray

    def __post_init__(self) -> None:
        o, n = self.offsets, self.frames.size
        if (o.size != self.ever_cared.size + 1 or o[0] or o[-1] != n
                or self.matched_scores.size != n or (np.diff(o) < 0).any()):
            raise ValueError("inconsistent track delay columns")

    @classmethod
    def from_records(cls, records: Union["TrackDelays", Iterable[TrackDelayRecord]]) -> "TrackDelays":
        """The table of ``records`` (a table is returned as it is)."""
        if isinstance(records, cls):
            return records
        records = list(records)
        return cls(
            np.cumsum([0] + [len(r.frames) for r in records]),
            np.array([f for r in records for f in r.frames], dtype=np.int64),
            np.array([s for r in records for s in r.matched_scores], dtype=float),
            np.array([r.ever_cared for r in records], dtype=bool),
        )

    def __len__(self) -> int:
        return self.ever_cared.size

    def __iter__(self) -> Iterator[TrackDelayRecord]:
        bounds, frames, scores = (a.tolist() for a in (self.offsets, self.frames, self.matched_scores))
        for lo, hi, cared in zip(bounds, bounds[1:], self.ever_cared.tolist()):
            yield TrackDelayRecord(tuple(frames[lo:hi]), tuple(scores[lo:hi]), cared)

    def delays(self, thresholds: Union[float, np.ndarray], *, exit: bool = False) -> np.ndarray:
        """Int64 rows ``[threshold, track]`` of :meth:`TrackDelayRecord.delay_at`
        (``exit``: ``exit_delay_at``).  Row ``i``'s hits are the flat indices
        ``i * m + j`` of the frames scoring >= its threshold, and
        ``searchsorted`` of each track's start (end) finds its first (last)."""
        t = np.asarray(thresholds, dtype=float).reshape(-1, 1)
        m, hits = self.matched_scores.size, np.flatnonzero(self.matched_scores >= t)
        base = np.arange(t.shape[0])[:, None] * m
        starts, ends = base + self.offsets[:-1], base + self.offsets[1:]
        if exit:
            last = np.insert(hits, 0, -1)[np.searchsorted(hits, ends)]
            return ends - 1 - np.maximum(last, starts - 1)
        first = np.append(hits, t.shape[0] * m)[np.searchsorted(hits, starts)]
        return np.minimum(first, ends) - starts


@dataclass
class DelayEvaluation:
    """Per-class delay inputs: detection score/TP pools + the track table."""

    scores: np.ndarray
    tp: np.ndarray
    tracks: TrackDelays

    def __post_init__(self) -> None:
        self.tracks = TrackDelays.from_records(self.tracks)

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
        return float(np.mean(self.tracks.delays(threshold))) if self.tracks else float("nan")

    def mean_exit_delay(self, threshold: float) -> float:
        """Average exit delay over tracks (NaN with no tracks)."""
        return float(np.mean(self.tracks.delays(threshold, exit=True))) if self.tracks else float("nan")


def _at_least(
    scores: np.ndarray, tp: np.ndarray, thresholds: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(precision, TP count)`` of the detections scoring >= t, for each ``t``.

    One stable sort: suffix sums of ``tp`` in ascending score order, read
    at ``searchsorted``.  NaN scores never count as >= t; precision with
    no detections is 1.0, as in :meth:`DelayEvaluation.precision_at`.
    """
    order = np.argsort(scores, kind="stable")[: np.count_nonzero(~np.isnan(scores))]  # NaNs sort last
    ranked = scores[order]
    suffix_tp = np.append(np.cumsum(tp[order][::-1])[::-1], 0)
    first = np.searchsorted(ranked, thresholds, side="left")
    hits, total = suffix_tp[first], ranked.size - first
    return np.where(total == 0, 1.0, hits / np.maximum(total, 1)), hits


def quantiles(values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(values, q)`` for ``q`` in [0, 1], bit for bit: numpy's
    "linear" method (index ``(n - 1) * q``, its ``_lerp``) over one sort,
    with no partition per call.  A pool holding NaN goes to ``np.quantile``."""
    ranked = np.sort(values)
    if ranked.size == 0 or np.isnan(ranked[-1]):
        return np.quantile(values, q)
    virtual = (ranked.size - 1) * q
    lo = np.where(virtual >= ranked.size - 1, -1, np.floor(virtual)).astype(np.intp)
    hi = np.where(lo < 0, -1, lo + 1)
    gamma, a, b = virtual - lo, ranked[lo], ranked[hi]
    out = a + (b - a) * gamma
    np.subtract(b, (b - a) * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


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
    qs = quantiles(pooled, np.linspace(0.0, 1.0, num_candidates))
    candidates = np.unique(np.concatenate([[0.0], qs, [pooled.max() + 1e-9]]))
    precision = np.stack([_at_least(c.scores, c.tp, candidates)[0] for c in per_class], -1)
    errors = np.abs(precision.mean(axis=-1) - beta)
    # Only a strict new prefix minimum of the error can replace the best
    # (every earlier error is >= best_err - 1e-12).  While each such minimum
    # beats the one before it by more than 1e-12, each replaces the best in
    # turn, so the scan starts at the last one of that leading run.
    wins = errors < np.append(np.inf, np.fmin.accumulate(errors)[:-1])
    best, err = candidates[wins].tolist(), errors[wins]
    stalls = np.flatnonzero(err[1:] >= err[:-1] - 1e-12)
    k = int(stalls[0]) if stalls.size else len(best) - 1
    best_t, best_err = best[k], float(err[k])
    for t, e in zip(best[k + 1:], err[k + 1:].tolist()):
        if e < best_err - 1e-12:
            best_t, best_err = t, e
    return float(best_t)


def delay_at_threshold(per_class: Sequence[DelayEvaluation], threshold: float) -> float:
    """Mean over classes of per-class average delay (equation 4)."""
    values = [c.mean_delay(threshold) for c in per_class if c.tracks]
    return float(np.mean(values)) if values else float("nan")


def mean_delay_at_precision(
    per_class: Sequence[DelayEvaluation], beta: float = 0.8
) -> Tuple[float, float]:
    """``mD@beta``: returns ``(mean_delay, t_beta)``."""
    t_beta = threshold_for_precision(per_class, beta)
    return delay_at_threshold(per_class, t_beta), t_beta
