"""Dataset-level evaluation: pools per-frame matches into mAP and delay.

This is the top-level entry point the benchmarks use::

    result = evaluate_dataset(dataset, per_sequence_detections, HARD)
    result.mean_ap()            # mAP at this difficulty
    result.mean_delay(0.8)      # mD@0.8

``per_sequence_detections`` maps sequence name to a list with one
:class:`~repro.detections.Detections` per frame.  Each class's pooled
detection scores and TP flags feed AP; its ground truths' per-frame
matched scores are grouped by (sequence, track id), in order of first
appearance, into one :class:`~repro.metrics.delay.TrackDelays` table that
every delay metric reduces over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence as Seq, Tuple

import numpy as np

from repro.datasets.types import Dataset
from repro.detections import Detections
from repro.metrics.ap import average_precision
from repro.metrics.delay import (
    DelayEvaluation,
    TrackDelays,
    mean_delay_at_precision,
    threshold_for_precision,
)
from repro.metrics.kitti_eval import DifficultyFilter, care_mask
from repro.metrics.matching import FrameMatchResult, match_frame


@dataclass
class ClassEvaluation:
    """Pooled evaluation state for one class."""

    label: int
    name: str
    scores: np.ndarray
    tp: np.ndarray
    num_gt: int
    tracks: TrackDelays

    def __post_init__(self) -> None:
        self.tracks = TrackDelays.from_records(self.tracks)

    def ap(self, method: str = "r40") -> float:
        """Average precision of this class."""
        return average_precision(self.scores, self.tp, self.num_gt, method=method)

    def recall_at(self, threshold: float) -> float:
        """Recall at a score threshold."""
        if self.num_gt == 0:
            return 0.0
        keep = self.scores >= threshold
        return float(self.tp[keep].sum()) / self.num_gt

    def as_delay_eval(self) -> DelayEvaluation:
        return DelayEvaluation(scores=self.scores, tp=self.tp, tracks=self.tracks)


@dataclass
class EvaluationResult:
    """mAP + delay evaluation of one system on one dataset/difficulty."""

    difficulty: str
    per_class: List[ClassEvaluation]

    def class_eval(self, name: str) -> ClassEvaluation:
        for ce in self.per_class:
            if ce.name == name:
                return ce
        raise KeyError(f"no class named {name!r}")

    def mean_ap(self, method: str = "r40") -> float:
        """mAP: arithmetic mean of per-class APs."""
        if not self.per_class:
            return 0.0
        return float(np.mean([ce.ap(method) for ce in self.per_class]))

    def threshold_at_precision(self, beta: float) -> float:
        """The ``t_beta`` of equation (5)."""
        return threshold_for_precision([ce.as_delay_eval() for ce in self.per_class], beta)

    def mean_delay(self, beta: float = 0.8) -> float:
        """``mD@beta`` (equation 4)."""
        return mean_delay_at_precision([ce.as_delay_eval() for ce in self.per_class], beta)[0]

    def mean_exit_delay(self, beta: float = 0.8) -> float:
        """Mean exit delay at precision ``beta`` (paper §5 extension).

        Entry delay is the paper's focus; exit delay is defined there but
        not evaluated — provided here for delay-sensitive applications
        that also care how long a departed object lingers undetected-gone.
        """
        evals = [ce.as_delay_eval() for ce in self.per_class]
        t_beta = threshold_for_precision(evals, beta)
        values = [e.mean_exit_delay(t_beta) for e in evals if e.tracks]
        return float(np.mean(values)) if values else float("nan")

    def summary(self) -> Dict[str, float]:
        """Compact dict for table printing."""
        out: Dict[str, float] = {"mAP": self.mean_ap()}
        for ce in self.per_class:
            out[f"AP[{ce.name}]"] = ce.ap()
        try:
            out["mD@0.8"] = self.mean_delay(0.8)
        except ValueError:
            out["mD@0.8"] = float("nan")
        return out


def evaluate_dataset(
    dataset: Dataset,
    results: Mapping[str, Seq[Detections]],
    difficulty: DifficultyFilter,
    *,
    with_delay: bool = True,
) -> EvaluationResult:
    """Evaluate per-frame detections against a dataset at one difficulty.

    Parameters
    ----------
    dataset:
        Ground truth.  ``dataset.labeled_frames`` (when set) restricts
        evaluation to the labeled frames (CityPersons-style sparse labels).
    results:
        ``{sequence_name: [Detections, ...one per frame...]}``.
    difficulty:
        The difficulty filter gating which ground truths count.
    with_delay:
        Track per-object delay records (disable for sparse-label datasets
        where delay is meaningless).
    """
    class_scores: Dict[int, List[np.ndarray]] = {c.label: [] for c in dataset.classes}
    class_tp: Dict[int, List[np.ndarray]] = {c.label: [] for c in dataset.classes}
    class_num_gt: Dict[int, int] = {c.label: 0 for c in dataset.classes}
    class_rows: Dict[int, List[Tuple[int, int, FrameMatchResult]]] = {
        c.label: [] for c in dataset.classes
    }
    sequence_ids: Dict[str, int] = {}

    for sequence in dataset.sequences:
        if sequence.name not in results:
            raise KeyError(f"results missing sequence {sequence.name!r}")
        frame_dets = results[sequence.name]
        if len(frame_dets) != sequence.num_frames:
            raise ValueError(
                f"sequence {sequence.name!r}: expected {sequence.num_frames} "
                f"frames of detections, got {len(frame_dets)}"
            )
        eval_frames = dataset.evaluation_frames(sequence)
        sequence_id = sequence_ids.setdefault(sequence.name, len(sequence_ids))
        for frame in eval_frames:
            annotations = sequence.annotations(frame)
            care = care_mask(annotations, difficulty)
            for spec in dataset.classes:
                match = match_frame(
                    frame_dets[frame], annotations, spec.label, spec.min_iou, care
                )
                keep = ~match.det_ignored
                class_scores[spec.label].append(match.det_scores[keep])
                class_tp[spec.label].append(match.det_tp[keep])
                class_num_gt[spec.label] += match.num_gt
                if with_delay:
                    class_rows[spec.label].append((sequence_id, frame, match))

    per_class: List[ClassEvaluation] = []
    for spec in dataset.classes:
        scores = np.concatenate(class_scores[spec.label] or [np.zeros(0)])
        tp = np.concatenate(class_tp[spec.label] or [np.zeros(0, dtype=bool)])
        per_class.append(ClassEvaluation(
            spec.label, spec.name, scores, tp.astype(bool), class_num_gt[spec.label],
            _track_table(class_rows[spec.label]),
        ))
    return EvaluationResult(difficulty=difficulty.name, per_class=per_class)


def _track_table(rows: List[Tuple[int, int, FrameMatchResult]]) -> TrackDelays:
    """The ground truths of ``(sequence, frame, match)`` rows grouped into
    one track per (sequence, track id), in order of first appearance, each
    track's frames in row order.  Only tracks that ever met the difficulty
    bar enter the delay average; their clock still runs from first frame."""
    sizes = [m.gt_track_ids.size for _, _, m in rows]
    if not sum(sizes):
        return TrackDelays.from_records([])
    sequence, frame = (np.repeat([row[i] for row in rows], sizes) for i in (0, 1))
    track, score, care = (np.concatenate(c) for c in zip(
        *[(m.gt_track_ids, m.gt_matched_scores, m.gt_care) for _, _, m in rows]
    ))
    track = track - track.min()
    key = sequence * (track.max() + 1) + track  # one per (sequence, track id)
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))[group]  # each row's track, by first appearance
    cared = np.bincount(rank, weights=care, minlength=first.size) > 0
    order = np.argsort(rank, kind="stable")
    order = order[cared[rank[order]]]
    counts = np.bincount(rank, minlength=first.size)[cared]
    return TrackDelays(
        np.append(0, np.cumsum(counts)), frame[order], score[order], np.ones(counts.size, dtype=bool)
    )
