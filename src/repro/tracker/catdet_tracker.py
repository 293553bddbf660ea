"""The CaTDet tracker (paper §4.1).

Unlike a conventional tracker, the output is the *predicted next-frame
locations* of tracked objects — these become regions of interest for the
refinement network.  The implementation follows the paper:

* object association with the Hungarian algorithm over negative IoU,
  gated at ``beta`` and run once per class;
* exponential-decay motion prediction (``eta = 0.7`` by default);
* adaptive confidence lifecycle: every match adds confidence up to an upper
  limit, every miss subtracts, and tracks are discarded below zero —
  replacing SORT's fixed ``max_age``;
* prediction filters that drop objects that are too small (width < 10 px)
  or largely chopped by the image boundary, to keep the refinement-network
  workload low.

Track state is columnar: one motion bank (see :mod:`repro.tracker.motion`)
plus flat per-field arrays (ids, labels, confidence, hits/misses/age,
last boxes), so per-frame maintenance — predict, filter, lifecycle update,
prune — is a handful of array operations instead of a Python loop over
track objects.  Outputs are bit-identical to the original per-object loop
(kept as :class:`repro.tracker.reference.ScalarCaTDetTracker`) for the
decay motion model, whose math is purely elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.boxes.box import clip_boxes, is_valid
from repro.schema import Schema, field
from repro.detections import Detections
from repro.tracker.association import associate_per_class
from repro.tracker.motion import DecayMotionBank, KalmanMotionBank
from repro.tracker.state import TrackState


@dataclass(frozen=True)
class TrackerConfig(Schema):
    """Hyper-parameters of the CaTDet tracker.

    Parameters
    ----------
    eta:
        Exponential-decay coefficient of the motion model (paper: 0.7).
    iou_threshold:
        Association gate ``beta`` (paper: 0).
    input_score_threshold:
        Minimum detection confidence to enter the tracker ("confidence
        threshold for the tracker's input", §4.3 — the T-thresh knob).
    match_gain / miss_penalty / max_confidence / initial_confidence:
        The adaptive lifecycle: each match adds ``match_gain`` capped at
        ``max_confidence``; each miss subtracts ``miss_penalty``; tracks are
        discarded when confidence drops below zero.  Defaults allow an
        object matched for a while to survive ~3 consecutive misses.
    min_prediction_width:
        Predictions narrower than this are filtered out (paper: 10 px).
    min_visible_fraction:
        Predictions with less than this fraction of their area inside the
        image are filtered out ("largely chopped by the boundary").
    motion_model:
        ``"decay"`` (paper) or ``"kalman"`` (SORT baseline, for ablation).
    """

    eta: float = field(0.7, must="lie in [0, 1]")
    iou_threshold: float = field(0.0, must="lie in [0, 1]")
    input_score_threshold: float = 0.5
    match_gain: float = 1.0
    miss_penalty: float = 1.0
    max_confidence: float = 3.0
    initial_confidence: float = 1.0
    min_prediction_width: float = 10.0
    min_visible_fraction: float = 0.3
    motion_model: str = "decay"

    #: A tracker section nests in a SystemConfig's JSON, and its unknown
    #: keys are reported as that section's.
    NAME = "SystemConfig"

    def __post_init__(self) -> None:
        if self.motion_model not in ("decay", "kalman"):
            raise ValueError(f"motion_model must be 'decay' or 'kalman', got {self.motion_model!r}")
        if self.max_confidence <= 0:
            raise ValueError("max_confidence must be positive")


class CaTDetTracker:
    """Tracks high-confidence detections and predicts next-frame locations.

    Usage per frame::

        predictions = tracker.predict()      # RoIs for the refinement net
        ...                                   # run detection
        tracker.update(final_detections)      # feed back calibrated output

    ``predict`` returns a :class:`Detections` whose scores are the tracks'
    (normalized) lifecycle confidences.
    """

    def __init__(
        self,
        config: TrackerConfig = TrackerConfig(),
        image_size: Optional[tuple] = None,
    ):
        """
        Parameters
        ----------
        config:
            Tracker hyper-parameters.
        image_size:
            ``(width, height)``; required for the boundary filter.  When
            ``None`` the boundary filter is disabled.
        """
        self.config = config
        self.image_size = image_size
        self._size = 0
        cap = 16
        self._track_ids = np.zeros(cap, dtype=np.int64)
        self._labels = np.zeros(cap, dtype=np.int64)
        self._confidence = np.zeros(cap)
        self._hits = np.zeros(cap, dtype=np.int64)
        self._misses = np.zeros(cap, dtype=np.int64)
        self._age = np.zeros(cap, dtype=np.int64)
        self._last_boxes = np.zeros((cap, 4))
        self._bank = self._make_bank()
        self._next_id = 0
        self._frames_processed = 0
        # Prediction cache: boxes for the exact id-set they were made for.
        self._pred_boxes: Optional[np.ndarray] = None
        self._pred_ids: Optional[np.ndarray] = None

    def _make_bank(self):
        if self.config.motion_model == "decay":
            return DecayMotionBank(eta=self.config.eta)
        return KalmanMotionBank()

    def _ensure_capacity(self, extra: int) -> None:
        needed = self._size + extra
        cap = self._track_ids.shape[0]
        if needed <= cap:
            return
        while cap < needed:
            cap *= 2
        for name in ("_track_ids", "_labels", "_hits", "_misses", "_age"):
            arr = getattr(self, name)
            grown = np.zeros(cap, dtype=np.int64)
            grown[: self._size] = arr[: self._size]
            setattr(self, name, grown)
        grown = np.zeros(cap)
        grown[: self._size] = self._confidence[: self._size]
        self._confidence = grown
        grown_boxes = np.zeros((cap, 4))
        grown_boxes[: self._size] = self._last_boxes[: self._size]
        self._last_boxes = grown_boxes

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    @property
    def tracks(self) -> List[TrackState]:
        """Live tracks as per-track state snapshots (read-only view)."""
        return [
            TrackState(
                track_id=int(self._track_ids[i]),
                label=int(self._labels[i]),
                motion=self._bank.snapshot(i),
                confidence=float(self._confidence[i]),
                hits=int(self._hits[i]),
                misses=int(self._misses[i]),
                age=int(self._age[i]),
                last_box=self._last_boxes[i].copy(),
            )
            for i in range(self._size)
        ]

    @property
    def frames_processed(self) -> int:
        """Number of ``update`` calls so far."""
        return self._frames_processed

    def reset(self) -> None:
        """Drop all state (start of a new sequence)."""
        self._size = 0
        self._bank = self._make_bank()
        self._next_id = 0
        self._frames_processed = 0
        self._pred_boxes = None
        self._pred_ids = None

    def predict(self) -> Detections:
        """Predicted next-frame locations of tracked objects.

        Applies the size and boundary filters; the returned scores are
        lifecycle confidences normalized to [0, 1].
        """
        self._pred_boxes = None
        self._pred_ids = None
        t = self._size
        if t == 0:
            return Detections.empty()
        preds = self._bank.predict_all()
        self._pred_boxes = preds
        self._pred_ids = self._track_ids[:t].copy()

        cfg = self.config
        width = preds[:, 2] - preds[:, 0]
        height = preds[:, 3] - preds[:, 1]
        mask = (width >= cfg.min_prediction_width) & (height > 0)
        out_boxes = preds
        if self.image_size is not None:
            img_w, img_h = self.image_size
            clipped = clip_boxes(preds, img_w, img_h)
            full_area = np.maximum(width * height, 1e-9)
            vis_area = np.maximum(0.0, clipped[:, 2] - clipped[:, 0]) * np.maximum(
                0.0, clipped[:, 3] - clipped[:, 1]
            )
            mask &= vis_area / full_area >= cfg.min_visible_fraction
            out_boxes = clipped
        if not mask.any():
            return Detections.empty()
        scores = np.minimum(self._confidence[:t] / cfg.max_confidence, 1.0)
        return Detections(out_boxes[mask], scores[mask], self._labels[:t][mask].copy())

    def update(self, detections: Detections) -> np.ndarray:
        """Feed back the calibrated detections of the current frame.

        High-confidence detections are associated to the tracks' predicted
        locations; matches update motion and confidence, misses coast, and
        emerging objects spawn new tracks with zero initial velocity.

        Returns the per-detection track identity for every *input*
        detection (length ``len(detections)``): the matched track's id, a
        freshly spawned id, or -1 for detections the tracker ignored
        (below the input score threshold, or an invalid box).
        """
        cfg = self.config
        keep = detections.scores >= cfg.input_score_threshold
        dets = detections.select(keep)
        t = self._size

        # Predicted boxes for association: use cached predictions from the
        # last predict() call when they cover exactly the live id-set
        # (unfiltered), else recompute.
        if t and (
            self._pred_ids is None
            or not np.array_equal(self._pred_ids, self._track_ids[:t])
        ):
            self._pred_boxes = self._bank.predict_all()
            self._pred_ids = self._track_ids[:t].copy()

        track_boxes = self._pred_boxes if t else np.zeros((0, 4))
        track_labels = self._labels[:t]

        result = associate_per_class(
            track_boxes, track_labels, dets.boxes, dets.labels, cfg.iou_threshold
        )

        det_ids = np.full(len(dets), -1, dtype=np.int64)
        if result.matches.shape[0]:
            det_ids[result.matches[:, 1]] = self._track_ids[result.matches[:, 0]]

        if result.matches.shape[0]:
            rows = result.matches[:, 0]
            matched_boxes = dets.boxes[result.matches[:, 1]]
            self._bank.update(rows, matched_boxes)
            self._last_boxes[rows] = matched_boxes
            self._confidence[rows] = np.minimum(
                self._confidence[rows] + cfg.match_gain, cfg.max_confidence
            )
            self._hits[rows] += 1
            self._misses[rows] = 0
            self._age[rows] += 1
        if result.unmatched_tracks.size:
            rows = result.unmatched_tracks
            self._bank.coast(rows)
            self._confidence[rows] -= cfg.miss_penalty
            self._misses[rows] += 1
            self._age[rows] += 1
        if result.unmatched_detections.size:
            spawned = self._spawn_many(
                dets.boxes[result.unmatched_detections],
                dets.labels[result.unmatched_detections],
            )
            det_ids[result.unmatched_detections] = spawned

        alive = self._confidence[: self._size] >= 0.0
        if not alive.all():
            kept = int(alive.sum())
            self._track_ids[:kept] = self._track_ids[: self._size][alive]
            self._labels[:kept] = self._labels[: self._size][alive]
            self._confidence[:kept] = self._confidence[: self._size][alive]
            self._hits[:kept] = self._hits[: self._size][alive]
            self._misses[:kept] = self._misses[: self._size][alive]
            self._age[:kept] = self._age[: self._size][alive]
            self._last_boxes[:kept] = self._last_boxes[: self._size][alive]
            self._bank.keep(alive)
            self._size = kept
        self._frames_processed += 1
        self._pred_boxes = None
        self._pred_ids = None

        track_ids = np.full(len(detections), -1, dtype=np.int64)
        track_ids[np.flatnonzero(keep)] = det_ids
        return track_ids

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _spawn_many(self, boxes: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Start one track per valid box, in input order.

        Invalid boxes are skipped without consuming a track id, exactly as
        the original per-detection spawn loop did.  Returns the assigned
        track id per *input* box (-1 for skipped invalid boxes).
        """
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        valid = is_valid(boxes)
        assigned = np.full(valid.shape[0], -1, dtype=np.int64)
        boxes = boxes[valid]
        b = boxes.shape[0]
        if b == 0:
            return assigned
        assigned[np.flatnonzero(valid)] = np.arange(self._next_id, self._next_id + b)
        self._ensure_capacity(b)
        lo, hi = self._size, self._size + b
        self._bank.add_many(boxes)
        self._track_ids[lo:hi] = np.arange(self._next_id, self._next_id + b)
        self._labels[lo:hi] = np.asarray(labels, dtype=np.int64).reshape(-1)[valid]
        self._confidence[lo:hi] = self.config.initial_confidence
        self._hits[lo:hi] = 1
        self._misses[lo:hi] = 0
        self._age[lo:hi] = 0
        self._last_boxes[lo:hi] = boxes
        self._size = hi
        self._next_id += b
        return assigned
