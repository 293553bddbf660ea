"""Frame-level detection container shared across the library.

A :class:`Detections` holds parallel arrays of boxes, confidence scores and
integer class labels for one frame.  It is the interchange type between the
simulated detectors, the tracker, the cascade systems and the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.boxes.box import as_boxes, empty_boxes
from repro.boxes.nms import class_aware_nms


@dataclass
class Detections:
    """Detections for a single frame.

    Parameters
    ----------
    boxes : (N, 4) array
        ``[x1, y1, x2, y2]`` boxes.
    scores : (N,) array
        Confidence scores in [0, 1].
    labels : (N,) int array
        Class indices.
    """

    boxes: np.ndarray
    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.boxes = as_boxes(self.boxes) if np.size(self.boxes) else empty_boxes()
        self.scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        n = self.boxes.shape[0]
        if self.scores.shape[0] != n or self.labels.shape[0] != n:
            raise ValueError(
                "boxes, scores and labels must agree in length, got "
                f"{n}, {self.scores.shape[0]}, {self.labels.shape[0]}"
            )

    @classmethod
    def empty(cls) -> "Detections":
        """An empty detection set."""
        return cls(empty_boxes(), np.zeros(0), np.zeros(0, dtype=np.int64))

    @classmethod
    def concatenate(cls, parts: Sequence["Detections"]) -> "Detections":
        """Stack several detection sets into one."""
        parts = [p for p in parts if len(p) > 0]
        if not parts:
            return cls.empty()
        return cls(
            np.concatenate([p.boxes for p in parts], axis=0),
            np.concatenate([p.scores for p in parts]),
            np.concatenate([p.labels for p in parts]),
        )

    def __len__(self) -> int:
        return self.boxes.shape[0]

    def __iter__(self) -> Iterator[Tuple[np.ndarray, float, int]]:
        for i in range(len(self)):
            yield self.boxes[i], float(self.scores[i]), int(self.labels[i])

    def select(self, mask_or_indices: np.ndarray) -> "Detections":
        """Subset by boolean mask or integer indices."""
        idx = np.asarray(mask_or_indices)
        return Detections(self.boxes[idx], self.scores[idx], self.labels[idx])

    def above_score(self, threshold: float) -> "Detections":
        """Keep detections with ``score >= threshold``."""
        return self.select(self.scores >= threshold)

    def for_class(self, label: int) -> "Detections":
        """Keep detections of a single class."""
        return self.select(self.labels == int(label))

    def sorted_by_score(self) -> "Detections":
        """Return a copy sorted by descending score (stable)."""
        return self.select(np.argsort(-self.scores, kind="stable"))

    def nms(self, iou_threshold: float = 0.5) -> "Detections":
        """Apply class-aware NMS and return the surviving detections."""
        keep = class_aware_nms(self.boxes, self.scores, self.labels, iou_threshold)
        return self.select(keep)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Detections(n={len(self)})"


class DetectionsBuffer:
    """Columnar (struct-of-arrays) accumulator of per-frame detections.

    Long runs accumulate one :class:`Detections` per frame; keeping each as
    its own object means three small arrays plus a Python object per frame.
    This buffer stores all frames' boxes/scores/labels/track-ids in four
    preallocated growing arrays with a frame-offset index, so appending a
    frame is a couple of array copies and memory stays contiguous.

    ``frame(i)`` materializes frame ``i`` back into a :class:`Detections`
    with values bit-identical to what was appended.
    """

    def __init__(self, capacity_rows: int = 256, capacity_frames: int = 64):
        rows = max(capacity_rows, 1)
        frames = max(capacity_frames, 1)
        self._boxes = np.zeros((rows, 4))
        self._scores = np.zeros(rows)
        self._labels = np.zeros(rows, dtype=np.int64)
        self._track_ids = np.zeros(rows, dtype=np.int64)
        self._offsets = np.zeros(frames + 1, dtype=np.int64)
        self._num_frames = 0
        self._num_rows = 0

    def __len__(self) -> int:
        """Number of frames appended so far."""
        return self._num_frames

    @property
    def num_rows(self) -> int:
        """Total detections across all frames."""
        return self._num_rows

    def _ensure_rows(self, extra: int) -> None:
        needed = self._num_rows + extra
        cap = self._scores.shape[0]
        if needed <= cap:
            return
        cap = max(needed, 2 * cap)
        for name, blank in (
            ("_boxes", np.zeros((cap, 4))),
            ("_scores", np.zeros(cap)),
            ("_labels", np.zeros(cap, dtype=np.int64)),
            ("_track_ids", np.zeros(cap, dtype=np.int64)),
        ):
            old = getattr(self, name)
            blank[: self._num_rows] = old[: self._num_rows]
            setattr(self, name, blank)

    def append(
        self, detections: "Detections", track_ids: Optional[np.ndarray] = None
    ) -> int:
        """Append one frame's detections; returns its frame index.

        ``track_ids`` optionally attaches per-detection track identities
        (stored as -1 when absent).
        """
        n = len(detections)
        self._ensure_rows(n)
        if self._num_frames + 1 >= self._offsets.shape[0]:
            grown = np.zeros(self._offsets.shape[0] * 2, dtype=np.int64)
            grown[: self._num_frames + 1] = self._offsets[: self._num_frames + 1]
            self._offsets = grown
        lo = self._num_rows
        hi = lo + n
        self._boxes[lo:hi] = detections.boxes
        self._scores[lo:hi] = detections.scores
        self._labels[lo:hi] = detections.labels
        if track_ids is None:
            self._track_ids[lo:hi] = -1
        else:
            ids = np.asarray(track_ids, dtype=np.int64).reshape(-1)
            if ids.shape[0] != n:
                raise ValueError(f"track_ids must have length {n}, got {ids.shape[0]}")
            self._track_ids[lo:hi] = ids
        self._num_rows = hi
        frame_index = self._num_frames
        self._num_frames += 1
        self._offsets[self._num_frames] = hi
        return frame_index

    def _bounds(self, index: int) -> Tuple[int, int]:
        if index < 0:
            index += self._num_frames
        if not (0 <= index < self._num_frames):
            raise IndexError(f"frame index {index} out of range for {self._num_frames} frames")
        return int(self._offsets[index]), int(self._offsets[index + 1])

    def frame(self, index: int) -> Detections:
        """Materialize frame ``index`` as a :class:`Detections`."""
        lo, hi = self._bounds(index)
        return Detections(self._boxes[lo:hi], self._scores[lo:hi], self._labels[lo:hi])

    def frame_track_ids(self, index: int) -> np.ndarray:
        """Track ids of frame ``index`` (-1 where none was attached)."""
        lo, hi = self._bounds(index)
        return self._track_ids[lo:hi].copy()

    def to_columns(self) -> Dict[str, np.ndarray]:
        """Views of the stored columns: ``offsets`` (F + 1 row bounds) and
        the per-row ``boxes``, ``scores``, ``labels`` and ``track_ids``."""
        rows = self._num_rows
        return {
            "offsets": self._offsets[: self._num_frames + 1],
            "boxes": self._boxes[:rows],
            "scores": self._scores[:rows],
            "labels": self._labels[:rows],
            "track_ids": self._track_ids[:rows],
        }

    @classmethod
    def from_columns(
        cls, columns: Mapping[str, np.ndarray], *, check: bool = True
    ) -> "DetectionsBuffer":
        """A buffer over :meth:`to_columns`' arrays, without copying them.
        With ``check``, raises :class:`ValueError` when their lengths
        disagree."""
        offsets = columns["offsets"]
        rows = len(columns["scores"])
        if check and (
            len(offsets) == 0
            or offsets[0] != 0
            or offsets[-1] != rows
            or np.any(np.diff(offsets) < 0)
            or columns["boxes"].shape != (rows, 4)
            or not len(columns["labels"]) == len(columns["track_ids"]) == rows
        ):
            raise ValueError("inconsistent detection columns")
        buf = cls.__new__(cls)
        buf._boxes, buf._scores = columns["boxes"], columns["scores"]
        buf._labels, buf._track_ids = columns["labels"], columns["track_ids"]
        buf._offsets = offsets
        buf._num_frames = len(offsets) - 1
        buf._num_rows = rows
        return buf
