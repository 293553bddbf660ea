"""Ground-truth data model: tracks, frames, sequences, datasets."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence as Seq, Tuple

import numpy as np

from repro.boxes.box import clip_boxes


@dataclass(frozen=True)
class ClassSpec:
    """One object class in a dataset.

    Attributes
    ----------
    name:
        Human-readable class name (``"Car"``, ``"Pedestrian"``, ...).
    label:
        Integer index used throughout the library.
    min_iou:
        IoU required for a detection of this class to count as correct
        (KITTI: 0.7 for Car, 0.5 for Pedestrian).
    """

    name: str
    label: int
    min_iou: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.min_iou <= 1.0):
            raise ValueError(f"min_iou must lie in (0, 1], got {self.min_iou}")


@dataclass
class ObjectTrack:
    """One ground-truth object across its visible lifetime.

    Boxes are stored *unclipped* (they may extend past the image border);
    per-frame truncation is the fraction of box area outside the image and
    occlusion is a simulated occluded-area fraction in [0, 1].

    Attributes
    ----------
    track_id:
        Sequence-unique id.
    label:
        Class index.
    first_frame:
        Index of the first frame in which the object appears.
    boxes : (T, 4) array
        One box per visible frame, starting at ``first_frame``.
    occlusion : (T,) array
        Occluded fraction per frame.
    truncation : (T,) array
        Out-of-image fraction per frame.
    """

    track_id: int
    label: int
    first_frame: int
    boxes: np.ndarray
    occlusion: np.ndarray
    truncation: np.ndarray

    def __post_init__(self) -> None:
        self.boxes = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 4)
        self.occlusion = np.asarray(self.occlusion, dtype=np.float64).reshape(-1)
        self.truncation = np.asarray(self.truncation, dtype=np.float64).reshape(-1)
        t = self.boxes.shape[0]
        if self.occlusion.shape[0] != t or self.truncation.shape[0] != t:
            raise ValueError(
                "boxes, occlusion and truncation must have equal length, got "
                f"{t}, {self.occlusion.shape[0]}, {self.truncation.shape[0]}"
            )
        if self.first_frame < 0:
            raise ValueError(f"first_frame must be >= 0, got {self.first_frame}")

    @property
    def length(self) -> int:
        """Number of frames the object is visible."""
        return self.boxes.shape[0]

    @property
    def last_frame(self) -> int:
        """Index of the final visible frame (inclusive)."""
        return self.first_frame + self.length - 1

    def frame_index(self, frame: int) -> Optional[int]:
        """Index into the per-frame arrays for ``frame``, or None if absent."""
        offset = frame - self.first_frame
        if 0 <= offset < self.length:
            return offset
        return None

    def box_at(self, frame: int) -> Optional[np.ndarray]:
        """The object's box in ``frame`` (or None when not visible)."""
        idx = self.frame_index(frame)
        return None if idx is None else self.boxes[idx]


@dataclass
class FrameAnnotations:
    """All ground-truth objects visible in one frame (parallel arrays)."""

    frame: int
    boxes: np.ndarray
    labels: np.ndarray
    track_ids: np.ndarray
    occlusion: np.ndarray
    truncation: np.ndarray

    def __post_init__(self) -> None:
        self.boxes = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 4)
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        self.track_ids = np.asarray(self.track_ids, dtype=np.int64).reshape(-1)
        self.occlusion = np.asarray(self.occlusion, dtype=np.float64).reshape(-1)
        self.truncation = np.asarray(self.truncation, dtype=np.float64).reshape(-1)
        n = self.boxes.shape[0]
        for name, arr in (
            ("labels", self.labels),
            ("track_ids", self.track_ids),
            ("occlusion", self.occlusion),
            ("truncation", self.truncation),
        ):
            if arr.shape[0] != n:
                raise ValueError(f"{name} length {arr.shape[0]} != boxes length {n}")

    def __len__(self) -> int:
        return self.boxes.shape[0]


#: A sequence's ground truth as read-only columns, one row per visible
#: (track, frame) pair, grouped by frame in track order: frame ``f`` owns
#: rows ``starts[f]:starts[f + 1]``, ``source`` maps a row into the tracks'
#: concatenated arrays, and ``clipped`` holds the image-clipped boxes.
FrameTable = namedtuple(
    "FrameTable", "starts source boxes clipped labels track_ids occlusion truncation"
)


@dataclass
class Sequence:
    """One video sequence: image geometry, frame count and the track set.

    Immutable once built: :meth:`frame_table` is derived from ``tracks``
    on first use and kept, though never pickled.
    """

    name: str
    width: int
    height: int
    num_frames: int
    fps: float
    tracks: List[ObjectTrack] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")
        if self.num_frames <= 0:
            raise ValueError(f"num_frames must be positive, got {self.num_frames}")
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        for track in self.tracks:
            if track.last_frame >= self.num_frames:
                raise ValueError(
                    f"track {track.track_id} extends to frame {track.last_frame}, "
                    f"sequence has {self.num_frames} frames"
                )
        self._table: Optional[FrameTable] = None  # see frame_table()

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_table": None}

    @property
    def image_size(self) -> Tuple[int, int]:
        """``(width, height)``."""
        return self.width, self.height

    def frame_table(self) -> FrameTable:
        """The columnar per-frame ground truth, built on first use."""
        if self._table is None:
            tracks = self.tracks
            frames = np.concatenate(
                [np.zeros(0, dtype=np.int64)] + [t.first_frame + np.arange(t.length) for t in tracks]
            )
            source = np.argsort(frames, kind="stable")

            def by_frame(per_track, empty):  # track-major rows, regrouped
                return np.concatenate([empty] + per_track)[source]

            ints = np.zeros(0, dtype=np.int64)
            boxes = by_frame([t.boxes for t in tracks], np.zeros((0, 4)))
            self._table = FrameTable(
                np.searchsorted(frames[source], np.arange(self.num_frames + 1)),
                source, boxes, clip_boxes(boxes, self.width, self.height),
                by_frame([np.full(t.length, t.label, dtype=np.int64) for t in tracks], ints),
                by_frame([np.full(t.length, t.track_id, dtype=np.int64) for t in tracks], ints),
                by_frame([t.occlusion for t in tracks], np.zeros(0)),
                by_frame([t.truncation for t in tracks], np.zeros(0)),
            )
            for column in self._table:
                column.flags.writeable = False
        return self._table

    def annotations(self, frame: int, *, clip: bool = True) -> FrameAnnotations:
        """Ground truth for one frame (boxes clipped to the image by default)."""
        if not (0 <= frame < self.num_frames):
            raise IndexError(f"frame {frame} out of range [0, {self.num_frames})")
        table = self.frame_table()
        rows = slice(table.starts[frame], table.starts[frame + 1])
        return FrameAnnotations(
            frame=frame,
            boxes=(table.clipped if clip else table.boxes)[rows],
            labels=table.labels[rows],
            track_ids=table.track_ids[rows],
            occlusion=table.occlusion[rows],
            truncation=table.truncation[rows],
        )

    def iter_annotations(self, *, clip: bool = True) -> Iterator[FrameAnnotations]:
        """Yield annotations for every frame in order."""
        for frame in range(self.num_frames):
            yield self.annotations(frame, clip=clip)

    @property
    def num_objects(self) -> int:
        return len(self.tracks)


@dataclass
class Dataset:
    """A set of sequences plus the class table.

    ``labeled_frames`` optionally restricts *evaluation* to a subset of
    frames per sequence (CityPersons labels only the 20th frame of every
    30-frame snippet); detection always runs on all frames.
    """

    name: str
    classes: Tuple[ClassSpec, ...]
    sequences: List[Sequence] = field(default_factory=list)
    labeled_frames: Optional[Dict[str, List[int]]] = None

    def __post_init__(self) -> None:
        labels = [c.label for c in self.classes]
        if len(set(labels)) != len(labels):
            raise ValueError("class labels must be unique")

    @property
    def class_names(self) -> List[str]:
        return [c.name for c in self.classes]

    @property
    def class_labels(self) -> List[int]:
        return [c.label for c in self.classes]

    def class_spec(self, label: int) -> ClassSpec:
        """Look up a class by integer label."""
        for spec in self.classes:
            if spec.label == label:
                return spec
        raise KeyError(f"no class with label {label}")

    def evaluation_frames(self, sequence: Sequence) -> List[int]:
        """Frames of ``sequence`` that carry evaluation labels."""
        if self.labeled_frames is None:
            return list(range(sequence.num_frames))
        return list(self.labeled_frames.get(sequence.name, []))

    @property
    def total_frames(self) -> int:
        return sum(seq.num_frames for seq in self.sequences)

    @property
    def total_objects(self) -> int:
        return sum(seq.num_objects for seq in self.sequences)
