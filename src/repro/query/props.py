"""Frame-local propositions: the atoms of the scenario-query language.

A proposition asks one yes/no question about a single frame of one
stream — "is a car present?", "are there >= 3 detections in this
region?", "has some track persisted >= N frames?".  Propositions are
frozen dataclasses, ``kind``-tagged by ``@register`` and serialized by
the one schema (:mod:`repro.schema`);
the temporal layer (:mod:`repro.query.spec`) combines them with
``eventually`` / ``always`` / ``then``.

Evaluation is strictly causal.  Track-aware propositions read a
:class:`TrackBook` — a per-stream running digest of everything the
tracker has emitted *so far* (observation counts, last known centers) —
so "persisted >= N frames" at frame ``t`` means "observed on >= N frames
with index <= t", never a lookahead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.detections import Detections
from repro.schema import Schema, field as schema_field, known_kinds, register


@dataclass(frozen=True)
class Region(Schema):
    """An axis-aligned region of the image, in pixels.

    Membership is by box *center* — robust to partial overlap and cheap
    to evaluate over a columnar box array.
    """

    STRICT = False

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(
                f"region must have x0 < x1 and y0 < y1, got "
                f"({self.x0}, {self.y0}, {self.x1}, {self.y1})"
            )

    def contains_centers(self, boxes: np.ndarray) -> np.ndarray:
        """Boolean mask: which boxes' centers fall inside the region."""
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        cx = (boxes[:, 0] + boxes[:, 2]) / 2.0
        cy = (boxes[:, 1] + boxes[:, 3]) / 2.0
        return (cx >= self.x0) & (cx < self.x1) & (cy >= self.y0) & (cy < self.y1)

    def contains_point(self, x: float, y: float) -> bool:
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1


class TrackBook:
    """Causal per-stream digest of the tracker's output so far.

    Fed one frame at a time (:meth:`step`), it maintains per-track
    observation counts and the previous/current box centers — exactly
    the state the track propositions need, nothing more.  The book never
    looks ahead: after ``step(frame_t)``, every field reflects frames
    ``<= t`` only.
    """

    def __init__(self) -> None:
        self.obs_count: Dict[int, int] = {}
        self.label: Dict[int, int] = {}
        self._center: Dict[int, Tuple[float, float]] = {}
        # Per-frame scratch, rewritten by each step():
        self.current_ids: List[int] = []
        self.prev_center: Dict[int, Optional[Tuple[float, float]]] = {}
        self.cur_center: Dict[int, Tuple[float, float]] = {}

    def step(self, detections: Detections, track_ids: np.ndarray) -> None:
        """Ingest one frame's tracked detections (ids -1 = untracked)."""
        self.current_ids = []
        self.prev_center = {}
        self.cur_center = {}
        ids = np.asarray(track_ids, dtype=np.int64).reshape(-1)
        boxes = detections.boxes
        labels = detections.labels
        for i in np.flatnonzero(ids >= 0):
            tid = int(ids[i])
            cx = float(boxes[i, 0] + boxes[i, 2]) / 2.0
            cy = float(boxes[i, 1] + boxes[i, 3]) / 2.0
            self.current_ids.append(tid)
            self.prev_center[tid] = self._center.get(tid)
            self.cur_center[tid] = (cx, cy)
            self._center[tid] = (cx, cy)
            self.obs_count[tid] = self.obs_count.get(tid, 0) + 1
            self.label[tid] = int(labels[i])


class FrameState:
    """Everything a proposition may read about the current frame."""

    __slots__ = ("detections", "track_ids", "book")

    def __init__(
        self,
        detections: Detections,
        track_ids: Optional[np.ndarray],
        book: TrackBook,
    ):
        self.detections = detections
        if track_ids is None:
            track_ids = np.full(len(detections), -1, dtype=np.int64)
        self.track_ids = np.asarray(track_ids, dtype=np.int64).reshape(-1)
        self.book = book


# --------------------------------------------------------------------- #
# Propositions
# --------------------------------------------------------------------- #


class Prop(Schema):
    """Base class: one frame-local yes/no question."""

    STRICT = False

    def evaluate(self, state: FrameState) -> bool:
        raise NotImplementedError

    @classmethod
    def _unknown_kind(cls, data: Dict[str, Any]) -> "Prop":
        raise ValueError(
            f"unknown proposition kind {data.get('kind')!r}; known: {known_kinds(Prop)}"
        )


def prop_from_dict(data: Dict[str, Any]) -> Prop:
    """Reconstruct any proposition from its ``kind``-tagged dict."""
    return Prop.from_dict(data)


def _label_mask(detections: Detections, label: Optional[int]) -> np.ndarray:
    if label is None:
        return np.ones(len(detections), dtype=bool)
    return detections.labels == int(label)


@register("class_present")
@dataclass(frozen=True)
class ClassPresent(Prop):
    """Some detection of ``label`` with score >= ``min_score`` exists."""

    label: int
    min_score: float = 0.0

    def evaluate(self, state: FrameState) -> bool:
        d = state.detections
        mask = (d.labels == int(self.label)) & (d.scores >= self.min_score)
        return bool(mask.any())


@register("count_at_least")
@dataclass(frozen=True)
class CountAtLeast(Prop):
    """At least ``k`` detections (optionally of one class) this frame."""

    k: int = schema_field(must="be >= 1")
    label: Optional[int] = None
    min_score: float = 0.0

    def evaluate(self, state: FrameState) -> bool:
        d = state.detections
        mask = _label_mask(d, self.label) & (d.scores >= self.min_score)
        return int(mask.sum()) >= self.k


@register("box_in_region")
@dataclass(frozen=True)
class BoxInRegion(Prop):
    """Some detection's box center lies inside ``region``."""

    region: Region
    label: Optional[int] = None
    min_score: float = 0.0

    def evaluate(self, state: FrameState) -> bool:
        d = state.detections
        mask = _label_mask(d, self.label) & (d.scores >= self.min_score)
        if not mask.any():
            return False
        return bool(self.region.contains_centers(d.boxes[mask]).any())


@register("track_persisted")
@dataclass(frozen=True)
class TrackPersisted(Prop):
    """Some track (optionally of one class) observed on >= N frames so far.

    Counts *observations* (frames on which the tracker claimed a
    detection for the track), including the current frame; the track
    itself must be present on the current frame.
    """

    min_frames: int = schema_field(must="be >= 1")
    label: Optional[int] = None

    def evaluate(self, state: FrameState) -> bool:
        book = state.book
        for tid in book.current_ids:
            if self.label is not None and book.label.get(tid) != int(self.label):
                continue
            if book.obs_count.get(tid, 0) >= self.min_frames:
                return True
        return False


@register("track_entered_region")
@dataclass(frozen=True)
class TrackEnteredRegion(Prop):
    """Some track crossed into ``region`` on this frame.

    True when a track observed this frame has a previously-recorded
    center *outside* the region and its current center *inside* — a
    track's first observation never fires.
    """

    region: Region
    label: Optional[int] = None

    def evaluate(self, state: FrameState) -> bool:
        return _crossing(state, self.region, self.label, entering=True)


@register("track_left_region")
@dataclass(frozen=True)
class TrackLeftRegion(Prop):
    """Some track crossed out of ``region`` on this frame (see
    :class:`TrackEnteredRegion` for the crossing convention)."""

    region: Region
    label: Optional[int] = None

    def evaluate(self, state: FrameState) -> bool:
        return _crossing(state, self.region, self.label, entering=False)


def _crossing(
    state: FrameState, region: Region, label: Optional[int], *, entering: bool
) -> bool:
    book = state.book
    for tid in book.current_ids:
        if label is not None and book.label.get(tid) != int(label):
            continue
        prev = book.prev_center.get(tid)
        if prev is None:
            continue
        was_in = region.contains_point(*prev)
        now_in = region.contains_point(*book.cur_center[tid])
        if entering and (not was_in) and now_in:
            return True
        if (not entering) and was_in and (not now_in):
            return True
    return False


# --------------------------------------------------------------------- #
# Boolean combinators (frame-local only)
# --------------------------------------------------------------------- #


@register("not")
@dataclass(frozen=True)
class Not(Prop):
    """Frame-local negation of another proposition."""

    prop: Prop

    def __post_init__(self) -> None:
        if not isinstance(self.prop, Prop):
            raise TypeError(f"Not wraps a proposition, got {type(self.prop).__name__}")

    def evaluate(self, state: FrameState) -> bool:
        return not self.prop.evaluate(state)


@register("all_of")
@dataclass(frozen=True)
class AllOf(Prop):
    """Frame-local conjunction: every sub-proposition holds."""

    props: Tuple[Prop, ...] = schema_field(default_factory=tuple, required=True)

    def __post_init__(self) -> None:
        object.__setattr__(self, "props", tuple(self.props))
        if not self.props:
            raise ValueError("AllOf needs at least one proposition")
        for p in self.props:
            if not isinstance(p, Prop):
                raise TypeError(f"AllOf members must be propositions, got {type(p).__name__}")

    def evaluate(self, state: FrameState) -> bool:
        return all(p.evaluate(state) for p in self.props)


@register("any_of")
@dataclass(frozen=True)
class AnyOf(Prop):
    """Frame-local disjunction: some sub-proposition holds."""

    props: Tuple[Prop, ...] = schema_field(default_factory=tuple, required=True)

    def __post_init__(self) -> None:
        object.__setattr__(self, "props", tuple(self.props))
        if not self.props:
            raise ValueError("AnyOf needs at least one proposition")
        for p in self.props:
            if not isinstance(p, Prop):
                raise TypeError(f"AnyOf members must be propositions, got {type(p).__name__}")

    def evaluate(self, state: FrameState) -> bool:
        return any(p.evaluate(state) for p in self.props)
