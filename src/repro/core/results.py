"""Result containers: per-frame detections plus operation accounting."""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Union

import numpy as np

from repro.detections import Detections, DetectionsBuffer

GIGA = 1e9

#: A :class:`FrameResultBuffer`'s per-frame columns: dtype and row shape.
_FRAME_COLUMNS = {
    "frame": (np.int64, ()),
    "num_regions": (np.int64, ()),
    "coverage": (np.float64, ()),
    "ops": (np.float64, (4,)),  # proposal, refinement, from_tracker, from_proposal
    "timing": (np.float64, (3,)),  # gpu_seconds, cpu_seconds, num_launches
    "has_timing": (bool, ()),
    "has_track_ids": (bool, ()),
}


@dataclass
class OpsAccount:
    """Operation counts (MACs) for one frame of one system.

    ``refinement_from_tracker`` / ``refinement_from_proposal`` are the
    hypothetical refinement costs had only that source supplied regions —
    because the sources overlap, they sum to *more* than ``refinement``
    (exactly the phenomenon Table 3 reports).
    """

    proposal: float = 0.0
    refinement: float = 0.0
    refinement_from_tracker: float = 0.0
    refinement_from_proposal: float = 0.0

    @property
    def total(self) -> float:
        return self.proposal + self.refinement

    def __add__(self, other: "OpsAccount") -> "OpsAccount":
        return OpsAccount(
            proposal=self.proposal + other.proposal,
            refinement=self.refinement + other.refinement,
            refinement_from_tracker=self.refinement_from_tracker
            + other.refinement_from_tracker,
            refinement_from_proposal=self.refinement_from_proposal
            + other.refinement_from_proposal,
        )

    def scaled(self, factor: float) -> "OpsAccount":
        return OpsAccount(
            proposal=self.proposal * factor,
            refinement=self.refinement * factor,
            refinement_from_tracker=self.refinement_from_tracker * factor,
            refinement_from_proposal=self.refinement_from_proposal * factor,
        )


@dataclass(frozen=True)
class FrameTiming:
    """Estimated execution time of one frame on a modeled device.

    Produced by the cost layer (:mod:`repro.cost`) under the paper's
    linear model ``T = alpha * W + b`` per launch, split the way Table 7
    reports it.  ``num_launches`` is an integer for a single frame and a
    fractional mean when averaged over many.
    """

    gpu_seconds: float
    cpu_seconds: float
    num_launches: float

    @property
    def total_seconds(self) -> float:
        """Wall-clock per frame; CPU partially hidden behind GPU is ignored,
        matching the paper's unpipelined measurement."""
        return self.gpu_seconds + self.cpu_seconds

    def __add__(self, other: "FrameTiming") -> "FrameTiming":
        return FrameTiming(
            gpu_seconds=self.gpu_seconds + other.gpu_seconds,
            cpu_seconds=self.cpu_seconds + other.cpu_seconds,
            num_launches=self.num_launches + other.num_launches,
        )

    def scaled(self, factor: float) -> "FrameTiming":
        return FrameTiming(
            gpu_seconds=self.gpu_seconds * factor,
            cpu_seconds=self.cpu_seconds * factor,
            num_launches=self.num_launches * factor,
        )


def _mean_ops(frame_lists: List["SequenceABC[FrameResult]"]) -> "OpsAccount":
    """Mean per-frame ops of every frame, read from the ops column and
    folded left to right: the floats summing each frame's
    :class:`OpsAccount` in order gives, with no per-frame objects."""
    p = r = t = q = 0.0
    n = 0
    for frames in frame_lists:
        for a, b, c, d in FrameResultBuffer.of(frames).to_columns()["ops"].tolist():
            p, r, t, q, n = p + a, r + b, t + c, q + d, n + 1
    total = OpsAccount(p, r, t, q)
    return total.scaled(1.0 / n) if n else total


def _mean_timing(frames: List["FrameResult"]) -> Optional[FrameTiming]:
    """Mean per-frame timing over frames that carry one (None if none do)."""
    timed = [f.timing for f in frames if f.timing is not None]
    if not timed:
        return None
    total = FrameTiming(0.0, 0.0, 0.0)
    for t in timed:
        total = total + t
    return total.scaled(1.0 / len(timed))


@dataclass
class FrameResult:
    """One processed frame: final detections + ops + region stats.

    ``timing`` is populated only when the system was configured with a
    modeled device (``SystemConfig(device=...)``); it is the per-frame
    estimate of the :class:`~repro.engine.stages.TimingAccountingStage`.

    ``track_ids`` carries the per-detection track identity assigned by
    the tracker's feedback loop (length ``len(detections)``, -1 where no
    track claimed the detection); ``None`` for tracker-less systems.
    Excluded from dataclass comparison — numpy array equality is
    elementwise.
    """

    frame: int
    detections: Detections
    ops: OpsAccount
    num_regions: int = 0
    coverage_fraction: float = 0.0
    timing: Optional[FrameTiming] = None
    track_ids: Optional[np.ndarray] = field(default=None, compare=False)


class FrameResultBuffer(SequenceABC):
    """Columnar accumulator of :class:`FrameResult` objects.

    Long served runs append one result per executed frame; storing them as
    Python objects costs five objects plus three small arrays per frame.
    This buffer keeps every numeric field in flat growing arrays and the
    detections in one :class:`~repro.detections.DetectionsBuffer`, and
    materializes :class:`FrameResult` values on access — bit-identical to
    what was appended.

    It is a :class:`collections.abc.Sequence` (with ``append``), so code
    written against ``List[FrameResult]`` — iteration, ``len``, indexing,
    slicing, ``zip`` — keeps working unchanged.
    """

    def __init__(self, capacity: int = 64):
        cap = max(capacity, 1)
        self._columns = {
            name: np.zeros((cap, *shape), dtype) for name, (dtype, shape) in _FRAME_COLUMNS.items()
        }
        self._detections = DetectionsBuffer(capacity_frames=cap)
        self._size = 0

    def append(self, result: FrameResult) -> None:
        columns, i = self._columns, self._size
        if i == len(columns["frame"]):
            for name, old in columns.items():
                columns[name] = np.zeros((max(2 * i, 1), *old.shape[1:]), old.dtype)
                columns[name][:i] = old
        ops, timing = result.ops, result.timing
        columns["frame"][i] = result.frame
        columns["num_regions"][i] = result.num_regions
        columns["coverage"][i] = result.coverage_fraction
        columns["ops"][i] = (
            ops.proposal, ops.refinement, ops.refinement_from_tracker, ops.refinement_from_proposal
        )
        if timing is not None:
            columns["timing"][i] = (timing.gpu_seconds, timing.cpu_seconds, timing.num_launches)
            columns["has_timing"][i] = True
        columns["has_track_ids"][i] = result.track_ids is not None
        self._detections.append(result.detections, result.track_ids)
        self._size += 1

    def __len__(self) -> int:
        return self._size

    @classmethod
    def of(cls, frames: "SequenceABC[FrameResult]") -> "FrameResultBuffer":
        """``frames`` as a buffer: itself when it already is one."""
        if isinstance(frames, cls):
            return frames
        buf = cls(len(frames))
        for frame in frames:
            buf.append(frame)
        return buf

    def to_columns(self) -> Dict[str, np.ndarray]:
        """Views of every stored column: the :data:`_FRAME_COLUMNS`, then
        the detections' (:meth:`~repro.detections.DetectionsBuffer.to_columns`)."""
        n = self._size
        columns = {name: column[:n] for name, column in self._columns.items()}
        return {**columns, **self._detections.to_columns()}

    @classmethod
    def from_columns(
        cls, columns: Mapping[str, np.ndarray], *, check: bool = True
    ) -> "FrameResultBuffer":
        """A buffer over :meth:`to_columns`' arrays, without copying them,
        whose frames are bit-identical to the ones that were stored.  With
        ``check``, raises :class:`ValueError` when the columns' lengths
        disagree.  Appending to a buffer over read-only arrays raises."""
        n = len(columns["frame"])
        buf = cls.__new__(cls)
        buf._columns = {name: columns[name] for name in _FRAME_COLUMNS}
        buf._detections = DetectionsBuffer.from_columns(columns, check=check)
        buf._size = n
        if check and (
            len(buf._detections) != n
            or any(buf._columns[name].shape != (n, *shape) for name, (_, shape) in _FRAME_COLUMNS.items())
        ):
            raise ValueError("inconsistent frame columns")
        return buf

    @classmethod
    def concat(cls, lists: "SequenceABC[SequenceABC[FrameResult]]") -> "FrameResultBuffer":
        """One buffer holding the frames of ``lists`` end to end."""
        if len(lists) == 1:
            return cls.of(lists[0])
        parts = [cls.of(frames).to_columns() for frames in lists]
        if not parts:
            return cls()
        columns = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
        starts = np.cumsum([0] + [part["offsets"][-1] for part in parts[:-1]])
        columns["offsets"] = np.concatenate(
            [[0]] + [part["offsets"][1:] + start for part, start in zip(parts, starts)]
        )
        return cls.from_columns(columns, check=False)

    def split(self, counts: "SequenceABC[int]") -> List["FrameResultBuffer"]:
        """Consecutive views of ``counts[i]`` frames each (the inverse of
        :meth:`concat`); raises :class:`ValueError` unless the counts are
        non-negative and add up to ``len(self)``."""
        if sum(counts) != self._size or any(n < 0 for n in counts):
            raise ValueError(f"frame counts {list(counts)} do not split {self._size} frames")
        columns, out, lo = self.to_columns(), [], 0
        for n in counts:
            offsets = columns["offsets"][lo : lo + n + 1]
            first, last = int(offsets[0]), int(offsets[-1])
            part = {
                name: column[lo : lo + n] if name in _FRAME_COLUMNS else column[first:last]
                for name, column in columns.items()
            }
            part["offsets"] = offsets - first
            out.append(type(self).from_columns(part, check=False))
            lo += n
        return out

    def frame_track_ids(self, index: int) -> np.ndarray:
        """Track ids of frame ``index`` (-1 where none was attached)."""
        return self._detections.frame_track_ids(index)

    def _materialize(self, i: int) -> FrameResult:
        columns = self._columns
        timing = None
        if columns["has_timing"][i]:
            timing = FrameTiming(*columns["timing"][i].tolist())
        return FrameResult(
            frame=int(columns["frame"][i]),
            detections=self._detections.frame(i),
            ops=OpsAccount(*columns["ops"][i].tolist()),
            num_regions=int(columns["num_regions"][i]),
            coverage_fraction=float(columns["coverage"][i]),
            timing=timing,
            track_ids=(
                self._detections.frame_track_ids(i) if columns["has_track_ids"][i] else None
            ),
        )

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self._materialize(i) for i in range(*index.indices(self._size))]
        i = int(index)
        if i < 0:
            i += self._size
        if not (0 <= i < self._size):
            raise IndexError(f"index {index} out of range for {self._size} frames")
        return self._materialize(i)

    def __iter__(self) -> Iterator[FrameResult]:
        for i in range(self._size):
            yield self._materialize(i)


@dataclass
class SequenceResult:
    """All frames of one sequence processed by one system."""

    sequence_name: str
    frames: List[FrameResult] = field(default_factory=list)

    @property
    def detections(self) -> List[Detections]:
        """Per-frame detections, in frame order."""
        return [f.detections for f in self.frames]

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    def mean_ops(self) -> OpsAccount:
        """Average per-frame operation account."""
        return _mean_ops([self.frames])

    def mean_timing(self) -> Optional[FrameTiming]:
        """Average per-frame device timing (None without a modeled device)."""
        return _mean_timing(self.frames)


@dataclass
class SystemRunResult:
    """One system run over a whole dataset."""

    system_name: str
    sequences: Dict[str, SequenceResult] = field(default_factory=dict)

    @property
    def detections_by_sequence(self) -> Dict[str, List[Detections]]:
        """The mapping :func:`repro.metrics.evaluate_dataset` consumes."""
        return {name: seq.detections for name, seq in self.sequences.items()}

    def mean_ops(self) -> OpsAccount:
        """Per-frame operation account averaged over all frames of all sequences."""
        return _mean_ops([seq.frames for seq in self.sequences.values()])

    def mean_ops_gops(self) -> float:
        """Average per-frame total ops in Gops — the paper's headline column."""
        return self.mean_ops().total / GIGA

    def mean_timing(self) -> Optional[FrameTiming]:
        """Average per-frame device timing over all frames of all sequences."""
        return _mean_timing(
            [f for seq in self.sequences.values() for f in seq.frames]
        )

    def mean_regions_per_frame(self) -> float:
        counts = [f.num_regions for s in self.sequences.values() for f in s.frames]
        return float(np.mean(counts)) if counts else 0.0

    def mean_coverage(self) -> float:
        fracs = [f.coverage_fraction for s in self.sequences.values() for f in s.frames]
        return float(np.mean(fracs)) if fracs else 0.0
