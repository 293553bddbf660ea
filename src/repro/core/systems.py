"""The three detection systems of Figure 1, as stage compositions.

All systems share the same contract: :meth:`process_sequence` walks a video
sequence frame by frame (strictly causal — CaTDet never looks ahead) and
returns per-frame detections plus an exact operation account.  Each system
is a thin composition of :mod:`repro.engine.stages`; the per-frame loop
itself lives in the engine, which also provides the incremental
:meth:`DetectionSystem.stream` API and the parallel dataset executors.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Union

import repro.engine.stages as engine_stages
import repro.engine.stream as engine_stream
from repro.core.results import FrameResult, SequenceResult
from repro.datasets.types import Sequence
from repro.detections import Detections
from repro.simdet.detector import SimulatedDetector
from repro.simdet.zoo import ZooEntry, get_model
from repro.tracker.catdet_tracker import TrackerConfig


def _resolve(model: Union[str, ZooEntry]) -> ZooEntry:
    return get_model(model) if isinstance(model, str) else model


def _scaled_dims(sequence: Sequence, input_scale: float) -> tuple:
    """Network input resolution for a sequence under a downscale factor."""
    return (
        max(1, int(round(sequence.width * input_scale))),
        max(1, int(round(sequence.height * input_scale))),
    )


class DetectionSystem(ABC):
    """Common interface of single-model, cascaded and CaTDet systems.

    Subclasses describe themselves as a stage pipeline via
    :meth:`build_pipeline`; batch (:meth:`process_sequence`) and streaming
    (:meth:`stream`) execution are shared engine code.
    """

    name: str
    _stream_state = None  # lazily-created StreamRouter for stream()

    #: Modeled device for per-frame latency estimates (a registered
    #: :data:`repro.cost.DEVICE_PROFILES` name); ``None`` disables timing
    #: accounting entirely (zero overhead on existing paths).
    device = None

    #: Whether every frame is a pure function of ``(config, sequence,
    #: frame)`` — no cross-frame feedback — so frame ranges may execute
    #: independently (mirrors ``SystemEntry.frame_parallel`` for live
    #: instances).  Default False: unknown systems are assumed causal.
    frame_parallel = False

    #: Concurrent sequences :meth:`stream` retains isolated state for;
    #: the least-recently-fed beyond this restarts fresh when it returns.
    max_concurrent_streams = 32

    @abstractmethod
    def build_pipeline(self) -> "engine_stages.StagePipeline":
        """A fresh stage composition bound to this system's detectors."""

    def _with_timing(self, stages: list) -> list:
        """Append a :class:`~repro.engine.stages.TimingAccountingStage`
        when :attr:`device` names a cost-layer profile; subclass
        ``build_pipeline`` implementations route their stage lists
        through here."""
        if self.device is not None:
            from repro.cost import CostModel

            stages.append(
                engine_stages.TimingAccountingStage(CostModel.for_device(self.device))
            )
        return stages

    def process_sequence(self, sequence: Sequence) -> SequenceResult:
        """Run the system over every frame of ``sequence`` in order."""
        return self.build_pipeline().run_sequence(sequence)

    def stream(
        self, frame_source: "engine_stream.FrameSource"
    ) -> Iterator[FrameResult]:
        """Process frames one at a time, yielding each result immediately.

        ``frame_source`` is a :class:`~repro.datasets.types.Sequence`, an
        iterable of :class:`~repro.engine.stream.FrameRef`, or an iterable
        of ``(sequence, frame)`` pairs.  Cross-frame state — most
        importantly the tracker — persists across successive ``stream``
        calls, so a live feed can be consumed in arbitrary chunks.
        Frames of *different* sequences may be interleaved freely: each
        sequence object gets isolated per-stream state (its own tracker)
        and sees exactly the results it would have seen streamed alone —
        for up to :attr:`max_concurrent_streams` concurrent sequences
        (raise it before streaming for larger fleets; the
        least-recently-fed sequence beyond the cap restarts fresh when
        it returns, exactly as any sequence switch did before routing).
        Within one sequence, frames must arrive in causal order.  Call
        :meth:`reset` to drop all streaming state.
        """
        if self._stream_state is None:
            self._stream_state = engine_stream.StreamRouter(
                self.build_pipeline, max_streams=self.max_concurrent_streams
            )
        yield from self._stream_state.run(frame_source)

    def _detectors(self) -> tuple:
        """The simulated detectors whose caches :meth:`reset` clears."""
        return ()

    def reset(self) -> None:
        """Clear all cross-frame and cross-sequence state.

        Drops streaming state and every simulated detector's RNG caches,
        so back-to-back runs on the same instance are bit-identical to
        runs on a freshly-built one.
        """
        if self._stream_state is not None:
            self._stream_state.reset()
            self._stream_state = None
        for detector in self._detectors():
            detector.reset()


class SingleModelSystem(DetectionSystem):
    """One detector on every full frame (Figure 1a).

    Frames are mutually independent (``frame_parallel``).

    Parameters
    ----------
    model:
        Zoo name or entry for the detector.
    seed:
        Randomness seed for the simulated detector.
    num_proposals:
        RPN proposal count for the op model (300, the standard setting).
    output_threshold:
        Minimum confidence kept in the output (0 keeps everything; metrics
        sweep thresholds themselves).
    num_classes:
        Class count for the op model's output layers.
    """

    frame_parallel = True

    def __init__(
        self,
        model: Union[str, ZooEntry],
        seed: int = 0,
        *,
        num_proposals: int = 300,
        output_threshold: float = 0.0,
        num_classes: int = 2,
        input_scale: float = 1.0,
        device: str = None,
    ):
        self.entry = _resolve(model)
        self.device = device
        self.input_scale = float(input_scale)
        self.detector = SimulatedDetector(self.entry.profile, seed, input_scale=input_scale)
        self.num_proposals = int(num_proposals)
        self.output_threshold = float(output_threshold)
        self.num_classes = int(num_classes)
        self.name = f"{self.entry.profile.name}-single"
        self._macs = engine_stages.MacsModel(
            self.entry,
            num_classes=self.num_classes,
            input_scale=self.input_scale,
            num_proposals=self.num_proposals,
        )

    def _frame_macs(self, sequence: Sequence) -> float:
        return self._macs.full_frame(sequence)

    def build_pipeline(self) -> "engine_stages.StagePipeline":
        return engine_stages.StagePipeline(
            self._with_timing(
                [
                    engine_stages.RefinementStage(
                        self.detector,
                        full_frame=True,
                        output_threshold=self.output_threshold,
                    ),
                    engine_stages.OpsAccountingStage(self._macs),
                ]
            )
        )

    def _detectors(self) -> tuple:
        return (self.detector,)


class CascadedSystem(DetectionSystem):
    """Proposal network + refinement network, no tracker (Figure 1b).

    Parameters
    ----------
    proposal_model / refinement_model:
        Zoo names or entries.
    c_thresh:
        Output threshold of the proposal network ("C-thresh" in Figure 6):
        only proposals scoring at least this value reach the refinement
        network.
    margin:
        Pixels of context appended around each region (paper: 30).
    seed:
        Randomness seed shared by both simulated detectors.
    refinement_type:
        ``"faster_rcnn"`` (regions + per-proposal head) or ``"retinanet"``
        (dense head over the region mask, Appendix II).
    """

    frame_parallel = True  # no tracker feedback; CaTDetSystem overrides

    def __init__(
        self,
        proposal_model: Union[str, ZooEntry],
        refinement_model: Union[str, ZooEntry],
        *,
        c_thresh: float = 0.1,
        margin: float = 30.0,
        seed: int = 0,
        num_classes: int = 2,
        input_scale: float = 1.0,
        device: str = None,
    ):
        if not (0.0 <= c_thresh <= 1.0):
            raise ValueError(f"c_thresh must lie in [0, 1], got {c_thresh}")
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        self.device = device
        self.proposal_entry = _resolve(proposal_model)
        self.refinement_entry = _resolve(refinement_model)
        self.input_scale = float(input_scale)
        self.proposal_detector = SimulatedDetector(
            self.proposal_entry.profile, seed, input_scale=input_scale
        )
        self.refinement_detector = SimulatedDetector(
            self.refinement_entry.profile, seed, input_scale=input_scale
        )
        self.c_thresh = float(c_thresh)
        self.margin = float(margin)
        self.num_classes = int(num_classes)
        self.name = (
            f"{self.proposal_entry.profile.name}+"
            f"{self.refinement_entry.profile.name}-cascade"
        )
        self._proposal_macs_model = engine_stages.MacsModel(
            self.proposal_entry, num_classes=self.num_classes, input_scale=self.input_scale
        )
        self._refinement_macs_model = engine_stages.MacsModel(
            self.refinement_entry, num_classes=self.num_classes, input_scale=self.input_scale
        )

    # ------------------------------------------------------------------ #

    def _proposal_macs(self, sequence: Sequence) -> float:
        return self._proposal_macs_model.full_frame(sequence)

    def _regions_for_frame(self, sequence: Sequence, frame: int) -> Detections:
        proposals = self.proposal_detector.detect_full_frame(sequence, frame)
        return proposals.above_score(self.c_thresh)

    def build_pipeline(self) -> "engine_stages.StagePipeline":
        return engine_stages.StagePipeline(
            self._with_timing(
                [
                    engine_stages.ProposalStage(self.proposal_detector, self.c_thresh),
                    engine_stages.RefinementStage(
                        self.refinement_detector, margin=self.margin
                    ),
                    engine_stages.OpsAccountingStage(
                        self._refinement_macs_model,
                        self._proposal_macs_model,
                        margin=self.margin,
                    ),
                ]
            )
        )

    def _detectors(self) -> tuple:
        return (self.proposal_detector, self.refinement_detector)


class CaTDetSystem(CascadedSystem):
    """The full CaTDet system: cascade + tracker feedback (Figure 1c).

    The tracker receives each frame's *final* (refinement) detections and
    predicts regions for the next frame; those predictions are unioned with
    the proposal network's output before refinement.

    Additional parameters
    ---------------------
    tracker_config:
        Tracker hyper-parameters; its ``input_score_threshold`` is the
        "confidence threshold for the tracker's input" of §4.3.
    detailed_ops:
        Also compute the hypothetical single-source refinement costs of
        the Table 3 break-down (two extra region-mask unions per frame).
        Turn off on throughput-critical paths; the actual ``proposal`` /
        ``refinement`` accounting is unaffected.
    """

    frame_parallel = False  # the tracker loop makes frames causal

    def __init__(
        self,
        proposal_model: Union[str, ZooEntry],
        refinement_model: Union[str, ZooEntry],
        *,
        c_thresh: float = 0.1,
        margin: float = 30.0,
        seed: int = 0,
        num_classes: int = 2,
        input_scale: float = 1.0,
        device: str = None,
        tracker_config: TrackerConfig = TrackerConfig(),
        detailed_ops: bool = True,
    ):
        super().__init__(
            proposal_model,
            refinement_model,
            c_thresh=c_thresh,
            margin=margin,
            seed=seed,
            num_classes=num_classes,
            input_scale=input_scale,
            device=device,
        )
        self.tracker_config = tracker_config
        self.detailed_ops = bool(detailed_ops)
        self.name = (
            f"{self.proposal_entry.profile.name}+"
            f"{self.refinement_entry.profile.name}-catdet"
        )

    def build_pipeline(self) -> "engine_stages.StagePipeline":
        return engine_stages.StagePipeline(
            self._with_timing(
                [
                    engine_stages.TrackerStage(self.tracker_config),
                    engine_stages.ProposalStage(self.proposal_detector, self.c_thresh),
                    engine_stages.RefinementStage(
                        self.refinement_detector, margin=self.margin
                    ),
                    engine_stages.OpsAccountingStage(
                        self._refinement_macs_model,
                        self._proposal_macs_model,
                        margin=self.margin,
                        detailed=self.detailed_ops,
                    ),
                ]
            )
        )
