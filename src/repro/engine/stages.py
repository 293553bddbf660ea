"""Composable per-frame pipeline stages — the CaTDet dataflow made explicit.

The paper's systems differ only in which stages run on each frame:

====================  =====================================================
single model          refinement (full frame) -> ops accounting
cascaded              proposal -> refinement (masked) -> ops accounting
CaTDet                tracker predict -> proposal -> refinement (masked)
                      -> ops accounting -> tracker update
====================  =====================================================

Every stage reads and writes one shared per-frame blackboard, the
:class:`FrameContext`.  A :class:`StagePipeline` executes its stages in
order (:meth:`Stage.process`) and then gives each stage a post-frame hook
(:meth:`Stage.end_frame`) for feedback paths — the tracker consumes the
frame's *final* detections there, exactly the causal loop of Figure 1c.
Stages never look ahead: frame ``t`` sees only data produced on frames
``<= t``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.boxes.mask import RegionMask
from repro.core.results import (
    FrameResult,
    FrameResultBuffer,
    FrameTiming,
    OpsAccount,
    SequenceResult,
)
from repro.datasets.types import Sequence
from repro.detections import Detections
from repro.simdet.detector import SimulatedDetector
from repro.simdet.zoo import ZooEntry
from repro.tracker.catdet_tracker import CaTDetTracker, TrackerConfig


class FrameContext:
    """Mutable blackboard shared by the stages while processing one frame.

    Attributes
    ----------
    sequence / frame:
        Which frame is being processed.
    tracked:
        Tracker-predicted regions (``None`` when no tracker stage ran —
        this is how downstream stages distinguish cascade from CaTDet).
    proposed:
        Proposal-network regions above C-thresh (``None`` without a
        proposal stage).
    regions:
        The union of region sources fed to the refinement network.
    mask:
        The :class:`RegionMask` the refinement network computed over
        (``None`` for full-frame passes).
    coverage_fraction:
        Fraction of the image covered by ``mask`` (1.0 for full frame).
    detections:
        The frame's final detections (set by the refinement stage).
    track_ids:
        Per-detection track identity array (set by the tracker stage's
        ``end_frame`` feedback; ``None`` for tracker-less systems).
    ops:
        The frame's operation account (set by the accounting stage).
    num_regions:
        Region count reported in the :class:`FrameResult`.
    timing:
        Estimated device latency (set by the
        :class:`TimingAccountingStage`; ``None`` without one).
    """

    __slots__ = (
        "sequence",
        "frame",
        "tracked",
        "proposed",
        "regions",
        "mask",
        "coverage_fraction",
        "detections",
        "track_ids",
        "ops",
        "num_regions",
        "timing",
    )

    def __init__(self, sequence: Sequence, frame: int):
        self.sequence = sequence
        self.frame = frame
        self.tracked: Optional[Detections] = None
        self.proposed: Optional[Detections] = None
        self.regions: Optional[Detections] = None
        self.mask: Optional[RegionMask] = None
        self.coverage_fraction: float = 1.0
        self.detections: Detections = Detections.empty()
        self.track_ids = None
        self.ops: OpsAccount = OpsAccount()
        self.num_regions: int = 0
        self.timing: Optional[FrameTiming] = None

    def to_frame_result(self) -> FrameResult:
        """Freeze the blackboard into the public result record."""
        return FrameResult(
            frame=self.frame,
            detections=self.detections,
            ops=self.ops,
            num_regions=self.num_regions,
            coverage_fraction=self.coverage_fraction,
            timing=self.timing,
            track_ids=self.track_ids,
        )


class Stage:
    """One step of the per-frame dataflow.

    Lifecycle: :meth:`begin_sequence` once per sequence, then per frame
    :meth:`process` (in pipeline order) followed by :meth:`end_frame`
    (also in pipeline order, after every stage has processed).  ``reset``
    drops all cross-sequence state.

    Batched execution: :meth:`process_batch` / :meth:`end_frame_batch`
    receive one frame from each of several *different* concurrent
    streams.  The defaults loop over the serial hooks, so every stage is
    batch-correct by construction; stages that wrap a detector override
    ``process_batch`` to coalesce the whole batch into a **single**
    batched detector invocation (the micro-batching seam
    :mod:`repro.serve` is built on).  Per-frame outputs must be
    byte-identical to the serial path whatever the batch composition.
    """

    def begin_sequence(self, sequence: Sequence) -> None:
        """Prepare for a new sequence (clear per-sequence state)."""

    def process(self, ctx: FrameContext) -> None:
        """Consume/produce blackboard fields for the current frame."""
        raise NotImplementedError

    def process_batch(self, ctxs: List[FrameContext]) -> None:
        """Process one frame from each of several concurrent streams."""
        for ctx in ctxs:
            self.process(ctx)

    def end_frame(self, ctx: FrameContext) -> None:
        """Post-frame feedback hook (runs after all ``process`` calls)."""

    def end_frame_batch(self, ctxs: List[FrameContext]) -> None:
        """Batched counterpart of :meth:`end_frame`."""
        for ctx in ctxs:
            self.end_frame(ctx)

    # Multi-stream protocol (opt-in): a stage may define
    #   per_stream() -> Stage
    # returning the instance to use for ONE stream of a multi-stream
    # engine — `self` for stateless stages (sharing enables cross-stream
    # detector batching), a fresh instance for stateful ones (the
    # tracker).  There is deliberately NO base-class default: a stateful
    # subclass that forgot to opt in must degrade to safe fully-isolated
    # pipelines (see StagePipeline.per_stream), never to silently shared
    # mutable state.

    def reset(self) -> None:
        """Drop all internal state (sequence- and run-level)."""


class MacsModel:
    """Memoized operation model for one zoo entry.

    Building a :class:`~repro.flops.rcnn.FasterRCNNOps` walks the
    architecture's layer list — doing that once per frame is pure hot-path
    waste, since the model only depends on the (scaled) image resolution.
    This wrapper caches the op model and the full-frame total per
    resolution, so the per-frame cost of accounting is two multiplies.
    """

    def __init__(
        self,
        entry: ZooEntry,
        *,
        num_classes: int = 2,
        input_scale: float = 1.0,
        num_proposals: int = 300,
    ):
        self.entry = entry
        self.num_classes = int(num_classes)
        self.input_scale = float(input_scale)
        self.num_proposals = int(num_proposals)
        self._models: Dict[Tuple[int, int], object] = {}
        self._full_frame: Dict[Tuple[int, int], float] = {}

    def _scaled_dims(self, sequence: Sequence) -> Tuple[int, int]:
        return (
            max(1, int(round(sequence.width * self.input_scale))),
            max(1, int(round(sequence.height * self.input_scale))),
        )

    def _ops_model(self, sequence: Sequence):
        dims = self._scaled_dims(sequence)
        model = self._models.get(dims)
        if model is None:
            w, h = dims
            if self.entry.detector_type == "retinanet":
                model = self.entry.retinanet_ops(w, h, self.num_classes)
            else:
                model = self.entry.rcnn_ops(w, h, self.num_classes)
            self._models[dims] = model
        return model

    def full_frame(self, sequence: Sequence) -> float:
        """Full-frame MACs at this sequence's resolution (memoized)."""
        dims = self._scaled_dims(sequence)
        macs = self._full_frame.get(dims)
        if macs is None:
            model = self._ops_model(sequence)
            if self.entry.detector_type == "retinanet":
                macs = model.full_frame().total
            else:
                macs = model.full_frame(self.num_proposals).total
            self._full_frame[dims] = macs
        return macs

    def regional(self, sequence: Sequence, coverage: float, n_regions: int) -> float:
        """Region-restricted (refinement) MACs for one frame."""
        model = self._ops_model(sequence)
        if self.entry.detector_type == "retinanet":
            return model.regional(coverage).total
        return model.regional(coverage, n_regions).total


class ProposalStage(Stage):
    """Cheap full-frame scan: proposals above C-thresh become regions."""

    def __init__(self, detector: SimulatedDetector, c_thresh: float):
        self.detector = detector
        self.c_thresh = float(c_thresh)

    def per_stream(self) -> "ProposalStage":
        # Stateless (the shared detector's caches are deterministic and
        # collision-guarded): safe to share across concurrent streams.
        return self

    def process(self, ctx: FrameContext) -> None:
        proposals = self.detector.detect_full_frame(ctx.sequence, ctx.frame)
        ctx.proposed = proposals.above_score(self.c_thresh)

    def process_batch(self, ctxs: List[FrameContext]) -> None:
        batched = self.detector.detect_full_frame_batch(
            [(ctx.sequence, ctx.frame) for ctx in ctxs]
        )
        for ctx, proposals in zip(ctxs, batched):
            ctx.proposed = proposals.above_score(self.c_thresh)


class TrackerStage(Stage):
    """Tracker feedback loop: predict regions, then learn from the output.

    ``process`` publishes the tracker's predicted next-frame locations as
    regions *before* the refinement stage runs; ``end_frame`` feeds the
    frame's final detections back (Figure 1c's arrow from output to
    tracker).  A fresh tracker is created per sequence; between
    ``begin_sequence`` calls the state persists, which is what lets
    :meth:`repro.core.systems.DetectionSystem.stream` keep tracking across
    successive calls on a live feed.
    """

    def __init__(self, config: TrackerConfig):
        self.config = config
        self.tracker: Optional[CaTDetTracker] = None

    def begin_sequence(self, sequence: Sequence) -> None:
        self.tracker = CaTDetTracker(self.config, image_size=sequence.image_size)

    def process(self, ctx: FrameContext) -> None:
        if self.tracker is None:
            self.begin_sequence(ctx.sequence)
        ctx.tracked = self.tracker.predict()

    def end_frame(self, ctx: FrameContext) -> None:
        ctx.track_ids = self.tracker.update(ctx.detections)

    def per_stream(self) -> "TrackerStage":
        # The tracker is the one genuinely stateful stage: each stream of
        # a multi-stream engine needs its own instance.
        return TrackerStage(self.config)

    def reset(self) -> None:
        self.tracker = None


class RefinementStage(Stage):
    """The expensive network: validate regions (or scan the full frame).

    In ``full_frame`` mode (single-model system) it runs the detector over
    the whole image.  Otherwise it unions the blackboard's region sources,
    builds the :class:`RegionMask` and restricts detection to it.
    """

    def __init__(
        self,
        detector: SimulatedDetector,
        *,
        margin: float = 30.0,
        full_frame: bool = False,
        output_threshold: float = 0.0,
    ):
        self.detector = detector
        self.margin = float(margin)
        self.full_frame = bool(full_frame)
        self.output_threshold = float(output_threshold)

    def per_stream(self) -> "RefinementStage":
        return self  # stateless, see ProposalStage.per_stream

    def process(self, ctx: FrameContext) -> None:
        if self.full_frame:
            detections = self.detector.detect_full_frame(ctx.sequence, ctx.frame)
            ctx.detections = self._thresholded(detections)
            ctx.coverage_fraction = 1.0
            return
        self._build_mask(ctx)
        ctx.detections = self._thresholded(
            self.detector.detect_regions(ctx.sequence, ctx.frame, ctx.mask)
        )

    def process_batch(self, ctxs: List[FrameContext]) -> None:
        if self.full_frame:
            batched = self.detector.detect_full_frame_batch(
                [(ctx.sequence, ctx.frame) for ctx in ctxs]
            )
            for ctx, detections in zip(ctxs, batched):
                ctx.detections = self._thresholded(detections)
                ctx.coverage_fraction = 1.0
            return
        # Region masks are cheap CPU-side geometry — build them per frame,
        # then validate every stream's regions in one batched invocation.
        for ctx in ctxs:
            self._build_mask(ctx)
        batched = self.detector.detect_regions_batch(
            [(ctx.sequence, ctx.frame, ctx.mask) for ctx in ctxs]
        )
        for ctx, detections in zip(ctxs, batched):
            ctx.detections = self._thresholded(detections)

    def _thresholded(self, detections: Detections) -> Detections:
        if self.output_threshold > 0:
            return detections.above_score(self.output_threshold)
        return detections

    def _build_mask(self, ctx: FrameContext) -> None:
        sources: List[Detections] = [
            s for s in (ctx.tracked, ctx.proposed) if s is not None
        ]
        regions = Detections.concatenate(sources) if sources else Detections.empty()
        ctx.regions = regions
        ctx.num_regions = len(regions)
        ctx.mask = RegionMask(
            regions.boxes, ctx.sequence.width, ctx.sequence.height, self.margin
        )
        ctx.coverage_fraction = ctx.mask.coverage_fraction()


class OpsAccountingStage(Stage):
    """Exact MAC accounting for the frame, including the Table 3 split.

    ``detailed`` controls the hypothetical single-source refinement costs
    of Table 3 (what the refinement pass *would* cost with only the
    tracker's or only the proposal network's regions).  Computing them
    needs two extra :class:`RegionMask` union-area computations per frame,
    so throughput-oriented callers turn the flag off.
    """

    def __init__(
        self,
        refinement_macs: MacsModel,
        proposal_macs: Optional[MacsModel] = None,
        *,
        margin: float = 30.0,
        detailed: bool = True,
    ):
        self.refinement_macs = refinement_macs
        self.proposal_macs = proposal_macs
        self.margin = float(margin)
        self.detailed = bool(detailed)

    def per_stream(self) -> "OpsAccountingStage":
        return self  # pure math over memoized-pure MacsModels

    def _hypothetical(self, ctx: FrameContext, regions: Detections) -> float:
        mask = RegionMask(
            regions.boxes, ctx.sequence.width, ctx.sequence.height, self.margin
        )
        return self.refinement_macs.regional(
            ctx.sequence, mask.coverage_fraction(), len(regions)
        )

    def process(self, ctx: FrameContext) -> None:
        proposal = (
            self.proposal_macs.full_frame(ctx.sequence) if self.proposal_macs else 0.0
        )
        if ctx.mask is None:
            ctx.ops = OpsAccount(
                proposal=proposal,
                refinement=self.refinement_macs.full_frame(ctx.sequence),
            )
            return
        refinement = self.refinement_macs.regional(
            ctx.sequence, ctx.coverage_fraction, ctx.num_regions
        )
        if ctx.tracked is None:
            # Plain cascade: all refinement work is proposal-sourced.
            ctx.ops = OpsAccount(
                proposal=proposal,
                refinement=refinement,
                refinement_from_proposal=refinement,
            )
            return
        from_tracker = from_proposal = 0.0
        if self.detailed:
            from_tracker = self._hypothetical(ctx, ctx.tracked)
            from_proposal = self._hypothetical(ctx, ctx.proposed)
        ctx.ops = OpsAccount(
            proposal=proposal,
            refinement=refinement,
            refinement_from_tracker=from_tracker,
            refinement_from_proposal=from_proposal,
        )


class TimingAccountingStage(Stage):
    """Estimated per-frame device latency from the unified cost layer.

    Runs after the :class:`OpsAccountingStage`: it charges the frame's
    *measured* MAC account at the device's calibrated throughput
    (``T = alpha * W + b`` per launch) and counts launches from the
    frame's actual structure — one full-frame launch per network that
    ran, or one proposal launch plus one per greedily-merged refinement
    region.  Added to a pipeline when the system's
    :class:`~repro.core.config.SystemConfig` names a ``device``; offline
    runs then report estimated per-frame latency alongside ops.

    ``cost_model`` is a :class:`repro.cost.CostModel` (duck-typed here to
    keep this module import-light).
    """

    def __init__(self, cost_model, *, merge: bool = True):
        self.cost = cost_model
        self.merge = bool(merge)

    def per_stream(self) -> "TimingAccountingStage":
        return self  # pure math over a frozen profile

    def process(self, ctx: FrameContext) -> None:
        if ctx.mask is None:
            ctx.timing = self.cost.frame_timing(ctx.ops, full_frame=True)
            return
        boxes = ctx.regions.boxes if ctx.regions is not None else None
        ctx.timing = self.cost.frame_timing(
            ctx.ops, region_boxes=boxes, merge=self.merge
        )


class _EngineMetrics:
    """Resolved registry handles for instrumented pipeline execution.

    Instrumentation is strictly opt-in: uninstrumented pipelines pay one
    ``is None`` check per frame and nothing else (the bench harness
    gates the instrumented/plain throughput ratio at >= 0.97).  The
    handles are resolved once, so the per-frame cost when *on* is a
    ``perf_counter`` pair per stage plus a few histogram observes.
    """

    __slots__ = ("frames", "stage_seconds", "modeled_seconds")

    def __init__(self, registry):
        self.frames = registry.counter(
            "engine_frames_total", "frames processed by the stage pipeline"
        )
        self.stage_seconds = registry.histogram(
            "engine_stage_seconds", "wall time per stage per frame (or batch)",
            labels=("stage",),
        )
        self.modeled_seconds = registry.counter(
            "engine_modeled_seconds_total",
            "modeled device time accumulated (TimingAccountingStage output)",
        )

    def record_frame(self, ctx: "FrameContext") -> None:
        self.frames.inc()
        if ctx.timing is not None:
            self.modeled_seconds.inc(ctx.timing.total_seconds)


class StagePipeline:
    """An ordered stage composition executing the per-frame dataflow."""

    def __init__(self, stages: List[Stage]):
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.stages = list(stages)
        self._metrics: Optional[_EngineMetrics] = None

    def instrument(self, metrics=None) -> "StagePipeline":
        """Opt in to per-stage wall-time and frame counters.

        ``metrics`` is a :class:`~repro.obs.registry.MetricsRegistry`
        (the process default when ``None``).  Returns ``self`` so the
        call chains at construction sites.  Uninstrumented pipelines
        keep a branch-only hot path — see :class:`_EngineMetrics`.
        """
        from repro.obs.registry import resolve_registry

        self._metrics = _EngineMetrics(resolve_registry(metrics))
        return self

    def per_stream(self) -> "StagePipeline":
        """A pipeline for one stream of a multi-stream engine.

        Stateless stages are shared with this pipeline (so their detector
        calls can be coalesced across streams by
        :func:`run_frame_batch`); stateful ones are cloned per stream.
        Raises :class:`TypeError` when any stage has not opted into the
        ``per_stream`` protocol — callers must then fall back to fully
        independent pipelines (safe for arbitrary stage state, at the
        price of no cross-stream coalescing).
        """
        clones = []
        for stage in self.stages:
            fn = getattr(stage, "per_stream", None)
            if fn is None:
                raise TypeError(
                    f"stage {type(stage).__name__} does not implement "
                    "per_stream(); build a fresh pipeline per stream instead"
                )
            clones.append(fn())
        return StagePipeline(clones)

    def begin_sequence(self, sequence: Sequence) -> None:
        """Start a new sequence: every stage clears per-sequence state."""
        for stage in self.stages:
            stage.begin_sequence(sequence)

    def run_frame(self, sequence: Sequence, frame: int) -> FrameResult:
        """Process one frame through all stages and freeze the result."""
        ctx = FrameContext(sequence, frame)
        metrics = self._metrics
        if metrics is None:
            for stage in self.stages:
                stage.process(ctx)
            for stage in self.stages:
                stage.end_frame(ctx)
            return ctx.to_frame_result()
        for stage in self.stages:
            start = time.perf_counter()
            stage.process(ctx)
            metrics.stage_seconds.observe(
                time.perf_counter() - start, labels=(type(stage).__name__,)
            )
        for stage in self.stages:
            stage.end_frame(ctx)
        metrics.record_frame(ctx)
        return ctx.to_frame_result()

    def run_sequence(self, sequence: Sequence) -> SequenceResult:
        """Convenience: ``begin_sequence`` plus every frame in order.

        Frame results accumulate into a columnar
        :class:`~repro.core.results.FrameResultBuffer` (a drop-in
        ``Sequence[FrameResult]``) rather than a list of per-frame objects.
        """
        self.begin_sequence(sequence)
        result = SequenceResult(sequence_name=sequence.name, frames=FrameResultBuffer())
        for frame in range(sequence.num_frames):
            result.frames.append(self.run_frame(sequence, frame))
        return result

    def reset(self) -> None:
        for stage in self.stages:
            stage.reset()


def run_frame_batch(
    work: List[Tuple["StagePipeline", Sequence, int]],
    *,
    metrics=None,
) -> List[FrameResult]:
    """Execute one frame from each of several streams in stage lockstep.

    ``work`` pairs each stream's (already begun) pipeline with the frame
    it should process next.  All pipelines must share the same stage
    composition (the serving layer derives them from one template via
    :meth:`StagePipeline.per_stream`).  Execution walks the stage
    positions in order; at each position, contexts whose pipelines share
    the *same* stage instance are handed to that stage's
    ``process_batch`` in one call — which is where shared detector
    stages coalesce the whole cohort into a single batched detector
    invocation.  Per-stream stages (the tracker) receive their own
    context exactly as on the serial path.

    Frames of different streams share no blackboard state, so the
    results are byte-identical to running each pipeline's
    :meth:`StagePipeline.run_frame` serially.

    ``metrics`` (a :class:`~repro.obs.registry.MetricsRegistry`) opts in
    to per-stage wall-time histograms and frame counters, one observe
    per stage *group* per batch; ``None`` keeps the hot path untouched.
    """
    if not work:
        return []
    handles = _EngineMetrics(metrics) if metrics is not None else None
    n_stages = len(work[0][0].stages)
    for pipeline, _, _ in work:
        if len(pipeline.stages) != n_stages:
            raise ValueError(
                "all pipelines in a batch must share one stage composition"
            )
    ctxs = [FrameContext(sequence, frame) for _, sequence, frame in work]
    for position in range(n_stages):
        for stage, group in _group_by_stage(work, ctxs, position):
            fn = getattr(stage, "process_batch", None)
            start = time.perf_counter() if handles is not None else 0.0
            if fn is not None:
                fn(group)
            else:  # duck-typed stage predating the batch protocol
                for ctx in group:
                    stage.process(ctx)
            if handles is not None:
                handles.stage_seconds.observe(
                    time.perf_counter() - start, labels=(type(stage).__name__,)
                )
    for position in range(n_stages):
        for stage, group in _group_by_stage(work, ctxs, position):
            fn = getattr(stage, "end_frame_batch", None)
            if fn is not None:
                fn(group)
            else:
                for ctx in group:
                    stage.end_frame(ctx)
    if handles is not None:
        for ctx in ctxs:
            handles.record_frame(ctx)
    return [ctx.to_frame_result() for ctx in ctxs]


def _group_by_stage(work, ctxs, position):
    """Contexts grouped by the identity of their stage at ``position``.

    First-appearance order; shared stage instances get the whole cohort
    in one group, per-stream instances a singleton.
    """
    groups: Dict[int, Tuple[Stage, List[FrameContext]]] = {}
    for (pipeline, _, _), ctx in zip(work, ctxs):
        stage = pipeline.stages[position]
        entry = groups.get(id(stage))
        if entry is None:
            groups[id(stage)] = (stage, [ctx])
        else:
            entry[1].append(ctx)
    return list(groups.values())
