"""Span tracing for the benchmark's traced runs.

Wrappers are installed at run time around the public calls of each layer
(:func:`install`); nothing under ``src/`` changes, and :func:`install`
returns the function that takes every wrapper out again.  A wrapper
records one span per call — layer, start, end and parent span — into an
in-memory table that is written out once, when the run ends
(:meth:`Tracer.save`).

* A layer's **busy** time sums its outermost spans: a call that re-enters
  the same layer (``linear_sum_assignment`` calling ``hungarian``) is not
  counted twice, and neither are its calls.
* A layer's **self** time is its span time minus the time covered by its
  child spans.

Counts are taken at the same boundaries, in the benchmark's own process
only.  Work done inside the worker processes of ``parallel_map`` is not
seen, so the ``parmap.*`` counts and ``serve.trace.replayed_share`` are
parent-process-only figures (:data:`PARENT_ONLY`).
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Per-layer metrics of a traced run: ``(name, unit, better)``.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("datasets.build_s", "s", "lower"),
    ("simdet.full_frame.frames", "count", "lower"),
    ("simdet.region.frames", "count", "lower"),
    ("simdet.invocations", "count", "lower"),
    ("simdet.busy_s", "s", "lower"),
    ("simdet.unique_key_share", "share", "higher"),
    ("boxes.mask.calls", "count", "lower"),
    ("boxes.mask.busy_s", "s", "lower"),
    ("boxes.nms.calls", "count", "lower"),
    ("boxes.nms.busy_s", "s", "lower"),
    ("boxes.iou.calls", "count", "lower"),
    ("boxes.iou.busy_s", "s", "lower"),
    ("tracker.predict.calls", "count", "lower"),
    ("tracker.update.calls", "count", "lower"),
    ("tracker.busy_s", "s", "lower"),
    ("tracker.live_tracks_mean", "count", "lower"),
    ("hungarian.calls", "count", "lower"),
    ("hungarian.busy_s", "s", "lower"),
    ("flops.busy_s", "s", "lower"),
    ("cost.busy_s", "s", "lower"),
    ("engine.run_frame.calls", "count", "lower"),
    ("engine.run_frame_batch.calls", "count", "lower"),
    ("engine.batch_frames_mean", "frames", "higher"),
    ("engine.stage.ProposalStage.busy_s", "s", "lower"),
    ("engine.stage.TrackerStage.busy_s", "s", "lower"),
    ("engine.stage.RefinementStage.busy_s", "s", "lower"),
    ("engine.stage.OpsAccountingStage.busy_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("metrics.evaluate.calls", "count", "lower"),
    ("metrics.evaluate.busy_s", "s", "lower"),
    ("api.cache.loads", "count", "lower"),
    ("api.cache.hits", "count", "higher"),
    ("api.cache.stores", "count", "lower"),
    ("api.cache.bytes_read", "bytes", "lower"),
    ("api.cache.bytes_written", "bytes", "lower"),
    ("api.cache.busy_s", "s", "lower"),
    ("api.fingerprint.busy_s", "s", "lower"),
    ("serve.run.self_s", "s", "lower"),
    ("serve.loadgen.busy_s", "s", "lower"),
    ("serve.batcher.calls", "count", "lower"),
    ("serve.batcher.busy_s", "s", "lower"),
    ("serve.slo.records", "count", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.mean_batch_size", "frames", "higher"),
    ("serve.frames_shed", "count", "lower"),
    ("serve.modeled_wait_p95_ms", "ms", "lower"),
    ("serve.trace.loads", "count", "lower"),
    ("serve.trace.stores", "count", "lower"),
    ("serve.trace.bytes", "bytes", "lower"),
    ("serve.trace.busy_s", "s", "lower"),
    ("serve.trace.replayed_share", "share", "higher"),
    ("tune.points", "count", "lower"),
    ("tune.unique_points", "count", "lower"),
    ("tune.busy_s", "s", "lower"),
    ("fleet.run.self_s", "s", "lower"),
    ("fleet.scale_events", "count", "lower"),
    ("fleet.replica_seconds", "s", "lower"),
    ("query.observe.calls", "count", "lower"),
    ("query.busy_s", "s", "lower"),
    ("obs.observe.calls", "count", "lower"),
    ("obs.busy_s", "s", "lower"),
    ("parmap.items", "count", "lower"),
    ("parmap.workers", "count", "lower"),
    ("parmap.busy_s", "s", "lower"),
    ("parmap.first_result_s", "s", "lower"),
    ("parmap.wait_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.digest_match", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("failed_share", "share", "lower"),
    ("serve_us_per_frame", "us", "lower"),
    ("fleet_us_per_frame", "us", "lower"),
    ("paper.ops_reduction_x", "x", "higher"),
    ("paper.map_delta", "mAP", "higher"),
    ("paper.delay_delta_frames", "frames", "lower"),
)

#: Per-layer metrics that count only what happened in the benchmark's
#: own process (children of ``parallel_map`` report nothing back).
PARENT_ONLY = (
    "serve.trace.replayed_share",
    "parmap.items",
    "parmap.workers",
    "parmap.busy_s",
    "parmap.first_result_s",
    "parmap.wait_s",
)

#: Stage classes whose calls are timed as ``engine.stage.<class>``.
STAGES = ("ProposalStage", "TrackerStage", "RefinementStage", "OpsAccountingStage")


class Tracer:
    """In-memory span table plus the counts taken at span boundaries."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[list] = []
        self._depth: List[int] = []
        self.calls: List[int] = []
        self.busy: List[float] = []
        self.self_time: List[float] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.full_frame_keys: set = set()

    def layer(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.layers)
            self.layers.append(name)
            self._depth.append(0)
            self.calls.append(0)
            self.busy.append(0.0)
            self.self_time.append(0.0)
        return index

    def enter(self, layer: int) -> list:
        span = len(self.span_start)
        self.span_layer.append(layer)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        frame = [span, layer, 0.0]
        self._stack.append(frame)
        self._depth[layer] += 1
        self.span_start.append(time.perf_counter())
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter()
        span, layer, child = frame
        self._stack.pop()
        self.span_end[span] = end
        duration = end - self.span_start[span]
        self.self_time[layer] += duration - child
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            self.busy[layer] += duration
            self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` inside a span of layer ``name``; ``after(tracer, args,
        result)`` then takes counts, outside the span."""
        layer = self.layer(name)
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # ----------------------------------------------------------------- #

    def calls_of(self, name: str) -> int:
        index = self._ids.get(name)
        return 0 if index is None else self.calls[index]

    def busy_of(self, *names: str) -> float:
        return sum(self.busy[self._ids[n]] for n in names if n in self._ids)

    def self_of(self, *names: str) -> float:
        return sum(self.self_time[self._ids[n]] for n in names if n in self._ids)

    @property
    def self_sum(self) -> float:
        return sum(self.self_time)

    def save(self, path: Path) -> None:
        """Write the span table (one row per span) as ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            layers=np.array(self.layers, dtype=str),
            layer=np.array(self.span_layer, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            start=np.array(self.span_start, dtype=np.float64),
            end=np.array(self.span_end, dtype=np.float64),
        )


class _Patches:
    """Replaced attributes and their originals, for :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, property):
            self._set(cls, attr, property(make(original.fget)))
        else:
            self._set(cls, attr, make(original))

    def function(self, module: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function everywhere ``repro`` bound it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------- #
# Counts taken after a call returns
# --------------------------------------------------------------------- #


def _full_frame(tracer: Tracer, args: tuple, result: Any) -> None:
    detector, sequence, frame = args[0], args[1], args[2]
    tracer.counts["simdet.full_frame.frames"] += 1
    tracer.full_frame_keys.add(
        (detector.profile.name, detector.seed, sequence.name, int(frame))
    )


def _full_frame_batch(tracer: Tracer, args: tuple, result: Any) -> None:
    detector, items = args[0], args[1]
    tracer.counts["simdet.full_frame.frames"] += len(result)
    if isinstance(items, list):
        for sequence, frame in items:
            tracer.full_frame_keys.add(
                (detector.profile.name, detector.seed, sequence.name, int(frame))
            )


def _regions(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["simdet.region.frames"] += 1


def _regions_batch(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["simdet.region.frames"] += len(result)


def _tracker_update(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["tracker.live_tracks"] += getattr(args[0], "_size", 0)


def _frame_batch(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["engine.batch_frames"] += len(result)


def _store_io(prefix: str, loading: bool):
    def note(tracer: Tracer, args: tuple, result: Any) -> None:
        store, fingerprint = args[0], args[1]
        if loading:
            tracer.counts[f"{prefix}.loads"] += 1
            if result is None:
                return
            tracer.counts[f"{prefix}.hits"] += 1
            size = store.path_for(fingerprint).stat().st_size
            tracer.counts[f"{prefix}.bytes_read"] += size
        else:
            tracer.counts[f"{prefix}.stores"] += 1
            tracer.counts[f"{prefix}.bytes_written"] += Path(result).stat().st_size

    return note


def _server_run(prefix: str):
    def note(tracer: Tracer, args: tuple, report: Any) -> None:
        server = args[0]
        tracer.counts[f"{prefix}.frames_served"] += report.frames_served
        tracer.counts[f"{prefix}.frames_shed"] += report.frames_shed
        tracer.counts[f"{prefix}.batches"] += report.batches
        tracer.counts["served_frames"] += report.frames_served
        tracer.counts["replayed_frames"] += getattr(server, "frames_replayed", 0)
        wait = float(report.slo.get("fleet", {}).get("wait_p95_ms", 0.0))
        key = f"{prefix}.wait_p95_ms"
        tracer.counts[key] = max(tracer.counts[key], wait)
        if prefix == "fleet":
            tracer.counts["fleet.scale_events"] += len(report.scale_events)
            tracer.counts["fleet.replica_seconds"] += report.replica_seconds

    return note


def _tuned(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["tune.points"] += len(result.candidates)
    tracer.counts["tune.unique_points"] += sum(
        1 for c in result.candidates if getattr(c, "alias_of", None) is None
    )


def _parallel_map(tracer: Tracer, original: Callable) -> Callable:
    """``parallel_map`` in a span, timing its first result and its waits."""
    from repro.utils.parmap import resolve_workers

    layer = tracer.layer("parmap")

    @functools.wraps(original)
    def traced(fn, items, *, workers=1, on_progress=None, labels=None):
        start = time.perf_counter()
        first: List[float] = []

        def progress(done: int, total: int, label: str) -> None:
            if not first:
                first.append(time.perf_counter() - start)
            if on_progress is not None:
                on_progress(done, total, label)

        frame = tracer.enter(layer)
        try:
            return original(
                fn, items, workers=workers, on_progress=progress, labels=labels
            )
        finally:
            tracer.leave(frame)
            tracer.counts["parmap.items"] += len(items)
            tracer.counts["parmap.workers"] = max(
                tracer.counts["parmap.workers"], resolve_workers(workers, len(items))
            )
            if first:
                tracer.counts["parmap.first_result_s"] += first[0]

    return traced


# --------------------------------------------------------------------- #


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer's public calls; returns the undo function."""
    def module(name):
        # Packages re-export functions named like their modules
        # (``repro.boxes.nms``), so look modules up by their full name.
        return importlib.import_module(f"repro.{name}")

    api_cache, api_spec = module("api.cache"), module("api.spec")
    iou, mask, nms = module("boxes.iou"), module("boxes.mask"), module("boxes.nms")
    cost_model, stages = module("cost.model"), module("engine.stages")
    fleet_server, fleet_spec = module("fleet.server"), module("fleet.spec")
    fleet_tune, serve_tune = module("fleet.tune"), module("serve.tune")
    rcnn, retinanet = module("flops.rcnn"), module("flops.retinanet")
    hungarian, evaluate = module("hungarian.hungarian"), module("metrics.evaluate")
    registry, automaton = module("obs.registry"), module("query.automaton")
    batcher, loadgen, server = module("serve.batcher"), module("serve.loadgen"), module("serve.server")
    slo, trace = module("serve.slo"), module("serve.trace")
    detector, catdet_tracker = module("simdet.detector"), module("tracker.catdet_tracker")
    parmap = module("utils.parmap")

    patches = _Patches()

    def span(name, after=None):
        return lambda fn: tracer.wrap(fn, name, after)

    sim = detector.SimulatedDetector
    patches.method(sim, "detect_full_frame", span("simdet", _full_frame))
    patches.method(sim, "detect_full_frame_batch", span("simdet", _full_frame_batch))
    patches.method(sim, "detect_regions", span("simdet", _regions))
    patches.method(sim, "detect_regions_batch", span("simdet", _regions_batch))

    for attr in ("__init__", "union_area", "contains"):
        patches.method(mask.RegionMask, attr, span("boxes.mask"))
    for attr in ("nms", "class_aware_nms", "soft_nms"):
        patches.function(nms, attr, span("boxes.nms"))
    for attr in ("iou_matrix", "iou_pairwise", "ioa_matrix"):
        patches.function(iou, attr, span("boxes.iou"))

    tracker_cls = catdet_tracker.CaTDetTracker
    patches.method(tracker_cls, "predict", span("tracker.predict"))
    patches.method(tracker_cls, "update", span("tracker.update", _tracker_update))
    for attr in ("hungarian", "linear_sum_assignment"):
        patches.function(hungarian, attr, span("hungarian"))

    for cls in (rcnn.FasterRCNNOps, retinanet.RetinaNetOps, stages.MacsModel):
        for attr in ("full_frame", "regional"):
            patches.method(cls, attr, span("flops"))
    for attr in ("compute_seconds", "kernel_seconds", "batch_seconds",
                 "single_model_timing", "catdet_timing", "frame_timing"):
        patches.method(cost_model.CostModel, attr, span("cost"))

    patches.method(stages.StagePipeline, "run_frame", span("engine.run_frame"))
    patches.function(stages, "run_frame_batch", span("engine.run_frame_batch", _frame_batch))
    for name in STAGES:
        cls = getattr(stages, name)
        for attr in ("process", "process_batch", "end_frame", "end_frame_batch"):
            if attr in cls.__dict__:
                patches.method(cls, attr, span(f"engine.stage.{name}"))

    patches.function(evaluate, "evaluate_dataset", span("metrics.evaluate"))

    patches.method(api_cache.ResultCache, "load", span("api.cache", _store_io("api.cache", True)))
    patches.method(api_cache.ResultCache, "store", span("api.cache", _store_io("api.cache", False)))
    for store in (server.ServeReportStore, fleet_server.FleetReportStore):
        patches.method(store, "load", span("api.cache", _store_io("api.cache", True)))
        patches.method(store, "store", span("api.cache", _store_io("api.cache", False)))
    for cls in (api_spec.ExperimentSpec, api_spec.ServeSpec, fleet_spec.FleetSpec):
        patches.method(cls, "fingerprint", span("api.fingerprint"))
    for module, attr in ((api_cache, "fingerprint_dataset"),
                         (api_cache, "experiment_key"),
                         (trace, "trace_fingerprint")):
        patches.function(module, attr, span("api.fingerprint"))

    patches.method(trace.TraceStore, "load", span("serve.trace", _store_io("serve.trace", True)))
    patches.method(trace.TraceStore, "store", span("serve.trace", _store_io("serve.trace", False)))

    patches.method(server.DetectionServer, "run", span("serve.run", _server_run("serve")))
    patches.function(loadgen, "generate_load", span("serve.loadgen"))
    for attr in ("ready", "decide"):
        patches.method(batcher.MicroBatcher, attr, span("serve.batcher"))
    for attr in ("record", "record_shed"):
        patches.method(slo.SLOAccount, attr, span("serve.slo"))

    patches.function(serve_tune, "tune_policy", span("tune", _tuned))
    patches.function(fleet_tune, "tune_fleet", span("tune", _tuned))
    patches.method(fleet_server.FleetServer, "run", span("fleet.run", _server_run("fleet")))

    patches.method(automaton.QueryEvaluator, "observe", span("query"))
    for cls, attrs in ((registry.Counter, ("inc",)),
                       (registry.Gauge, ("set", "inc", "dec")),
                       (registry.Histogram, ("observe",))):
        for attr in attrs:
            patches.method(cls, attr, span("obs"))

    patches.function(parmap, "parallel_map", lambda fn: _parallel_map(tracer, fn))
    # parallel_map imports ``wait`` from the package at call time.
    patches._set(concurrent.futures, "wait", tracer.wrap(concurrent.futures.wait, "parmap.wait"))
    return patches.undo


def layer_values(tracer: Tracer) -> Dict[str, float]:
    """The span- and count-derived per-layer metrics of one traced iteration."""
    c = tracer.counts
    full_frames = c["simdet.full_frame.frames"]
    updates = tracer.calls_of("tracker.update")
    frame_batches = tracer.calls_of("engine.run_frame_batch")
    served, replayed = c["served_frames"], c["replayed_frames"]
    serve_batches = c["serve.batches"]
    stage_busy = {
        f"engine.stage.{name}.busy_s": tracer.busy_of(f"engine.stage.{name}")
        for name in STAGES
    }
    return {
        "simdet.full_frame.frames": full_frames,
        "simdet.region.frames": c["simdet.region.frames"],
        "simdet.invocations": tracer.calls_of("simdet"),
        "simdet.busy_s": tracer.busy_of("simdet"),
        "simdet.unique_key_share": (
            len(tracer.full_frame_keys) / full_frames if full_frames else 0.0
        ),
        "boxes.mask.calls": tracer.calls_of("boxes.mask"),
        "boxes.mask.busy_s": tracer.busy_of("boxes.mask"),
        "boxes.nms.calls": tracer.calls_of("boxes.nms"),
        "boxes.nms.busy_s": tracer.busy_of("boxes.nms"),
        "boxes.iou.calls": tracer.calls_of("boxes.iou"),
        "boxes.iou.busy_s": tracer.busy_of("boxes.iou"),
        "tracker.predict.calls": tracer.calls_of("tracker.predict"),
        "tracker.update.calls": updates,
        "tracker.busy_s": tracer.busy_of("tracker.predict", "tracker.update"),
        "tracker.live_tracks_mean": c["tracker.live_tracks"] / updates if updates else 0.0,
        "hungarian.calls": tracer.calls_of("hungarian"),
        "hungarian.busy_s": tracer.busy_of("hungarian"),
        "flops.busy_s": tracer.busy_of("flops"),
        "cost.busy_s": tracer.busy_of("cost"),
        "engine.run_frame.calls": tracer.calls_of("engine.run_frame"),
        "engine.run_frame_batch.calls": frame_batches,
        "engine.batch_frames_mean": (
            c["engine.batch_frames"] / frame_batches if frame_batches else 0.0
        ),
        **stage_busy,
        "engine.self_s": tracer.self_of("engine.run_frame", "engine.run_frame_batch"),
        "metrics.evaluate.calls": tracer.calls_of("metrics.evaluate"),
        "metrics.evaluate.busy_s": tracer.busy_of("metrics.evaluate"),
        "api.cache.loads": c["api.cache.loads"],
        "api.cache.hits": c["api.cache.hits"],
        "api.cache.stores": c["api.cache.stores"],
        "api.cache.bytes_read": c["api.cache.bytes_read"],
        "api.cache.bytes_written": c["api.cache.bytes_written"],
        "api.cache.busy_s": tracer.busy_of("api.cache"),
        "api.fingerprint.busy_s": tracer.busy_of("api.fingerprint"),
        "serve.run.self_s": tracer.self_of("serve.run"),
        "serve.loadgen.busy_s": tracer.busy_of("serve.loadgen"),
        "serve.batcher.calls": tracer.calls_of("serve.batcher"),
        "serve.batcher.busy_s": tracer.busy_of("serve.batcher"),
        "serve.slo.records": tracer.calls_of("serve.slo"),
        "serve.batches": serve_batches,
        "serve.mean_batch_size": (
            c["serve.frames_served"] / serve_batches if serve_batches else 0.0
        ),
        "serve.frames_shed": c["serve.frames_shed"],
        "serve.modeled_wait_p95_ms": c["serve.wait_p95_ms"],
        "serve.trace.loads": c["serve.trace.loads"],
        "serve.trace.stores": c["serve.trace.stores"],
        "serve.trace.bytes": c["serve.trace.bytes_read"] + c["serve.trace.bytes_written"],
        "serve.trace.busy_s": tracer.busy_of("serve.trace"),
        "serve.trace.replayed_share": replayed / served if served else 0.0,
        "tune.points": c["tune.points"],
        "tune.unique_points": c["tune.unique_points"],
        "tune.busy_s": tracer.busy_of("tune"),
        "fleet.run.self_s": tracer.self_of("fleet.run"),
        "fleet.scale_events": c["fleet.scale_events"],
        "fleet.replica_seconds": c["fleet.replica_seconds"],
        "query.observe.calls": tracer.calls_of("query"),
        "query.busy_s": tracer.busy_of("query"),
        "obs.observe.calls": tracer.calls_of("obs"),
        "obs.busy_s": tracer.busy_of("obs"),
        "parmap.items": c["parmap.items"],
        "parmap.workers": c["parmap.workers"],
        "parmap.busy_s": tracer.busy_of("parmap"),
        "parmap.first_result_s": c["parmap.first_result_s"],
        "parmap.wait_s": tracer.busy_of("parmap.wait"),
        "trace.self_sum_s": tracer.self_sum,
        "trace.spans": len(tracer.span_start),
    }
