"""Performance benchmark harness behind ``repro bench``.

Runs every registered system over deterministic synthetic sequences,
measures frames/sec with a per-stage wall-clock split, and micro-benchmarks
the vectorized hot-path kernels against their preserved scalar references
(:mod:`repro.boxes.reference`, :mod:`repro.tracker.reference`).  Results
are written as ``BENCH_<n>.json`` at the repository root so the project's
performance trajectory is a committed, diffable artifact.

Raw frames/sec are machine-dependent and therefore *recorded but not
gated*.  The regression gate compares the **batched/scalar speedup
ratios** — both sides of each ratio are measured in the same process on
the same machine, so the ratio transfers across heterogeneous CI runners.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.boxes.merge import greedy_merge_boxes
from repro.boxes.nms import nms
from repro.boxes.reference import scalar_greedy_merge_boxes, scalar_nms
from repro.core.config import SystemConfig, build_system
from repro.datasets.kitti import kitti_like_dataset
from repro.detections import Detections
from repro.obs.registry import MetricsRegistry
from repro.tracker.catdet_tracker import CaTDetTracker, TrackerConfig
from repro.tracker.reference import ScalarCaTDetTracker, ScalarSort
from repro.tracker.sort import Sort, SortConfig
from repro.utils.parmap import effective_cpu_count

#: The system configurations benchmarked per entry, one per registered kind.
BENCH_SYSTEMS: Dict[str, SystemConfig] = {
    "single": SystemConfig("single", "resnet50"),
    "cascade": SystemConfig("cascade", "resnet50", "resnet10a"),
    "catdet": SystemConfig("catdet", "resnet50", "resnet10a"),
    "keyframe": SystemConfig("keyframe", "resnet50"),
}

#: Tolerated fractional drop of a gated speedup ratio before the
#: comparison fails (the CI bench-smoke gate).
REGRESSION_TOLERANCE = 0.2

#: Ratios gated by :func:`check_regression` (dotted paths into the payload).
GATED_METRICS = (
    "kernels.tracker_catdet.speedup",
    "kernels.tracker_sort.speedup",
    "tune_sweep.speedup",
    "paper_e2e.speedup",
)

#: Concurrent stream counts measured by :func:`bench_serve_e2e`.
SERVE_E2E_STREAMS = (8, 64)


def bench_systems(
    num_sequences: int = 1,
    frames_per_sequence: int = 60,
    on_progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Frames/sec and per-stage split for every registered system.

    The split is the ``engine_stage_seconds`` histogram sums of
    :meth:`~repro.engine.stages.StagePipeline.instrument` (stage
    ``process`` time; recorded, never gated).
    """
    dataset = kitti_like_dataset(
        num_sequences=num_sequences, frames_per_sequence=frames_per_sequence
    )
    out: Dict[str, Any] = {}
    for name, config in BENCH_SYSTEMS.items():
        if on_progress:
            on_progress(f"system {name}")
        system = build_system(config)
        metrics = MetricsRegistry()
        frames = 0
        start = time.perf_counter()
        for sequence in dataset.sequences:
            system.build_pipeline().instrument(metrics).run_sequence(sequence)
            frames += sequence.num_frames
        elapsed = time.perf_counter() - start
        stage_seconds = metrics.get("engine_stage_seconds")
        out[name] = {
            "fps": frames / elapsed,
            "frames": frames,
            "seconds": elapsed,
            "stage_seconds": {
                stage: round(stage_seconds.sum((stage,)), 6)
                for (stage,) in stage_seconds.labels_seen()
            },
        }
    return out


def _tracker_frames(num_frames: int, objects: int, seed: int = 0) -> List[Detections]:
    """Deterministic smoothly-moving detection stream (many live tracks)."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 2000, size=(objects, 2))
    vel = rng.normal(scale=3.0, size=(objects, 2))
    sizes = rng.uniform(30, 120, size=objects)
    frames = []
    for t in range(num_frames):
        pos = base + vel * t
        boxes = np.concatenate([pos, pos + sizes[:, None]], axis=1)
        frames.append(
            Detections(
                boxes,
                rng.uniform(0.6, 1.0, size=objects),
                rng.integers(0, 2, size=objects),
            )
        )
    return frames


def _best_rate(fn: Callable[[], int], repeats: int) -> float:
    """Units/sec of ``fn`` (which returns its unit count), best of repeats."""
    best = np.inf
    units = 1
    for _ in range(repeats):
        start = time.perf_counter()
        units = fn()
        best = min(best, time.perf_counter() - start)
    return units / best


def bench_kernels(
    num_tracks: int = 60,
    num_frames: int = 40,
    repeats: int = 3,
    on_progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Vectorized-vs-scalar rates for the hot-path kernels.

    The tracker pair runs with ``num_tracks`` concurrent objects (the
    acceptance gate requires ≥2x at ≥50 tracks, so the default is 60).
    """
    frames = _tracker_frames(num_frames, num_tracks)
    out: Dict[str, Any] = {}

    def run_catdet(tracker_cls) -> int:
        tracker = tracker_cls(TrackerConfig(), image_size=(2100, 2100))
        for dets in frames:
            tracker.predict()
            tracker.update(dets)
        return len(frames)

    def run_sort(tracker_cls) -> int:
        tracker = tracker_cls(SortConfig(max_age=3))
        for dets in frames:
            tracker.update(dets)
        return len(frames)

    if on_progress:
        on_progress("kernel tracker_catdet")
    vec = _best_rate(lambda: run_catdet(CaTDetTracker), repeats)
    ref = _best_rate(lambda: run_catdet(ScalarCaTDetTracker), repeats)
    out["tracker_catdet"] = {
        "tracks": num_tracks,
        "vectorized_fps": vec,
        "scalar_fps": ref,
        "speedup": vec / ref,
    }

    if on_progress:
        on_progress("kernel tracker_sort")
    vec = _best_rate(lambda: run_sort(Sort), repeats)
    ref = _best_rate(lambda: run_sort(ScalarSort), repeats)
    out["tracker_sort"] = {
        "tracks": num_tracks,
        "vectorized_fps": vec,
        "scalar_fps": ref,
        "speedup": vec / ref,
    }

    # NMS over a crowded frame: clustered boxes so suppression does real work.
    rng = np.random.default_rng(1)
    centers = rng.uniform(0, 800, size=(60, 2))
    offsets = rng.normal(scale=12.0, size=(300, 2))
    pos = centers[rng.integers(0, 60, size=300)] + offsets
    sizes = rng.uniform(30, 90, size=(300, 1))
    nms_boxes = np.concatenate([pos, pos + sizes], axis=1)
    nms_scores = rng.uniform(0.1, 1.0, size=300)

    def run_nms(fn) -> int:
        for _ in range(20):
            fn(nms_boxes, nms_scores, 0.5)
        return 20

    if on_progress:
        on_progress("kernel nms")
    vec = _best_rate(lambda: run_nms(nms), repeats)
    ref = _best_rate(lambda: run_nms(scalar_nms), repeats)
    out["nms"] = {"boxes": 300, "vectorized_cps": vec, "scalar_cps": ref, "speedup": vec / ref}

    # Greedy merge on a mid-size region set (the refinement batching path).
    merge_boxes = np.concatenate(
        [
            rng.uniform(0, 1500, size=(48, 2)),
            np.zeros((48, 2)),
        ],
        axis=1,
    )
    merge_boxes[:, 2:] = merge_boxes[:, :2] + rng.uniform(40, 200, size=(48, 2))

    def run_merge(fn) -> int:
        for _ in range(5):
            fn(merge_boxes)
        return 5

    if on_progress:
        on_progress("kernel merge")
    vec = _best_rate(lambda: run_merge(greedy_merge_boxes), repeats)
    ref = _best_rate(lambda: run_merge(scalar_greedy_merge_boxes), repeats)
    out["merge"] = {"boxes": 48, "vectorized_cps": vec, "scalar_cps": ref, "speedup": vec / ref}
    return out


def bench_obs_overhead(
    frames_per_sequence: int = 60,
    repeats: int = 3,
    on_progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Instrumented-vs-plain engine throughput for the same workload.

    Runs the CaTDet pipeline over one synthetic sequence with and without
    :meth:`~repro.engine.stages.StagePipeline.instrument`, interleaved
    (so thermal/cache drift hits both sides equally) and best-of-repeats
    (so a GC pause can't sink one side).  The ``ratio`` —
    instrumented fps over plain fps — is what CI gates (≥ 0.97): the
    per-stage timing and frame counters must cost under ~3%.
    """
    from repro.obs.registry import MetricsRegistry

    if on_progress:
        on_progress("obs overhead")
    dataset = kitti_like_dataset(
        num_sequences=1, frames_per_sequence=frames_per_sequence
    )
    config = BENCH_SYSTEMS["catdet"]

    def run(instrumented: bool) -> float:
        system = build_system(config)
        frames = 0
        start = time.perf_counter()
        for sequence in dataset.sequences:
            pipeline = system.build_pipeline()
            if instrumented:
                pipeline.instrument(MetricsRegistry())
            pipeline.run_sequence(sequence)
            frames += sequence.num_frames
        return frames / (time.perf_counter() - start)

    plain = 0.0
    instrumented = 0.0
    for _ in range(repeats):
        plain = max(plain, run(False))
        instrumented = max(instrumented, run(True))
    return {
        "frames": frames_per_sequence,
        "repeats": repeats,
        "plain_fps": plain,
        "instrumented_fps": instrumented,
        "ratio": instrumented / plain,
    }


def bench_tune_sweep(
    workers: Optional[int] = None,
    on_progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Cold 12-point policy sweep: serial live compute vs fast tuning.

    The baseline re-runs the full engine for every grid point — the
    pre-compute/timing-split behavior.  The fast side is a cold
    ``tune_policy`` sweep over the same grid with a fresh cache: grid
    dedupe collapses the inert ``max_wait_ms`` axis at batch size 1, cold
    points record the shared compute trace in-process until one sheds
    nothing or replays it without going live (a sequence lane computes
    each sequence's frames once for both of its streams), and the rest
    replay it across ``workers`` processes.  Both sides run in this
    process on this machine, so the ``speedup`` ratio transfers across
    CI runners and is gated like the kernel ratios.
    """
    import tempfile
    from dataclasses import replace

    from repro.api.session import Session
    from repro.api.spec import DatasetSpec, ServeSpec
    from repro.serve import LoadSpec, ServePolicy, ServiceModel

    if workers is None:
        workers = min(2, effective_cpu_count())
    spec = ServeSpec(
        system=SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False),
        dataset=DatasetSpec("kitti", num_sequences=2, frames_per_sequence=60),
        load=LoadSpec(
            pattern="uniform", num_streams=4, rate_hz=10.0, frames_per_stream=50
        ),
        policy=ServePolicy(slo_ms=500.0),
        service=ServiceModel(invocation_overhead_ms=50.0, gops_per_second=1e6),
    )
    batch_grid = (1, 2, 4)
    wait_grid = (0.0, 10.0, 25.0, 50.0)
    grid = [(b, w) for b in batch_grid for w in wait_grid]

    if on_progress:
        on_progress("tune_sweep serial baseline")
    live = Session()  # no cache: every point is a full engine pass
    start = time.perf_counter()
    for batch, wait in grid:
        point = replace(
            spec,
            policy=replace(spec.policy, max_batch_size=batch, max_wait_ms=wait),
        )
        live.serve(point, use_cache=False)
    serial_seconds = time.perf_counter() - start

    if on_progress:
        on_progress(f"tune_sweep fast ({workers} workers)")
    with tempfile.TemporaryDirectory() as tmp:
        session = Session(cache_dir=tmp)
        start = time.perf_counter()
        result = session.tune_serve(
            spec,
            slo_p99_ms=300.0,
            batch_sizes=batch_grid,
            max_waits_ms=wait_grid,
            workers=workers,
        )
        fast_seconds = time.perf_counter() - start
        aliases = sum(1 for c in result.candidates if c.alias_of is not None)
    return {
        "grid_points": len(grid),
        "unique_points": len(grid) - aliases,
        "workers": workers,
        "serial_seconds": serial_seconds,
        "fast_seconds": fast_seconds,
        "speedup": serial_seconds / fast_seconds,
        "frames_replayed": session.frames_replayed,
    }


def bench_paper_e2e(
    on_progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Cold Figure-6-shaped grid: one ``Session`` for the grid vs one per point.

    Both sides compute all 13 points with no result cache: the single
    ResNet-50 baseline plus CaTDet and the cascade at three C-thresh
    values over two proposal models.  Through one session the points
    share full-frame detector draws (see
    :class:`~repro.simdet.detector.DrawMemo`); a fresh session per point
    samples every draw again.  Each pair runs both sides back to back,
    alternating which goes first, and ``speedup`` is the median of the
    per-pair ratios, so load drift on the host hits both sides alike.
    """
    from repro.api.session import Session
    from repro.api.spec import DatasetSpec, EvalSpec, ExperimentSpec

    pairs = 5
    dataset = DatasetSpec("kitti", num_sequences=6, frames_per_sequence=4)
    grid = [SystemConfig("single", "resnet50")] + [
        SystemConfig(kind, "resnet50", model, c_thresh=c)
        for model in ("resnet10a", "resnet18")
        for kind in ("catdet", "cascade")
        for c in (0.05, 0.2, 0.5)
    ]
    specs = [ExperimentSpec(config, dataset, EvalSpec(("hard",))) for config in grid]
    Session().dataset(dataset)  # world generation is set-up, not sweep time

    def per_point() -> None:
        for spec in specs:
            Session().run(spec)

    def one_session() -> None:
        session = Session()
        for spec in specs:
            session.run(spec)

    def seconds(fn: Callable[[], None]) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    per_point_s, shared_s = [], []
    for i in range(pairs):
        if on_progress:
            on_progress(f"paper_e2e pair {i + 1}/{pairs}")
        if i % 2:
            shared_s.append(seconds(one_session))
            per_point_s.append(seconds(per_point))
        else:
            per_point_s.append(seconds(per_point))
            shared_s.append(seconds(one_session))
    ratios = sorted(a / b for a, b in zip(per_point_s, shared_s))
    return {
        "grid_points": len(specs),
        "pairs": pairs,
        "cpus": effective_cpu_count(),
        "per_point_seconds": statistics.median(per_point_s),
        "shared_seconds": statistics.median(shared_s),
        "speedup": statistics.median(ratios),
        "speedup_range": [ratios[0], ratios[-1]],
    }


def bench_serve_e2e(on_progress: Optional[Callable[[str], None]] = None) -> Dict[str, Any]:
    """Host wall µs per served frame (median of 3 cold servers) beside the
    modelled :class:`~repro.serve.ServiceModel` device µs, unbatched and in
    batches of up to 8, plus replaying the same deployment from its compute
    trace and the live/replayed ratio.  None is gated: host µs depend on the
    machine, and the ratio waits for one interleaved measurement helper."""
    from repro.serve import DetectionServer, LoadSpec, ServePolicy, ServiceModel, generate_load

    system = SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False)
    service = ServiceModel.for_device("datacenter")
    out: Dict[str, Any] = {}
    for n in SERVE_E2E_STREAMS:
        load = LoadSpec(pattern="poisson", num_streams=n, rate_hz=2.0, frames_per_stream=10)
        requests = generate_load(load, kitti_like_dataset(num_sequences=n, frames_per_sequence=10))
        for batch in (1, 8):
            if on_progress:
                on_progress(f"serve_e2e {n} streams, batch {batch}")
            policy = ServePolicy(max_batch_size=batch, max_wait_ms=25.0, queue_capacity=1024)
            recorder = DetectionServer(system, policy=policy, service=service, record_trace=True)
            recorder.run(requests)
            live, replayed = (
                [DetectionServer(system, policy=policy, service=service, trace=trace)
                 .run(requests) for _ in range(3)]
                for trace in (None, recorder.recorded_trace)
            )
            frames = max(live[0].frames_served, 1)
            live_us, replayed_us = (
                statistics.median(r.wall_seconds for r in runs) / frames * 1e6
                for runs in (live, replayed)
            )
            out[f"streams_{n}_batch_{batch}"] = {
                "cpus": effective_cpu_count(),
                "host_us_per_frame": live_us,
                "replayed_host_us_per_frame": replayed_us,
                "replay_speedup": live_us / replayed_us,
                "device_us_per_frame": live[0].compute_seconds / frames * 1e6,
            }
    return out


def bench_metrics(repeats: int = 3) -> Dict[str, Any]:
    """Calls/sec of ``mean_delay(0.8)`` and ``mean_ap()`` on a fixed, seeded
    pool of two classes with 2,000 scores and 100 tracks each, as a warm
    cache hit holds it: after an ``evaluation_to_dict`` /
    ``evaluation_from_dict`` round trip (never gated)."""
    from repro.harness.io import evaluation_from_dict, evaluation_to_dict
    from repro.metrics.delay import TrackDelayRecord
    from repro.metrics.evaluate import ClassEvaluation, EvaluationResult

    rng = np.random.default_rng(0)
    per_class = []
    for label in (0, 1):
        scores = rng.random(2000)
        tp = rng.random(2000) < scores  # score-correlated correctness
        tracks = [TrackDelayRecord(list(range(10)), rng.random(10).tolist(), True) for _ in range(100)]
        per_class.append(ClassEvaluation(label, str(label), scores, tp, 1500, tracks))
    result = evaluation_from_dict(evaluation_to_dict(EvaluationResult("hard", per_class)))
    return {
        "cpus": effective_cpu_count(),
        "scores_per_class": 2000,
        "mean_delay_cps": _best_rate(lambda: len([result.mean_delay(0.8) for _ in range(20)]), repeats),
        "mean_ap_cps": _best_rate(lambda: len([result.mean_ap() for _ in range(20)]), repeats),
    }


def run_bench(
    quick: bool = False,
    num_tracks: int = 60,
    on_progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the full harness and return the BENCH payload."""
    if quick:
        # Quick cuts repeats and the system-level frame counts, but keeps
        # the kernel workloads identical to the full run: the gated
        # speedup ratios must stay comparable to the committed baseline.
        systems = bench_systems(num_sequences=1, frames_per_sequence=20, on_progress=on_progress)
        kernels = bench_kernels(
            num_tracks=num_tracks, repeats=1, on_progress=on_progress
        )
        obs_overhead = bench_obs_overhead(
            frames_per_sequence=20, repeats=2, on_progress=on_progress
        )
    else:
        systems = bench_systems(num_sequences=2, frames_per_sequence=60, on_progress=on_progress)
        kernels = bench_kernels(num_tracks=num_tracks, on_progress=on_progress)
        obs_overhead = bench_obs_overhead(on_progress=on_progress)
    # The sweep workloads are identical in quick and full mode for the
    # same reason the kernel workloads are: their speedup ratios are gated.
    tune_sweep = bench_tune_sweep(on_progress=on_progress)
    paper_e2e = bench_paper_e2e(on_progress=on_progress)
    serve_e2e = bench_serve_e2e(on_progress=on_progress)
    metrics = bench_metrics(repeats=1 if quick else 3)
    return {
        "schema": 1,
        "quick": quick,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": effective_cpu_count(),
            "machine": platform.machine(),
        },
        "systems": systems,
        "kernels": kernels,
        "obs_overhead": obs_overhead,
        "tune_sweep": tune_sweep,
        "paper_e2e": paper_e2e,
        "serve_e2e": serve_e2e,
        "metrics": metrics,
    }


# --------------------------------------------------------------------------- #
# BENCH_<n>.json trajectory files
# --------------------------------------------------------------------------- #

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


def list_bench_files(root: Path) -> List[Tuple[int, Path]]:
    """Committed trajectory entries under ``root``, sorted by index."""
    entries = []
    for path in root.glob("BENCH_*.json"):
        match = _BENCH_RE.match(path.name)
        if match:
            entries.append((int(match.group(1)), path))
    return sorted(entries)


def latest_bench(root: Path) -> Optional[Tuple[int, Dict[str, Any]]]:
    """The highest-index committed entry, parsed (None when none exist)."""
    entries = list_bench_files(root)
    if not entries:
        return None
    index, path = entries[-1]
    return index, json.loads(path.read_text())


def write_bench(root: Path, payload: Dict[str, Any]) -> Path:
    """Write the next ``BENCH_<n>.json`` under ``root``; returns its path."""
    entries = list_bench_files(root)
    index = entries[-1][0] + 1 if entries else 1
    payload = dict(payload, index=index)
    path = root / f"BENCH_{index}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _lookup(payload: Dict[str, Any], dotted: str) -> Optional[float]:
    node: Any = payload
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = REGRESSION_TOLERANCE,
) -> List[str]:
    """Gated-metric regressions of ``current`` vs ``baseline``.

    Returns human-readable failure strings (empty = pass).  Only the
    machine-independent speedup ratios are gated; raw fps are recorded
    for trajectory context but never compared across machines.
    """
    failures = []
    for metric in GATED_METRICS:
        base = _lookup(baseline, metric)
        cur = _lookup(current, metric)
        if base is None or cur is None:
            continue
        floor = base * (1.0 - tolerance)
        if cur < floor:
            failures.append(
                f"{metric}: {cur:.2f}x is more than {tolerance:.0%} below "
                f"the committed baseline {base:.2f}x (floor {floor:.2f}x)"
            )
    return failures
