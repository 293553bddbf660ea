"""The benchmark's workloads: inputs from a seed, timed passes, output checks.

Each workload builds its inputs from ``seed`` in :meth:`Workload.build`
(timed as set-up), then :meth:`Workload.iterate` runs one measured
iteration made of two timed passes and returns the outputs reduced to a
digest.  Modelled latencies, ops and mAP are deterministic outputs of
the simulation, so they are checked here and never timed.

* ``paper_sweep`` — a Figure-6-shaped grid through ``Session``: a cold
  pass into an empty result cache, then warm re-runs of the same grid.
* ``serve_64`` — an open-loop Poisson schedule for 64 camera streams,
  served live by ``DetectionServer`` and then by an autoscaled
  ``FleetServer``.
* ``tune_sweep`` — ``Session.tune_serve`` plus ``Session.tune_fleet`` for
  one 16-stream deployment at two workers, cold and then warm.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro.api.session import Session, build_dataset
from repro.api.spec import DatasetSpec, EvalSpec, ExperimentSpec, ServeSpec
from repro.core.config import SystemConfig
from repro.datasets.types import Dataset
from repro.fleet import AutoscalerPolicy, FleetServer, FleetSpec
from repro.obs.registry import MetricsRegistry
from repro.query import ClassPresent, Eventually, QuerySpec, Region, Then
from repro.query import TrackEnteredRegion, TrackPersisted
from repro.serve import DetectionServer, LoadSpec, ServePolicy, ServiceModel
from repro.serve import generate_load

#: Seed whose output digests are recorded in ``golden.json``.
DEFAULT_SEED = 0

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def digest(payload: Any) -> str:
    """sha256 over the canonical JSON of ``payload`` (floats exact)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def timed(fn):
    """``(fn(), seconds)``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def fresh_dataset(spec: DatasetSpec) -> Dataset:
    """Build ``spec``'s dataset from scratch, leaving it memoized for ``Session``."""
    build_dataset.cache_clear()
    return build_dataset(spec)


@dataclass
class Iteration:
    """One measured iteration: two timed passes and their checked outputs.

    A pass is timed in parts (a sweep's points, a tune's two grids), so
    that a pass time can be estimated as the sum of each part's median
    over iterations.  ``first_s`` holds the first pass's part times; the
    second pass may repeat (warm passes are short), so ``second_s`` holds
    the part times of every repeat.
    """

    first_s: List[float]
    second_s: List[List[float]]
    digest: str
    attempted: int
    failures: List[str] = field(default_factory=list)
    #: Per-pass frame counts and similar facts for the context line.
    details: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """Base class: ``build`` is set-up, ``iterate`` is one measured iteration."""

    name = ""
    why = ""
    first_pass = ""
    second_pass = ""
    #: Worker processes the workload asks the program for.
    workers = 1
    #: Input dimensions by size name: ``full`` is measured, ``tiny`` is
    #: for the benchmark's own tests.
    SIZES: Dict[str, Dict[str, int]] = {}

    def __init__(self, seed: int, size: str, scratch: Path):
        if size not in self.SIZES:
            raise ValueError(f"unknown size {size!r}; known: {sorted(self.SIZES)}")
        self.seed = int(seed)
        self.size = size
        self.scratch = Path(scratch)
        self._runs = 0

    @property
    def dims(self) -> Dict[str, int]:
        return self.SIZES[self.size]

    def build(self) -> None:
        raise NotImplementedError

    def iterate(self) -> Iteration:
        raise NotImplementedError

    def final_checks(self) -> List[str]:
        """Checks run once after the measured loop, outside any timing."""
        return []

    def quality(self) -> Dict[str, float]:
        """Deterministic quality numbers (only ``paper_sweep`` has any)."""
        return {}

    def golden_failures(self, observed: str) -> List[str]:
        """A mismatch against the recorded digest (default seed and size)."""
        if self.seed != DEFAULT_SEED or self.size != "full":
            return []
        recorded = json.loads(GOLDEN_PATH.read_text()).get(self.name)
        if recorded is None or recorded == observed:
            return []
        return [f"{self.name}: digest {observed[:16]} != recorded {recorded[:16]}"]

    def _cache_dir(self) -> Path:
        """A new, empty cache directory under the run's scratch directory."""
        self._runs += 1
        return self.scratch / f"{self.name}-cache-{self._runs}"


# --------------------------------------------------------------------- #
# paper_sweep
# --------------------------------------------------------------------- #

#: Figure 6's proposal models and C-thresh values (as in the repository's
#: Figure-6 benchmark), each with and without the tracker, plus the
#: single-model ResNet-50 baseline.
SWEEP_MODELS = ("resnet10a", "resnet10c", "resnet18")
SWEEP_C_VALUES = (0.02, 0.1, 0.3, 0.6)
SWEEP_KINDS = ("catdet", "cascade")
#: The paper's default operating point, whose quality is reported.
DEFAULT_POINT = SystemConfig("catdet", "resnet50", "resnet10a", c_thresh=0.1)
BASELINE = SystemConfig("single", "resnet50")


class PaperSweep(Workload):
    name = "paper_sweep"
    why = (
        "Figure-6 grid through Session, cold then warm: simdet sampling, boxes, "
        "tracker and metrics on the batch-1 engine path, plus cache writes and reads"
    )
    first_pass = "cold sweep into an empty result cache"
    second_pass = "warm re-run of the same grid from the cache"
    # Many short sequences: the grid's cost follows the objects in view,
    # and twelve sequences keep their count within a few percent across seeds.
    SIZES = {
        "full": {"sequences": 12, "frames": 4, "warm_repeats": 3},
        "tiny": {"sequences": 1, "frames": 8, "warm_repeats": 1},
    }

    def build(self) -> None:
        dims = self.dims
        dataset = DatasetSpec(
            "kitti",
            num_sequences=dims["sequences"],
            frames_per_sequence=dims["frames"],
            seed=self.seed,
        )
        evaluation = EvalSpec(difficulties=("hard",))
        systems = [BASELINE] + [
            SystemConfig(kind, "resnet50", model, c_thresh=c)
            for model in SWEEP_MODELS
            for kind in SWEEP_KINDS
            for c in SWEEP_C_VALUES
        ]
        self.specs = [ExperimentSpec(s, dataset, evaluation) for s in systems]
        fresh_dataset(dataset)
        self._results = None

    def _run(self, session: Session):
        """Every point through ``session``: results, outputs, point times.

        The sweep's outputs (mAP, mD, Gops per point) are computed inside
        the timed points: a Figure-6 sweep is not done before they are.
        """
        gc.collect()
        results, outputs, times = [], [], []
        for spec in self.specs:
            start = time.perf_counter()
            r = session.run(spec)
            outputs.append(
                [spec.system.label, r.mean_ap("hard"), r.mean_delay("hard"), r.ops_gops]
            )
            times.append(time.perf_counter() - start)
            results.append(r)
        return results, outputs, times

    def iterate(self) -> Iteration:
        cache = self._cache_dir()
        points = len(self.specs)
        repeats = self.dims["warm_repeats"]
        failures: List[str] = []

        cold, outputs, first_s = self._run(Session(cache_dir=cache))
        cold_digest = digest(outputs)

        warm_times = []
        for _ in range(repeats):
            session = Session(cache_dir=cache)
            _, outputs, seconds = self._run(session)
            warm_times.append(seconds)
            if session.cache_hits != points:
                failures.append(f"warm pass hit {session.cache_hits}/{points} points")
            if digest(outputs) != cold_digest:
                failures.append("warm outputs differ from the cold pass")
        shutil.rmtree(cache, ignore_errors=True)
        self._results = cold
        frames = self.dims["sequences"] * self.dims["frames"]
        return Iteration(
            first_s=first_s,
            second_s=warm_times,
            digest=cold_digest,
            attempted=points * (1 + repeats),
            failures=failures,
            details={"points": points, "point_frames": points * frames},
        )

    def quality(self) -> Dict[str, float]:
        if self._results is None:
            return {}
        by_config = {spec.system: r for spec, r in zip(self.specs, self._results)}
        point, base = by_config[DEFAULT_POINT], by_config[BASELINE]
        return {
            "ops_reduction_x": base.ops_gops / point.ops_gops,
            "map_delta": point.mean_ap("hard") - base.mean_ap("hard"),
            "delay_delta_frames": point.mean_delay("hard") - base.mean_delay("hard"),
        }


# --------------------------------------------------------------------- #
# serve_64
# --------------------------------------------------------------------- #

SERVE_SYSTEM = SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False)
#: "A car appears, then persists five frames, then enters the right edge"
#: (the scenario query of the repository's query demo).
SERVE_QUERY = QuerySpec(
    "car-appears-persists-enters-right-edge",
    Then(
        (
            Eventually(ClassPresent(0)),
            Eventually(TrackPersisted(5, label=0), within=40),
            Eventually(TrackEnteredRegion(Region(1000, 0, 1242, 375), label=0), within=60),
        )
    ),
)


def _frame_keys(frames) -> List[Any]:
    return [
        (fr.frame, fr.detections.boxes.tobytes(), fr.detections.scores.tobytes(),
         fr.detections.labels.tobytes())
        for fr in frames
    ]


class Serve64(Workload):
    name = "serve_64"
    why = (
        "open-loop Poisson load from 64 streams with no repeated detector key: "
        "batched engine path, serve and fleet loops, query and obs; no cache"
    )
    first_pass = "DetectionServer run of the whole schedule"
    second_pass = "autoscaled FleetServer run of the same schedule"
    STREAMS = 64
    RATE_HZ = 2.0
    SIZES = {
        "full": {"frames": 10},
        "tiny": {"frames": 3},
    }

    def build(self) -> None:
        frames = self.dims["frames"]
        self.dataset_spec = DatasetSpec(
            "kitti",
            num_sequences=self.STREAMS,
            frames_per_sequence=frames,
            seed=self.seed,
        )
        self.load = LoadSpec(
            pattern="poisson",
            num_streams=self.STREAMS,
            rate_hz=self.RATE_HZ,
            frames_per_stream=frames,
            seed=self.seed,
        )
        self.policy = ServePolicy(
            max_batch_size=8, max_wait_ms=25.0, queue_capacity=1024, slo_ms=500.0
        )
        self.service = ServiceModel.for_device("datacenter")
        self.fleet_spec = FleetSpec(
            system=SERVE_SYSTEM,
            dataset=self.dataset_spec,
            load=self.load,
            policy=self.policy,
            replicas=1,
            devices=("edge",),
            autoscaler=AutoscalerPolicy(
                min_replicas=1, max_replicas=4, interval_s=0.5, cooldown_s=1.0,
                slo_p99_ms=500.0,
            ),
            query=SERVE_QUERY,
        )
        self.dataset = fresh_dataset(self.dataset_spec)
        self.requests = generate_load(self.load, self.dataset)
        self._last = None

    def _server(self) -> DetectionServer:
        return DetectionServer(
            SERVE_SYSTEM,
            policy=self.policy,
            service=self.service,
            query=SERVE_QUERY,
            metrics=MetricsRegistry(),
        )

    def iterate(self) -> Iteration:
        server = self._server()
        gc.collect()
        served, first_s = timed(lambda: server.run(self.requests))
        fleet = FleetServer(self.fleet_spec, metrics=MetricsRegistry())
        gc.collect()
        fleet_report, second_s = timed(lambda: fleet.run(self.requests))

        failures: List[str] = []
        offered = len(self.requests)
        for label, report in (("serve", served), ("fleet", fleet_report)):
            if report.frames_served + report.frames_shed != report.frames_offered:
                failures.append(f"{label}: served + shed != offered")
            if report.frames_offered != offered:
                failures.append(f"{label}: offered {report.frames_offered} != {offered}")
            failures.extend(
                f"{label}: frame shed" for _ in range(report.frames_shed)
            )
        self._last = (served, fleet_report)
        return Iteration(
            first_s=[first_s],
            second_s=[[second_s]],
            digest=digest([served.to_dict(), fleet_report.to_dict()]),
            attempted=2 * offered,
            failures=failures,
            details={
                "frames": offered,
                "serve_us_per_frame": first_s / max(served.frames_served, 1) * 1e6,
                "fleet_us_per_frame": second_s / max(fleet_report.frames_served, 1) * 1e6,
                "mean_batch_size": served.mean_batch_size,
                "utilization": served.utilization,
            },
        )

    def final_checks(self) -> List[str]:
        """A sampled stream's served detections equal an offline run."""
        if self._last is None:
            return ["no served run to check"]
        index = self.seed % self.STREAMS
        sequence = self.dataset.sequences[index]
        stream = f"s{index}:{sequence.name}"
        single = Dataset(
            name=self.dataset.name,
            classes=self.dataset.classes,
            sequences=[sequence],
        )
        offline = Session().run_experiment(SERVE_SYSTEM, single, use_cache=False)
        expected = _frame_keys(offline.run.sequences[sequence.name].frames)
        failures = []
        for label, report in zip(("serve", "fleet"), self._last):
            if _frame_keys(report.frame_results[stream]) != expected:
                failures.append(f"{label}: stream {stream} differs from offline run")
        return failures


# --------------------------------------------------------------------- #
# tune_sweep
# --------------------------------------------------------------------- #

TUNE_BATCH_SIZES = (1, 2, 4, 8)
TUNE_MAX_WAITS_MS = (0.0, 10.0, 25.0, 50.0)
TUNE_REPLICA_COUNTS = (1, 2, 3, 4)
TUNE_FLEET_BATCH_SIZES = (1, 4, 8)
TUNE_SLO_P99_MS = 400.0


class TuneSweep(Workload):
    name = "tune_sweep"
    why = (
        "cold then warm serve and fleet tuning at 2 workers: one engine pass, "
        "then trace record and replay, report stores, grid dedupe and parmap"
    )
    first_pass = "cold tune_serve + tune_fleet into an empty cache"
    second_pass = "warm re-tune of both grids from the cache"
    workers = 2
    STREAMS = 16
    SIZES = {
        "full": {"sequences": 4, "frames": 40, "warm_repeats": 30},
        "tiny": {"sequences": 2, "frames": 4, "warm_repeats": 2},
    }

    def build(self) -> None:
        dims = self.dims
        dataset = DatasetSpec(
            "kitti",
            num_sequences=dims["sequences"],
            frames_per_sequence=dims["frames"],
            seed=self.seed,
        )
        load = LoadSpec(
            pattern="poisson",
            num_streams=self.STREAMS,
            rate_hz=4.0,
            frames_per_stream=dims["frames"],
            seed=self.seed,
        )
        policy = ServePolicy(queue_capacity=1024, slo_ms=TUNE_SLO_P99_MS)
        self.serve_spec = ServeSpec(
            system=SERVE_SYSTEM, dataset=dataset, load=load, policy=policy,
            device="datacenter",
        )
        self.fleet_spec = FleetSpec(
            system=SERVE_SYSTEM, dataset=dataset, load=load, policy=policy,
            devices=("datacenter",),
        )
        fresh_dataset(dataset)

    def _tune(self, session: Session):
        """Both tuners through ``session``: their results and times."""
        gc.collect()
        serve, serve_s = timed(
            lambda: session.tune_serve(
                self.serve_spec,
                slo_p99_ms=TUNE_SLO_P99_MS,
                batch_sizes=TUNE_BATCH_SIZES,
                max_waits_ms=TUNE_MAX_WAITS_MS,
                workers=self.workers,
            )
        )
        fleet, fleet_s = timed(
            lambda: session.tune_fleet(
                self.fleet_spec,
                slo_p99_ms=TUNE_SLO_P99_MS,
                replica_counts=TUNE_REPLICA_COUNTS,
                batch_sizes=TUNE_FLEET_BATCH_SIZES,
                workers=self.workers,
            )
        )
        return serve, fleet, [serve_s, fleet_s]

    @staticmethod
    def _outputs(serve, fleet) -> Dict[str, Any]:
        def best(result):
            return None if result.best is None else result.candidates.index(result.best)

        return {
            "serve": [
                [c.spec.policy.to_dict(), c.report.to_dict(), c.feasible, c.alias_of]
                for c in serve.candidates
            ],
            "serve_best": best(serve),
            "fleet": [
                [c.spec.replicas, list(c.spec.devices), c.spec.policy.max_batch_size,
                 c.report.to_dict(), c.feasible]
                for c in fleet.candidates
            ],
            "fleet_best": best(fleet),
        }

    @staticmethod
    def _check(serve, fleet) -> List[str]:
        failures = []
        for c in list(serve.candidates) + list(fleet.candidates):
            r = c.report
            if r.frames_served + r.frames_shed != r.frames_offered:
                failures.append("tune candidate: served + shed != offered")
        for label, result in (("serve", serve), ("fleet", fleet)):
            best = result.best
            if best is None:
                failures.append(f"{label} tuner found no feasible point")
                continue
            report = best.report
            if not (
                best.feasible
                and report.frames_shed == 0
                and float(report.slo["fleet"]["p99_ms"]) <= TUNE_SLO_P99_MS
                and not getattr(report, "dead_streams", [])
            ):
                failures.append(f"{label} tuner's best point is not feasible")
        return failures

    def iterate(self) -> Iteration:
        cache = self._cache_dir()
        repeats = self.dims["warm_repeats"]

        serve, fleet, first_s = self._tune(Session(cache_dir=cache))
        outputs = self._outputs(serve, fleet)
        cold_digest = digest(outputs)
        failures = self._check(serve, fleet)
        points = len(serve.candidates) + len(fleet.candidates)

        warm_times = []
        for _ in range(repeats):
            *warm, seconds = self._tune(Session(cache_dir=cache))
            warm_times.append(seconds)
            if digest(self._outputs(*warm)) != cold_digest:
                failures.append("warm re-tune differs from the cold tune")
        shutil.rmtree(cache, ignore_errors=True)
        unique = sum(1 for c in serve.candidates if c.alias_of is None)
        return Iteration(
            first_s=first_s,
            second_s=warm_times,
            digest=cold_digest,
            attempted=points * (1 + repeats),
            failures=failures,
            details={
                "points": points,
                "unique_points": unique + len(fleet.candidates),
                "serve_best": outputs["serve_best"],
                "fleet_best": outputs["fleet_best"],
            },
        )


WORKLOADS = {w.name: w for w in (PaperSweep, Serve64, TuneSweep)}

