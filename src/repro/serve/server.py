"""The detection server: one shared engine, many concurrent streams.

:class:`DetectionServer` serves many concurrent camera streams through
one shared engine: per-stream causal pipeline state (one tracker per
stream, detectors shared across all of them), a bounded admission queue
with a shedding policy, and a :class:`~repro.serve.batcher.MicroBatcher`
that coalesces the streams' detector calls into cross-stream batched
invocations.  It is a static one-replica front over the same event loop
that runs fleets (:mod:`repro.fleet.loop`), so a 1-replica fleet and the
bare server are one simulation.

Execution is a deterministic discrete-event simulation.  Wall time on
the host measures *this machine's Python*, not the modeled accelerator;
instead, every dispatched batch is charged a service time by the
:class:`ServiceModel` from two measured quantities — how many batched
detector invocations the batch actually made (the per-call fixed
overhead being amortized) and how many MACs its frames cost (the ops
accounting the pipeline already produces).  Queue waits, latencies and
SLO statistics all live on this simulated clock, so a served
configuration is a pure function of its spec: reports are reproducible,
cacheable, and safe to assert on in tests.

Per-frame detections are byte-identical to the offline serial path
whatever the batch composition — the determinism contract keys every
sample by ``(model, seed, sequence, frame)``, never by batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Optional, Sequence as SequenceType, Union

from repro import schema
from repro.api.cache import EntryStore
from repro.api.spec import ServeSpec
from repro.core.config import SystemConfig
from repro.core.results import FrameResult
from repro.core.systems import DetectionSystem
from repro.obs.registry import MetricsRegistry
from repro.obs.sinks import Sink
from repro.serve.loadgen import FrameRequest
from repro.serve.slo import DEFAULT_MAX_EXACT_SAMPLES

# Format 2 added shed-reason splits, queue-wait/compute percentiles and
# fleet histograms to the SLO section; format 3 added the scenario-query
# section (`query_windows`).  Older cache entries fail `from_dict` and
# are therefore clean cache misses, never misreads.
REPORT_FORMAT = "repro-serve-report/3"

#: Shedding policies for a full admission queue.
SHED_OLDEST = "oldest"  #: drop the oldest queued frame, admit the new one
SHED_NEWEST = "newest"  #: reject the arriving frame, keep the queue
SHED_POLICIES = (SHED_OLDEST, SHED_NEWEST)


@dataclass(frozen=True)
class ServePolicy(schema.Schema):
    """Admission + batching + SLO knobs of one server deployment.

    Parameters
    ----------
    max_batch_size / max_wait_ms:
        Micro-batching policy (see :class:`~repro.serve.batcher.MicroBatcher`).
    queue_capacity:
        Bound on queued (admitted, undispatched) frames; arrivals beyond
        it trigger the shedding policy.
    shed_policy:
        ``"oldest"`` sheds the longest-queued frame in favour of the
        arrival (fresh frames are worth more than stale ones on a live
        feed); ``"newest"`` rejects the arrival.
    slo_ms:
        End-to-end latency objective used for violation counting.
    """

    max_batch_size: int = schema.field(8, "--batch-size", must="be >= 1",
                                       help="micro-batch flush size per replica (1 = unbatched)")
    max_wait_ms: float = schema.field(25.0, "--max-wait-ms", must="be >= 0",
                                      help="max coalescing delay for the oldest ready frame")
    queue_capacity: int = schema.field(64, "--queue-capacity", must="be >= 1",
                                       help="per-replica admission queue bound before shedding")
    shed_policy: str = schema.field(SHED_OLDEST, "--shed", choices=SHED_POLICIES,
                                    help="which frame to drop when a replica queue overflows")
    slo_ms: float = schema.field(200.0, "--slo-ms", "end-to-end latency objective",
                                 must="be positive")


@dataclass(frozen=True)
class ServiceModel(schema.Schema):
    """Accelerator timing model: fixed per-invocation cost + MAC rate.

    The paper's systems run DNNs on an accelerator whose every
    invocation pays a fixed overhead (kernel launch, host round-trip,
    weight residency) before the data-dependent compute.  Micro-batching
    exists because of that first term: a batch of N frames pays it once
    instead of N times.

    Since the unified cost layer (:mod:`repro.cost`) every service time
    is computed by a :class:`~repro.cost.CostModel`.  The preferred
    construction is :meth:`for_device` (or just ``ServiceModel()``,
    which calibrates from the ``"abstract"`` profile): the model then
    carries its device provenance, uses the *full* profile — including
    per-frame CPU overhead — and its displayed rates are derived, never
    invented.  Explicit ``invocation_overhead_ms`` / ``gops_per_second``
    values remain supported for ad-hoc what-if models, but such a model
    records ``device=None`` and cannot be combined with a device-naming
    spec (the spec layer rejects the pair as contradictory).

    Parameters
    ----------
    invocation_overhead_ms:
        Fixed cost charged per batched detector invocation (``None``
        derives it from the device profile).
    gops_per_second:
        Sustained accelerator throughput the MAC volume is costed at
        (``None`` derives it from the device profile).
    device:
        Registered :data:`repro.cost.DEVICE_PROFILES` name this model is
        calibrated from; ``None`` marks explicit uncalibrated rates.
    """

    invocation_overhead_ms: Optional[float] = schema.field(None, "--overhead-ms", must="be >= 0",
        help="explicit fixed cost per batched detector invocation (incompatible with --device)")
    gops_per_second: Optional[float] = schema.field(None, "--gops", must="be positive",
        help="explicit accelerator throughput in Gops/s (incompatible with --device)")
    device: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.cost import get_device

        explicit = (
            self.invocation_overhead_ms is not None
            or self.gops_per_second is not None
        )
        if self.device is None and not explicit:
            object.__setattr__(self, "device", "abstract")
        if self.device is not None:
            profile = get_device(self.device)  # raises for unknown names
            for name, derived in (
                ("invocation_overhead_ms", profile.invocation_overhead_ms),
                ("gops_per_second", profile.gops_per_second),
            ):
                value = getattr(self, name)
                if value is None:
                    object.__setattr__(self, name, derived)
                elif value != derived:
                    raise ValueError(
                        f"{name}={value} contradicts device {self.device!r} "
                        f"(its calibrated value is {derived}); pass explicit "
                        f"rates or a device, not both"
                    )
        else:
            from repro.cost import ABSTRACT

            if self.invocation_overhead_ms is None:
                object.__setattr__(
                    self, "invocation_overhead_ms", ABSTRACT.invocation_overhead_ms
                )
            if self.gops_per_second is None:
                object.__setattr__(self, "gops_per_second", ABSTRACT.gops_per_second)
        # batch_seconds sits in the simulator's per-batch hot loop: build
        # the cost model once, not per call.  Not a dataclass field, so
        # equality/repr/serialization are untouched.
        from repro.cost import CostModel, get_device, profile_from_service_rates

        if self.device is not None:
            cost = CostModel(get_device(self.device))
        else:
            cost = CostModel(
                profile_from_service_rates(
                    self.invocation_overhead_ms, self.gops_per_second
                )
            )
        object.__setattr__(self, "_cost_model", cost)

    @classmethod
    def for_device(cls, device: str) -> "ServiceModel":
        """A service model calibrated from a registered device profile."""
        from repro.cost import get_device

        return cls(device=get_device(device).name)

    def cost_model(self):
        """The :class:`~repro.cost.CostModel` service times come from."""
        return self._cost_model

    def batch_seconds(self, invocations: int, macs: float, frames: int = 0) -> float:
        """Service time of one batch from measured invocations + MACs.

        ``frames`` (the batch's frame count) charges the profile's
        per-frame CPU overhead; zero for uncalibrated explicit rates.
        """
        return self._cost_model.batch_seconds(invocations, macs, frames)


@dataclass(kw_only=True)
class ServedTotals(schema.Schema):
    """The fields and statistics every served report shares.

    The base of :class:`ServeReport` and
    :class:`~repro.fleet.server.FleetReport`: the policy served under,
    the frame, batch and invocation counts, the simulated makespan and
    compute time, the SLO section and the scenario-query windows.  A
    subclass names its ``FORMAT`` tag and its serialized ``KEYS`` in
    order; the derived statistics among them (``mean_batch_size``,
    ``throughput_fps``, ...) are written and never read back.

    ``frame_results`` (per-stream :class:`FrameResult` lists, dispatch
    order) is populated only by a live run — it is the byte-identity
    evidence and is deliberately excluded from ``KEYS``, so cached
    reports carry statistics only.  ``wall_seconds`` measures this
    host's Python and is likewise excluded (it is not part of the
    deterministic result).

    ``query_windows`` is the serialized
    :class:`~repro.query.offline.QueryReport` of the deployment's
    scenario query (``None`` when it ran without one).  Being a
    deterministic function of the spec it *is* cached.
    """

    STRICT = False
    FORMAT_REQUIRED = True
    NOUN = "report"

    policy: ServePolicy
    frames_offered: int
    frames_served: int
    frames_shed: int
    batches: int
    invocations: int
    makespan_seconds: float
    compute_seconds: float
    slo: Dict[str, Any]
    query_windows: Optional[Dict[str, Any]] = None
    frame_results: Optional[Dict[str, SequenceType[FrameResult]]] = None
    wall_seconds: float = 0.0

    def query_report(self):
        """The scenario-query :class:`~repro.query.offline.QueryReport`
        (``None`` when the deployment had no query)."""
        if self.query_windows is None:
            return None
        from repro.query.offline import QueryReport

        return QueryReport.from_dict(self.query_windows)

    @property
    def mean_batch_size(self) -> float:
        return self.frames_served / self.batches if self.batches else 0.0

    @property
    def throughput_fps(self) -> float:
        """Aggregate served frames per second of simulated time."""
        return (
            self.frames_served / self.makespan_seconds
            if self.makespan_seconds > 0
            else 0.0
        )


@dataclass(kw_only=True)
class ServeReport(ServedTotals):
    """What one served load cost: throughput, latency, SLO accounting.

    The :class:`ServedTotals` fields plus the ``service`` model the
    engine was charged by; ``frame_results`` is filled by a live
    :meth:`DetectionServer.run`.
    """

    FORMAT = REPORT_FORMAT
    KEYS = (
        "policy", "service", "frames_offered", "frames_served", "frames_shed",
        "batches", "invocations", "mean_batch_size", "makespan_seconds",
        "compute_seconds", "throughput_fps", "utilization", "slo", "query_windows",
    )

    service: ServiceModel

    @property
    def utilization(self) -> float:
        """Fraction of the makespan the modeled engine spent computing."""
        return (
            self.compute_seconds / self.makespan_seconds
            if self.makespan_seconds > 0
            else 0.0
        )

    @property
    def cost_per_frame(self) -> float:
        """Engine-busy time priced at the device's hourly rate, per frame.

        ``compute_seconds`` converted to money through the service's
        :class:`~repro.cost.DeviceProfile` ``cost_per_hour`` and
        amortized over served frames (``inf`` when nothing was served).
        A fleet prices *allocated* replica-time instead — see
        :attr:`repro.fleet.server.FleetReport.cost_per_frame`.  Not
        serialized: it is derived from fields ``to_dict`` keeps.
        """
        if not self.frames_served:
            return float("inf")
        rate = self.service.cost_model().profile.cost_per_second
        return self.compute_seconds * rate / self.frames_served

    def format(self) -> str:
        """Human-readable throughput/latency report."""
        from repro.harness.tables import format_table

        rows = []
        slo_streams = self.slo.get("streams", {})
        for name, s in slo_streams.items():
            rows.append(
                [name, s["served"], s["shed"], s["violations"],
                 s["p50_ms"], s["p95_ms"], s["p99_ms"],
                 s["mean_wait_ms"], s["mean_compute_ms"]]
            )
        fleet = self.slo.get("fleet", {})
        if fleet:
            rows.append(
                ["(fleet)", fleet["served"], fleet["shed"], fleet["violations"],
                 fleet["p50_ms"], fleet["p95_ms"], fleet["p99_ms"],
                 fleet["mean_wait_ms"], fleet["mean_compute_ms"]]
            )
        table = format_table(
            ["stream", "served", "shed", "viol",
             "p50(ms)", "p95(ms)", "p99(ms)", "wait(ms)", "compute(ms)"],
            rows,
            precision=1,
            title="Serving report",
        )
        slo_ms = self.slo.get("slo_ms")
        shed_reasons = fleet.get("shed_reasons") or {}
        shed_detail = (
            " (" + ", ".join(f"{k}: {v}" for k, v in sorted(shed_reasons.items())) + ")"
            if shed_reasons
            else ""
        )
        summary = (
            f"offered {self.frames_offered} frames, served {self.frames_served}, "
            f"shed {self.frames_shed}{shed_detail}\n"
            f"batches: {self.batches} (mean size {self.mean_batch_size:.2f}), "
            f"detector invocations: {self.invocations}\n"
            f"throughput: {self.throughput_fps:.1f} frames/s over "
            f"{self.makespan_seconds:.3f}s simulated "
            f"(engine utilization {self.utilization:.0%})"
        )
        if slo_ms is not None:
            summary += f"\nSLO: {slo_ms:.0f} ms end-to-end"
        if "wait_p95_ms" in fleet:
            summary += (
                f"\nqueue wait p95: {fleet['wait_p95_ms']:.1f} ms, "
                f"compute p95: {fleet['compute_p95_ms']:.1f} ms"
            )
        query_report = self.query_report()
        if query_report is not None:
            summary += f"\n\n{query_report.format()}"
        return f"{table}\n{summary}"


class _ServingFront:
    """What a serve and a fleet front share: one serving event loop
    (:class:`~repro.fleet.loop.ServingLoop`) and the run driver around it.

    A subclass builds its replica pool and router per run and hands them
    to :meth:`_serve`; its ``_own_fields(requests, pool, result, fleet,
    slo)`` returns the ``(summary fields, report fields)`` it adds, given
    the run's arguments, the loop's result, its fleet-wide latency
    statistics and its SLO section.  ``REPORT`` is its report class and
    ``SUMMARY`` the record type of its end-of-run sink record.
    """

    REPORT: ClassVar[type]
    SUMMARY: ClassVar[str]

    def __init__(self, system, *, policy: ServePolicy, query, **loop_options) -> None:
        from repro.fleet.loop import ServingLoop

        self.policy = policy
        self.query = query
        self._loop = ServingLoop(system, policy=policy, query=query, **loop_options)
        self.system = self._loop.system
        self.metrics = self._loop.metrics
        self.frames_replayed = 0
        self.recorded_trace = None

    def _serve(self, requests: List[FrameRequest], pool, router, autoscaler=None):
        """Run the loop over ``pool``, keep its replay and trace counters,
        emit the summary record and build the report."""
        wall_start = time.perf_counter()
        loop = self._loop
        result = loop.run(requests, pool, router, autoscaler)
        self.frames_replayed = loop.frames_replayed
        self.recorded_trace = loop.recorded_trace
        fleet = result.account.fleet()
        slo = result.account.to_dict(fleet)
        summary, fields = self._own_fields(requests, pool, result, fleet, slo)
        totals = {
            "frames_offered": len(requests),
            "frames_served": fleet.served,
            "frames_shed": fleet.shed,
            "batches": result.batches,
            "invocations": result.invocations,
            "makespan_seconds": result.makespan_seconds,
        }
        p99_ms = fleet.percentile(99.0) * 1e3
        loop.emit_summary({"record": self.SUMMARY, **totals, **summary, "p99_ms": p99_ms}, result)
        return self.REPORT(
            policy=self.policy,
            **totals,
            compute_seconds=result.compute_seconds,
            slo=slo,
            query_windows=result.query_windows,
            frame_results=result.frame_results,
            wall_seconds=time.perf_counter() - wall_start,
            **fields,
        )


class DetectionServer(_ServingFront):
    """Micro-batched multi-stream serving over one shared engine.

    A static one-replica front over the serving event loop
    (:class:`~repro.fleet.loop.ServingLoop`): the replica records into
    this server's registry and is charged by this server's service
    model, and the loop's result becomes a :class:`ServeReport`.

    Parameters
    ----------
    system:
        A :class:`~repro.core.config.SystemConfig` (built internally) or
        a live :class:`~repro.core.systems.DetectionSystem`.  All streams
        share its detectors (and their deterministic caches); each stream
        gets its own tracker state.
    policy / service:
        Admission/batching knobs and the accelerator timing model.
    device:
        Shorthand for ``service=ServiceModel.for_device(device)``; passing
        both an explicit ``service`` and a ``device`` is an error (an
        uncalibrated service model would silently disagree with the
        profile).  With neither, the ``"abstract"`` profile applies.
    metrics:
        A :class:`~repro.obs.registry.MetricsRegistry` receiving the
        live counters and histograms (frames in/out, drops by reason,
        queue-wait/compute/latency, batch sizes); defaults to the
        process-global registry.  The registry observes the *simulated*
        clock's durations, matching the report.
    sinks:
        :class:`~repro.obs.sinks.Sink`\\ s receiving one ``serve.frame``
        record per served frame, one ``serve.shed`` per dropped frame
        and a final ``serve.summary`` — the streaming alternative to
        holding ``frame_results`` for the whole run.  The server emits
        but never closes them; lifecycle belongs to the caller.
    max_exact_samples:
        Per-stream bound on exact latency samples before SLO percentiles
        switch to histogram estimates (see :mod:`repro.serve.slo`).
    query:
        A :class:`~repro.query.spec.QuerySpec` evaluated online against
        every stream — each stream gets its own strictly-causal
        :class:`~repro.query.automaton.QueryEvaluator` (cloned per
        stream exactly like tracker state).  Emitted windows flow
        through the sinks (``query.window`` records), the
        ``serve_query_events_total`` counter, and the report's
        ``query_windows`` section.
    trace / record_trace:
        A recorded :class:`~repro.serve.trace.ComputeTrace` to replay,
        and whether to record this run's own (``recorded_trace``).
    """

    REPORT = ServeReport
    SUMMARY = "serve.summary"

    def __init__(
        self,
        system: Union[SystemConfig, DetectionSystem],
        *,
        policy: ServePolicy = ServePolicy(),
        service: Optional[ServiceModel] = None,
        device: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        sinks: Union[None, Sink, List[Sink]] = None,
        max_exact_samples: int = DEFAULT_MAX_EXACT_SAMPLES,
        query=None,
        trace=None,
        record_trace: bool = False,
    ):
        if service is None:
            service = ServiceModel.for_device(device or "abstract")
        elif device is not None and device != service.device:
            raise ValueError(
                f"DetectionServer got both an explicit service model and "
                f"device={device!r}; pass one or the other "
                f"(use ServiceModel.for_device({device!r}))"
            )
        self.service = service
        super().__init__(
            system,
            policy=policy,
            query=query,
            metrics=metrics,
            sinks=sinks,
            max_exact_samples=max_exact_samples,
            trace=trace,
            record_trace=record_trace,
            fleet_wide=False,
        )

    def run(self, requests: List[FrameRequest]) -> ServeReport:
        """Serve an arrival schedule to completion; returns the report.

        ``requests`` must be sorted by arrival time (the load generator's
        contract) with frames of each stream in causal order.  Each call
        is independent: per-stream state (trackers, result lists) is
        rebuilt, so back-to-back runs of one schedule produce identical
        reports and never mutate previously returned ones.  (Detector
        caches persist across runs — they are deterministic pure values.)
        """
        from repro.fleet.replica import ReplicaSet
        from repro.fleet.router import FleetRouter

        pool = ReplicaSet(self.policy, lambda _: self.service, metrics=self.metrics)
        pool.spawn(0.0)
        return self._serve(requests, pool, FleetRouter())

    def _own_fields(self, requests, pool, result, fleet, slo) -> tuple:
        shed_reasons = dict(sorted(fleet.shed_reasons.items()))
        return {"shed_reasons": shed_reasons}, {"service": self.service}


class ReportStore(EntryStore):
    """Content-addressed store of one deployment kind's serialized reports.

    The serving sibling of :class:`~repro.api.cache.ResultCache`, in the
    *same* root and layout (:class:`~repro.api.cache.EntryStore`), so
    ``repro cache stats/ls/prune`` manage serving reports alongside
    experiment results.  A subclass names the ``SPEC`` and ``REPORT``
    classes it caches and the ``ENTRY_FORMAT`` tag of its entries.
    """

    SPEC: ClassVar[type]
    REPORT: ClassVar[type]

    def load(self, fingerprint: str):
        return self._read(fingerprint, "report", self.REPORT.from_dict)

    def store(
        self,
        fingerprint: str,
        report,
        *,
        spec: Optional[Dict[str, Any]] = None,
    ) -> Path:
        return self._write_entry(fingerprint, spec=spec, report=report.to_dict())

    @classmethod
    def _label(cls, payload: Dict[str, Any]) -> Optional[str]:
        """The stored spec's label plus the knobs a tune varies (``None``
        for an entry stored without its spec)."""
        if payload["spec"] is None:
            return None
        spec = cls.SPEC.from_dict(payload["spec"])
        return f"{spec.label} {spec.knobs}"


class ServeReportStore(ReportStore):
    """Content-addressed store of serialized :class:`ServeReport`\\ s."""

    SPEC = ServeSpec
    REPORT = ServeReport
    ENTRY_FORMAT = "repro-serve-cache/1"

    # Class-own: perfbench's tracer wraps only attributes in cls.__dict__.
    load = ReportStore.load
    store = ReportStore.store
