"""The fleet server: N replicas, one stream-routing layer, one clock.

:class:`FleetServer` is a front over the one serving event loop
(:mod:`repro.fleet.loop`) — the same simulation a bare
:class:`~repro.serve.server.DetectionServer` runs with one replica —
over a *pool* of replicas: every replica has its own queue,
micro-batcher, device timing model and metrics registry, while the loop
owns the per-stream pipeline state and the router owns the
stream-to-replica pins.

Determinism contract, extended to fleets: per-frame detections are keyed
by ``(model, seed, sequence, frame)`` — never by batch, replica or
placement — so a 1-replica fleet is byte-identical to a bare
``DetectionServer`` and per-stream outputs are invariant under replica
count.  What changes with fleet shape is only *when* frames complete:
latency statistics, shedding, cost.

A :class:`FleetReport` is therefore a pure function of its
:class:`~repro.fleet.spec.FleetSpec`, cached content-addressed by
:class:`FleetReportStore` exactly like serve reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.core.systems import DetectionSystem
from repro.fleet.autoscaler import Autoscaler
from repro.fleet.replica import ReplicaSet
from repro.fleet.router import FleetRouter
from repro.fleet.spec import FleetSpec
from repro.obs.registry import MetricsRegistry
from repro.obs.sinks import Sink
from repro.serve.loadgen import FrameRequest
from repro.serve.server import ReportStore, ServedTotals, ServiceModel, _ServingFront
from repro.serve.slo import DEFAULT_MAX_EXACT_SAMPLES

FLEET_REPORT_FORMAT = "repro-fleet-report/1"


@dataclass(kw_only=True)
class FleetReport(ServedTotals):
    """What one fleet deployment cost: latency, scaling history, money.

    The :class:`~repro.serve.server.ServedTotals` fields plus the fleet's
    shape, billing and scaling history.  ``frame_results`` and
    ``wall_seconds`` follow the serve-report convention — live-run-only
    evidence, left out of ``KEYS``.
    """

    FORMAT = FLEET_REPORT_FORMAT
    KEYS = (
        "policy", "devices", "placement", "autoscaler", "frames_offered",
        "frames_served", "frames_shed", "batches", "invocations", "mean_batch_size",
        "makespan_seconds", "compute_seconds", "replica_seconds", "cost",
        "cost_per_frame", "throughput_fps", "utilization", "slo", "replicas",
        "scale_events", "dead_streams", "query_windows",
    )

    devices: List[str]
    placement: str
    autoscaler: Optional[Dict[str, Any]] = None
    replica_seconds: float
    cost: float
    replicas: List[Dict[str, Any]] = field(default_factory=list)
    scale_events: List[Dict[str, Any]] = field(default_factory=list)
    dead_streams: List[str] = field(default_factory=list)

    @property
    def cost_per_frame(self) -> float:
        """Allocated replica-time priced at each device's hourly rate,
        amortized over served frames (``inf`` when nothing was served).

        Note the difference from the single-server tuner: a fleet pays
        for replicas while they are *allocated*, not while they are
        busy — an idle over-provisioned replica still bills, which is
        exactly why autoscaling wins on cost.
        """
        if not self.frames_served:
            return float("inf")
        return self.cost / self.frames_served

    @property
    def utilization(self) -> float:
        """Fraction of allocated replica-time spent computing."""
        return (
            self.compute_seconds / self.replica_seconds
            if self.replica_seconds > 0
            else 0.0
        )

    @property
    def peak_replicas(self) -> int:
        return len(self.replicas)

    def format(self) -> str:
        """Human-readable fleet report: replicas, latency, scale history."""
        from repro.harness.tables import format_table

        rows = []
        for r in self.replicas:
            retired = r.get("retired_s")
            rows.append(
                [
                    r["name"],
                    r["device"],
                    r["spawned_s"],
                    "-" if retired is None else f"{retired:.1f}",
                    r["frames"],
                    r["batches"],
                    r["busy_seconds"],
                    r["alive_seconds"],
                    r["cost"],
                ]
            )
        table = format_table(
            ["replica", "device", "up(s)", "down(s)", "frames", "batches",
             "busy(s)", "alive(s)", "cost"],
            rows,
            precision=2,
            title="Fleet report",
        )
        fleet = self.slo.get("fleet", {})
        lines = [
            f"offered {self.frames_offered} frames, served {self.frames_served}, "
            f"shed {self.frames_shed}; "
            f"p50 {fleet.get('p50_ms', 0.0):.1f} ms, "
            f"p95 {fleet.get('p95_ms', 0.0):.1f} ms, "
            f"p99 {fleet.get('p99_ms', 0.0):.1f} ms",
            f"replica-seconds {self.replica_seconds:.1f} over "
            f"{self.makespan_seconds:.1f}s makespan "
            f"(utilization {self.utilization:.0%}), "
            f"cost {self.cost:.4f} "
            f"({self.cost_per_frame * 1e3:.4f} per kiloframe)"
            if self.frames_served
            else f"replica-seconds {self.replica_seconds:.1f}, nothing served",
        ]
        if self.dead_streams:
            lines.append(
                f"DEAD STREAMS ({len(self.dead_streams)}): "
                + ", ".join(self.dead_streams)
            )
        if self.scale_events:
            lines.append(f"scale events ({len(self.scale_events)}):")
            for event in self.scale_events:
                lines.append(
                    f"  t={event['t']:7.2f}s {event['action']:<9s} "
                    f"{event['replica']} [{event['device']}] — {event['reason']}"
                )
        elif self.autoscaler is not None:
            lines.append("scale events: none (the initial size held)")
        query_report = self.query_report()
        if query_report is not None:
            lines.append("")
            lines.append(query_report.format())
        return "\n".join([table] + lines)


class FleetServer(_ServingFront):
    """Replicated serving of one spec over the deterministic clock.

    A front over the one serving event loop (:mod:`repro.fleet.loop`):
    it builds the spec's replica pool, router and optional autoscaler
    per run and turns the loop's result into a :class:`FleetReport`.

    Parameters
    ----------
    spec:
        The :class:`~repro.fleet.spec.FleetSpec` to deploy.
    metrics:
        Fleet-level registry (defaults to the process-global one): engine
        counters, ``fleet_*`` gauges/counters, and the end-of-run merge
        of every replica's latency histograms land here.  Each replica
        additionally keeps its own private registry — that is what the
        autoscaler windows.
    sinks:
        Receive ``fleet.scale`` records per scale action, ``query.window``
        records per frames-of-interest window and a final
        ``fleet.summary`` (per-frame records are deliberately skipped —
        a fleet's worth of them belongs in metrics, not an event log).
    """

    REPORT = FleetReport
    SUMMARY = "fleet.summary"

    def __init__(
        self,
        spec: FleetSpec,
        *,
        system: Optional[DetectionSystem] = None,
        metrics: Optional[MetricsRegistry] = None,
        sinks: Union[None, Sink, List[Sink]] = None,
        max_exact_samples: int = DEFAULT_MAX_EXACT_SAMPLES,
        trace=None,
        record_trace: bool = False,
    ) -> None:
        self.spec = spec
        super().__init__(
            system if system is not None else spec.system,
            policy=spec.policy,
            query=spec.query,
            metrics=metrics,
            sinks=sinks,
            max_exact_samples=max_exact_samples,
            trace=trace,
            record_trace=record_trace,
        )

    def run(self, requests: List[FrameRequest]) -> FleetReport:
        """Serve an arrival schedule to completion; returns the report.

        Independent per call, like ``DetectionServer.run``: stream state
        and the replica pool are rebuilt, so back-to-back runs of one
        schedule are identical (detector caches persist — pure values).
        """
        spec = self.spec
        pool = ReplicaSet(
            spec.policy, lambda i: ServiceModel.for_device(spec.device_for(i))
        )
        for _ in range(spec.replicas):
            pool.spawn(0.0)
        autoscaler = (
            Autoscaler(spec.autoscaler, self.policy.max_batch_size)
            if spec.autoscaler is not None
            else None
        )
        return self._serve(requests, pool, FleetRouter(spec.placement), autoscaler)

    def _own_fields(self, requests, pool, result, fleet, slo) -> tuple:
        spec = self.spec
        makespan = result.makespan_seconds
        served_by = {
            name: stats.get("served", 0)
            for name, stats in slo.get("streams", {}).items()
        }
        dead_streams = [
            s for s in sorted({r.stream for r in requests}) if not served_by.get(s)
        ]
        summary = {
            "replica_seconds": pool.replica_seconds(makespan),
            "cost": pool.cost(makespan),
            "peak_replicas": len(pool.replicas),
            "scale_events": len(result.scale_events),
            "dead_streams": len(dead_streams),
        }
        return summary, {
            "devices": list(spec.devices),
            "placement": spec.placement,
            "autoscaler": (
                None if spec.autoscaler is None else spec.autoscaler.to_dict()
            ),
            "replica_seconds": summary["replica_seconds"],
            "cost": summary["cost"],
            "replicas": [r.to_dict(makespan) for r in pool.replicas],
            "scale_events": result.scale_events,
            "dead_streams": dead_streams,
        }


class FleetReportStore(ReportStore):
    """Content-addressed store of serialized :class:`FleetReport`\\ s,
    sharing the session cache root and layout
    (:class:`~repro.api.cache.EntryStore`) with every other store.
    """

    SPEC = FleetSpec
    REPORT = FleetReport
    ENTRY_FORMAT = "repro-fleet-cache/1"

    # Class-own: perfbench's tracer wraps only attributes in cls.__dict__.
    load = ReportStore.load
    store = ReportStore.store
