"""The one serving event loop: replicas, streams and one simulated clock.

Both servers are fronts over :class:`ServingLoop`.
:class:`~repro.fleet.server.FleetServer` runs it over a spec's replica
pool, stream router and optional autoscaler;
:class:`~repro.serve.server.DetectionServer` runs it over a static pool
of one replica that shares the server's registry and service model.
There is therefore exactly one admit/shed/batch/dispatch simulation, and
a 1-replica fleet is the bare server by construction.

Every replica has its own queue, micro-batcher, device timing model and
instruments, while the loop owns what must never fork — the per-stream
pipeline state (tracker identities, scenario-query evaluators, admission
order).  Keeping stream state loop-level is what makes elasticity safe:
re-pinning a stream to another replica moves only its *queued* frames
(in-flight batches were already computed at dispatch), so causality and
byte-identity survive any scaling schedule.

Execution is a deterministic discrete-event simulation.  Each dispatched
batch is charged a service time by the replica's
:class:`~repro.serve.server.ServiceModel` from two measured quantities:
the batched detector invocations it made and the MACs its frames cost.
Queue waits, latencies and SLO statistics all live on this simulated
clock, so a served configuration is a pure function of its spec.
Per-frame detections are byte-identical to the offline serial path
whatever the batch composition — the determinism contract keys every
sample by ``(model, seed, sequence, frame)``, never by batch or replica.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence as SequenceType, Union

from repro.core.config import SystemConfig, build_system
from repro.core.results import FrameResult, FrameResultBuffer
from repro.core.systems import DetectionSystem
from repro.datasets.types import Sequence
from repro.engine.stages import run_frame_batch
from repro.fleet.autoscaler import SCALE_OUT, Autoscaler, Decision
from repro.fleet.replica import Replica, ReplicaSet
from repro.fleet.router import FleetRouter
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.obs.sinks import Sink, as_sinks
from repro.serve.batcher import QueuedFrame
from repro.serve.loadgen import FrameRequest
from repro.serve.server import SHED_OLDEST, ServePolicy
from repro.serve.slo import DEFAULT_MAX_EXACT_SAMPLES, SLOAccount

#: Histograms merged from every replica into the fleet-level registry at
#: the end of a run, so dashboards see one fleet-wide distribution.
_MERGED_HISTOGRAMS = (
    "serve_queue_wait_seconds",
    "serve_compute_seconds",
    "serve_latency_seconds",
    "serve_batch_size",
)


class _StreamState:
    """One stream's causal serving state, owned loop-wide (never per replica)."""

    __slots__ = ("pipeline", "sequence", "results", "query")

    def __init__(self, pipeline, query=None, traced=False):
        self.pipeline = pipeline
        self.sequence: Optional[Sequence] = None
        # A traced run's trace holds its results already: keep references.
        self.results = [] if traced else FrameResultBuffer()
        # Per-stream scenario-query evaluator, cloned like the tracker.
        self.query = query


class _FleetInstruments:
    """Fleet-wide totals kept beside every replica's own instruments."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.frames = metrics.counter(
            "fleet_frames_total", "frames through the fleet", labels=("direction",)
        )
        self.drops = metrics.counter(
            "fleet_drops_total", "fleet frames dropped, by reason", labels=("reason",)
        )
        self.batches = metrics.counter(
            "fleet_batches_total", "batches dispatched fleet-wide"
        )
        self.invocations = metrics.counter(
            "fleet_invocations_total", "batched invocations fleet-wide"
        )
        self.replicas = metrics.gauge("fleet_replicas", "live (active) replica count")
        self.scale = metrics.counter(
            "fleet_scale_events_total", "autoscaler actions", labels=("action",)
        )


@dataclass
class LoopResult:
    """What one :meth:`ServingLoop.run` measured, before a front turns it
    into its report."""

    account: SLOAccount
    batches: int
    invocations: int
    compute_seconds: float
    makespan_seconds: float
    query_events: int
    query_windows: Optional[Dict[str, Any]]
    frame_results: Dict[str, SequenceType[FrameResult]]
    scale_events: List[Dict[str, Any]] = field(default_factory=list)


class ServingLoop:
    """Deterministic multi-stream serving over a pool of replicas.

    Parameters
    ----------
    system:
        A :class:`~repro.core.config.SystemConfig` (built internally) or
        a live :class:`~repro.core.systems.DetectionSystem`.  All streams
        share its detectors (and their deterministic caches); each stream
        gets its own tracker state.
    policy:
        Admission, batching and SLO knobs shared by every replica.
    query:
        Optional :class:`~repro.query.spec.QuerySpec` evaluated online
        per stream; windows reach the sinks (``query.window`` records),
        the ``serve_query_events_total`` counter and the result.
    metrics / sinks / max_exact_samples:
        Engine and loop-level registry, event-record sinks, and the
        per-stream exact-sample bound of the SLO account.
    trace / record_trace:
        The compute/timing split (:mod:`repro.serve.trace`): a recorded
        ``ComputeTrace`` to replay, and whether to record this run's own.
    fleet_wide:
        ``True`` for a fleet: keep the ``fleet_*`` instruments, label
        query-window records with their replica and merge the replicas'
        private histograms into ``metrics`` at the end.  ``False`` for
        the bare server, whose single replica records straight into
        ``metrics`` and which logs every frame to its sinks instead
        (``serve.frame`` / ``serve.shed`` records).
    """

    def __init__(
        self,
        system: Union[SystemConfig, DetectionSystem],
        *,
        policy: ServePolicy,
        query=None,
        metrics: Optional[MetricsRegistry] = None,
        sinks: Union[None, Sink, List[Sink]] = None,
        max_exact_samples: int = DEFAULT_MAX_EXACT_SAMPLES,
        trace=None,
        record_trace: bool = False,
        fleet_wide: bool = True,
    ) -> None:
        if query is not None:
            from repro.query.spec import QuerySpec

            if not isinstance(query, QuerySpec):
                raise TypeError(
                    f"query must be a QuerySpec, got {type(query).__name__}"
                )
        self.system = build_system(system) if isinstance(system, SystemConfig) else system
        self.policy = policy
        self.query = query
        self.metrics = resolve_registry(metrics)
        self.sinks = as_sinks(sinks)
        self.max_exact_samples = max_exact_samples
        self.fleet_wide = fleet_wide
        self._template = self.system.build_pipeline()
        try:
            self._template.per_stream()
            self._shareable = True
        except TypeError:
            # Duck-typed stages predating the per_stream protocol: build
            # fully independent pipelines per stream (no cross-stream
            # stage sharing, hence no coalescing for this system kind).
            self._shareable = False
        self._streams: Dict[str, _StreamState] = {}
        self._serials: Dict[str, int] = {}
        # Compute/timing split: stream state is loop-owned and strictly
        # causal per stream, so one trace replays regardless of replica
        # count, placement or autoscaling.  Both off by default — the
        # live path is untouched unless a Session wires a trace store in.
        self._trace = trace
        self._record_trace = bool(record_trace)
        self._trace_runner = None
        self.frames_replayed = 0
        self.recorded_trace = None

    # ------------------------------------------------------------------ #
    # Stream state and engine execution
    # ------------------------------------------------------------------ #

    def _new_pipeline(self):
        """A fresh stream pipeline: its own tracker state, and the template's
        shared stages when the system allows coalescing."""
        if self._shareable:
            return self._template.per_stream()
        return self.system.build_pipeline()

    def _stream_state(self, request: FrameRequest) -> _StreamState:
        state = self._streams.get(request.stream)
        if state is None:
            pipeline = self._new_pipeline()
            evaluator = None
            if self.query is not None:
                from repro.query.automaton import QueryEvaluator

                evaluator = QueryEvaluator(self.query, request.stream)
            traced = self._trace_runner is not None
            state = self._streams[request.stream] = _StreamState(pipeline, evaluator, traced)
        if state.sequence is not request.sequence:
            state.pipeline.begin_sequence(request.sequence)
            state.sequence = request.sequence
        return state

    def _measured_invocations(self) -> int:
        return sum(getattr(d, "invocations", 0) for d in self.system._detectors())

    def _execute(self, batch: List[QueuedFrame]) -> tuple:
        """Run one batch through the engine.

        Returns ``(invocations, macs, windows)`` — the last being the
        frames-of-interest windows the streams' query evaluators
        completed on this batch's frames (empty without a query).
        """
        if self._trace_runner is not None:
            from repro.serve.trace import traced_execute

            states, frame_results, invocations = traced_execute(self, batch)
        else:
            states = [self._stream_state(item.request) for item in batch]
            work = [
                (state.pipeline, item.request.sequence, item.request.frame)
                for state, item in zip(states, batch)
            ]
            before = self._measured_invocations()
            frame_results = run_frame_batch(work, metrics=self.metrics)
            invocations = self._measured_invocations() - before
        macs = sum(fr.ops.total for fr in frame_results)
        windows = []
        for state, fr in zip(states, frame_results):
            state.results.append(fr)
            if state.query is not None:
                window = state.query.observe(fr)
                if window is not None:
                    windows.append(window)
        return invocations, macs, windows

    # ------------------------------------------------------------------ #
    # Rebalancing (the only operations that move streams)
    # ------------------------------------------------------------------ #

    def _move_stream(
        self, stream: str, source: Replica, target: Replica, router: FleetRouter
    ) -> None:
        """Re-pin ``stream`` and carry its *queued* frames along.

        In-flight frames stay: their results were computed at dispatch
        time, so finishing on the old replica cannot fork stream state.
        """
        router.repin(stream, source, target)
        moving = [q for q in source.queue if q.request.stream == stream]
        if not moving:
            return
        source.queue = [q for q in source.queue if q.request.stream != stream]
        target.queue.extend(moving)
        target.queue.sort(
            key=lambda q: (
                q.enqueued, self._serials[q.request.stream], q.request.frame
            )
        )
        source.m_depth.set(len(source.queue))
        target.m_depth.set(len(target.queue))

    def _rebalance_onto(
        self, replica: Replica, pool: ReplicaSet, router: FleetRouter
    ) -> List[str]:
        """Give a fresh replica its fair share of existing streams.

        Repeatedly takes the deepest-queued stream from the most-pinned
        donor until ``replica`` reaches the mean share — deterministic
        tie-breaks throughout (lowest replica index, lexicographic
        stream name).
        """
        active = pool.active()
        total = sum(r.pinned_streams for r in active)
        target_share = total // len(active)
        moved: List[str] = []
        while replica.pinned_streams < target_share:
            donors = [
                r
                for r in active
                if r is not replica and r.pinned_streams > target_share
            ]
            if not donors:
                break
            donor = min(donors, key=lambda r: (-r.pinned_streams, r.index))
            streams = router.streams_on(donor)
            if not streams:  # pragma: no cover - pinned_streams > 0 implies some
                break

            def queued(s: str) -> int:
                return sum(1 for q in donor.queue if q.request.stream == s)

            stream = max(streams, key=queued)  # sorted() → lowest name on ties
            self._move_stream(stream, donor, replica, router)
            moved.append(stream)
        return moved

    def _drain_streams(
        self, victim: Replica, pool: ReplicaSet, router: FleetRouter
    ) -> List[str]:
        """Re-place every stream of a draining replica over the active set."""
        active = pool.active()
        moved = []
        for stream in router.streams_on(victim):
            target = router._place(stream, active)
            self._move_stream(stream, victim, target, router)
            moved.append(stream)
        return moved

    # ------------------------------------------------------------------ #
    # The event loop
    # ------------------------------------------------------------------ #

    def run(
        self,
        requests: List[FrameRequest],
        pool: ReplicaSet,
        router: FleetRouter,
        autoscaler: Optional[Autoscaler] = None,
    ) -> LoopResult:
        """Serve an arrival schedule to completion over ``pool``.

        ``requests`` must be sorted by arrival time (the load generator's
        contract) with frames of each stream in causal order.  Each call
        is independent: per-stream state (trackers, result lists) is
        rebuilt, so back-to-back runs of one schedule produce identical
        results and never mutate previously returned ones.  (Detector
        caches persist across runs — they are deterministic pure values.)
        """
        # Fresh per-stream pipelines and result lists per run: stale
        # tracker state would make a repeat run diverge, and the result
        # returned below aliases the per-stream result lists.
        self._streams = {}
        self._serials = {}
        if self._trace is not None or self._record_trace:
            from repro.serve.trace import TraceRunner

            self._trace_runner = TraceRunner(
                self._trace,
                shareable=self._shareable,
                new_pipeline=self._new_pipeline,
            )
        else:
            self._trace_runner = None
        policy = self.policy
        sinks = self.sinks
        account = SLOAccount(policy.slo_ms / 1e3, max_exact_samples=self.max_exact_samples)
        fleet = _FleetInstruments(self.metrics) if self.fleet_wide else None
        m_query = (
            self.metrics.counter(
                "serve_query_events_total",
                "frames-of-interest windows emitted by the scenario query",
                labels=("stream",),
            )
            if self.query is not None
            else None
        )
        arrivals = deque(requests)
        now = 0.0
        batches = 0
        invocations = 0
        compute_seconds = 0.0
        last_completion = 0.0
        query_events = 0
        scale_events: List[Dict[str, Any]] = []
        if fleet is not None:
            fleet.replicas.set(len(pool.active()))

        def shed(request: FrameRequest, replica: Replica, reason: str) -> None:
            account.record_shed(request.stream, reason)
            replica.m_drops.inc(labels=(reason,))
            if fleet is not None:
                fleet.drops.inc(labels=(reason,))
                return
            for sink in sinks:
                sink.emit(
                    {
                        "record": "serve.shed",
                        "stream": request.stream,
                        "frame": request.frame,
                        "reason": reason,
                        "arrival_s": request.arrival,
                    }
                )

        def admit(request: FrameRequest) -> None:
            # Admission order is the deterministic tiebreak for queues
            # merged by a stream move.
            self._serials.setdefault(request.stream, len(self._serials))
            replica = router.route(request.stream, pool.active())
            if fleet is not None:
                fleet.frames.inc(labels=("in",))
            replica.m_frames.inc(labels=("in",))
            if len(replica.queue) >= policy.queue_capacity:
                if policy.shed_policy == SHED_OLDEST:
                    victim = replica.queue.pop(0)
                    shed(victim.request, replica, "shed_oldest")
                else:
                    shed(request, replica, "reject_newest")
                    return
            # A frame is batchable from the moment it arrives, so its
            # coalescing deadline counts from the arrival timestamp.
            replica.queue.append(QueuedFrame(request=request, enqueued=request.arrival))
            replica.m_depth.set(len(replica.queue))

        def dispatch(replica: Replica) -> Optional[float]:
            """Try to dispatch one batch; returns a wake deadline if not."""
            nonlocal batches, invocations, compute_seconds
            nonlocal last_completion, query_events
            ready = replica.batcher.ready(replica.queue)
            batch, wake = replica.batcher.decide(now, ready, more_arrivals=bool(arrivals))
            if batch is None:
                return wake
            for item in batch:
                replica.queue.remove(item)
            replica.m_depth.set(len(replica.queue))
            batch_inv, macs, qwindows = self._execute(batch)
            for window in qwindows:
                query_events += 1
                m_query.inc(labels=(window.stream,))
                record = {
                    "record": "query.window",
                    "query": self.query.name,
                    "stream": window.stream,
                }
                if fleet is not None:
                    record["replica"] = replica.name
                record.update(
                    start=window.start, end=window.end, phases=list(window.phases)
                )
                for sink in sinks:
                    sink.emit(dict(record))
            service = replica.service.batch_seconds(batch_inv, macs, len(batch))
            completion = now + service
            replica.busy_until = completion
            replica.batches += 1
            replica.invocations += batch_inv
            replica.busy_seconds += service
            replica.frames += len(batch)
            batches += 1
            invocations += batch_inv
            compute_seconds += service
            last_completion = max(last_completion, completion)
            replica.m_batches.inc()
            replica.m_invocations.inc(batch_inv)
            replica.m_batch_size.observe(len(batch))
            replica.m_compute.observe(service)
            if fleet is not None:
                fleet.batches.inc()
                fleet.invocations.inc(batch_inv)
                fleet.frames.inc(len(batch), labels=("out",))
            # One instrument update per batch: the autoscaler reads the
            # histograms only between batches, at its control ticks.
            replica.m_frames.inc(len(batch), labels=("out",))
            waits = [now - item.request.arrival for item in batch]
            latencies = [completion - item.request.arrival for item in batch]
            replica.m_wait.observe_many(waits)
            replica.m_latency.observe_many(latencies)
            for item, wait, latency in zip(batch, waits, latencies):
                account.record(
                    item.request.stream, wait=wait, compute=service, latency=latency
                )
                if fleet is not None:
                    continue
                for sink in sinks:
                    sink.emit(
                        {
                            "record": "serve.frame",
                            "stream": item.request.stream,
                            "frame": item.request.frame,
                            "wait_ms": wait * 1e3,
                            "compute_ms": service * 1e3,
                            "latency_ms": latency * 1e3,
                        }
                    )
            return None

        def dispatch_idle() -> List[float]:
            """Offer every idle replica with queued frames a dispatch, in
            index order; returns the wake deadlines of those that waited."""
            wakes = []
            for replica in pool.serving():
                if replica.idle and replica.queue:
                    wake = dispatch(replica)
                    if wake is not None:
                        wakes.append(wake)
            return wakes

        def apply(decision: Decision) -> None:
            if decision.action == SCALE_OUT:
                replica = pool.spawn(now)
                moved = self._rebalance_onto(replica, pool, router)
                subject = replica
            else:
                active = pool.active()
                subject = max(active, key=lambda r: (r.cost_per_second, r.index))
                pool.drain(subject)
                moved = self._drain_streams(subject, pool, router)
            if fleet is not None:
                fleet.scale.inc(labels=(decision.action,))
                fleet.replicas.set(len(pool.active()))
            event = {
                "t": now,
                "action": decision.action,
                "replica": subject.name,
                "device": subject.device,
                "reason": decision.reason,
                "moved_streams": moved,
            }
            scale_events.append(event)
            for sink in sinks:
                sink.emit(dict(event, record="fleet.scale"))

        def pending() -> bool:
            return bool(arrivals) or any(r.queue or not r.idle for r in pool.serving())

        while pending():
            while arrivals and arrivals[0].arrival <= now:
                admit(arrivals.popleft())
            for replica in pool.serving():
                if replica.busy_until is not None and replica.busy_until <= now:
                    replica.busy_until = None
            pool.retire_idle(now)
            wakes = dispatch_idle()
            if autoscaler is not None and now >= autoscaler.next_check:
                decision = autoscaler.tick(now, pool.serving())
                if decision is not None:
                    apply(decision)
                    # A drain may have handed queued frames to an idle
                    # replica; let it dispatch at this same instant.
                    wakes = dispatch_idle()
                    pool.retire_idle(now)
            if not pending():
                break
            # The engine of a busy replica is occupied until its
            # completion: arrivals meanwhile just queue (and may be shed)
            # before its next dispatch decision.
            candidates: List[float] = wakes
            if arrivals:
                candidates.append(arrivals[0].arrival)
            for replica in pool.serving():
                if replica.busy_until is not None:
                    candidates.append(replica.busy_until)
            if autoscaler is not None:
                candidates.append(autoscaler.next_check)
            now = max(now, min(candidates))

        pool.retire_idle(now)
        if fleet is not None:
            # Fold every replica's latency histograms into the fleet
            # registry so dashboards and `repro status` see one view.
            for name in _MERGED_HISTOGRAMS:
                for replica in pool.replicas:
                    source = replica.metrics.get(name)
                    if source is None or not source.labels_seen():
                        continue
                    merged = self.metrics.histogram(
                        name, source.help, buckets=source.bounds
                    )
                    merged.merge(source)

        query_windows = None
        if self.query is not None:
            from repro.query.offline import QueryReport

            by_stream = {
                stream: state.query.finish()
                for stream, state in self._streams.items()
                if state.query is not None
            }
            query_windows = QueryReport.build(self.query, by_stream).to_dict()
        if self._trace_runner is not None:
            self.frames_replayed = self._trace_runner.frames_replayed
            self.recorded_trace = self._trace_runner.out_trace()
        return LoopResult(
            account=account,
            batches=batches,
            invocations=invocations,
            compute_seconds=compute_seconds,
            makespan_seconds=last_completion,
            query_events=query_events,
            query_windows=query_windows,
            frame_results={
                stream: state.results for stream, state in sorted(self._streams.items())
            },
            scale_events=scale_events,
        )

    def emit_summary(self, record: Dict[str, Any], result: LoopResult) -> None:
        """Send a front's end-of-run summary ``record`` to every sink."""
        if self.query is not None:
            record["query"] = self.query.name
            record["query_events"] = result.query_events
        for sink in self.sinks:
            sink.emit(record)
            sink.flush()
