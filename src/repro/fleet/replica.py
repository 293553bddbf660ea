"""Replica servers and their lifecycle: spawn, serve, drain, retire.

A :class:`Replica` is one serving slot of the event loop
(:mod:`repro.fleet.loop`) — its own service model, micro-batcher, frame
queue and instruments — everything a server owns *except* the
per-stream pipeline state, which the loop keeps pool-wide so streams can
move between replicas without losing tracker identities or query-window
causality.  A bare :class:`~repro.serve.server.DetectionServer` is a
static pool of one replica.

The :class:`ReplicaSet` owns the pool: it spawns replicas over a fleet
spec's device cycle (or the bare server's one service model), drains
the ones the autoscaler retires (a draining replica finishes its
in-flight batch but accepts nothing new), and
converts the pool's history into the two numbers the tuner cares about —
**replica-seconds** (allocated capacity over time) and **cost** (those
seconds priced at each device's hourly rate).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
)
from repro.serve.batcher import MicroBatcher, QueuedFrame
from repro.serve.server import ServePolicy, ServiceModel

#: Replica lifecycle states.
ACTIVE = "active"  # serving and a placement candidate
DRAINING = "draining"  # finishing in-flight work; no new streams/frames
RETIRED = "retired"  # fully stopped; billing clock ended


class Replica:
    """One serving slot: a device, a queue, a batcher, and its metrics.

    ``metrics`` is the registry the replica's instruments live in; a fresh
    private one by default (what the autoscaler windows).
    """

    def __init__(
        self,
        index: int,
        service: ServiceModel,
        policy: ServePolicy,
        spawned_at: float,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.index = index
        self.name = f"r{index}"
        self.service = service
        self.device = service.device
        self.profile = service.cost_model().profile
        self.policy = policy
        self.batcher = MicroBatcher(
            max_batch_size=policy.max_batch_size,
            max_wait=policy.max_wait_ms / 1e3,
        )
        self.queue: List[QueuedFrame] = []
        self.busy_until: Optional[float] = None
        self.state = ACTIVE
        self.spawned_at = spawned_at
        self.retired_at: Optional[float] = None
        self.pinned_streams = 0
        # Lifetime totals (the per-replica rows of the fleet report).
        self.frames = 0
        self.batches = 0
        self.invocations = 0
        self.busy_seconds = 0.0
        # The same instruments whether the registry is private (a fleet
        # replica) or the bare server's own, so per-replica dashboards and
        # the fleet-level merge both read familiar names.  The autoscaler
        # diffs the wait/compute/batch-size histograms between control
        # ticks for its windowed signals.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.m_frames = self.metrics.counter(
            "serve_frames_total", "frames through the server", labels=("direction",)
        )
        self.m_drops = self.metrics.counter(
            "serve_drops_total", "frames dropped, by reason", labels=("reason",)
        )
        self.m_batches = self.metrics.counter(
            "serve_batches_total", "dispatched batches"
        )
        self.m_invocations = self.metrics.counter(
            "serve_invocations_total", "batched detector invocations"
        )
        self.m_wait = self.metrics.histogram(
            "serve_queue_wait_seconds", "arrival to dispatch",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.m_compute = self.metrics.histogram(
            "serve_compute_seconds", "modeled batch service time",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.m_latency = self.metrics.histogram(
            "serve_latency_seconds", "arrival to completion",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.m_batch_size = self.metrics.histogram(
            "serve_batch_size", "frames per dispatched batch",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self.m_depth = self.metrics.gauge(
            "serve_queue_depth", "admitted frames awaiting dispatch"
        )

    # ------------------------------------------------------------------ #

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    @property
    def queue_capacity(self) -> int:
        return self.policy.queue_capacity

    @property
    def cost_per_second(self) -> float:
        return self.profile.cost_per_second

    @property
    def idle(self) -> bool:
        return self.busy_until is None

    def alive_seconds(self, makespan: float) -> float:
        """Billed wall time: spawn to retirement (or end of run)."""
        end = self.retired_at if self.retired_at is not None else makespan
        return max(0.0, end - self.spawned_at)

    def cost(self, makespan: float) -> float:
        """Allocation cost: billed seconds at the device's hourly rate."""
        return self.alive_seconds(makespan) * self.cost_per_second

    def to_dict(self, makespan: float) -> Dict[str, object]:
        return {
            "name": self.name,
            "device": self.device,
            "spawned_s": self.spawned_at,
            "retired_s": self.retired_at,
            "frames": self.frames,
            "batches": self.batches,
            "invocations": self.invocations,
            "busy_seconds": self.busy_seconds,
            "alive_seconds": self.alive_seconds(makespan),
            "cost": self.cost(makespan),
        }


class ReplicaSet:
    """The fleet's replica pool and its billing history.

    Retired replicas stay in ``replicas`` (their lifetime still bills);
    only :meth:`active` members are placement candidates, and
    :meth:`serving` members (active + draining) may still dispatch.

    Parameters
    ----------
    policy:
        Every replica's admission/batching policy.
    service_for:
        ``index -> ServiceModel`` of the ``index``-th spawned replica
        (a fleet cycles its spec's device list).
    metrics:
        One registry every replica records into (the bare server's);
        ``None`` gives each replica its own.
    """

    def __init__(
        self,
        policy: ServePolicy,
        service_for: Callable[[int], ServiceModel],
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.policy = policy
        self.service_for = service_for
        self.metrics = metrics
        self.replicas: List[Replica] = []
        self._next_index = 0
        self._refresh()

    def _refresh(self) -> None:  # after every lifecycle change
        self._active = [r for r in self.replicas if r.state == ACTIVE]
        self._serving = [r for r in self.replicas if r.state in (ACTIVE, DRAINING)]

    def spawn(self, now: float) -> Replica:
        """Bring up the next replica on the next service model."""
        replica = Replica(
            index=self._next_index,
            service=self.service_for(self._next_index),
            policy=self.policy,
            spawned_at=now,
            metrics=self.metrics,
        )
        self._next_index += 1
        self.replicas.append(replica)
        self._refresh()
        return replica

    def active(self) -> List[Replica]:  # cached lists, in index order: read only
        return self._active

    def serving(self) -> List[Replica]:
        return self._serving

    def drain(self, replica: Replica) -> None:
        """Stop routing to ``replica``; it retires once idle and empty."""
        if replica.state == ACTIVE:
            replica.state = DRAINING
            self._refresh()

    def retire_idle(self, now: float) -> List[Replica]:
        """Retire draining replicas with no queue and no in-flight batch."""
        done = []
        for replica in self._serving:
            if replica.state == DRAINING and replica.idle and not replica.queue:
                replica.state = RETIRED
                replica.retired_at = now
                done.append(replica)
        if done:
            self._refresh()
        return done

    def replica_seconds(self, makespan: float) -> float:
        """Total allocated capacity: the sum of every replica's lifetime."""
        return sum(r.alive_seconds(makespan) for r in self.replicas)

    def cost(self, makespan: float) -> float:
        """Fleet allocation cost over the run."""
        return sum(r.cost(makespan) for r in self.replicas)
