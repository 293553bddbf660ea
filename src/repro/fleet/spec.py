"""Declarative fleet deployments: frozen, fingerprinted, cacheable.

A :class:`FleetSpec` is the replicated-serving sibling of
:class:`~repro.api.spec.ServeSpec`: one system served over one dataset's
streams under one offered load — but across *N* replica servers over
(possibly heterogeneous) device profiles, with a stream-to-replica
placement policy and an optional :class:`AutoscalerPolicy` controlling
the replica count at runtime.

Like every spec in this repo it is frozen, JSON-round-trippable and
content-fingerprinted.  Fleet serving is a deterministic discrete-event
simulation, so a spec's :class:`~repro.fleet.server.FleetReport` is a
pure function of the spec and :meth:`repro.api.session.Session.serve_fleet`
caches it by fingerprint — which is what makes fleet *tuning* (sweeping
replica count x device mix x batch policy) nearly free on revisits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Optional, Tuple

from repro import schema
from repro.api.spec import DeploymentSpec, JsonRoundTrip
from repro.fleet.router import PLACEMENT_POLICIES

FLEET_SPEC_FORMAT = "repro-fleet-spec/1"


@dataclass(frozen=True)
class AutoscalerPolicy(schema.Schema):
    """The control loop's knobs: when to scale, how fast, within what bounds.

    The controller reads the PR-7 observability signals each replica's
    :class:`~repro.obs.registry.MetricsRegistry` already exposes and acts
    on *windowed* views of them (what happened since the last control
    tick, not since the beginning of time):

    * **scale out** when the windowed queue-wait p95 dominates — it both
      exceeds ``scale_out_wait_share`` of the ``slo_p99_ms`` budget *and*
      exceeds the windowed compute p95.  Wait-dominated latency means the
      fleet is under-provisioned; compute-dominated latency means the
      work is just expensive, and another replica would not help a
      single stream's frame get computed faster.
    * **scale in** when windowed batch occupancy collapses below
      ``scale_in_occupancy`` of the batch-size cap while queue waits sit
      comfortably inside the budget — capacity is idling.

    Hysteresis comes from ``cooldown_s`` (no two scale actions closer
    than this) plus the hard ``min_replicas``/``max_replicas`` bounds.

    Parameters
    ----------
    min_replicas / max_replicas:
        Hard bounds on the live replica count.
    interval_s:
        Control-tick period on the *simulated* clock.
    cooldown_s:
        Minimum simulated time between two scale actions.
    slo_p99_ms:
        The end-to-end latency budget the controller defends.
    scale_out_wait_share:
        Fraction of the budget the windowed queue-wait p95 may consume
        before wait is considered to dominate.
    scale_in_occupancy:
        Windowed mean batch size below this fraction of
        ``max_batch_size`` marks capacity as collapsed.

    From the command line, ``slo_p99_ms`` is the run's ``--slo-p99-ms``
    acceptance gate when given, else the policy's ``--slo-ms``.
    """

    min_replicas: int = schema.field(1, "--min-replicas", "autoscaler lower bound", must="be >= 1")
    max_replicas: int = schema.field(4, "--max-replicas", "autoscaler upper bound")
    interval_s: float = schema.field(2.0, "--interval-s", must="be positive",
                                     help="control-tick period (simulated seconds)")
    cooldown_s: float = schema.field(4.0, "--cooldown-s", must="be >= 0",
                                     help="minimum time between scale actions")
    slo_p99_ms: float = schema.field(200.0, reads=("--slo-p99-ms", "--slo-ms"), must="be positive")
    scale_out_wait_share: float = schema.field(0.5, "--scale-out-wait-share", must="be in (0, 1]",
        help="budget share the windowed queue-wait p95 may consume before scaling out")
    scale_in_occupancy: float = schema.field(0.25, "--scale-in-occupancy", must="be in [0, 1)",
        help="windowed mean batch size below this fraction of --batch-size scales in")

    def __post_init__(self) -> None:
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas ({self.max_replicas}) must be >= "
                f"min_replicas ({self.min_replicas})"
            )


@dataclass(frozen=True)
class FleetSpec(DeploymentSpec):
    """One fully-described fleet deployment.

    Parameters
    ----------
    system / dataset / load / policy / query:
        The :class:`~repro.api.spec.DeploymentSpec` sections, exactly as
        on :class:`~repro.api.spec.ServeSpec` — the system every replica
        serves (detectors shared fleet-wide, trackers per stream), the
        dataset family behind the streams, the offered load, the
        per-replica admission/batching policy, and an optional scenario
        query evaluated per stream.
    replicas:
        Initial replica count (the static count when no autoscaler).
    devices:
        Device-profile names the replica pool cycles through: replica
        ``i`` (by spawn order, including autoscaled spawns) runs on
        ``devices[i % len(devices)]``.  One name = a homogeneous fleet.
    placement:
        Registered placement policy routing *new* streams to replicas
        (see :mod:`repro.fleet.router`; routing is sticky thereafter).
    autoscaler:
        ``None`` for a static fleet, or an :class:`AutoscalerPolicy`;
        ``replicas`` must then lie inside its bounds.
    """

    FORMAT = FLEET_SPEC_FORMAT
    NOUN = "fleet spec"
    MISSING_MESSAGE = "fleet spec is missing the required 'system' section"
    KIND: ClassVar[str] = "fleet"

    replicas: int = schema.field(2, "--replicas", must="be >= 1", help=(
        "initial replica count (the static count without --autoscale)"))
    devices: Tuple[str, ...] = schema.field(("abstract",), "--devices", metavar="DEV0,DEV1,...",
        help="device-profile cycle: spawned replica i runs on devices[i %% len] "
        "(one name = homogeneous fleet)")
    placement: str = schema.field("least_loaded", "--placement", choices=PLACEMENT_POLICIES.names,
                                  help="policy routing new streams to replicas (sticky thereafter)")
    autoscaler: Optional[AutoscalerPolicy] = schema.field(
        None, "--autoscale", "enable the metrics-driven replica-count control loop")

    def __post_init__(self) -> None:
        from repro.cost import get_device

        super().__post_init__()
        devices = tuple(self.devices)
        if not devices:
            raise ValueError("devices must name at least one device profile")
        for device in devices:
            get_device(device)  # raises KeyError for unknown names
        object.__setattr__(self, "devices", devices)
        PLACEMENT_POLICIES.get(self.placement)  # raises for unknown names
        if self.autoscaler is not None:
            if not (
                self.autoscaler.min_replicas
                <= self.replicas
                <= self.autoscaler.max_replicas
            ):
                raise ValueError(
                    f"replicas={self.replicas} outside the autoscaler bounds "
                    f"[{self.autoscaler.min_replicas}, "
                    f"{self.autoscaler.max_replicas}]"
                )

    # Class-own: perfbench's tracer wraps only attributes in cls.__dict__.
    fingerprint = JsonRoundTrip.fingerprint

    @property
    def _shape(self) -> str:
        scale = (
            f"{self.autoscaler.min_replicas}-{self.autoscaler.max_replicas} auto"
            if self.autoscaler is not None
            else f"{self.replicas} static"
        )
        return f" fleet[{scale} on {'/'.join(self.devices)}]"

    @property
    def knobs(self) -> str:
        return (
            f"replicas={self.replicas} devices={'+'.join(self.devices)} "
            f"batch={self.policy.max_batch_size}"
        )

    def device_for(self, index: int) -> str:
        """Device profile name of the ``index``-th spawned replica."""
        return self.devices[index % len(self.devices)]

    @classmethod
    def _store_cls(cls) -> type:
        from repro.fleet.server import FleetReportStore

        return FleetReportStore

    def _server(self, **options: Any):
        from repro.fleet.server import FleetServer

        return FleetServer(self, **options)
