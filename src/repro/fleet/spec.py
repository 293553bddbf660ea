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
from typing import Any, ClassVar, Dict, Optional, Tuple

from repro.api.spec import DeploymentSpec, FlatSection, JsonRoundTrip

FLEET_SPEC_FORMAT = "repro-fleet-spec/1"


@dataclass(frozen=True)
class AutoscalerPolicy(FlatSection):
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
    """

    min_replicas: int = 1
    max_replicas: int = 4
    interval_s: float = 2.0
    cooldown_s: float = 4.0
    slo_p99_ms: float = 200.0
    scale_out_wait_share: float = 0.5
    scale_in_occupancy: float = 0.25

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError(f"min_replicas must be >= 1, got {self.min_replicas}")
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas ({self.max_replicas}) must be >= "
                f"min_replicas ({self.min_replicas})"
            )
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {self.interval_s}")
        if self.cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {self.cooldown_s}")
        if self.slo_p99_ms <= 0:
            raise ValueError(f"slo_p99_ms must be positive, got {self.slo_p99_ms}")
        if not 0.0 < self.scale_out_wait_share <= 1.0:
            raise ValueError(
                f"scale_out_wait_share must be in (0, 1], "
                f"got {self.scale_out_wait_share}"
            )
        if not 0.0 <= self.scale_in_occupancy < 1.0:
            raise ValueError(
                f"scale_in_occupancy must be in [0, 1), "
                f"got {self.scale_in_occupancy}"
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

    FORMAT: ClassVar[str] = FLEET_SPEC_FORMAT
    KIND: ClassVar[str] = "fleet"

    replicas: int = 2
    devices: Tuple[str, ...] = ("abstract",)
    placement: str = "least_loaded"
    autoscaler: Optional[AutoscalerPolicy] = None

    def __post_init__(self) -> None:
        from repro.cost import get_device
        from repro.fleet.router import PLACEMENT_POLICIES

        super().__post_init__()
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        devices = tuple(self.devices)
        if not devices:
            raise ValueError("devices must name at least one device profile")
        for device in devices:
            get_device(device)  # raises KeyError for unknown names
        object.__setattr__(self, "devices", devices)
        PLACEMENT_POLICIES.get(self.placement)  # raises for unknown names
        if self.autoscaler is not None:
            if not isinstance(self.autoscaler, AutoscalerPolicy):
                raise TypeError(
                    f"autoscaler must be an AutoscalerPolicy, "
                    f"got {type(self.autoscaler).__name__}"
                )
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

    def _fields_dict(self) -> Dict[str, Any]:
        return {
            "replicas": self.replicas,
            "devices": list(self.devices),
            "placement": self.placement,
            "autoscaler": (
                None if self.autoscaler is None else self.autoscaler.to_dict()
            ),
        }

    @classmethod
    def _fields_from_dict(cls, data: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "replicas": data.get("replicas", 2),
            "devices": tuple(data.get("devices", ("abstract",))),
            "placement": data.get("placement", "least_loaded"),
            "autoscaler": (
                None
                if data.get("autoscaler") is None
                else AutoscalerPolicy.from_dict(data["autoscaler"])
            ),
        }

    @classmethod
    def _store_cls(cls) -> type:
        from repro.fleet.server import FleetReportStore

        return FleetReportStore

    def _server(self, **options: Any):
        from repro.fleet.server import FleetServer

        return FleetServer(self, **options)
