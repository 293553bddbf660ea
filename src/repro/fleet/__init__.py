"""Replicated fleet serving: routing, elasticity, and fleet tuning.

The serving layer (:mod:`repro.serve`) models *one* server; this package
scales it sideways without surrendering any of its guarantees:

* :mod:`~repro.fleet.spec` — frozen, fingerprinted
  :class:`FleetSpec` / :class:`AutoscalerPolicy` describing a deployment;
* :mod:`~repro.fleet.router` — sticky stream-to-replica pins over
  pluggable placement policies (``least_loaded``, ``round_robin``,
  ``cost_aware``);
* :mod:`~repro.fleet.replica` — the replica pool: heterogeneous device
  profiles, per-replica metrics registries, drain/retire lifecycle and
  allocation billing;
* :mod:`~repro.fleet.autoscaler` — the windowed, hysteretic control loop
  (scale out when queue-wait dominates the latency budget, in when batch
  occupancy collapses);
* :mod:`~repro.fleet.loop` — the one serving event loop, run by the
  fleet and, over a static pool of one replica, by the bare
  ``DetectionServer``;
* :mod:`~repro.fleet.server` — the fleet front over that loop and its
  cacheable :class:`FleetReport`;
* :mod:`~repro.fleet.tune` — the cheapest static fleet meeting an SLO,
  the fleet front of the one sweep driver in :mod:`repro.serve.tune`
  (results are :class:`~repro.serve.tune.TuneResult`\\ s).

Determinism carries over verbatim: per-frame detections are keyed by
``(model, seed, sequence, frame)``, so a 1-replica fleet is the bare
``DetectionServer``'s simulation and per-stream outputs are invariant
under replica count and autoscaling schedule.
"""

from repro.fleet.autoscaler import SCALE_IN, SCALE_OUT, Autoscaler, Decision
from repro.fleet.loop import LoopResult, ServingLoop
from repro.fleet.replica import ACTIVE, DRAINING, RETIRED, Replica, ReplicaSet
from repro.fleet.router import (
    PLACEMENT_POLICIES,
    FleetRouter,
    register_placement,
)
from repro.fleet.server import (
    FLEET_REPORT_FORMAT,
    FleetReport,
    FleetReportStore,
    FleetServer,
)
from repro.fleet.spec import FLEET_SPEC_FORMAT, AutoscalerPolicy, FleetSpec
from repro.fleet.tune import DEFAULT_REPLICA_COUNTS, tune_fleet

__all__ = [
    "ACTIVE",
    "Autoscaler",
    "AutoscalerPolicy",
    "DEFAULT_REPLICA_COUNTS",
    "DRAINING",
    "Decision",
    "FLEET_REPORT_FORMAT",
    "FLEET_SPEC_FORMAT",
    "FleetReport",
    "FleetReportStore",
    "FleetRouter",
    "FleetServer",
    "FleetSpec",
    "LoopResult",
    "PLACEMENT_POLICIES",
    "RETIRED",
    "Replica",
    "ReplicaSet",
    "SCALE_IN",
    "SCALE_OUT",
    "ServingLoop",
    "register_placement",
    "tune_fleet",
]
