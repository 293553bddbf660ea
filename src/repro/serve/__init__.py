"""Online serving: micro-batched multi-stream inference over one engine.

The offline layers replay registered datasets; this package serves them
as *traffic*.  A :class:`~repro.serve.server.DetectionServer` multiplexes
many concurrent camera streams through one shared engine, coalescing
their detector calls into cross-stream micro-batches
(:mod:`repro.serve.batcher`), accounting every frame's queue-wait /
compute / end-to-end latency against an SLO (:mod:`repro.serve.slo`),
and shedding load when the bounded admission queue overflows.  It runs
the same event loop as a fleet (:mod:`repro.fleet.loop`) over a static
pool of one replica.  An
open-loop load generator (:mod:`repro.serve.loadgen`) drives it from
registered dataset sequences with Poisson, uniform or trace-replay
arrivals.

Time is a deterministic discrete-event simulation: service times come
from a :class:`~repro.serve.server.ServiceModel` — calibrated from a
:mod:`repro.cost` device profile (``ServeSpec(device="titanx")``) — fed
by *measured* detector invocations and the MAC accounting the pipeline
already produces, so identical specs yield identical reports — cacheable
by content fingerprint like every other result in this repo — while
per-frame detections stay byte-identical to the offline serial path.
Because simulated operating points are cached, policy search is cheap:
:func:`~repro.serve.tune.tune_policy` (CLI ``repro serve --tune``)
sweeps ``(max_batch_size, max_wait_ms)`` grids and picks the cheapest
policy meeting a p99 latency target.  :mod:`repro.serve.tune` owns the
one sweep driver (also behind :func:`repro.fleet.tune.tune_fleet`), its
:class:`~repro.serve.tune.PolicyCandidate` /
:class:`~repro.serve.tune.TuneResult` and the feasibility rule
:func:`~repro.serve.tune.slo_failures` the CLI's SLO gate applies too.
"""

from repro.serve.batcher import MicroBatcher, QueuedFrame
from repro.serve.loadgen import (
    LOAD_PATTERNS,
    FrameRequest,
    LoadSpec,
    generate_load,
    register_load_pattern,
)
from repro.serve.server import (
    DetectionServer,
    ServePolicy,
    ServeReport,
    ServeReportStore,
    ServiceModel,
)
from repro.serve.slo import LatencyStats, SLOAccount
from repro.serve.tune import PolicyCandidate, TuneResult, slo_failures, tune_policy

__all__ = [
    "DetectionServer",
    "FrameRequest",
    "LatencyStats",
    "LoadSpec",
    "LOAD_PATTERNS",
    "MicroBatcher",
    "PolicyCandidate",
    "QueuedFrame",
    "register_load_pattern",
    "ServePolicy",
    "ServeReport",
    "ServeReportStore",
    "ServiceModel",
    "SLOAccount",
    "TuneResult",
    "generate_load",
    "slo_failures",
    "tune_policy",
]
