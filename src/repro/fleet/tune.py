"""Fleet tuning: the cheapest static fleet that meets the SLO.

The fleet front of the sweep driver in :mod:`repro.serve.tune`: sweep
replica count x device mix x batch size through
:meth:`repro.api.session.Session.serve_fleet` and pick the feasible
fleet with the least :attr:`~repro.fleet.server.FleetReport.
cost_per_frame` (allocated replica-time, so an idle replica still
bills); ties break toward fewer replicas, then lower p99.  The points
are *static* fleets (no autoscaler): the sweep answers "how big must a
fixed fleet be", to compare against an autoscaled ``repro fleet run``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Sequence as Seq, Tuple

from repro.fleet.spec import FleetSpec
from repro.serve.tune import TuneResult, _tune

#: Default replica-count axis of the sweep.
DEFAULT_REPLICA_COUNTS = (1, 2, 3, 4)


def tune_fleet(
    session,
    spec: FleetSpec,
    *,
    slo_p99_ms: float,
    replica_counts: Optional[Seq[int]] = None,
    device_mixes: Optional[Seq[Tuple[str, ...]]] = None,
    batch_sizes: Optional[Seq[int]] = None,
    use_cache: bool = True,
    on_progress: Optional[Callable[[int, int, str], None]] = None,
    workers: Optional[int] = None,
) -> TuneResult:
    """Sweep static fleet shapes and pick the cheapest feasible one.

    Every point is ``spec`` with its ``replicas`` / ``devices`` /
    ``policy.max_batch_size`` replaced (axes default to
    :data:`DEFAULT_REPLICA_COUNTS`, ``spec.devices`` and its batch size)
    and the autoscaler removed.  ``on_progress`` and ``workers`` are as
    in :func:`~repro.serve.tune.tune_policy`.
    """
    counts = DEFAULT_REPLICA_COUNTS if replica_counts is None else replica_counts
    if not counts:
        raise ValueError("replica_counts must be non-empty")
    mixes = [tuple(spec.devices)] if device_mixes is None else [tuple(m) for m in device_mixes]
    batches = [spec.policy.max_batch_size] if batch_sizes is None else batch_sizes
    if not mixes or not batches:
        raise ValueError("device_mixes and batch_sizes must be non-empty")
    points = [
        replace(
            spec,
            replicas=count,
            devices=mix,
            autoscaler=None,
            policy=replace(spec.policy, max_batch_size=batch),
        )
        for count in map(int, counts)
        for mix in mixes
        for batch in map(int, batches)
    ]
    return _tune(
        session,
        "fleet",
        points,
        slo_p99_ms=slo_p99_ms,
        use_cache=use_cache,
        on_progress=on_progress,
        workers=workers,
    )
