"""Closed-loop policy tuning: sweep batching knobs, pick the SLO-optimal one.

The serving simulator is deterministic and content-addressed, which makes
policy search nearly free: every ``(max_batch_size, max_wait_ms)`` grid
point is one :class:`~repro.api.spec.ServeSpec` with its own fingerprint,
so :meth:`repro.api.session.Session.serve` computes each operating point
once and serves every revisit — including a whole re-tune — from the
cache.  :func:`tune_policy` sweeps the grid and reports the *cheapest*
feasible policy:

* **feasible** — the fleet p99 end-to-end latency meets the target *and*
  nothing was shed (shed frames have no latency; dropping load to pass an
  SLO is not a win);
* **cheapest** — least modeled engine-busy time (``compute_seconds``),
  i.e. most headroom on the same device; ties break toward lower p99,
  then smaller batches and shorter waits.

Surfaced on the CLI as ``repro serve --tune --slo-p99-ms <target>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence as Seq

from repro.api.spec import ServeSpec
from repro.serve.server import ServeReport, ServeReportStore

#: Default sweep grids: batch depths in powers of two, coalescing windows
#: from "dispatch immediately" to a generous 50 ms.
DEFAULT_BATCH_SIZES = (1, 2, 4, 8)
DEFAULT_MAX_WAITS_MS = (0.0, 10.0, 25.0, 50.0)


@dataclass(frozen=True)
class PolicyCandidate:
    """One evaluated grid point of a tuning sweep.

    ``alias_of`` names the canonical grid point this one collapsed into
    when their policy-bearing fingerprints were equal (at
    ``max_batch_size=1`` the coalescing window is inert, so every
    ``max_wait_ms`` value is the same effective policy).  An alias was
    never simulated — it shares the canonical point's report.
    """

    spec: ServeSpec
    report: ServeReport
    feasible: bool
    alias_of: Optional[str] = None

    @property
    def p99_ms(self) -> float:
        return float(self.report.slo["fleet"]["p99_ms"])

    @property
    def wait_p95_ms(self) -> float:
        """Fleet p95 queue wait (0.0 for pre-observability cached reports)."""
        return float(self.report.slo["fleet"].get("wait_p95_ms", 0.0))

    @property
    def cost_seconds(self) -> float:
        """Modeled engine-busy seconds — the "price" of this policy."""
        return self.report.compute_seconds

    @property
    def cost_per_frame(self) -> float:
        """Engine-busy time priced at the device's hourly rate, per frame.

        The explicit $-proxy readback of what feasibility's min-busy
        pick optimizes: ``compute_seconds`` converted to money through
        the :class:`~repro.cost.DeviceProfile`'s ``cost_per_hour`` and
        amortized over served frames.  ``inf`` when nothing was served
        (an all-shed policy has no meaningful unit cost).  The fleet
        tuner prices *allocated* replica-time instead of busy-time —
        see :mod:`repro.fleet.tune`.
        """
        served = self.report.frames_served
        if not served:
            return float("inf")
        rate = self.spec.service.cost_model().profile.cost_per_second
        return self.report.compute_seconds * rate / served

    def sort_key(self):
        policy = self.spec.policy
        return (
            self.cost_seconds,
            self.p99_ms,
            policy.max_batch_size,
            policy.max_wait_ms,
        )


@dataclass
class TuneResult:
    """Outcome of one tuning sweep.

    ``best`` is ``None`` when no grid point met the target — the load is
    infeasible on this device at any swept policy (shed load, saturated
    engine), which is itself the tuner's most valuable answer.
    """

    slo_p99_ms: float
    candidates: List[PolicyCandidate]
    best: Optional[PolicyCandidate]
    slo_wait_p95_ms: Optional[float] = None

    def format(self) -> str:
        """Human-readable sweep table plus the verdict."""
        from repro.harness.tables import format_table

        rows = []
        for cand in self.candidates:
            policy = cand.spec.policy
            marker = ""
            if cand is self.best:
                marker = "<= best"
            elif cand.alias_of is not None:
                marker = f"= {cand.alias_of}"
            elif cand.feasible:
                marker = "ok"
            cpf = cand.cost_per_frame
            rows.append(
                [
                    policy.max_batch_size,
                    policy.max_wait_ms,
                    cand.p99_ms,
                    cand.wait_p95_ms,
                    cand.report.frames_shed,
                    cand.cost_seconds,
                    # Cost per *kiloframe*: per-frame values are dust
                    # (milliseconds of device-time at dollars-per-hour).
                    None if not math.isfinite(cpf) else cpf * 1e3,
                    cand.report.throughput_fps,
                    marker,
                ]
            )
        title = f"Policy sweep — SLO p99 <= {self.slo_p99_ms:.0f} ms"
        if self.slo_wait_p95_ms is not None:
            title += f", queue-wait p95 <= {self.slo_wait_p95_ms:.0f} ms"
        table = format_table(
            ["batch", "wait(ms)", "p99(ms)", "qwait p95", "shed", "busy(s)",
             "cost/kf", "fps", ""],
            rows,
            precision=3,
            title=title,
        )
        if self.best is None:
            bounds = f"p99 <= {self.slo_p99_ms:.0f} ms"
            if self.slo_wait_p95_ms is not None:
                bounds += f" with queue-wait p95 <= {self.slo_wait_p95_ms:.0f} ms"
            verdict = (
                f"no swept policy meets {bounds} — "
                "the offered load is infeasible on this device"
            )
        else:
            policy = self.best.spec.policy
            verdict = (
                f"best policy: max_batch_size={policy.max_batch_size}, "
                f"max_wait_ms={policy.max_wait_ms:g} "
                f"(p99 {self.best.p99_ms:.1f} ms, "
                f"engine busy {self.best.cost_seconds:.3f}s)"
            )
        return f"{table}\n{verdict}"


def _sweep_kind(kind: str):
    """``(spec class, report class, store class, Session method)`` of a
    sweep kind: ``"serve"`` (one server) or ``"fleet"``."""
    if kind == "serve":
        return ServeSpec, ServeReport, ServeReportStore, "serve"
    if kind == "fleet":
        from repro.fleet.server import FleetReport, FleetReportStore
        from repro.fleet.spec import FleetSpec

        return FleetSpec, FleetReport, FleetReportStore, "serve_fleet"
    raise ValueError(f"unknown sweep kind: {kind!r}")


#: The :class:`~repro.api.session.Session` counters a worker hands back.
_SESSION_COUNTERS = ("trace_hits", "trace_misses", "frames_replayed")


def _evaluate_point(item):
    """Worker-process entry: evaluate one sweep point end to end.

    Builds its own :class:`~repro.api.session.Session` over the shared
    cache directory (content-addressed atomic writes make concurrent
    workers safe) and returns the report as a plain dict — the parent
    reconstructs it exactly like a cache hit, statistics only — beside
    the child session's counters, which the parent adds to its own.
    """
    kind, cache_dir, spec_dict, use_cache = item
    from repro.api.session import Session

    spec_cls, _, _, method = _sweep_kind(kind)
    session = Session(cache_dir=cache_dir)
    report = getattr(session, method)(spec_cls.from_dict(spec_dict), use_cache=use_cache)
    counters = {name: getattr(session, name) for name in _SESSION_COUNTERS}
    counters["cache_hits"] = session.cache_hits
    counters["cache_misses"] = session.cache_misses
    return report.to_dict(), counters


def _add_counters(session, counters) -> None:
    """Add a worker session's counters to the parent ``session``."""
    for name in _SESSION_COUNTERS:
        setattr(session, name, getattr(session, name) + counters[name])
    if session.cache is not None:
        session.cache.hits += counters["cache_hits"]
        session.cache.misses += counters["cache_misses"]


def sweep_reports(
    session,
    kind: str,
    specs: Seq,
    labels: Seq[str],
    *,
    use_cache: bool = True,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
):
    """Evaluate independent sweep specs, optionally across processes.

    The engine of both tuners.  Serial (``workers`` in ``{None, 1}``)
    evaluates in order through ``session``; parallel fans cold points
    out over :func:`repro.utils.parmap.parallel_map` after (a) resolving
    already-cached fingerprints in-process — a re-tune never spawns a
    pool — and (b) evaluating the *first* cold point in-process to
    record the shared compute trace, so every worker replays it instead
    of re-running the engine.  Results come back in spec order;
    ``progress(label)`` fires per finished point, in completion order
    when parallel.  Workers' session counters (cache and trace hits and
    misses, frames replayed) are added to ``session``'s.  A failing
    point raises its own exception at any worker count.
    """
    from repro.utils.parmap import ParallelMapError, parallel_map, resolve_workers

    total = len(specs)
    notify = progress if progress is not None else (lambda label: None)
    _, report_cls, store_cls, method = _sweep_kind(kind)
    run = getattr(session, method)
    if resolve_workers(workers, total) <= 1:
        reports = []
        for point, label in zip(specs, labels):
            reports.append(run(point, use_cache=use_cache))
            notify(label)
        return reports

    cache_dir = str(session.cache.root) if session.cache is not None else None
    store = (
        store_cls(session.cache.root)
        if session.cache is not None and use_cache
        else None
    )
    reports = [None] * total
    pending: List[int] = []
    for i, point in enumerate(specs):
        if store is not None and point.fingerprint in store:
            reports[i] = run(point, use_cache=use_cache)
            notify(labels[i])
        else:
            pending.append(i)
    if pending and cache_dir is not None and use_cache:
        # Warm the shared compute trace before fanning out.
        first = pending.pop(0)
        reports[first] = run(specs[first], use_cache=use_cache)
        notify(labels[first])
    if pending:
        items = [
            (kind, cache_dir, specs[i].to_dict(), use_cache) for i in pending
        ]
        try:
            results = parallel_map(
                _evaluate_point,
                items,
                workers=workers,
                on_progress=lambda done, n, label: notify(label),
                labels=[labels[i] for i in pending],
            )
        except ParallelMapError as exc:
            # A failing point raises what the serial sweep would raise.
            raise exc.__cause__
        for i, (payload, counters) in zip(pending, results):
            reports[i] = report_cls.from_dict(payload)
            _add_counters(session, counters)
    return reports


def _effective_fingerprint(point: ServeSpec) -> str:
    """Fingerprint of ``point``'s *effective* policy.

    At ``max_batch_size=1`` the micro-batcher dispatches any non-empty
    frontier immediately, so ``max_wait_ms`` cannot influence the run;
    canonicalizing it to ``0.0`` before fingerprinting makes all such
    grid points collapse into one simulation.
    """
    policy = point.policy
    if policy.max_batch_size == 1 and policy.max_wait_ms != 0.0:
        point = replace(point, policy=replace(policy, max_wait_ms=0.0))
    return point.fingerprint


def tune_policy(
    session,
    spec: ServeSpec,
    *,
    slo_p99_ms: float,
    slo_wait_p95_ms: Optional[float] = None,
    batch_sizes: Seq[int] = DEFAULT_BATCH_SIZES,
    max_waits_ms: Seq[float] = DEFAULT_MAX_WAITS_MS,
    use_cache: bool = True,
    on_progress: Optional[Callable[[int, int, str], None]] = None,
    workers: Optional[int] = None,
) -> TuneResult:
    """Sweep ``(max_batch_size, max_wait_ms)`` and pick the SLO-optimal policy.

    Every grid point is ``spec`` with only its batching knobs replaced;
    all other sections (system, dataset, load, device/service, admission
    and shedding) are held fixed, and each point routes through
    ``session.serve`` — so revisited points, including a full re-tune,
    are pure cache hits.

    Parameters
    ----------
    session:
        A :class:`repro.api.session.Session` (supplies the report cache).
    spec:
        The base deployment to tune.
    slo_p99_ms:
        Feasibility target for the fleet p99 end-to-end latency.
    slo_wait_p95_ms:
        Optional additional bound on the fleet p95 *queue wait*.  End-to-end
        p99 can hide a policy that meets the deadline only by batching
        aggressively and parking frames in the queue; bounding queue wait
        keeps the admission-to-dispatch delay itself under control.
    batch_sizes / max_waits_ms:
        The grid axes.
    on_progress:
        Optional ``callback(done, total, label)`` per resolved grid
        point (aliases resolve the moment their canonical point does).
        Serial sweeps fire in grid order; parallel sweeps fire in
        completion order — the returned candidate list is in grid order
        either way.
    workers:
        Evaluate cold grid points in ``workers`` processes sharing the
        session's cache (``0`` = one per core, ``None``/``1`` = serial).
        The first cold point runs in-process to record the shared
        compute trace; results are identical at any worker count.
    """
    if slo_p99_ms <= 0:
        raise ValueError(f"slo_p99_ms must be positive, got {slo_p99_ms}")
    if slo_wait_p95_ms is not None and slo_wait_p95_ms <= 0:
        raise ValueError(
            f"slo_wait_p95_ms must be positive, got {slo_wait_p95_ms}"
        )
    if not batch_sizes or not max_waits_ms:
        raise ValueError("batch_sizes and max_waits_ms must be non-empty")
    grid = [
        (int(batch), float(wait)) for batch in batch_sizes for wait in max_waits_ms
    ]
    total = len(grid)

    # Collapse grid points with equal effective-policy fingerprints: the
    # first occurrence (in grid order) is canonical and gets simulated;
    # the rest become aliases sharing its report.
    points: List[ServeSpec] = []
    owner: List[int] = []  # grid index -> unique index
    alias_of: List[Optional[str]] = []
    unique_specs: List[ServeSpec] = []
    unique_labels: List[str] = []
    unique_aliases: List[List[int]] = []  # unique index -> alias grid indices
    unique_by_fp: dict = {}
    for gi, (batch, wait) in enumerate(grid):
        point = replace(
            spec,
            policy=replace(spec.policy, max_batch_size=batch, max_wait_ms=wait),
        )
        points.append(point)
        fp = _effective_fingerprint(point)
        ui = unique_by_fp.get(fp)
        if ui is None:
            ui = unique_by_fp[fp] = len(unique_specs)
            unique_specs.append(point)
            unique_labels.append(f"batch={batch} wait={wait:g}ms")
            unique_aliases.append([])
            alias_of.append(None)
        else:
            unique_aliases[ui].append(gi)
            alias_of.append(unique_labels[ui])
        owner.append(ui)

    done = 0

    def fire(label: str) -> None:
        nonlocal done
        done += 1
        if on_progress is not None:
            on_progress(done, total, label)

    ui_by_label = {label: ui for ui, label in enumerate(unique_labels)}

    def progress(label: str) -> None:
        ui = ui_by_label[label]
        fire(label)
        for gi in unique_aliases[ui]:
            batch, wait = grid[gi]
            fire(f"batch={batch} wait={wait:g}ms (= {label})")

    reports = sweep_reports(
        session,
        "serve",
        unique_specs,
        unique_labels,
        use_cache=use_cache,
        workers=workers,
        progress=progress,
    )

    candidates: List[PolicyCandidate] = []
    for gi, point in enumerate(points):
        report = reports[owner[gi]]
        feasible = (
            float(report.slo["fleet"]["p99_ms"]) <= slo_p99_ms
            and report.frames_shed == 0
            and (
                slo_wait_p95_ms is None
                or float(report.slo["fleet"].get("wait_p95_ms", 0.0))
                <= slo_wait_p95_ms
            )
        )
        candidates.append(
            PolicyCandidate(
                spec=point,
                report=report,
                feasible=feasible,
                alias_of=alias_of[gi],
            )
        )
    feasible = [c for c in candidates if c.feasible]
    best = min(feasible, key=PolicyCandidate.sort_key) if feasible else None
    return TuneResult(
        slo_p99_ms=slo_p99_ms,
        candidates=candidates,
        best=best,
        slo_wait_p95_ms=slo_wait_p95_ms,
    )
