"""Closed-loop tuning: sweep a grid of deployments, pick the SLO-optimal one.

Every grid point is one fingerprinted spec, so
:class:`~repro.api.session.Session` simulates it once and serves every
revisit — a whole re-tune included — from the cache.  One sweep driver
backs :func:`tune_policy` (``repro serve --tune``) and
:func:`repro.fleet.tune.tune_fleet` (``repro fleet tune``): points with
equal effective fingerprints are simulated once (the rest are aliases),
every point is judged by :func:`slo_failures`, and the cheapest feasible
one — by the sweep kind's objective — wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, NamedTuple, Optional, Sequence as Seq, Tuple

from repro.api.spec import ServeSpec
from repro.serve.server import ServeReport

#: Default sweep grids: batch depths in powers of two, coalescing windows
#: from "dispatch immediately" to a generous 50 ms.
DEFAULT_BATCH_SIZES = (1, 2, 4, 8)
DEFAULT_MAX_WAITS_MS = (0.0, 10.0, 25.0, 50.0)


def slo_failures(report, slo_p99_ms: float, slo_wait_p95_ms: Optional[float] = None) -> List[str]:
    """Every SLO bound ``report`` (serve or fleet) breaks; empty = feasible.

    A p99 miss, *any* shed frame (dropping load is not a pass), a
    queue-wait p95 miss when bounded, and any dead fleet stream (an
    availability failure no latency percentile can reveal).
    """
    fleet = report.slo["fleet"]
    failures = []
    p99 = float(fleet["p99_ms"])
    if p99 > slo_p99_ms:
        failures.append(f"p99 {p99:.1f} ms > target {slo_p99_ms:g} ms")
    if report.frames_shed > 0:
        failures.append(f"{report.frames_shed} frame(s) shed under the offered load")
    if slo_wait_p95_ms is not None:
        wait_p95 = float(fleet["wait_p95_ms"])
        if wait_p95 > slo_wait_p95_ms:
            failures.append(
                f"queue-wait p95 {wait_p95:.1f} ms > target {slo_wait_p95_ms:g} ms"
            )
    dead = getattr(report, "dead_streams", None)
    if dead:
        failures.append(f"{len(dead)} dead stream(s): " + ", ".join(dead))
    return failures


@dataclass(frozen=True)
class PolicyCandidate:
    """One evaluated grid point of a serve or fleet sweep.

    ``alias_of`` labels the canonical point this one collapsed into
    (same effective fingerprint); an alias shares that point's report.
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
        return float(self.report.slo["fleet"]["wait_p95_ms"])

    @property
    def cost_seconds(self) -> float:
        """Modeled engine-busy seconds — the single server's objective."""
        return self.report.compute_seconds

    @property
    def cost_per_frame(self) -> float:
        """The report's price per served frame: engine-busy time for a
        server, allocated replica-time for a fleet."""
        return self.report.cost_per_frame


def _per_kiloframe(cand: PolicyCandidate) -> Optional[float]:
    # Per-frame costs are dust (milliseconds of device-time at
    # dollars-per-hour); an all-shed point's ``inf`` renders blank.
    cpf = cand.cost_per_frame
    return cpf * 1e3 if math.isfinite(cpf) else None


class _SweepKind(NamedTuple):
    """Everything that differs between a serve and a fleet sweep's table
    and objective (the rest follows from the points' spec kind)."""

    effective_fingerprint: Callable
    sort_key: Callable  # the objective, then its tie-breaks
    noun: str
    headers: Tuple[str, ...]
    row: Callable  # a candidate's table cells under ``headers``
    describe_best: Callable
    infeasible: str  # verdict tail when nothing is feasible


def _serve_fingerprint(point: ServeSpec) -> str:
    """Fingerprint of ``point``'s *effective* policy: at
    ``max_batch_size=1`` the micro-batcher dispatches any non-empty
    frontier immediately, so ``max_wait_ms`` is canonicalized to 0."""
    policy = point.policy
    if policy.max_batch_size == 1 and policy.max_wait_ms != 0.0:
        point = replace(point, policy=replace(policy, max_wait_ms=0.0))
    return point.fingerprint


def _sweep_kind(kind: str) -> _SweepKind:
    """The table entry of sweep kind ``"serve"`` or ``"fleet"``."""
    if kind == "serve":
        return _SweepKind(
            _serve_fingerprint,
            lambda c: (c.cost_seconds, c.p99_ms, c.spec.policy.max_batch_size,
                       c.spec.policy.max_wait_ms),
            "policy",
            ("batch", "wait(ms)", "p99(ms)", "qwait p95", "shed", "busy(s)",
             "cost/kf", "fps"),
            lambda c: [c.spec.policy.max_batch_size, c.spec.policy.max_wait_ms,
                       c.p99_ms, c.wait_p95_ms, c.report.frames_shed,
                       c.cost_seconds, _per_kiloframe(c), c.report.throughput_fps],
            lambda c: (
                f"max_batch_size={c.spec.policy.max_batch_size}, "
                f"max_wait_ms={c.spec.policy.max_wait_ms:g} "
                f"(p99 {c.p99_ms:.1f} ms, engine busy {c.cost_seconds:.3f}s)"
            ),
            " — the offered load is infeasible on this device",
        )
    if kind == "fleet":
        return _SweepKind(
            lambda point: point.fingerprint,
            lambda c: (c.cost_per_frame, c.spec.replicas, c.p99_ms,
                       c.spec.policy.max_batch_size),
            "fleet",
            ("replicas", "devices", "batch", "p99(ms)", "shed", "dead", "repl-s",
             "cost/kf"),
            lambda c: [c.spec.replicas, "+".join(c.spec.devices),
                       c.spec.policy.max_batch_size, c.p99_ms, c.report.frames_shed,
                       len(c.report.dead_streams), c.report.replica_seconds,
                       _per_kiloframe(c)],
            lambda c: (
                f"{c.spec.replicas} replica(s) on {'+'.join(c.spec.devices)}, "
                f"max_batch_size={c.spec.policy.max_batch_size} "
                f"(p99 {c.p99_ms:.1f} ms, cost/frame {c.cost_per_frame:.6f})"
            ),
            " without shedding or starving a stream — "
            "widen the sweep or relax the SLO",
        )
    raise ValueError(f"unknown sweep kind: {kind!r}")


@dataclass
class TuneResult:
    """Outcome of one sweep of ``kind`` ``"serve"`` or ``"fleet"``;
    ``best`` is ``None`` when no grid point met the target."""

    slo_p99_ms: float
    candidates: List[PolicyCandidate]
    best: Optional[PolicyCandidate]
    slo_wait_p95_ms: Optional[float] = None
    kind: str = "serve"

    def format(self) -> str:
        """Human-readable sweep table plus the verdict."""
        from repro.harness.tables import format_table

        table = _sweep_kind(self.kind)
        rows = []
        for cand in self.candidates:
            marker = ""
            if cand is self.best:
                marker = "<= best"
            elif cand.alias_of is not None:
                marker = f"= {cand.alias_of}"
            elif cand.feasible:
                marker = "ok"
            rows.append(table.row(cand) + [marker])
        bounds = f"p99 <= {self.slo_p99_ms:.0f} ms"
        if self.slo_wait_p95_ms is not None:
            bounds += f", queue-wait p95 <= {self.slo_wait_p95_ms:.0f} ms"
        text = format_table(
            list(table.headers) + [""],
            rows,
            precision=3,
            title=f"{table.noun.capitalize()} sweep — SLO {bounds}",
        )
        if self.best is None:
            verdict = f"no swept {table.noun} meets {bounds}{table.infeasible}"
        else:
            verdict = f"best {table.noun}: {table.describe_best(self.best)}"
        return f"{text}\n{verdict}"


#: The :class:`~repro.api.session.Session` counters a worker hands back.
_SESSION_COUNTERS = ("trace_hits", "trace_misses", "frames_replayed")


def _evaluate_point(item):
    """Worker-process entry: evaluate one point in a fresh
    :class:`~repro.api.session.Session` over the shared cache directory;
    return its report as a plain dict (the parent rebuilds it like a
    cache hit) and the session's counters (the parent adds them up)."""
    spec_cls, cache_dir, spec_dict, use_cache = item
    from repro.api.session import Session

    session = Session(cache_dir=cache_dir)
    report = session.serve(spec_cls.from_dict(spec_dict), use_cache=use_cache)
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

    ``workers`` ``None``/``1`` runs every point in order through
    ``session``.  Otherwise (``0`` = one per core) cached points resolve
    in-process — a re-tune never spawns a pool — then cold points warm
    the shared compute trace in-process until one sheds nothing or
    replays it without going live, and the rest fan out over
    :func:`repro.utils.parmap.parallel_map`, replaying what the earlier
    points recorded.  Reports come back in spec order, identical at any
    worker count; ``progress(label)`` fires per finished point.  A
    failing point raises its own exception at any worker count.
    """
    from repro.utils.parmap import ParallelMapError, parallel_map, resolve_workers

    notify = progress if progress is not None else (lambda label: None)
    for point in specs:
        if point.KIND != kind:
            raise ValueError(f"a {kind} sweep got a {point.KIND} spec: {point.label}")
    serial = resolve_workers(workers, len(specs)) <= 1
    cache_dir = str(session.cache.root) if session.cache is not None else None
    cached = cache_dir is not None and use_cache
    reports = [None] * len(specs)

    def in_process(i: int) -> None:
        reports[i] = session.serve(specs[i], use_cache=use_cache)
        notify(labels[i])

    pending: List[int] = []
    for i, point in enumerate(specs):
        if serial or (cached and point.fingerprint in point._store_cls()(cache_dir)):
            in_process(i)
        else:
            pending.append(i)
    while pending and cached:
        # A point that shed nothing stored the complete trace; one whose
        # served frames were all replayed found the trace long enough.
        replayed = session.frames_replayed
        i = pending.pop(0)
        in_process(i)
        report = reports[i]
        if not report.frames_shed or session.frames_replayed - replayed >= report.frames_served:
            break
    if pending:
        items = [(type(specs[i]), cache_dir, specs[i].to_dict(), use_cache) for i in pending]
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
            reports[i] = specs[i]._store_cls().REPORT.from_dict(payload)
            _add_counters(session, counters)
    return reports


def _tune(
    session,
    kind: str,
    points: Seq,
    *,
    slo_p99_ms: float,
    slo_wait_p95_ms: Optional[float] = None,
    use_cache: bool,
    on_progress: Optional[Callable[[int, int, str], None]],
    workers: Optional[int],
) -> TuneResult:
    """The sweep driver behind both tuners, over grid ``points`` (specs
    labelled by their ``knobs``).

    The first point of each effective fingerprint goes through
    :func:`sweep_reports`; later ones are aliases sharing its report,
    whose progress fires the moment it resolves.
    """
    if slo_p99_ms <= 0:
        raise ValueError(f"slo_p99_ms must be positive, got {slo_p99_ms}")
    if slo_wait_p95_ms is not None and slo_wait_p95_ms <= 0:
        raise ValueError(f"slo_wait_p95_ms must be positive, got {slo_wait_p95_ms}")
    table = _sweep_kind(kind)
    grid = [(point, point.knobs) for point in points]
    by_fingerprint: dict = {}  # effective fingerprint -> canonical grid index
    owner = [
        by_fingerprint.setdefault(table.effective_fingerprint(point), gi)
        for gi, (point, _) in enumerate(grid)
    ]
    canonical = list(by_fingerprint.values())
    aliases = {grid[ci][1]: [] for ci in canonical}
    for gi, ci in enumerate(owner):
        if gi != ci:
            aliases[grid[ci][1]].append(grid[gi][1])
    done = iter(range(1, len(grid) + 1))

    def progress(label: str) -> None:
        for name in [label] + [f"{alias} (= {label})" for alias in aliases[label]]:
            if on_progress is not None:
                on_progress(next(done), len(grid), name)

    reports = sweep_reports(
        session,
        kind,
        [grid[ci][0] for ci in canonical],
        [grid[ci][1] for ci in canonical],
        use_cache=use_cache,
        workers=workers,
        progress=progress,
    )
    report_of = dict(zip(canonical, reports))
    candidates = [
        PolicyCandidate(
            spec=point,
            report=report_of[ci],
            feasible=not slo_failures(report_of[ci], slo_p99_ms, slo_wait_p95_ms),
            alias_of=None if gi == ci else grid[ci][1],
        )
        for gi, ((point, _), ci) in enumerate(zip(grid, owner))
    ]
    feasible = [c for c in candidates if c.feasible]
    return TuneResult(
        slo_p99_ms=slo_p99_ms,
        candidates=candidates,
        best=min(feasible, key=table.sort_key) if feasible else None,
        slo_wait_p95_ms=slo_wait_p95_ms,
        kind=kind,
    )


def tune_policy(
    session,
    spec: ServeSpec,
    *,
    slo_p99_ms: float,
    slo_wait_p95_ms: Optional[float] = None,
    batch_sizes: Optional[Seq[int]] = None,
    max_waits_ms: Optional[Seq[float]] = None,
    use_cache: bool = True,
    on_progress: Optional[Callable[[int, int, str], None]] = None,
    workers: Optional[int] = None,
) -> TuneResult:
    """Sweep ``(max_batch_size, max_wait_ms)`` and pick the SLO-optimal policy.

    Every grid point is ``spec`` with only its batching knobs replaced
    (axes default to :data:`DEFAULT_BATCH_SIZES` x
    :data:`DEFAULT_MAX_WAITS_MS`), served through ``session.serve``.
    ``slo_wait_p95_ms`` optionally bounds the fleet p95 *queue wait*,
    which p99 can hide behind aggressive batching.  The cheapest
    feasible policy has the least engine-busy time (most headroom on the
    device); ties break toward lower p99, smaller batches, shorter
    waits.  ``on_progress(done, total, label)`` fires per grid point,
    ``workers`` is :func:`sweep_reports`'; candidates are in grid order.
    """
    batch_sizes = DEFAULT_BATCH_SIZES if batch_sizes is None else batch_sizes
    max_waits_ms = DEFAULT_MAX_WAITS_MS if max_waits_ms is None else max_waits_ms
    if not batch_sizes or not max_waits_ms:
        raise ValueError("batch_sizes and max_waits_ms must be non-empty")
    points = [
        replace(spec, policy=replace(spec.policy, max_batch_size=batch, max_wait_ms=wait))
        for batch in map(int, batch_sizes)
        for wait in map(float, max_waits_ms)
    ]
    return _tune(
        session,
        "serve",
        points,
        slo_p99_ms=slo_p99_ms,
        slo_wait_p95_ms=slo_wait_p95_ms,
        use_cache=use_cache,
        on_progress=on_progress,
        workers=workers,
    )
