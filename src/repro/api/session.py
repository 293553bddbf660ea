"""The :class:`Session` facade: specs in, (cached) results out.

The three-line happy path::

    from repro.api import DatasetSpec, ExperimentSpec, Session, SystemConfig

    session = Session(cache_dir="~/.cache/repro")
    spec = ExperimentSpec(SystemConfig("catdet", "resnet50", "resnet10a"))
    result = session.run(spec)          # second call: served from disk

``run`` routes every spec through the content-addressed result cache —
revisited operating points (the Figure-6 grid, tuning searches, repeated
table regenerations) load from disk bit-identical instead of recomputing.
``run_many`` additionally dedupes identical specs before scheduling, so a
grid with repeated points costs one computation per distinct fingerprint.
Points that are computed in-process share full-frame detector draws (see
:class:`~repro.simdet.detector.DrawMemo`): a sweep over C-thresh samples
each proposal network once per frame, not once per point.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.api.cache import ResultCache, experiment_key, fingerprint_dataset
from repro.api.registry import DATASET_FAMILIES, EXECUTORS
from repro.api.spec import DatasetSpec, EvalSpec, ExecSpec, ExperimentSpec
from repro.core.config import SystemConfig
from repro.core.pipeline import run_on_dataset
from repro.datasets.types import Dataset
from repro.harness.experiment import ExperimentResult
from repro.metrics.evaluate import evaluate_dataset
from repro.metrics.kitti_eval import DIFFICULTIES, HARD, MODERATE, DifficultyFilter
from repro.simdet.detector import DrawMemo


def make_spec_executor(exec_spec: ExecSpec):
    """Build the executor an :class:`ExecSpec` names.

    Distributed factories declare a ``queue_dir`` keyword and receive the
    spec's; local factories keep their plain ``(workers)`` signature and
    any ``queue_dir`` left on the spec is ignored, as documented.
    """
    import inspect

    factory = EXECUTORS.get(exec_spec.executor)
    if exec_spec.queue_dir is not None:
        if "queue_dir" in inspect.signature(factory).parameters:
            return factory(exec_spec.workers, queue_dir=exec_spec.queue_dir)
    return factory(exec_spec.workers)


@lru_cache(maxsize=8)
def build_dataset(spec: DatasetSpec) -> Dataset:
    """Build (and memoize per process) the dataset a spec describes."""
    factory = DATASET_FAMILIES.get(spec.family)
    return factory(
        num_sequences=spec.num_sequences,
        frames_per_sequence=spec.frames_per_sequence,
        seed=spec.seed,
    )


def _count_draws(shared: int, sampled: int) -> None:
    """Per-run draw-sharing counters (one registry touch per computed run)."""
    from repro.obs.registry import default_registry

    registry = default_registry()
    registry.counter(
        "simdet_draws_shared_total", "full-frame draws served from a Session's draw memo"
    ).inc(shared)
    registry.counter(
        "simdet_draws_sampled_total", "full-frame draws sampled through a Session's draw memo"
    ).inc(sampled)


class Session:
    """Runs experiment specs through a content-addressed result cache.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables
        caching (every run computes).

    Computed runs share full-frame detector draws through one bounded
    :class:`~repro.simdet.detector.DrawMemo` that lives as long as the
    session: points of a sweep that use the same proposal network on the
    same dataset sample each frame once.  Draws are never shared across
    sessions or processes (parallel executors build their systems in
    worker processes, which sample their own).  Outputs are identical
    either way.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None):
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache_dir is not None else None
        )
        # id -> (weakref, fingerprint): sweeps call run_experiment once per
        # operating point on one dataset object; hash its content once.
        self._dataset_fp_memo: Dict[int, Tuple[weakref.ref, str]] = {}
        # Compute-trace accounting (see repro.serve.trace): how many
        # serving simulations found a recorded compute phase to replay,
        # and how many admitted frames skipped the engine because of it.
        self.trace_hits = 0
        self.trace_misses = 0
        self.frames_replayed = 0
        self._draws = DrawMemo()

    def _dataset_fingerprint(self, dataset: Dataset) -> str:
        entry = self._dataset_fp_memo.get(id(dataset))
        if entry is not None and entry[0]() is dataset:
            return entry[1]
        fp = fingerprint_dataset(dataset)
        self._dataset_fp_memo[id(dataset)] = (weakref.ref(dataset), fp)
        return fp

    @property
    def cache_hits(self) -> int:
        # `is not None`, not truthiness: ResultCache.__len__ makes an
        # *empty* cache falsy, which would hide hits on stores (like the
        # serve report store) that don't live in the top-level layout.
        return self.cache.hits if self.cache is not None else 0

    @property
    def cache_misses(self) -> int:
        return self.cache.misses if self.cache is not None else 0

    def dataset(self, spec: DatasetSpec) -> Dataset:
        """The (memoized) dataset ``spec`` describes."""
        return build_dataset(spec)

    def run(
        self,
        spec: ExperimentSpec,
        *,
        use_cache: bool = True,
        on_progress: Optional[Callable[[int, int, str], None]] = None,
    ) -> ExperimentResult:
        """Run one spec, serving revisited fingerprints from the cache.

        A hit returns a result bit-identical to the original computation
        (same boxes, scores, labels and op accounts) without running the
        pipeline.  ``on_progress(done, total, sequence_name)`` fires per
        finished sequence on a miss (a hit never fires it).
        """
        executor = make_spec_executor(spec.exec)
        return self._run(
            spec.system,
            lambda: self.dataset(spec.dataset),
            tuple(DIFFICULTIES[name] for name in spec.eval.difficulties),
            with_delay=spec.eval.with_delay,
            key=spec.fingerprint,
            spec_dict=spec.to_dict(),
            executor=executor,
            use_cache=use_cache,
            on_progress=on_progress,
        )

    def run_many(
        self,
        specs: Iterable[ExperimentSpec],
        *,
        use_cache: bool = True,
        on_progress: Optional[Callable[[int, int, str], None]] = None,
    ) -> List[ExperimentResult]:
        """Run several specs, computing each distinct fingerprint once.

        Results come back aligned with the input order; duplicate specs
        (same fingerprint — execution plans may differ) share one result
        object.  ``on_progress(done, total, label)`` fires after each
        distinct spec completes.

        Specs whose execution plan names the ``"multihost"`` executor are
        dispatched *as one batch* to the shared work queue — the whole
        grid fans out across the worker fleet instead of blocking point
        by point — and reassemble bit-identically in input order.
        """
        specs = list(specs)
        unique: Dict[str, ExperimentSpec] = {}
        for spec in specs:
            unique.setdefault(spec.fingerprint, spec)

        results: Dict[str, ExperimentResult] = {}
        local = {
            fp: spec
            for fp, spec in unique.items()
            if spec.exec.executor != "multihost"
        }
        remote = [spec for fp, spec in unique.items() if fp not in local]
        # One monotonic (done, total) stream over the whole grid, whether a
        # spec resolves remotely, from cache, or in the local loop below.
        total = len(unique)
        done = 0

        def remote_progress(_done: int, _total: int, label: str) -> None:
            nonlocal done
            done += 1
            if on_progress is not None:
                on_progress(done, total, label)

        if remote:
            results.update(
                self._dispatch_remote(
                    remote,
                    use_cache=use_cache,
                    on_progress=None if on_progress is None else remote_progress,
                )
            )
            done = len(results)
        for fp, spec in local.items():
            results[fp] = self.run(spec, use_cache=use_cache)
            done += 1
            if on_progress is not None:
                on_progress(done, total, spec.label)
        return [results[spec.fingerprint] for spec in specs]

    def _dispatch_remote(
        self,
        specs: List[ExperimentSpec],
        *,
        use_cache: bool = True,
        on_progress: Optional[Callable[[int, int, str], None]] = None,
    ) -> Dict[str, ExperimentResult]:
        """Batch-dispatch multihost specs through the cluster coordinator.

        The session's own cache root (when set) doubles as the shared
        result store, so workers' finished payloads land where ``run``
        will find them on revisits; otherwise the queue's default
        ``<queue>/cache`` is used.
        """
        import os

        from repro.cluster.coordinator import QUEUE_DIR_ENV, dispatch_specs

        by_queue: Dict[str, List[ExperimentSpec]] = {}
        for spec in specs:
            queue_dir = spec.exec.queue_dir or os.environ.get(QUEUE_DIR_ENV)
            if not queue_dir:
                raise ValueError(
                    "multihost specs need ExecSpec(queue_dir=...) or "
                    f"the {QUEUE_DIR_ENV} environment variable"
                )
            by_queue.setdefault(queue_dir, []).append(spec)
        out: Dict[str, ExperimentResult] = {}
        cache_dir = self.cache.root if self.cache is not None else "auto"
        for queue_dir, batch in sorted(by_queue.items()):
            for spec, result in zip(
                batch,
                dispatch_specs(
                    queue_dir,
                    batch,
                    cache_dir=cache_dir,
                    use_cache=use_cache,
                    on_progress=on_progress,
                ),
            ):
                out[spec.fingerprint] = result
        return out

    def serve(
        self,
        spec: "Any",
        *,
        use_cache: bool = True,
        metrics: "Any" = None,
        sinks: "Any" = None,
    ) -> "Any":
        """Serve a :class:`~repro.api.spec.ServeSpec`, cached by fingerprint.

        Serving is a deterministic discrete-event simulation, so the
        throughput/latency :class:`~repro.serve.server.ServeReport` is a
        pure function of the spec — revisited serving configurations load
        from the cache's ``serve/`` store instead of re-simulating.
        Cached reports carry the statistics only; per-frame detections
        (`report.frame_results`) are available on fresh runs.

        ``metrics`` (a :class:`~repro.obs.registry.MetricsRegistry`) and
        ``sinks`` (:class:`~repro.obs.sinks.Sink`\\ s) are forwarded to
        the live server; they never affect the spec's fingerprint, and a
        cache hit — having simulated nothing — emits nothing.

        Any :class:`~repro.api.spec.DeploymentSpec` is served the same
        way (:meth:`serve_fleet` is this method for a fleet spec): on a
        miss, the spec's own live server replays the stored compute
        trace of the spec's (system, dataset, load) and records its own,
        and the report lands in the spec kind's report store.  Reports
        share the experiment cache's root: `repro cache stats/ls/prune`
        then manage them too (content addresses don't collide).
        """
        from repro.serve.loadgen import generate_load

        store = spec._store_cls()(self.cache.root) if self.cache is not None else None
        if store is not None and use_cache:
            cached = store.load(spec.fingerprint)
            if cached is not None:
                self.cache.hits += 1
                return cached
            self.cache.misses += 1
        requests = generate_load(spec.load, self.dataset(spec.dataset))
        trace_store, trace_key, trace = self._load_trace(spec, use_cache)
        server = spec._server(
            metrics=metrics, sinks=sinks, trace=trace, record_trace=trace_store is not None
        )
        report = server.run(requests)
        self._finish_trace(spec, trace_store, trace_key, trace, server)
        if store is not None and use_cache:
            store.store(spec.fingerprint, report, spec=spec.to_dict())
        return report

    def _load_trace(self, spec: "Any", use_cache: bool):
        """The stored :class:`~repro.serve.trace.ComputeTrace` for
        ``spec``'s (system, dataset, load), plus its store and key.

        Returns ``(None, None, None)`` when caching is off — the server
        then runs the plain live path with no recording.
        """
        if self.cache is None or not use_cache:
            return None, None, None
        from repro.serve.trace import TraceStore, trace_fingerprint

        trace_store = TraceStore(self.cache.root)
        trace_key = trace_fingerprint(spec)
        trace = trace_store.load(trace_key)
        if trace is not None:
            self.trace_hits += 1
        else:
            self.trace_misses += 1
        return trace_store, trace_key, trace

    def _finish_trace(self, spec, trace_store, trace_key, trace, server) -> None:
        """Account a finished run's replays and persist its out-trace.

        Stored only when strictly longer than what the store held — a
        shedding policy's truncated trace must never clobber the full
        no-shed recording that every other grid point replays from.
        """
        if trace_store is None:
            return
        self.frames_replayed += server.frames_replayed
        recorded = server.recorded_trace
        stored_frames = trace.total_frames if trace is not None else 0
        if recorded is not None and recorded.total_frames > stored_frames:
            trace_store.store(trace_key, recorded, spec=spec)

    def serve_fleet(
        self,
        spec: "Any",
        *,
        use_cache: bool = True,
        metrics: "Any" = None,
        sinks: "Any" = None,
    ) -> "Any":
        """Serve a :class:`~repro.fleet.spec.FleetSpec`, cached by fingerprint.

        The fleet simulation (replicated servers, stream routing, an
        optional autoscaler) stays a deterministic discrete-event run,
        so its :class:`~repro.fleet.server.FleetReport` is a pure
        function of the spec and caches exactly like a serve report —
        in the same store root, which is what makes
        :meth:`tune_fleet`'s sweeps nearly free on revisits.

        ``metrics`` / ``sinks`` are forwarded to the live fleet server
        (the fleet-level registry and the ``fleet.scale`` /
        ``fleet.summary`` record streams); they never affect the
        fingerprint, and a cache hit emits nothing.
        """
        return self.serve(spec, use_cache=use_cache, metrics=metrics, sinks=sinks)

    def tune_fleet(
        self,
        spec: "Any",
        *,
        slo_p99_ms: float,
        replica_counts=None,
        device_mixes=None,
        batch_sizes=None,
        use_cache: bool = True,
        on_progress: Optional[Callable[[int, int, str], None]] = None,
        workers: Optional[int] = None,
    ) -> "Any":
        """Sweep static fleet shapes for ``spec``, pick the cheapest feasible.

        :func:`repro.fleet.tune.tune_fleet` over this session: every
        point routes through :meth:`serve_fleet`, so a repeated tune is
        served entirely from the report cache.
        """
        from repro.fleet.tune import tune_fleet

        return tune_fleet(
            self,
            spec,
            slo_p99_ms=slo_p99_ms,
            replica_counts=replica_counts,
            device_mixes=device_mixes,
            batch_sizes=batch_sizes,
            use_cache=use_cache,
            on_progress=on_progress,
            workers=workers,
        )

    def query(
        self,
        spec: ExperimentSpec,
        query: "Any",
        *,
        use_cache: bool = True,
    ) -> "Any":
        """Evaluate a scenario query over an experiment's cached results.

        Runs ``spec`` through :meth:`run` (revisits load from the cache),
        then replays each sequence's frames through the offline reference
        evaluator — one stream per sequence, named after it.  Returns a
        :class:`~repro.query.offline.QueryReport`; the window table it
        formats is byte-identical to the one a served run of the same
        frames produces.
        """
        from repro.query.offline import QueryReport, evaluate_frames
        from repro.query.spec import QuerySpec

        if not isinstance(query, QuerySpec):
            raise TypeError(f"query must be a QuerySpec, got {type(query).__name__}")
        result = self.run(spec, use_cache=use_cache)
        by_stream = {
            name: evaluate_frames(query, seq.frames, stream=name)
            for name, seq in result.run.sequences.items()
        }
        return QueryReport.build(query, by_stream)

    def tune_serve(
        self,
        spec: "Any",
        *,
        slo_p99_ms: float,
        slo_wait_p95_ms: Optional[float] = None,
        batch_sizes=None,
        max_waits_ms=None,
        use_cache: bool = True,
        on_progress: Optional[Callable[[int, int, str], None]] = None,
        workers: Optional[int] = None,
    ) -> "Any":
        """Sweep batching policies for ``spec`` and pick the SLO-optimal one.

        :func:`repro.serve.tune.tune_policy` over this session: every
        point routes through :meth:`serve`, so a repeated tune is served
        entirely from the report cache.
        """
        from repro.serve.tune import tune_policy

        return tune_policy(
            self,
            spec,
            slo_p99_ms=slo_p99_ms,
            slo_wait_p95_ms=slo_wait_p95_ms,
            batch_sizes=batch_sizes,
            max_waits_ms=max_waits_ms,
            use_cache=use_cache,
            on_progress=on_progress,
            workers=workers,
        )

    def run_experiment(
        self,
        config: SystemConfig,
        dataset: Dataset,
        difficulties: Tuple[DifficultyFilter, ...] = (MODERATE, HARD),
        *,
        with_delay: bool = True,
        workers: Optional[int] = 1,
        use_cache: bool = True,
    ) -> ExperimentResult:
        """The classic ``(config, concrete dataset)`` entry point, cached.

        The cache key hashes the dataset *content* (ground-truth tracks),
        so ad-hoc datasets cache correctly too.  Custom difficulty
        filters that aren't the standard named levels bypass the cache —
        their names can't be trusted as content addresses.
        """
        key = None
        if self.cache is not None and use_cache and all(
            DIFFICULTIES.get(d.name) == d for d in difficulties
        ):
            eval_spec = EvalSpec(
                difficulties=tuple(d.name for d in difficulties),
                with_delay=with_delay,
            )
            key = experiment_key(config, self._dataset_fingerprint(dataset), eval_spec)
        return self._run(
            config,
            lambda: dataset,
            tuple(difficulties),
            with_delay=with_delay,
            key=key,
            spec_dict=None,
            executor=EXECUTORS.get("auto")(workers),
            use_cache=use_cache,
        )

    def _run(
        self,
        config: SystemConfig,
        dataset_fn: Callable[[], Dataset],
        filters: Tuple[DifficultyFilter, ...],
        *,
        with_delay: bool,
        key: Optional[str],
        spec_dict,
        executor,
        use_cache: bool,
        on_progress: Optional[Callable[[int, int, str], None]] = None,
    ) -> ExperimentResult:
        if self.cache is not None and use_cache and key is not None:
            cached = self.cache.load(key)
            if cached is not None:
                return cached
        # A miss pays for dataset construction only now — warm sessions in
        # fresh processes skip world generation entirely.
        dataset = dataset_fn()
        draws = self._draws
        shared, sampled = draws.shared, draws.sampled
        run = run_on_dataset(
            config, dataset, executor=executor, on_progress=on_progress, draws=draws
        )
        _count_draws(draws.shared - shared, draws.sampled - sampled)
        evaluations = {
            diff.name: evaluate_dataset(
                dataset, run.detections_by_sequence, diff, with_delay=with_delay
            )
            for diff in filters
        }
        result = ExperimentResult(config=config, run=run, evaluations=evaluations)
        if self.cache is not None and use_cache and key is not None:
            self.cache.store(key, result, spec=spec_dict)
        return result
