"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``models``              list the model zoo with op counts
``run``                 run one system on a KITTI-like dataset and report
``table2`` / ``table6`` regenerate the paper's headline tables
``table7``              GPU-timing comparison from the calibrated cost model
``sweep``               the Figure-6 C-thresh sweep
``spec``                run declarative ExperimentSpec JSON (file or grid)
``serve``               micro-batched multi-stream serving + SLO report
                        (``--tune`` sweeps policies against an SLO target)
``query``               temporal-logic scenario search over detection/track
                        streams (offline replay or ``--serve`` online)
``loadgen``             generate (and inspect) an open-loop arrival schedule
``fleet``               replicated serving: ``run`` a (possibly autoscaled)
                        replica fleet, ``tune`` the cheapest fleet meeting
                        an SLO, ``report`` a saved fleet report
``worker``              drain a shared cluster work queue (multi-host execution)
``dispatch``            shard a spec grid across the worker fleet
``status``              live fleet/queue health for a cluster queue directory
``cache``               inspect/prune the content-addressed result cache
``bench``               performance harness: systems fps + kernel speedups,
                        appended as ``BENCH_<n>.json`` (``--check`` gates
                        the speedup ratios against the committed baseline)

Every run-like command accepts ``--cache-dir`` (default: the
``REPRO_CACHE_DIR`` environment variable) to serve revisited operating
points from the content-addressed result cache, ``--no-cache`` to force
recomputation, and ``--progress`` to report per-unit completion on
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from repro import schema
from repro.api.session import Session
from repro.api.spec import DatasetSpec, EvalSpec, ExecSpec, ExperimentSpec, ServeSpec
from repro.core.config import SystemConfig
from repro.fleet import FleetReport, FleetSpec
from repro.harness.configs import table2_specs, table6_specs
from repro.harness.sweeps import cthresh_sweep
from repro.harness.tables import format_table
from repro.simdet.zoo import MODEL_ZOO


def _session(args: argparse.Namespace) -> Session:
    cache_dir = None if args.no_cache else args.cache_dir
    return Session(cache_dir=cache_dir)


def _progress(args: argparse.Namespace):
    """The ``--progress`` stderr reporter (or None when not requested)."""
    if not getattr(args, "progress", False):
        return None

    def report(done: int, total: int, label: str) -> None:
        print(f"[progress] {done}/{total}  {label}", file=sys.stderr, flush=True)

    return report


def _print_cache_stats(session: Session) -> None:
    if session.cache is not None:
        print(
            f"[cache] {session.cache_hits} hit(s), "
            f"{session.cache_misses} miss(es) in {session.cache.root}"
        )
        if session.trace_hits or session.trace_misses:
            print(
                f"[trace] {session.trace_hits} hit(s), "
                f"{session.trace_misses} miss(es), "
                f"{session.frames_replayed} frame(s) replayed"
            )


def cmd_models(args: argparse.Namespace) -> int:
    rows = []
    for name, entry in MODEL_ZOO.items():
        if entry.detector_type == "retinanet":
            gops = entry.retinanet_ops(1242, 375).full_frame().total_gops
        else:
            gops = entry.rcnn_ops(1242, 375).full_frame(300).total_gops
        rows.append([name, entry.detector_type, gops])
    print(format_table(["model", "type", "KITTI Gops"], rows, precision=1))
    return 0


def _kitti(args: argparse.Namespace) -> DatasetSpec:
    """The KITTI-like data of a command's ``--sequences``/``--frames``."""
    return DatasetSpec("kitti", num_sequences=args.sequences, frames_per_sequence=args.frames)


def cmd_run(args: argparse.Namespace) -> int:
    config = schema.from_flags(
        SystemConfig, args, margin=args.margin, input_scale=args.input_scale,
        detailed_ops=args.detailed_ops, device=args.device,
    )
    spec = ExperimentSpec(
        system=config,
        dataset=_kitti(args),
        exec=ExecSpec(workers=args.workers),
    )
    session = _session(args)
    result = session.run(spec, on_progress=_progress(args))
    print(f"system: {config.label}")
    print(f"ops/frame: {result.ops_gops:.1f} G")
    timing = result.mean_timing()
    if timing is not None:
        print(
            f"modeled latency on {config.device}: "
            f"{timing.gpu_seconds * 1e3:.1f} ms GPU + "
            f"{timing.cpu_seconds * 1e3:.1f} ms CPU = "
            f"{timing.total_seconds * 1e3:.1f} ms/frame "
            f"(~{result.modeled_fps:.1f} fps, "
            f"{timing.num_launches:.1f} launches/frame)"
        )
    for diff in ("moderate", "hard"):
        print(
            f"[{diff:>8s}] mAP={result.mean_ap(diff):.3f} "
            f"mD@0.8={result.mean_delay(diff):.2f}"
        )
    _print_cache_stats(session)
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    session = _session(args)
    specs = table2_specs(args.sequences, args.frames, workers=args.workers)
    rows = []
    for spec, res in zip(specs, session.run_many(specs, on_progress=_progress(args))):
        rows.append(
            [spec.system.label, res.ops_gops, res.mean_ap("moderate"),
             res.mean_ap("hard"), res.mean_delay("moderate"),
             res.mean_delay("hard")]
        )
    print(format_table(
        ["system", "ops(G)", "mAP_M", "mAP_H", "mD_M", "mD_H"], rows,
        title="Table 2 — KITTI main results",
    ))
    _print_cache_stats(session)
    return 0


def cmd_table6(args: argparse.Namespace) -> int:
    session = _session(args)
    specs = table6_specs(args.sequences, workers=args.workers)
    rows = []
    for spec, res in zip(specs, session.run_many(specs, on_progress=_progress(args))):
        rows.append(
            [spec.system.label, res.evaluation("moderate").mean_ap("voc11"), res.ops_gops]
        )
    print(format_table(["system", "mAP", "ops(G)"], rows,
                       title="Table 6 — CityPersons"))
    _print_cache_stats(session)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    session = _session(args)
    dataset = session.dataset(_kitti(args))
    points = cthresh_sweep(
        dataset,
        proposal_models=tuple(args.models.split(",")),
        c_values=tuple(float(c) for c in args.c_values.split(",")),
        workers=args.workers,
        session=session,
        on_progress=_progress(args),
    )
    rows = [
        [p.proposal_model, "yes" if p.with_tracker else "no",
         p.c_thresh, p.mean_ap, p.mean_delay, p.ops_gops]
        for p in points
    ]
    print(format_table(
        ["proposal", "tracker", "C-thresh", "mAP(H)", "mD@0.8", "ops(G)"],
        rows, title="Figure 6 — C-thresh sweep",
    ))
    _print_cache_stats(session)
    return 0


_EXAMPLE_SPEC = ExperimentSpec(
    system=SystemConfig("catdet", "resnet50", "resnet10a"),
    dataset=DatasetSpec("kitti", num_sequences=4, frames_per_sequence=100),
    eval=EvalSpec(difficulties=("moderate", "hard")),
    exec=ExecSpec(workers=1),
)


def _load_spec_file(path: str, workers) -> list:
    """Read a spec JSON file (an object or a list) into ExperimentSpecs."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    entries = payload if isinstance(payload, list) else [payload]
    specs = [ExperimentSpec.from_dict(entry) for entry in entries]
    if workers is not None:
        specs = [replace(s, exec=replace(s.exec, workers=workers)) for s in specs]
    return specs


def _print_spec_table(specs, results) -> None:
    diff_names = []
    for spec in specs:
        for name in spec.eval.difficulties:
            if name not in diff_names:
                diff_names.append(name)
    rows = []
    for spec, res in zip(specs, results):
        row = [spec.label, res.ops_gops]
        for name in diff_names:
            if name in spec.eval.difficulties:
                row.append(res.evaluation(name).mean_ap(spec.eval.ap_method))
            else:
                row.append(None)
        rows.append(row + [spec.fingerprint[:12]])
    print(format_table(
        ["spec", "ops(G)", *[f"mAP[{n}]" for n in diff_names], "fingerprint"],
        rows, title=f"{len(specs)} spec(s)",
    ))


def cmd_spec(args: argparse.Namespace) -> int:
    if args.example:
        print(_EXAMPLE_SPEC.to_json(indent=2))
        return 0
    if args.file is None:
        print("error: a spec file is required (or --example)", file=sys.stderr)
        return 2
    specs = _load_spec_file(args.file, args.workers)
    if args.dry_run:
        for spec in specs:
            print(f"{spec.fingerprint}  {spec.label}")
        return 0
    session = _session(args)
    results = session.run_many(specs, on_progress=_progress(args))
    _print_spec_table(specs, results)
    _print_cache_stats(session)
    return 0


def _csv(values) -> str:
    """``values`` as the comma-separated grid :func:`repro.schema.grid_type` parses."""
    return ",".join(f"{v:g}" for v in values)


def _slo_gate(report, slo_p99_ms, slo_wait_p95_ms=None) -> int:
    """The non-tune ``--slo-p99-ms`` acceptance gate (0 = pass, 1 = fail).

    Applies the tuners' feasibility rule
    (:func:`repro.serve.tune.slo_failures`) and prints one verdict line
    per broken bound so CI logs say exactly which one broke.
    """
    from repro.serve.tune import slo_failures

    failures = slo_failures(report, slo_p99_ms, slo_wait_p95_ms)
    if failures:
        for failure in failures:
            print(f"SLO FAIL: {failure}", file=sys.stderr)
        return 1
    p99 = float(report.slo["fleet"]["p99_ms"])
    verdict = f"SLO PASS: p99 {p99:.1f} ms <= {slo_p99_ms:g} ms, nothing shed"
    dead = getattr(report, "dead_streams", None)
    print(verdict if dead is None else f"{verdict}, no dead streams")
    return 0


def _run_tune(session: Session, header: str, tune, tune_out=None) -> int:
    """Run a sweep (``tune()``), print it and its best point.

    Exit 2 on a bad grid (an unknown device, a batch size the policy
    rejects), 1 when no point is feasible, else 0.
    """
    try:
        result = tune()
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if tune_out:
        _write_tune_json(tune_out, result)
    print(header)
    print(result.format())
    if result.best is not None:
        print()
        print(f"fingerprint: {result.best.spec.fingerprint[:16]}")
        print(result.best.report.format())
    _print_cache_stats(session)
    return 0 if result.best is not None else 1


def _write_tune_json(path: str, result) -> None:
    """Machine-readable sweep dump: candidates in grid order with their
    full report payloads — what the CI equality check diffs between a
    serial and a parallel run of the same sweep."""
    payload = {
        "slo_p99_ms": result.slo_p99_ms,
        "slo_wait_p95_ms": result.slo_wait_p95_ms,
        "best": None if result.best is None else result.best.spec.fingerprint,
        "candidates": [
            {
                "fingerprint": c.spec.fingerprint,
                "batch": c.spec.policy.max_batch_size,
                "wait_ms": c.spec.policy.max_wait_ms,
                "feasible": c.feasible,
                "alias_of": c.alias_of,
                "report": c.report.to_dict(),
            }
            for c in result.candidates
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True)


def _serve_into_sink(args: argparse.Namespace, session: Session, spec, metrics=None):
    """Serve a serve or fleet ``spec`` through ``session`` into the
    ``--sink`` sink (closed afterwards); ``None``, with the error
    printed, when the sink spec is bad."""
    from repro.obs import make_sink

    try:
        sink = make_sink(args.sink) if args.sink else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    try:
        return session.serve(spec, use_cache=not args.no_cache, metrics=metrics, sinks=sink)
    finally:
        if sink is not None:
            sink.close()


def cmd_serve(args: argparse.Namespace) -> int:
    try:
        spec = schema.from_flags(ServeSpec, args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    session = _session(args)
    if args.tune:
        if args.slo_p99_ms is None:
            print("error: --tune requires --slo-p99-ms <target>", file=sys.stderr)
            return 2
        return _run_tune(
            session,
            f"tuning: {spec.label} on device {spec.device or 'custom'}",
            lambda: session.tune_serve(
                spec,
                slo_p99_ms=args.slo_p99_ms,
                slo_wait_p95_ms=args.slo_wait_p95_ms,
                batch_sizes=args.batch_grid,
                max_waits_ms=args.wait_grid,
                use_cache=not args.no_cache,
                on_progress=_progress(args),
                workers=args.workers,
            ),
            args.tune_out,
        )
    report = _serve_into_sink(args, session, spec)
    if report is None:
        return 2
    print(f"serving: {spec.label}")
    print(f"fingerprint: {spec.fingerprint[:16]}")
    print(report.format())
    _print_cache_stats(session)
    if args.slo_p99_ms is not None:
        return _slo_gate(report, args.slo_p99_ms, args.slo_wait_p95_ms)
    return 0


#: Table 7 reference numbers (seconds per frame, Maxwell Titan X).
_TABLE7_PAPER = {
    "single": (0.193, 0.159),
    "catdet": (0.094, 0.042),
}


def cmd_table7(args: argparse.Namespace) -> int:
    """The paper's GPU-timing comparison from the calibrated cost model.

    Drives the linear model ``T = alpha * W + b`` (plus the appendix's
    greedy region merging) with the actual per-frame regions a CaTDet
    run produces; the CaTDet row averages over every requested sequence.
    Shares its implementation with ``benchmarks/test_table7_gpu_timing``.
    """
    from repro.cost import CostModel
    from repro.gpu.table7 import compute_table7_timings

    dataset = _session(args).dataset(_kitti(args))
    timings = compute_table7_timings(
        dataset.sequences, CostModel.for_device(args.device)
    )
    single = timings.single
    rows = [
        ["Res50 Faster R-CNN", single.total_seconds, _TABLE7_PAPER["single"][0],
         single.gpu_seconds, _TABLE7_PAPER["single"][1]],
        ["Res10a-Res50 CaTDet", timings.catdet_total_seconds,
         _TABLE7_PAPER["catdet"][0], timings.catdet_gpu_seconds,
         _TABLE7_PAPER["catdet"][1]],
    ]
    print(format_table(
        ["system", "total(s)", "(paper)", "GPU-only(s)", "(paper)"],
        rows,
        title=f"Table 7 — GPU timing on device {args.device!r}",
    ))
    print(
        f"speedup: {single.total_seconds / timings.catdet_total_seconds:.2f}x total, "
        f"{single.gpu_seconds / timings.catdet_gpu_seconds:.2f}x GPU-only "
        f"(paper: {_TABLE7_PAPER['single'][0] / _TABLE7_PAPER['catdet'][0]:.2f}x, "
        f"{_TABLE7_PAPER['single'][1] / _TABLE7_PAPER['catdet'][1]:.2f}x)"
    )
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import LoadSpec, generate_load, schedule_to_dicts

    load = schema.from_flags(LoadSpec, args)
    requests = generate_load(load, _session(args).dataset(schema.from_flags(DatasetSpec, args)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {"load": load.to_dict(), "schedule": schedule_to_dicts(requests)},
                fh,
                indent=2,
            )
        print(f"wrote {len(requests)} arrivals to {args.out}")
    arrivals_by_stream: dict = {}
    for r in requests:
        arrivals_by_stream.setdefault(r.stream, []).append(r.arrival)
    rows = [[stream, len(times)] for stream, times in sorted(arrivals_by_stream.items())]
    print(format_table(["stream", "frames"], rows,
                       title=f"{load.pattern} load, {load.num_streams} stream(s)"))
    # Aggregate rate = sum of per-stream empirical rates ((N-1) intervals
    # over each stream's own span) — pattern-agnostic, and exact whether
    # a pattern's clock starts at 0 (replay) or at 1/rate (uniform).
    offered = sum(
        (len(times) - 1) / (times[-1] - times[0])
        for times in arrivals_by_stream.values()
        if len(times) > 1 and times[-1] > times[0]
    )
    span = requests[-1].arrival - requests[0].arrival
    if offered > 0:
        print(f"{len(requests)} frames over {span:.2f}s "
              f"(aggregate offered rate ~{offered:.1f} frames/s)")
    else:
        print(f"{len(requests)} frame(s) over {span:.2f}s")
    return 0


def cmd_fleet_run(args: argparse.Namespace) -> int:
    try:
        spec = schema.from_flags(FleetSpec, args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    session = _session(args)
    metrics = None
    reporter = None
    if args.status_dir:
        from repro.obs import MetricsRegistry
        from repro.obs.health import HealthReporter, health_dir

        metrics = MetricsRegistry()
        reporter = HealthReporter(
            health_dir(args.status_dir),
            component="fleet",
            component_id=spec.fingerprint[:12],
            registry=metrics,
        )
        reporter.beat(force=True)
    report = _serve_into_sink(args, session, spec, metrics)
    if report is None:
        if reporter is not None:
            reporter.close()  # a bad --sink: no fleet ran
        return 2
    if reporter is not None:
        reporter.extra.update(
            {
                "label": spec.label,
                "replicas": report.peak_replicas,
                "frames_served": report.frames_served,
                "frames_shed": report.frames_shed,
                "scale_events": len(report.scale_events),
                "p99_ms": float(report.slo["fleet"]["p99_ms"]),
            }
        )
        reporter.beat(force=True)
    print(f"fleet: {spec.label}")
    print(f"fingerprint: {spec.fingerprint[:16]}")
    print(report.format())
    if args.report_out:
        payload = report.to_dict()
        payload["spec"] = spec.to_dict()
        with open(args.report_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote fleet report to {args.report_out}", file=sys.stderr)
    _print_cache_stats(session)
    if args.slo_p99_ms is not None:
        return _slo_gate(report, args.slo_p99_ms)
    return 0


def cmd_fleet_tune(args: argparse.Namespace) -> int:
    try:
        spec = schema.from_flags(FleetSpec, args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    session = _session(args)
    return _run_tune(
        session,
        f"tuning fleet: {spec.system.label} @ {spec.dataset.family} "
        f"x{spec.load.num_streams} {spec.load.pattern}",
        lambda: session.tune_fleet(
            spec,
            slo_p99_ms=args.slo_p99_ms,
            replica_counts=args.replica_grid,
            device_mixes=args.device_mix,
            batch_sizes=args.batch_grid,
            use_cache=not args.no_cache,
            on_progress=_progress(args),
            workers=args.workers,
        ),
    )


def cmd_fleet_report(args: argparse.Namespace) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            data = json.load(fh)
        report = FleetReport.from_dict(data)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: bad fleet report: {exc}", file=sys.stderr)
        return 2
    if isinstance(data.get("spec"), dict):
        try:
            spec = FleetSpec.from_dict(data["spec"])
        except (ValueError, KeyError, TypeError):
            pass  # report still renders without its spec header
        else:
            print(f"fleet: {spec.label}")
            print(f"fingerprint: {spec.fingerprint[:16]}")
    print(report.format())
    if args.slo_p99_ms is not None:
        return _slo_gate(report, args.slo_p99_ms)
    return 0


def _example_query():
    from repro.query import (
        BoxInRegion,
        Eventually,
        QuerySpec,
        Region,
        Then,
        TrackPersisted,
    )

    return QuerySpec(
        name="car-enters-and-persists",
        expr=Then(
            (
                Eventually(BoxInRegion(Region(0, 0, 621, 375), label=0, min_score=0.5)),
                Eventually(TrackPersisted(5, label=0), within=40),
            )
        ),
    )


def cmd_query(args: argparse.Namespace) -> int:
    from repro.query import QueryReport, QuerySpec, evaluate_frames

    if args.example:
        print(_example_query().to_json(indent=2))
        return 0
    if args.kind is None or args.spec is None:
        print("error: repro query <system...> --spec QUERY.json (or --example)",
              file=sys.stderr)
        return 2
    try:
        with open(args.spec, encoding="utf-8") as fh:
            query = QuerySpec.from_json(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: bad query spec: {exc}", file=sys.stderr)
        return 2

    system = schema.from_flags(SystemConfig, args)
    dataset_spec = schema.from_flags(DatasetSpec, args)
    session = _session(args)

    if args.serve:
        # Online: per-stream evaluators inside the micro-batched server.
        spec = schema.from_flags(ServeSpec, args, query=query)
        report = _serve_into_sink(args, session, spec)
        if report is None:
            return 2
        qreport = report.query_report()
        mode = f"served ({spec.label})"
    else:
        # Offline: replay the same streams through system.stream().
        # Detections are deterministic per (stream, frame), so the
        # windows — and the formatted table — match --serve byte for
        # byte as long as the server sheds nothing (the query default
        # is the replay pattern, which offers load at native fps);
        # batching and arrival timing never change the windows, only
        # dropped frames can.
        import itertools

        from repro.core.pipeline import build_system

        dataset = session.dataset(dataset_spec)
        by_stream = {}
        for i in range(args.streams):
            seq = dataset.sequences[i % len(dataset.sequences)]
            frames = list(
                itertools.islice(build_system(system).stream(seq), args.frames)
            )
            name = f"s{i}:{seq.name}"
            by_stream[name] = evaluate_frames(query, frames, stream=name)
        qreport = QueryReport.build(query, by_stream)
        mode = f"offline replay ({args.streams} stream(s))"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(qreport.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote query report to {args.out}", file=sys.stderr)
    print(f"query: {mode}")
    print(qreport.format())
    _print_cache_stats(session)
    return 0


#: The spec flags of each group, in ``--help`` order; what each flag
#: means (type, default, help) is declared on its spec field.
_SYSTEM_FLAGS = ("kind", "refinement", "proposal", "--c-thresh", "--seed")
_LOAD_FLAGS = (
    "--dataset", "--streams", "--pattern", "--rate", "--frames", "--sequences",
    "--seq-frames", "--load-seed", "--rate-per-stream",
)
_POLICY_FLAGS = ("--batch-size", "--max-wait-ms", "--queue-capacity", "--shed", "--slo-ms")
_SERVICE_FLAGS = ("--device", "--overhead-ms", "--gops")
_FLEET_FLAGS = ("--replicas", "--devices", "--placement")
_AUTOSCALER_FLAGS = (
    "--autoscale", "--min-replicas", "--max-replicas", "--interval-s", "--cooldown-s",
    "--scale-out-wait-share", "--scale-in-occupancy",
)


def _add_spec_flags(parser: argparse.ArgumentParser, *groups, optional=False) -> None:
    """Add the spec flags of ``groups``; ``optional`` makes every
    positional optional (``repro query --example`` names no system)."""
    table = schema.flags(ServeSpec, FleetSpec)
    for name in (name for group in groups for name in group):
        kwargs = table[name]
        if optional and not name.startswith("-"):
            kwargs = {**kwargs, "nargs": "?", "default": None}
        parser.add_argument(name, **kwargs)


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.cluster.queue import FileWorkQueue
    from repro.cluster.worker import Worker, default_cache_dir

    queue = FileWorkQueue(
        args.queue_dir, lease_ttl=args.lease_ttl, max_attempts=args.max_attempts
    )
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir(queue.root))
    worker = Worker(queue, cache_dir=cache_dir)
    print(f"[worker {worker.worker_id}] polling {queue.root} "
          f"(lease ttl {queue.lease_ttl:.0f}s, cache: {cache_dir or 'off'})",
          file=sys.stderr, flush=True)

    def on_task(processed: int) -> None:
        print(f"[worker {worker.worker_id}] {processed} task(s) done "
              f"({worker.tasks_failed} failed)", file=sys.stderr, flush=True)

    try:
        processed = worker.run(
            max_tasks=args.max_tasks,
            idle_timeout=args.idle_timeout,
            poll_interval=args.poll,
            on_task=on_task,
        )
    except KeyboardInterrupt:
        print(f"[worker {worker.worker_id}] interrupted", file=sys.stderr)
        return 130
    print(f"[worker {worker.worker_id}] exiting after {processed} task(s)",
          file=sys.stderr)
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    from repro.obs import gather_status, format_status

    status = gather_status(args.queue_dir, stale_after=args.stale_after)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        print(format_status(status))
    return 0


def cmd_dispatch(args: argparse.Namespace) -> int:
    from repro.cluster.coordinator import (
        ClusterTaskError,
        ClusterTimeout,
        dispatch_specs,
    )
    from repro.cluster.queue import FileWorkQueue
    from repro.cluster.worker import default_cache_dir

    specs = _load_spec_file(args.file, args.workers)
    queue = FileWorkQueue(args.queue_dir, lease_ttl=args.lease_ttl)
    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = args.cache_dir or default_cache_dir(queue.root)
    try:
        out = dispatch_specs(
            queue,
            specs,
            cache_dir=cache_dir,
            wait=args.wait,
            timeout=args.timeout,
            on_progress=_progress(args),
        )
    except (ClusterTaskError, ClusterTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.wait:
        for task_id in out:
            print(task_id)
        stats = queue.stats()
        print(f"[queue] {stats['pending']} pending, {stats['leased']} leased, "
              f"{stats['done']} done, {stats['dead']} dead in {queue.root}",
              file=sys.stderr)
        return 0
    _print_spec_table(specs, out)
    return 0


def _parse_age(text: str) -> float:
    """``"7d"`` / ``"12h"`` / ``"30m"`` / ``"45s"`` / plain seconds → seconds."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}
    t = text.strip().lower()
    try:
        if t and t[-1] in units:
            return float(t[:-1]) * units[t[-1]]
        return float(t)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid age {text!r} (examples: 45s, 30m, 12h, 7d)"
        ) from None


def _format_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} GiB"  # pragma: no cover - unreachable


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.api.cache import ResultCache

    if args.cache_dir is None:
        print("error: a cache directory is required "
              "(--cache-dir or $REPRO_CACHE_DIR)", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        print(f"root:    {stats['root']}")
        print(f"entries: {stats['entries']}")
        print(f"size:    {_format_bytes(stats['total_bytes'])}")
        if stats["entries"]:
            print(f"newest:  {stats['newest_age_seconds']:.0f}s ago")
            print(f"oldest:  {stats['oldest_age_seconds']:.0f}s ago")
        return 0
    if args.cache_command == "ls":
        entries = cache.entries(with_labels=True)
        rows = [
            [e.fingerprint[:16], _format_bytes(e.size_bytes),
             f"{max(0.0, time.time() - e.mtime):.0f}s",
             e.label or "?"]
            for e in entries
        ]
        print(format_table(["fingerprint", "size", "age", "spec"], rows,
                           title=f"{len(entries)} cached result(s)"))
        return 0
    if args.cache_command == "prune":
        removed = cache.prune(args.older_than)
        print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
              f"older than {args.older_than:.0f}s from {cache.root}")
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the perf harness; write the next BENCH_<n>.json trajectory entry.

    The baseline for ``--check`` is the highest-index committed entry in
    the output directory *before* this run's file is written, so CI can
    write (and upload) the fresh entry and still gate against the
    committed one.
    """
    from pathlib import Path

    from repro.bench import (
        REGRESSION_TOLERANCE,
        check_regression,
        latest_bench,
        run_bench,
        write_bench,
    )

    root = Path(args.output_dir)
    on_progress = None
    if getattr(args, "progress", False):
        def on_progress(label: str) -> None:
            print(f"[bench] {label}", file=sys.stderr, flush=True)

    baseline = latest_bench(root)
    payload = run_bench(
        quick=args.quick, num_tracks=args.tracks, on_progress=on_progress
    )

    rows = [
        [name, f"{s['fps']:.1f}", str(s["frames"])]
        for name, s in payload["systems"].items()
    ]
    print(format_table(["system", "fps", "frames"], rows, title="systems"))
    rows = [
        [name, f"{k['speedup']:.2f}x"] for name, k in payload["kernels"].items()
    ]
    print(format_table(["kernel", "vectorized/scalar"], rows, title="kernels"))
    overhead = payload.get("obs_overhead")
    if overhead is not None:
        print(
            f"obs overhead: {overhead['instrumented_fps']:.1f} fps instrumented "
            f"vs {overhead['plain_fps']:.1f} fps plain "
            f"(ratio {overhead['ratio']:.3f})"
        )
    paper = payload.get("paper_e2e")
    if paper is not None:
        print(
            f"paper_e2e: {paper['speedup']:.2f}x, one session "
            f"{paper['shared_seconds']:.2f}s vs a session per point "
            f"{paper['per_point_seconds']:.2f}s ({paper['grid_points']} points)"
        )
    keys = ("host_us_per_frame", "device_us_per_frame", "replayed_host_us_per_frame")
    rows = [[name, *(f"{e.get(k, float('nan')):.0f}" for k in keys)]
            for name, e in payload.get("serve_e2e", {}).items()]
    if rows:
        print(format_table(["serve_e2e", "host us/frame", "device us/frame", "replayed"], rows))
    m = payload.get("metrics")
    if m is not None:
        print(f"metrics: mean_delay(0.8) {m['mean_delay_cps']:.0f} calls/s, mean_ap() "
              f"{m['mean_ap_cps']:.0f} calls/s (2 classes x {m['scores_per_class']} scores, "
              f"{m['cpus']} cpus)")

    if not args.no_write:
        path = write_bench(root, payload)
        print(f"wrote {path}")

    if args.check:
        if baseline is None:
            print("no committed BENCH_*.json baseline; nothing to check")
            return 0
        index, base_payload = baseline
        failures = check_regression(payload, base_payload)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(
            f"gated speedups within {REGRESSION_TOLERANCE:.0%} "
            f"of BENCH_{index}.json"
        )
    return 0


def _workers_count(value: str) -> int:
    workers = int(value)
    if workers < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {workers}")
    return workers


def _add_workers_flag(parser: argparse.ArgumentParser, default=1) -> None:
    parser.add_argument(
        "--workers",
        type=_workers_count,
        default=default,
        help="sequence-level worker processes (1 = serial, 0 = one per CPU); "
        "results are identical at any worker count",
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("REPRO_CACHE_DIR"),
        help="content-addressed result cache directory "
        "(default: $REPRO_CACHE_DIR; unset = no caching)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache even when a cache dir is configured",
    )


def _add_progress_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--progress",
        action="store_true",
        help="report per-unit completion on stderr while running",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo").set_defaults(func=cmd_models)

    run_p = sub.add_parser("run", help="run one system on KITTI-like data")
    _add_spec_flags(run_p, _SYSTEM_FLAGS[:-1])  # its --seed has no help text
    run_p.add_argument("--margin", type=float, default=30.0,
                       help="RoI context margin in pixels")
    run_p.add_argument("--input-scale", type=float, default=1.0,
                       help="frame downscale factor before the networks")
    run_p.add_argument("--detailed-ops", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="also compute Table-3 per-source refinement costs "
                       "(--no-detailed-ops speeds up throughput runs)")
    run_p.add_argument("--seed", type=int, default=0)
    from repro.cost import DEVICE_PROFILES as _DEVICES

    run_p.add_argument("--device", choices=_DEVICES.names(), default=None,
                       help="modeled device: also report estimated per-frame "
                       "latency from the calibrated cost model")
    run_p.add_argument("--sequences", type=int, default=4)
    run_p.add_argument("--frames", type=int, default=100)
    _add_workers_flag(run_p)
    _add_cache_flags(run_p)
    _add_progress_flag(run_p)
    run_p.set_defaults(func=cmd_run)

    for name, fn in (("table2", cmd_table2), ("table6", cmd_table6)):
        p = sub.add_parser(name, help=f"regenerate paper {name}")
        p.add_argument("--sequences", type=int, default=4 if name == "table2" else 20)
        if name == "table2":
            p.add_argument("--frames", type=int, default=100)
        _add_workers_flag(p)
        _add_cache_flags(p)
        _add_progress_flag(p)
        p.set_defaults(func=fn)

    table7_p = sub.add_parser(
        "table7", help="paper Table 7 — GPU timing from the calibrated cost model"
    )
    table7_p.add_argument("--device", choices=_DEVICES.names(), default="titanx",
                          help="device profile to time on (paper: titanx)")
    table7_p.add_argument("--sequences", type=int, default=1,
                          help="sequences the CaTDet row averages over")
    table7_p.add_argument("--frames", type=int, default=60,
                          help="frames per sequence of the driving CaTDet run")
    _add_cache_flags(table7_p)
    table7_p.set_defaults(func=cmd_table7)

    sweep_p = sub.add_parser("sweep", help="Figure-6 C-thresh sweep")
    sweep_p.add_argument("--models", default="resnet10a")
    sweep_p.add_argument("--c-values", default="0.02,0.1,0.3,0.6")
    sweep_p.add_argument("--sequences", type=int, default=3)
    sweep_p.add_argument("--frames", type=int, default=80)
    _add_workers_flag(sweep_p)
    _add_cache_flags(sweep_p)
    _add_progress_flag(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    spec_p = sub.add_parser(
        "spec", help="run ExperimentSpec JSON (an object or a list of objects)"
    )
    spec_p.add_argument("file", nargs="?", default=None,
                        help="path to a spec JSON file")
    spec_p.add_argument("--example", action="store_true",
                        help="print a template spec and exit")
    spec_p.add_argument("--dry-run", action="store_true",
                        help="print each spec's fingerprint without running")
    _add_workers_flag(spec_p, default=None)
    _add_cache_flags(spec_p)
    _add_progress_flag(spec_p)
    spec_p.set_defaults(func=cmd_spec)

    serve_p = sub.add_parser(
        "serve", help="micro-batched multi-stream serving with an SLO report"
    )
    _add_spec_flags(serve_p, _SYSTEM_FLAGS, _LOAD_FLAGS, _POLICY_FLAGS, _SERVICE_FLAGS)
    from repro.fleet.tune import DEFAULT_REPLICA_COUNTS
    from repro.serve.tune import DEFAULT_BATCH_SIZES, DEFAULT_MAX_WAITS_MS

    serve_p.add_argument("--tune", action="store_true",
                         help="sweep (batch size, max wait) policies and pick "
                         "the cheapest one meeting --slo-p99-ms")
    serve_p.add_argument("--slo-p99-ms", type=float, default=None,
                         help="fleet p99 latency target: --tune feasibility, "
                         "or (without --tune) an acceptance gate — exit 1 "
                         "when p99 misses or any frame is shed")
    serve_p.add_argument("--slo-wait-p95-ms", type=float, default=None,
                         help="additional fleet p95 queue-wait bound for "
                         "--tune feasibility and the --slo-p99-ms gate")
    serve_p.add_argument("--sink", default=None, metavar="SPEC",
                         help="stream per-frame/shed/summary records to a "
                         "result sink: jsonl:<path>, table, or null")
    serve_p.add_argument("--batch-grid", type=schema.grid_type(int), default=None,
                         help="comma-separated max_batch_size grid for --tune "
                         f"(default: {_csv(DEFAULT_BATCH_SIZES)})")
    serve_p.add_argument("--wait-grid", type=schema.grid_type(float), default=None,
                         help="comma-separated max_wait_ms grid for --tune "
                         f"(default: {_csv(DEFAULT_MAX_WAITS_MS)})")
    serve_p.add_argument("--workers", type=_workers_count, default=1,
                         help="evaluate cold --tune grid points in N "
                         "processes sharing the cache (1 = serial, 0 = one "
                         "per CPU); results are identical at any count")
    serve_p.add_argument("--tune-out", default=None, metavar="FILE",
                         help="write the --tune sweep (candidates in grid "
                         "order, full reports) as JSON to FILE")
    _add_cache_flags(serve_p)
    _add_progress_flag(serve_p)
    serve_p.set_defaults(func=cmd_serve)

    query_p = sub.add_parser(
        "query", help="scenario query: temporal-logic event search over streams"
    )
    _add_spec_flags(query_p, _SYSTEM_FLAGS, optional=True)
    query_p.add_argument("--spec", default=None, metavar="FILE",
                         help="query spec JSON file (see --example)")
    query_p.add_argument("--example", action="store_true",
                         help="print a template query spec and exit")
    _add_spec_flags(query_p, _LOAD_FLAGS)
    query_p.add_argument("--serve", action="store_true",
                         help="evaluate online inside the micro-batched "
                         "server instead of offline replay (same windows "
                         "either way — that's the determinism contract)")
    query_p.add_argument("--sink", default=None, metavar="SPEC",
                         help="(with --serve) stream query.window records "
                         "to a result sink: jsonl:<path>, table, or null")
    query_p.add_argument("--out", default=None,
                         help="write the report JSON to this path")
    _add_cache_flags(query_p)
    # Unlike `serve`, default to the replay pattern: it offers load at the
    # sequence's native fps, so nothing is shed and --serve windows match
    # the offline replay byte for byte.
    query_p.set_defaults(func=cmd_query, pattern="replay")

    loadgen_p = sub.add_parser(
        "loadgen", help="generate an open-loop arrival schedule over a dataset"
    )
    _add_spec_flags(loadgen_p, _LOAD_FLAGS)
    loadgen_p.add_argument("--out", default=None,
                           help="write the schedule as JSON to this path")
    _add_cache_flags(loadgen_p)
    loadgen_p.set_defaults(func=cmd_loadgen)

    fleet_p = sub.add_parser(
        "fleet",
        help="replicated serving: run/tune a replica fleet, inspect a report",
    )
    fleet_sub = fleet_p.add_subparsers(dest="fleet_command", required=True)

    def _add_fleet_flags(p: argparse.ArgumentParser) -> None:
        """System, load, policy and fleet-shape flags shared by run/tune."""
        _add_spec_flags(p, _SYSTEM_FLAGS, _LOAD_FLAGS, _POLICY_FLAGS, _FLEET_FLAGS)
        _add_cache_flags(p)

    fleet_run_p = fleet_sub.add_parser(
        "run", help="serve the offered load over a (possibly autoscaled) fleet"
    )
    _add_fleet_flags(fleet_run_p)
    _add_spec_flags(fleet_run_p, _AUTOSCALER_FLAGS)
    fleet_run_p.add_argument("--slo-p99-ms", type=float, default=None,
                             help="fleet p99 acceptance gate (exit 1 on a "
                             "miss, any shed frame, or a dead stream); with "
                             "--autoscale, also the controller's budget")
    fleet_run_p.add_argument("--sink", default=None, metavar="SPEC",
                             help="stream per-frame/fleet.scale/summary "
                             "records to a result sink: jsonl:<path>, table, "
                             "or null")
    fleet_run_p.add_argument("--report-out", default=None, metavar="FILE",
                             help="write the fleet report (plus its spec) as "
                             "JSON for `repro fleet report`")
    fleet_run_p.add_argument("--status-dir", default=None, metavar="DIR",
                             help="publish a fleet health heartbeat under "
                             "DIR/health for `repro status DIR`")
    fleet_run_p.set_defaults(func=cmd_fleet_run)

    fleet_tune_p = fleet_sub.add_parser(
        "tune", help="sweep replica count x device mix x batch size for the "
        "cheapest fleet meeting --slo-p99-ms"
    )
    _add_fleet_flags(fleet_tune_p)
    fleet_tune_p.add_argument("--slo-p99-ms", type=float, required=True,
                              help="fleet p99 feasibility target")
    fleet_tune_p.add_argument("--replica-grid", type=schema.grid_type(int),
                              default=None, metavar="N0,N1,...",
                              help="replica-count axis (default: "
                              f"{_csv(DEFAULT_REPLICA_COUNTS)})")
    fleet_tune_p.add_argument("--device-mix", action="append",
                              type=schema.grid_type(str), default=None,
                              metavar="DEV0,DEV1,...",
                              help="a device-cycle axis point; repeat the "
                              "flag per mix (default: just --devices)")
    fleet_tune_p.add_argument("--batch-grid", type=schema.grid_type(int),
                              default=None, metavar="B0,B1,...",
                              help="max_batch_size axis (default: just "
                              "--batch-size)")
    fleet_tune_p.add_argument("--workers", type=_workers_count, default=1,
                              help="evaluate cold grid points in N processes "
                              "sharing the cache (1 = serial, 0 = one per "
                              "CPU); results are identical at any count")
    _add_progress_flag(fleet_tune_p)
    fleet_tune_p.set_defaults(func=cmd_fleet_tune)

    fleet_report_p = fleet_sub.add_parser(
        "report", help="pretty-print (and optionally gate) a saved fleet "
        "report JSON from --report-out"
    )
    fleet_report_p.add_argument("file", help="fleet report JSON path")
    fleet_report_p.add_argument("--slo-p99-ms", type=float, default=None,
                                help="re-apply the acceptance gate to the "
                                "saved report")
    fleet_report_p.set_defaults(func=cmd_fleet_report)

    from repro.cluster.queue import DEFAULT_LEASE_TTL, DEFAULT_MAX_ATTEMPTS

    worker_p = sub.add_parser(
        "worker", help="drain a shared cluster work queue (multi-host execution)"
    )
    worker_p.add_argument("queue_dir", help="shared queue directory")
    worker_p.add_argument("--max-tasks", type=int, default=None,
                          help="exit after this many tasks (default: unlimited)")
    worker_p.add_argument("--idle-timeout", type=float, default=None,
                          help="exit after the queue stays empty this many "
                          "seconds (default: poll forever)")
    worker_p.add_argument("--poll", type=float, default=0.2,
                          help="queue poll interval in seconds")
    worker_p.add_argument("--lease-ttl", type=float, default=DEFAULT_LEASE_TTL,
                          help="seconds without a heartbeat before a task is "
                          "re-leased to another worker")
    worker_p.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS,
                          help="lease grants before a task is dead-lettered")
    worker_p.add_argument("--cache-dir", default=None,
                          help="shared result store (default: <queue-dir>/cache)")
    worker_p.add_argument("--no-cache", action="store_true",
                          help="do not route results through a shared cache "
                          "(envelopes still carry them inline)")
    worker_p.set_defaults(func=cmd_worker)

    from repro.obs.health import DEFAULT_STALE_AFTER

    status_p = sub.add_parser(
        "status", help="live fleet/queue health for a cluster queue directory"
    )
    status_p.add_argument("queue_dir", help="shared queue directory to inspect")
    status_p.add_argument("--json", action="store_true",
                          help="emit the raw status document instead of tables")
    status_p.add_argument("--stale-after", type=float, default=DEFAULT_STALE_AFTER,
                          help="seconds without a heartbeat before a component "
                          "is reported stale")
    status_p.set_defaults(func=cmd_status)

    dispatch_p = sub.add_parser(
        "dispatch", help="shard an ExperimentSpec grid across the worker fleet"
    )
    dispatch_p.add_argument("file", help="spec JSON (an object or a list)")
    dispatch_p.add_argument("--queue-dir", required=True,
                            help="shared queue directory workers poll")
    dispatch_p.add_argument("--wait", action=argparse.BooleanOptionalAction,
                            default=True,
                            help="block until every shard finishes and print "
                            "the result table (--no-wait prints task ids)")
    dispatch_p.add_argument("--timeout", type=float, default=None,
                            help="overall wall-clock budget in seconds")
    dispatch_p.add_argument("--lease-ttl", type=float, default=DEFAULT_LEASE_TTL,
                            help="straggler re-lease threshold in seconds")
    dispatch_p.add_argument("--cache-dir", default=None,
                            help="shared result store (default: <queue-dir>/cache)")
    dispatch_p.add_argument("--no-cache", action="store_true",
                            help="do not serve or store shard results via the "
                            "shared cache")
    _add_workers_flag(dispatch_p, default=None)
    _add_progress_flag(dispatch_p)
    dispatch_p.set_defaults(func=cmd_dispatch)

    cache_p = sub.add_parser(
        "cache", help="inspect/prune the content-addressed result cache"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cache_cmds = {
        "stats": cache_sub.add_parser("stats", help="entry count, bytes, age range"),
        "ls": cache_sub.add_parser("ls", help="list entries with sizes, ages and specs"),
        "prune": cache_sub.add_parser("prune", help="delete old entries"),
    }
    for p in cache_cmds.values():
        p.add_argument(
            "--cache-dir",
            default=os.environ.get("REPRO_CACHE_DIR"),
            help="result cache directory (default: $REPRO_CACHE_DIR)",
        )
        p.set_defaults(func=cmd_cache)
    cache_cmds["prune"].add_argument(
        "--older-than", type=_parse_age, required=True,
        help="age threshold: 45s, 30m, 12h, 7d or plain seconds",
    )

    bench_p = sub.add_parser(
        "bench",
        help="perf harness: systems fps + kernel speedups -> BENCH_<n>.json",
    )
    bench_p.add_argument(
        "--quick", action="store_true",
        help="reduced frames and repeats (CI smoke; noisier numbers)",
    )
    bench_p.add_argument(
        "--tracks", type=int, default=60,
        help="concurrent tracks in the tracker kernel benchmarks",
    )
    bench_p.add_argument(
        "--output-dir", default=".",
        help="directory holding the BENCH_<n>.json trajectory (default: cwd; "
        "the baseline for --check is read from here before writing)",
    )
    bench_p.add_argument(
        "--no-write", action="store_true",
        help="print the summary without writing a BENCH file",
    )
    bench_p.add_argument(
        "--check", action="store_true",
        help="exit 1 if a gated speedup ratio drops more than the tolerance "
        "below the committed baseline entry",
    )
    _add_progress_flag(bench_p)
    bench_p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
