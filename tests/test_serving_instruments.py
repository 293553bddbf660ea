"""The serving loop's instruments, pinned byte for byte.

The serving loop feeds three observers besides its report: the
``MetricsRegistry``, the event-record sinks and, on a traced run, the
out-trace.  ``tests/fixtures/serving_instruments.json`` pins all of them
for small runs — a bare server that sheds and overflows its exact
latency samples, a 2-replica autoscaled fleet with a scenario query, and
a record-then-replay pair of traced runs — so a change to how the loop
accumulates its instruments must leave every byte alone.  Wall-clock
histograms (``engine_stage_seconds``) are pinned by count only.

The kernel property tests below pin the batched and lazy forms against
their per-sample oracles: ``Histogram.observe_many`` against a loop of
``observe``, ``LatencyStats`` against a per-sample histogram feed,
vector against scalar percentiles, and the cached ``ReplicaSet`` lists
against the replicas' states.

Re-record the fixture only for a deliberate output change::

    PYTHONPATH=src python tests/test_serving_instruments.py
"""

import builtins
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.datasets.kitti import kitti_like_dataset
from repro.fleet import AutoscalerPolicy, FleetServer, FleetSpec
from repro.fleet import loop as loop_mod
from repro.fleet import replica as replica_mod
from repro.fleet.replica import ACTIVE, DRAINING, RETIRED, ReplicaSet
from repro.obs import JsonlSink, MetricsRegistry
from repro.obs.registry import Histogram
from repro.query import Eventually, QuerySpec, TrackPersisted
from repro.serve import DetectionServer, LoadSpec, ServePolicy, ServiceModel, generate_load
from repro.serve.slo import REPORT_PERCENTILES, LatencyStats

FIXTURE = Path(__file__).parent / "fixtures" / "serving_instruments.json"

CATDET = SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False)
QUERY = QuerySpec("persist", Eventually(TrackPersisted(3)))
#: Four streams over two sequences, so traced runs share lane frames.
LOAD = LoadSpec(
    pattern="poisson", num_streams=4, rate_hz=30.0, frames_per_stream=16, seed=5
)
#: A 4-deep queue that the load overflows: every run below sheds.
SHEDDING = ServePolicy(max_batch_size=2, max_wait_ms=10.0, queue_capacity=4, slo_ms=500.0)
LOOSE = ServePolicy(max_batch_size=2, max_wait_ms=10.0, queue_capacity=64, slo_ms=500.0)


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, allow_nan=True)


def _snapshot(metrics):
    """The registry snapshot with wall-clock histograms reduced to counts."""
    snap = metrics.snapshot()
    stage = snap.get("engine_stage_seconds")
    if stage is not None:
        stage["series"] = [
            {"labels": s["labels"], "count": s["count"]} for s in stage["series"]
        ]
    return snap


def _records(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _trace_digest(trace):
    text = _canonical(trace.to_dict())
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(), "bytes": len(text)}


def _requests():
    return generate_load(LOAD, kitti_like_dataset(num_sequences=2, frames_per_sequence=30))


def current_outputs(workdir: Path):
    """Every pinned instrument output, recomputed by the current code."""
    requests = _requests()
    out = {}

    metrics, sink = MetricsRegistry(), JsonlSink(workdir / "bare.jsonl")
    report = DetectionServer(
        CATDET, policy=SHEDDING, device="datacenter", metrics=metrics, sinks=sink,
        max_exact_samples=6,
    ).run(requests)
    sink.close()
    out["bare"] = {
        "snapshot": _snapshot(metrics),
        "records": _records(sink.path),
        "report": report.to_dict(),
    }

    spec = FleetSpec(
        system=CATDET, load=LOAD, policy=SHEDDING, replicas=2,
        devices=("edge", "datacenter"),
        autoscaler=AutoscalerPolicy(
            min_replicas=1, max_replicas=2, interval_s=0.2, cooldown_s=0.5
        ),
        query=QUERY,
    )
    metrics, sink = MetricsRegistry(), JsonlSink(workdir / "fleet.jsonl")
    report = FleetServer(spec, metrics=metrics, sinks=sink).run(requests)
    sink.close()
    out["fleet"] = {
        "snapshot": _snapshot(metrics),
        "records": _records(sink.path),
        "report": report.to_dict(),
    }

    recorded_metrics = MetricsRegistry()
    recorder = DetectionServer(
        CATDET, policy=LOOSE, device="datacenter", metrics=recorded_metrics,
        record_trace=True,
    )
    recorder.run(requests)
    metrics = MetricsRegistry()
    replayer = DetectionServer(
        CATDET, policy=SHEDDING, device="datacenter", metrics=metrics,
        trace=recorder.recorded_trace,
    )
    report = replayer.run(requests)
    out["traced"] = {
        "recorded_trace": _trace_digest(recorder.recorded_trace),
        "recorded_snapshot": _snapshot(recorded_metrics),
        "replay_trace": _trace_digest(replayer.recorded_trace),
        "replayed_frames": replayer.frames_replayed,
        "snapshot": _snapshot(metrics),
        "report": report.to_dict(),
    }

    stats = LatencyStats(max_exact_samples=40)
    rng = random.Random(11)
    for i in range(64):
        stats.add(rng.expovariate(50.0), rng.expovariate(80.0), rng.expovariate(20.0),
                  violated=i % 7 == 0)
        if i == 30:
            out["latency_stats_exact"] = stats.to_dict(include_histograms=True)
    out["latency_stats_overflowed"] = stats.to_dict(include_histograms=True)
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return current_outputs(tmp_path_factory.mktemp("instruments"))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


class TestPinnedInstruments:
    def test_runs_exercise_what_they_pin(self, pinned):
        assert pinned["bare"]["report"]["frames_shed"] > 0
        assert pinned["bare"]["report"]["slo"]["fleet"]["exact"] is False
        assert not any(s["exact"] for s in pinned["bare"]["report"]["slo"]["streams"].values())
        assert pinned["fleet"]["report"]["slo"]["fleet"]["exact"] is True
        assert pinned["fleet"]["report"]["frames_shed"] > 0
        assert pinned["fleet"]["report"]["scale_events"]
        assert pinned["fleet"]["report"]["query_windows"]["streams"]
        assert pinned["traced"]["report"]["frames_shed"] > 0
        traced = pinned["traced"]
        for snapshot, expected in (
            (traced["recorded_snapshot"], {("shared",), ("live",)}),
            (traced["snapshot"], {("replayed",), ("live",)}),
        ):
            sources = snapshot["serve_trace_frames_total"]["series"]
            assert {tuple(s["labels"]) for s in sources} == expected

    @pytest.mark.parametrize(
        "run,part",
        [
            ("bare", "snapshot"), ("bare", "records"), ("bare", "report"),
            ("fleet", "snapshot"), ("fleet", "records"), ("fleet", "report"),
            ("traced", "recorded_trace"), ("traced", "recorded_snapshot"),
            ("traced", "replay_trace"),
            ("traced", "replayed_frames"), ("traced", "snapshot"), ("traced", "report"),
        ],
    )
    def test_run_output_is_byte_identical(self, outputs, pinned, run, part):
        assert _canonical(outputs[run][part]) == _canonical(pinned[run][part])

    @pytest.mark.parametrize("key", ["latency_stats_exact", "latency_stats_overflowed"])
    def test_latency_stats_are_byte_identical(self, outputs, pinned, key):
        assert _canonical(outputs[key]) == _canonical(pinned[key])


def _compensated_sum(iterable, start=0):
    """Python 3.12's builtin ``sum``: exact over ints, Neumaier-compensated
    over floats."""
    values = list(iterable)
    if all(isinstance(v, int) for v in values):
        return builtins.sum(values, start)
    total, compensation = float(start), 0.0
    for value in map(float, values):
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation


class TestReportsDoNotDependOnThePythonVersion:
    """Batch MACs and fleet cost add floats left to right, so a
    compensated builtin ``sum`` (Python 3.12+) changes no report."""

    POLICY = ServePolicy(max_batch_size=8, max_wait_ms=60.0, queue_capacity=64, slo_ms=500.0)

    def _reports(self):
        requests = _requests()
        bare = DetectionServer(CATDET, policy=self.POLICY, device="datacenter").run(requests)
        spec = FleetSpec(
            system=CATDET, load=LOAD, policy=self.POLICY, replicas=3,
            devices=("edge", "datacenter", "edge"),
        )
        fleet = FleetServer(spec).run(requests)
        assert bare.mean_batch_size > 2 and len(fleet.replicas) > 2
        return _canonical([bare.to_dict(), fleet.to_dict()])

    def test_a_compensated_sum_changes_no_report(self, monkeypatch):
        plain = self._reports()
        for module in (loop_mod, replica_mod):
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
        assert self._reports() == plain


def _per_sample_histograms(samples):
    """The oracle: ``LatencyStats``' three histograms as they were fed
    before they became lazy, one ``observe`` per sample as it arrives."""
    hists = [Histogram(name) for name in ("latency_seconds", "wait_seconds", "compute_seconds")]
    for wait, compute, latency in samples:
        for hist, value in zip(hists, (latency, wait, compute)):
            hist.observe(value)
    return hists


class TestKernels:
    @pytest.mark.parametrize("seed", range(20))
    def test_observe_many_equals_a_loop_of_observe(self, seed):
        rng = random.Random(seed)
        batched = Histogram("h", labels=("k",))
        looped = Histogram("h", labels=("k",))
        for _ in range(rng.randrange(1, 12)):
            values = [rng.lognormvariate(-3.0, 1.5) for _ in range(rng.randrange(0, 9))]
            batched.observe_many(values, labels=("a",))
            for value in values:
                looped.observe(value, labels=("a",))
        assert batched.snapshot() == looped.snapshot()
        assert batched.sum(("a",)).hex() == looped.sum(("a",)).hex()

    def test_observe_many_of_nothing_creates_no_series(self):
        hist = Histogram("h")
        hist.observe_many([])
        assert hist.labels_seen() == []

    @pytest.mark.parametrize("max_exact", [1, 5, 40, 200])
    def test_lazy_latency_stats_match_the_per_sample_feed(self, max_exact):
        rng = random.Random(max_exact)
        samples = [
            (rng.expovariate(40.0), rng.expovariate(90.0), rng.expovariate(15.0))
            for _ in range(60)
        ]
        lazy = LatencyStats(max_exact_samples=max_exact)
        for wait, compute, latency in samples:
            lazy.add(wait, compute, latency, violated=False)
        hists = _per_sample_histograms(samples)
        got = lazy.to_dict(include_histograms=True)
        assert _canonical(got["histograms"]) == _canonical(
            {h.name: h.snapshot() for h in hists}
        )
        assert got["exact"] is (max_exact >= len(samples))
        if not got["exact"]:
            for q in REPORT_PERCENTILES:
                assert got[f"p{q:g}_ms"] == hists[0].quantile(q) * 1e3
                assert got[f"wait_p{q:g}_ms"] == hists[1].quantile(q) * 1e3
            assert got["compute_p95_ms"] == hists[2].quantile(95.0) * 1e3

    def test_histograms_read_mid_run_keep_up(self):
        rng = random.Random(3)
        samples = [(rng.random(), rng.random(), rng.random()) for _ in range(30)]
        stats = LatencyStats(max_exact_samples=20)
        for i, (wait, compute, latency) in enumerate(samples):
            stats.add(wait, compute, latency, violated=False)
            if i == 9:
                stats.to_dict(include_histograms=True)
        hists = _per_sample_histograms(samples)
        got = stats.to_dict(include_histograms=True)["histograms"]
        assert _canonical(got) == _canonical({h.name: h.snapshot() for h in hists})

    def test_merged_fleet_matches_the_per_sample_feed(self):
        rng = random.Random(5)
        parts = [
            [(rng.random(), rng.random(), rng.random()) for _ in range(n)]
            for n in (7, 0, 12)
        ]
        fleet = LatencyStats()
        expected = [Histogram(n) for n in ("latency_seconds", "wait_seconds", "compute_seconds")]
        for samples in parts:
            stats = LatencyStats()
            for wait, compute, latency in samples:
                stats.add(wait, compute, latency, violated=False)
            fleet.merge(stats)
            hists = _per_sample_histograms(samples)
            for merged, part in zip(expected, hists):
                merged.merge(part)
        got = fleet.to_dict(include_histograms=True)["histograms"]
        assert _canonical(got) == _canonical({h.name: h.snapshot() for h in expected})

    @pytest.mark.parametrize("seed", range(200))
    def test_vector_percentiles_equal_scalar_ones(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        # Rounded waits and a constant compute time give ties, as batches do.
        waits = np.round(rng.exponential(0.02, n), 3).tolist()
        computes = [float(rng.choice([0.004, 0.009]))] * n
        latencies = (rng.exponential(0.05, n) + 0.004).tolist()
        stats = LatencyStats(max_exact_samples=n)
        for wait, compute, latency in zip(waits, computes, latencies):
            stats.add(wait, compute, latency, violated=False)
        got = stats.to_dict()
        for q in REPORT_PERCENTILES:
            assert got[f"p{q:g}_ms"] == float(np.percentile(np.asarray(latencies), q)) * 1e3
            assert got[f"wait_p{q:g}_ms"] == float(np.percentile(np.asarray(waits), q)) * 1e3
        assert got["compute_p95_ms"] == float(np.percentile(np.asarray(computes), 95.0)) * 1e3
        assert stats.percentile(99.0) == float(np.percentile(np.asarray(latencies), 99.0))
        assert stats.wait_percentile(50.0) == float(np.percentile(np.asarray(waits), 50.0))

    def test_replica_lists_follow_spawn_drain_and_retire(self):
        service = ServiceModel.for_device("edge")
        pool = ReplicaSet(LOOSE, lambda _: service)
        replicas = [pool.spawn(0.0) for _ in range(3)]

        def check():
            assert pool.active() == [r for r in pool.replicas if r.state == ACTIVE]
            assert pool.serving() == [
                r for r in pool.replicas if r.state in (ACTIVE, DRAINING)
            ]

        check()
        pool.drain(replicas[1])
        check()
        assert pool.active() == [replicas[0], replicas[2]]
        replicas[1].busy_until = 1.0
        assert pool.retire_idle(0.5) == []
        check()
        replicas[1].busy_until = None
        assert pool.retire_idle(1.0) == [replicas[1]]
        assert replicas[1].state == RETIRED
        check()
        fourth = pool.spawn(2.0)
        check()
        assert pool.serving() == [replicas[0], replicas[2], fourth]


class TestLabelChecks:
    @pytest.mark.parametrize("kind", ["counter", "gauge"])
    def test_wrong_label_count_raises_on_every_call(self, kind):
        registry = MetricsRegistry()
        metric = getattr(registry, kind)("m", labels=("a", "b"))
        update = metric.inc if kind == "counter" else metric.set
        update(1, labels=("x", "y"))
        for _ in range(3):
            for bad in [(), ("x",), ("x", "y", "z")]:
                with pytest.raises(ValueError, match="expects 2 label"):
                    update(1, labels=bad)
        update(2, labels=("x", "y"))
        assert metric.value(("x", "y")) == (3 if kind == "counter" else 2)
        assert metric.labels_seen() == [("x", "y")]

    def test_histogram_batches_check_labels_too(self):
        hist = Histogram("h", labels=("a",))
        for _ in range(2):
            with pytest.raises(ValueError, match="expects 1 label"):
                hist.observe_many([1.0], labels=())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = current_outputs(Path(tmp))
    FIXTURE.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}", file=sys.stderr)
