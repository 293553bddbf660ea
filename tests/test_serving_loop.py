"""The one serving event loop behind both servers.

The load-bearing guarantees:

* a bare :class:`~repro.serve.server.DetectionServer` and a 1-replica
  :class:`~repro.fleet.server.FleetServer` are one simulation: every
  shared report field, the SLO section, query windows, latency
  histograms and query-window sink records agree exactly — shedding
  included;
* a stream that switches sequences mid-run restarts its tracker at the
  switch on both servers, even while frames of the old sequence are
  still queued;
* every content-addressed store reads a corrupt entry as a miss.
"""

import numpy as np
import pytest

from repro.api.cache import ResultCache
from repro.cluster.protocol import SequenceResultStore
from repro.core.config import SystemConfig
from repro.core.pipeline import run_on_dataset
from repro.fleet import FleetReportStore, FleetServer, FleetSpec
from repro.obs import MetricsRegistry, Sink
from repro.query import Eventually, QuerySpec, TrackPersisted
from repro.serve import (
    DetectionServer,
    FrameRequest,
    LoadSpec,
    ServePolicy,
    ServeReportStore,
    generate_load,
)
from repro.serve.trace import TraceStore

CATDET = SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False)
QUERY = QuerySpec("persist", Eventually(TrackPersisted(3)))

#: Arrivals faster than one edge replica drains a 4-deep queue, so the
#: parity check covers shedding too.
LOAD = LoadSpec(
    pattern="poisson", num_streams=3, rate_hz=30.0, frames_per_stream=20, seed=5
)
POLICY = ServePolicy(max_batch_size=4, max_wait_ms=10.0, queue_capacity=4, slo_ms=500.0)

SHARED_FIELDS = (
    "policy", "frames_offered", "frames_served", "frames_shed", "batches",
    "invocations", "mean_batch_size", "makespan_seconds", "compute_seconds",
    "throughput_fps", "slo", "query_windows",
)
HISTOGRAMS = (
    "serve_queue_wait_seconds",
    "serve_compute_seconds",
    "serve_latency_seconds",
    "serve_batch_size",
)


def assert_frames_identical(fa, fb):
    assert fa.frame == fb.frame
    np.testing.assert_array_equal(fa.detections.boxes, fb.detections.boxes)
    np.testing.assert_array_equal(fa.detections.scores, fb.detections.scores)
    np.testing.assert_array_equal(fa.detections.labels, fb.detections.labels)
    assert fa.ops.total == fb.ops.total


class ListSink(Sink):
    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


def _windows(sink):
    return [r for r in sink.records if r["record"] == "query.window"]


class TestOneReplicaFleetIsTheBareServer:
    @pytest.fixture(scope="class")
    def runs(self, kitti_small):
        requests = generate_load(LOAD, kitti_small)
        bare_metrics, bare_sink = MetricsRegistry(), ListSink()
        bare = DetectionServer(
            CATDET, policy=POLICY, device="edge", query=QUERY,
            metrics=bare_metrics, sinks=bare_sink,
        ).run(requests)
        fleet_metrics, fleet_sink = MetricsRegistry(), ListSink()
        spec = FleetSpec(
            system=CATDET, load=LOAD, policy=POLICY, replicas=1,
            devices=("edge",), query=QUERY,
        )
        fleet = FleetServer(spec, metrics=fleet_metrics, sinks=fleet_sink).run(requests)
        return (bare, bare_metrics, bare_sink), (fleet, fleet_metrics, fleet_sink)

    def test_reports_agree_exactly(self, runs):
        (bare, _, _), (fleet, _, _) = runs
        assert bare.frames_shed > 0  # the load really overflows the queue
        assert bare.query_windows["streams"]  # and the query really fires
        bare_dict, fleet_dict = bare.to_dict(), fleet.to_dict()
        for key in SHARED_FIELDS:
            assert fleet_dict[key] == bare_dict[key], key
        assert fleet.frame_results.keys() == bare.frame_results.keys()
        for stream, frames in bare.frame_results.items():
            assert len(frames) == len(fleet.frame_results[stream])
            for fa, fb in zip(frames, fleet.frame_results[stream]):
                assert_frames_identical(fa, fb)

    def test_latency_histograms_agree(self, runs):
        (_, bare_metrics, _), (_, fleet_metrics, _) = runs
        bare_snap, fleet_snap = bare_metrics.snapshot(), fleet_metrics.snapshot()
        for name in HISTOGRAMS + ("serve_query_events_total",):
            assert fleet_snap[name] == bare_snap[name], name

    def test_only_the_fleet_keeps_fleet_instruments(self, runs):
        (bare, bare_metrics, _), (fleet, fleet_metrics, _) = runs
        assert not any(n.startswith("fleet_") for n in bare_metrics.names())
        frames = fleet_metrics.get("fleet_frames_total")
        assert frames.value(("in",)) == fleet.frames_offered
        assert frames.value(("out",)) == fleet.frames_served
        drops = bare_metrics.get("serve_drops_total")
        assert drops.total() == bare.frames_shed

    def test_sink_records(self, runs):
        (bare, _, bare_sink), (_, _, fleet_sink) = runs
        fleet_windows = _windows(fleet_sink)
        assert {r.pop("replica") for r in fleet_windows} == {"r0"}
        assert fleet_windows == _windows(bare_sink)
        kinds = [r["record"] for r in bare_sink.records]
        assert kinds.count("serve.frame") == bare.frames_served
        assert kinds.count("serve.shed") == bare.frames_shed
        assert kinds[-1] == "serve.summary"
        fleet_kinds = {r["record"] for r in fleet_sink.records}
        assert fleet_kinds == {"query.window", "fleet.summary"}


def test_stream_switching_sequences_restarts_its_tracker(kitti_small):
    """Frames of the old sequence still queued when the new one arrives
    keep the old tracker state; the switch happens at dispatch."""
    first, second = kitti_small.sequences[:2]
    frames = 6
    requests = [
        FrameRequest(stream="cam", sequence=seq, frame=f, arrival=0.01 * i)
        for i, (seq, f) in enumerate(
            [(first, f) for f in range(frames)] + [(second, f) for f in range(frames)]
        )
    ]
    policy = ServePolicy(max_batch_size=2, max_wait_ms=0.0, queue_capacity=64)
    offline = run_on_dataset(CATDET, kitti_small, workers=1)
    expected = (
        offline.sequences[first.name].frames[:frames]
        + offline.sequences[second.name].frames[:frames]
    )
    spec = FleetSpec(system=CATDET, policy=policy, replicas=1, devices=("edge",))
    for report in (
        DetectionServer(CATDET, policy=policy, device="edge").run(requests),
        FleetServer(spec).run(requests),
    ):
        assert report.frames_shed == 0
        served = report.frame_results["cam"]
        assert len(served) == len(expected)
        for fa, fb in zip(served, expected):
            assert_frames_identical(fa, fb)


@pytest.mark.parametrize(
    "store_cls",
    [ResultCache, SequenceResultStore, ServeReportStore, FleetReportStore, TraceStore],
)
def test_corrupt_entry_is_a_miss(tmp_path, store_cls):
    store = store_cls(tmp_path)
    fingerprint = "ab" * 32
    path = store.path_for(fingerprint)
    path.parent.mkdir(parents=True)
    path.write_text('{"report": {"format": "trunc', encoding="utf-8")
    assert fingerprint in store
    assert store.load(fingerprint) is None
