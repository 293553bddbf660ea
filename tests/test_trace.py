"""Compute-trace record/replay tests (the serving fast path).

The load-bearing guarantee: a server run that replays a recorded
compute trace produces reports **byte-identical** to the live path —
detections, SLO statistics, sink records and query windows — including
when shedding diverges the admitted subsequence mid-stream and the
server must fall back to live compute.  Plus the trace-store plumbing:
fingerprints cover only the compute-determining sections, entries
round-trip losslessly, and corruption is a miss, never an error.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.session import Session
from repro.api.spec import DatasetSpec, ServeSpec
from repro.core.config import SystemConfig
from repro.datasets.kitti import kitti_like_dataset
from repro.fleet import AutoscalerPolicy, FleetServer, FleetSpec
from repro.obs import MetricsRegistry, Sink
from repro.query import Eventually, QuerySpec, TrackPersisted
from repro.serve import trace as trace_mod
from repro.serve import (
    DetectionServer,
    FrameRequest,
    LoadSpec,
    ServePolicy,
    ServiceModel,
    generate_load,
)
from repro.serve.trace import (
    ComputeTrace,
    TraceStore,
    trace_fingerprint,
)

SINGLE = SystemConfig("single", "resnet10a", detailed_ops=False)
CASCADE = SystemConfig("cascade", "resnet50", "resnet10a", detailed_ops=False)
CATDET = SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False)
KEYFRAME = SystemConfig("keyframe", "resnet50", stride=4)
SERVICE = ServiceModel(invocation_overhead_ms=50.0, gops_per_second=2000.0)
LOAD = LoadSpec(pattern="uniform", num_streams=2, rate_hz=10.0, frames_per_stream=20)


class ListSink(Sink):
    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


def _assert_frames_identical(fa, fb):
    assert fa.frame == fb.frame
    np.testing.assert_array_equal(fa.detections.boxes, fb.detections.boxes)
    np.testing.assert_array_equal(fa.detections.scores, fb.detections.scores)
    np.testing.assert_array_equal(fa.detections.labels, fb.detections.labels)
    assert (fa.track_ids is None) == (fb.track_ids is None)
    if fa.track_ids is not None:
        np.testing.assert_array_equal(fa.track_ids, fb.track_ids)
    assert fa.ops.proposal == fb.ops.proposal
    assert fa.ops.refinement == fb.ops.refinement
    assert fa.ops.total == fb.ops.total


def _assert_reports_identical(live, replay):
    assert live.to_dict() == replay.to_dict()
    assert set(live.frame_results) == set(replay.frame_results)
    for stream in live.frame_results:
        a, b = live.frame_results[stream], replay.frame_results[stream]
        assert len(a) == len(b)
        for fa, fb in zip(a, b):
            _assert_frames_identical(fa, fb)


def _record(system, requests, *, policy, query=None):
    """Run live once with recording on; returns (report, trace)."""
    server = DetectionServer(
        system, policy=policy, service=SERVICE, query=query, record_trace=True
    )
    report = server.run(requests)
    assert server.frames_replayed == 0
    trace = server.recorded_trace
    assert trace is not None and trace.total_frames > 0
    return report, trace


def _sources(metrics):
    """``serve_trace_frames_total`` by source."""
    counter = metrics.get("serve_trace_frames_total")
    return {s: int(counter.value((s,))) for s in ("replayed", "shared", "live")}


class TestServeReplay:
    @pytest.mark.parametrize("system", [CATDET, KEYFRAME], ids=lambda c: c.kind)
    def test_replay_report_byte_identical(self, system, kitti_small):
        """Replay under a *different* policy == live under that policy."""
        requests = generate_load(LOAD, kitti_small)
        _, trace = _record(
            system, requests, policy=ServePolicy(max_batch_size=1)
        )
        policy = ServePolicy(max_batch_size=4, max_wait_ms=25.0, slo_ms=500.0)
        live_sink, replay_sink = ListSink(), ListSink()
        live = DetectionServer(
            system, policy=policy, service=SERVICE, sinks=live_sink
        ).run(requests)
        replayer = DetectionServer(
            system, policy=policy, service=SERVICE, sinks=replay_sink, trace=trace
        )
        replay = replayer.run(requests)
        assert replayer.frames_replayed == len(requests)
        _assert_reports_identical(live, replay)
        assert live_sink.records == replay_sink.records

    def test_replay_preserves_query_windows(self, kitti_small):
        query = QuerySpec("persist", Eventually(TrackPersisted(3)))
        requests = generate_load(LOAD, kitti_small)
        _, trace = _record(
            CATDET, requests, policy=ServePolicy(max_batch_size=1), query=query
        )
        policy = ServePolicy(max_batch_size=4, max_wait_ms=25.0)
        live = DetectionServer(
            CATDET, policy=policy, service=SERVICE, query=query
        ).run(requests)
        replay = DetectionServer(
            CATDET, policy=policy, service=SERVICE, query=query, trace=trace
        ).run(requests)
        assert live.query_windows == replay.query_windows
        assert live.query_windows  # the scenario must actually fire
        _assert_reports_identical(live, replay)

    def test_shedding_run_falls_back_mid_stream(self, kitti_small):
        """A shed frame diverges the admitted subsequence; the stream must
        rebuild causal state live and the report must not change."""
        requests = generate_load(LOAD, kitti_small)
        _, trace = _record(
            CATDET, requests, policy=ServePolicy(max_batch_size=1)
        )
        # Tiny queue + slow service: shedding guaranteed.
        policy = ServePolicy(
            max_batch_size=2, max_wait_ms=0.0, queue_capacity=1,
            shed_policy="oldest", slo_ms=500.0,
        )
        slow = ServiceModel(invocation_overhead_ms=120.0, gops_per_second=500.0)
        live = DetectionServer(CATDET, policy=policy, service=slow).run(requests)
        assert live.frames_shed > 0, "scenario must actually shed"
        replayer = DetectionServer(
            CATDET, policy=policy, service=slow, trace=trace
        )
        replay = replayer.run(requests)
        assert 0 < replayer.frames_replayed < live.frames_served
        _assert_reports_identical(live, replay)

    def test_partial_divergence_extends_the_trace(self, kitti_small):
        """The out-trace of a diverged run covers its full admitted run —
        longer than the replayed prefix, so the cache only improves."""
        requests = generate_load(LOAD, kitti_small)
        _, trace = _record(
            CATDET, requests, policy=ServePolicy(max_batch_size=1)
        )
        half = [r for r in requests if r.frame < 10]
        replayer = DetectionServer(
            CATDET, policy=ServePolicy(max_batch_size=4), service=SERVICE,
            trace=trace, record_trace=True,
        )
        replayer.run(half)
        out = replayer.recorded_trace
        assert out.total_frames == len(half)


class TestFleetReplay:
    def test_serve_recorded_trace_replays_in_a_fleet(self, kitti_small):
        """One trace serves both layers: detections are keyed by
        (model, seed, sequence, frame), never by replica placement."""
        requests = generate_load(LOAD, kitti_small)
        _, trace = _record(
            CATDET, requests, policy=ServePolicy(max_batch_size=1)
        )
        spec = FleetSpec(
            system=CATDET,
            load=LOAD,
            policy=ServePolicy(max_batch_size=4, max_wait_ms=20.0, slo_ms=2000.0),
            replicas=2,
            devices=("edge",),
        )
        live = FleetServer(spec).run(requests)
        replayer = FleetServer(spec, trace=trace)
        replay = replayer.run(requests)
        assert replayer.frames_replayed == len(requests)
        _assert_reports_identical(live, replay)

    def test_fleet_records_a_trace_serve_can_replay(self, kitti_small):
        requests = generate_load(LOAD, kitti_small)
        spec = FleetSpec(
            system=CATDET,
            load=LOAD,
            policy=ServePolicy(max_batch_size=2, max_wait_ms=10.0, slo_ms=2000.0),
            replicas=2,
            devices=("edge",),
        )
        recorder = FleetServer(spec, record_trace=True)
        recorder.run(requests)
        trace = recorder.recorded_trace
        assert trace is not None and trace.total_frames == len(requests)

        policy = ServePolicy(max_batch_size=4, max_wait_ms=25.0)
        live = DetectionServer(CATDET, policy=policy, service=SERVICE).run(requests)
        replayer = DetectionServer(
            CATDET, policy=policy, service=SERVICE, trace=trace
        )
        replay = replayer.run(requests)
        assert replayer.frames_replayed == len(requests)
        _assert_reports_identical(live, replay)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_random_admitted_prefixes_replay_identically(data):
    """Property: whatever subset of the offered frames is admitted, the
    traced server matches the live server byte for byte — matching
    prefixes replay, diverged streams fall back."""
    dataset = kitti_like_dataset(num_sequences=2, frames_per_sequence=12)
    load = LoadSpec(
        pattern="uniform", num_streams=2, rate_hz=10.0, frames_per_stream=12
    )
    full = generate_load(load, dataset)
    _, trace = _record(CATDET, full, policy=ServePolicy(max_batch_size=1))

    keep = data.draw(
        st.lists(st.booleans(), min_size=len(full), max_size=len(full)),
        label="kept requests",
    )
    subset = [r for r, k in zip(full, keep) if k]
    if not subset:
        return
    policy = ServePolicy(max_batch_size=4, max_wait_ms=25.0)
    live = DetectionServer(CATDET, policy=policy, service=SERVICE).run(subset)
    replay = DetectionServer(
        CATDET, policy=policy, service=SERVICE, trace=trace
    ).run(subset)
    _assert_reports_identical(live, replay)


#: 9 streams over 3 sequences: every sequence lane serves three streams.
LANE_LOAD = LoadSpec(
    pattern="poisson", num_streams=9, rate_hz=2.0, frames_per_stream=12
)
LANE_DATASET = DatasetSpec("kitti", num_sequences=3, frames_per_sequence=12)


@pytest.fixture(scope="module")
def lane_dataset():
    return kitti_like_dataset(num_sequences=3, frames_per_sequence=12)


class TestSequenceLanes:
    """A traced run computes each sequence's admitted frames once, on a lane pipeline, and serves the
    other streams that lane's records — the reports must not change."""

    @pytest.mark.parametrize("capacity", [1024, 2], ids=["no-shed", "cap2"])
    @pytest.mark.parametrize(
        "system", [SINGLE, CASCADE, CATDET, KEYFRAME], ids=lambda c: c.kind
    )
    def test_cold_traced_run_equals_live(self, system, capacity, lane_dataset):
        requests = generate_load(LANE_LOAD, lane_dataset)
        policy = ServePolicy(
            max_batch_size=4, max_wait_ms=25.0, queue_capacity=capacity, slo_ms=500.0
        )
        live = DetectionServer(system, policy=policy, service=SERVICE).run(requests)
        assert (live.frames_shed > 0) == (capacity == 2)
        metrics = MetricsRegistry()
        recorder = DetectionServer(
            system, policy=policy, service=SERVICE, metrics=metrics, record_trace=True
        )
        traced = recorder.run(requests)
        assert recorder.frames_replayed == 0
        _assert_reports_identical(live, traced)
        sources = _sources(metrics)
        assert sum(sources.values()) == traced.frames_served
        assert sources["replayed"] == 0 and sources["shared"] > 0
        if not live.frames_shed:
            assert sources["live"] == len({(r.sequence.name, r.frame) for r in requests})

        # The lanes' out-trace replays like any recorded trace.
        other = ServePolicy(max_batch_size=2, max_wait_ms=10.0, slo_ms=500.0)
        metrics = MetricsRegistry()
        replayer = DetectionServer(
            system, policy=other, service=SERVICE, metrics=metrics,
            trace=recorder.recorded_trace,
        )
        replay = replayer.run(requests)
        _assert_reports_identical(
            DetectionServer(system, policy=other, service=SERVICE).run(requests), replay
        )
        sources = _sources(metrics)
        assert sum(sources.values()) == replay.frames_served
        assert sources["replayed"] == replayer.frames_replayed

    def test_autoscaled_fleet_session_cached_equals_uncached(self, tmp_path):
        spec = FleetSpec(
            system=CATDET,
            dataset=LANE_DATASET,
            load=LANE_LOAD,
            policy=ServePolicy(
                max_batch_size=4, max_wait_ms=20.0, queue_capacity=256, slo_ms=2000.0
            ),
            replicas=1,
            devices=("edge",),
            autoscaler=AutoscalerPolicy(
                min_replicas=1, max_replicas=3, interval_s=0.25, cooldown_s=0.5,
                slo_p99_ms=2000.0, scale_out_wait_share=0.2, scale_in_occupancy=0.5,
            ),
        )
        session = Session(cache_dir=tmp_path)
        cached = session.serve_fleet(spec)
        assert session.trace_misses == 1  # the cold run recorded a trace
        assert cached.scale_events  # the fleet actually rescaled
        _assert_reports_identical(
            Session().serve_fleet(spec, use_cache=False), cached
        )

    def test_stream_switching_sequences_goes_live(self, kitti_small):
        """A lane stream that switches sequence restarts its own pipeline
        and computes the new sequence live; replaying the recorded trace,
        it stops replaying at the switch."""
        first, second = kitti_small.sequences[:2]
        plan = [("cam", first, f, f) for f in range(6)]
        plan += [("cam", second, f, 6 + f) for f in range(6)]
        plan += [(s, first, f, f) for s in ("a", "b") for f in range(12)]
        requests = [
            FrameRequest(stream=s, sequence=seq, frame=f, arrival=0.05 * t)
            for s, seq, f, t in sorted(plan, key=lambda p: (p[3], p[0]))
        ]
        policy = ServePolicy(max_batch_size=4, max_wait_ms=0.0)
        live = DetectionServer(CATDET, policy=policy, service=SERVICE).run(requests)
        recorder = DetectionServer(
            CATDET, policy=policy, service=SERVICE, record_trace=True
        )
        _assert_reports_identical(live, recorder.run(requests))

        other = ServePolicy(max_batch_size=2, max_wait_ms=10.0)
        replayer = DetectionServer(
            CATDET, policy=other, service=SERVICE, trace=recorder.recorded_trace
        )
        replay = replayer.run(requests)
        assert replay.frames_shed == 0
        _assert_reports_identical(
            DetectionServer(CATDET, policy=other, service=SERVICE).run(requests), replay
        )
        assert replayer.frames_replayed == 6 + 2 * 12


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_random_admitted_subsets_record_identically_over_lanes(data):
    """Property: 6 streams over 2 sequences, recording from an empty
    trace — whatever subset is admitted, streams that leave their lane
    rebuild their own state and the report equals the live one."""
    dataset = kitti_like_dataset(num_sequences=2, frames_per_sequence=12)
    load = LoadSpec(
        pattern="uniform", num_streams=6, rate_hz=10.0, frames_per_stream=12
    )
    full = generate_load(load, dataset)
    keep = data.draw(
        st.lists(st.booleans(), min_size=len(full), max_size=len(full)),
        label="kept requests",
    )
    subset = [r for r, k in zip(full, keep) if k]
    if not subset:
        return
    policy = ServePolicy(max_batch_size=4, max_wait_ms=25.0)
    live = DetectionServer(CATDET, policy=policy, service=SERVICE).run(subset)
    traced = DetectionServer(
        CATDET, policy=policy, service=SERVICE, record_trace=True
    ).run(subset)
    _assert_reports_identical(live, traced)


class TestTraceStore:
    @pytest.fixture(autouse=True)
    def _empty_memo(self, monkeypatch):
        """Each test starts with no held trace, whatever ran before."""
        monkeypatch.setattr(trace_mod, "_held", None)

    def _trace(self, kitti_small, system=CATDET):
        requests = generate_load(LOAD, kitti_small)
        _, trace = _record(
            system, requests, policy=ServePolicy(max_batch_size=1)
        )
        return trace

    def test_round_trip_is_lossless(self, tmp_path, kitti_small):
        trace = self._trace(kitti_small)
        store = TraceStore(tmp_path)
        fp = "ab" + "0" * 62
        store.store(fp, trace)
        assert fp in store
        loaded = store.load(fp)
        assert loaded.to_dict() == trace.to_dict()
        for stream, st_in in trace.streams.items():
            st_out = loaded.streams[stream]
            assert st_out.sequence == st_in.sequence
            for ra, rb in zip(st_in.records, st_out.records):
                assert ra.invocations == rb.invocations
                _assert_frames_identical(ra.result, rb.result)

    def test_corrupt_entry_is_a_miss(self, tmp_path, kitti_small):
        store = TraceStore(tmp_path)
        fp = "cd" + "0" * 62
        store.store(fp, self._trace(kitti_small))
        path = store.path_for(fp)
        path.write_text("{not json")
        assert store.load(fp) is None
        path.write_text(json.dumps({"format": "wrong", "trace": {}}))
        assert store.load(fp) is None
        assert store.load("ee" + "0" * 62) is None  # absent entry

    def test_format_marker_is_checked(self):
        with pytest.raises(ValueError):
            ComputeTrace.from_dict({"format": "bogus", "streams": {}})

    def test_overwritten_entry_is_decoded_again(self, tmp_path, kitti_small):
        store = TraceStore(tmp_path)
        fp = "ab" + "1" * 62
        store.store(fp, self._trace(kitti_small))
        first = store.load(fp)
        assert store.load(fp) is first  # unchanged bytes: the held trace
        other = self._trace(kitti_small, system=CASCADE)
        assert other.to_dict() != first.to_dict()
        store.store(fp, other)
        loaded = store.load(fp)
        assert loaded is not first
        assert loaded.to_dict() == other.to_dict()

    def test_corrupt_or_deleted_entry_after_a_load_is_a_miss(
        self, tmp_path, kitti_small
    ):
        store = TraceStore(tmp_path)
        fp = "cd" + "1" * 62
        store.store(fp, self._trace(kitti_small))
        assert store.load(fp) is not None
        path = store.path_for(fp)
        path.write_bytes(path.read_bytes()[:-1])
        assert store.load(fp) is None
        path.unlink()
        assert store.load(fp) is None

    def test_memoized_arrays_are_read_only(self, tmp_path, kitti_small):
        store = TraceStore(tmp_path)
        fp = "ef" + "1" * 62
        store.store(fp, self._trace(kitti_small))
        result = next(
            rec.result
            for st in store.load(fp).streams.values()
            for rec in st.records
            if len(rec.result.detections.scores)
        )
        for array in (
            result.detections.boxes,
            result.detections.scores,
            result.detections.labels,
            result.track_ids,
        ):
            with pytest.raises(ValueError):
                array[...] = 0

    def test_cold_tune_decodes_the_trace_once(self, tmp_path, monkeypatch):
        spec = ServeSpec(
            system=CATDET,
            dataset=DatasetSpec("kitti", num_sequences=2, frames_per_sequence=12),
            load=LoadSpec(
                pattern="uniform", num_streams=4, rate_hz=10.0, frames_per_stream=12
            ),
            policy=ServePolicy(),
            service=SERVICE,
        )
        decodes = []
        decode = ComputeTrace.from_dict.__func__
        monkeypatch.setattr(
            ComputeTrace,
            "from_dict",
            classmethod(lambda cls, data: decodes.append(1) or decode(cls, data)),
        )

        def tune(session, **kw):
            result = session.tune_serve(
                spec, slo_p99_ms=1000.0, batch_sizes=(1, 2, 4),
                max_waits_ms=(0.0, 25.0), workers=1, **kw,
            )
            return [
                (c.spec.fingerprint, c.report.to_dict(), c.feasible, c.alias_of)
                for c in result.candidates
            ]

        session = Session(cache_dir=tmp_path)
        cold = tune(session)
        assert session.trace_hits >= 2  # later points replayed the trace
        assert len(decodes) <= 1
        assert cold == tune(Session(), use_cache=False)


class TestTraceFingerprint:
    def _serve_spec(self, **overrides):
        base = dict(
            system=CATDET,
            dataset=DatasetSpec("kitti", num_sequences=2, frames_per_sequence=20),
            load=LOAD,
            policy=ServePolicy(max_batch_size=2),
            service=SERVICE,
        )
        base.update(overrides)
        return ServeSpec(**base)

    def test_policy_and_service_do_not_change_it(self):
        base = self._serve_spec()
        same = self._serve_spec(
            policy=ServePolicy(max_batch_size=8, max_wait_ms=75.0),
            service=ServiceModel(invocation_overhead_ms=1.0, gops_per_second=9e9),
        )
        assert trace_fingerprint(base) == trace_fingerprint(same)

    def test_compute_sections_do_change_it(self):
        base = self._serve_spec()
        other_system = self._serve_spec(system=KEYFRAME)
        other_dataset = self._serve_spec(
            dataset=DatasetSpec("kitti", num_sequences=3, frames_per_sequence=20)
        )
        other_load = self._serve_spec(
            load=LoadSpec(
                pattern="uniform", num_streams=3, rate_hz=10.0, frames_per_stream=20
            )
        )
        fps = {
            trace_fingerprint(s)
            for s in (base, other_system, other_dataset, other_load)
        }
        assert len(fps) == 4

    def test_serve_and_fleet_specs_share_a_fingerprint(self):
        serve = self._serve_spec()
        fleet = FleetSpec(
            system=CATDET,
            dataset=DatasetSpec("kitti", num_sequences=2, frames_per_sequence=20),
            load=LOAD,
            policy=ServePolicy(max_batch_size=4),
            replicas=3,
            devices=("edge", "titanx"),
        )
        assert trace_fingerprint(serve) == trace_fingerprint(fleet)
