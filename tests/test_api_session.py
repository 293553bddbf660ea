"""Session facade: cache correctness (bit-identical hits), dedupe, shims."""

import json
import multiprocessing
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.core.pipeline as pipeline_mod
from repro.api.cache import EntryStore, ResultCache, fingerprint_dataset
from repro.api.session import Session, build_dataset, load_schedule
from repro.api.spec import DatasetSpec, EvalSpec, ExecSpec, ExperimentSpec
from repro.core.config import SystemConfig
from repro.harness.experiment import run_experiment, standard_kitti
from repro.metrics.kitti_eval import HARD, MODERATE, DifficultyFilter

TINY = DatasetSpec("kitti", num_sequences=1, frames_per_sequence=25)

RACE_FP = "ab" * 32
RACE_BLOB = 20_000


def _race_payload(writer: str):
    return {"format": "race/1", "writer": writer, "blob": [writer] * RACE_BLOB}


def _race_writes(root: str, writer: str, rounds: int) -> None:
    """Racing writer: rewrite the one contended entry ``rounds`` times."""
    store = EntryStore(root)
    for _ in range(rounds):
        store._write(RACE_FP, _race_payload(writer))


def _spec(**system_kw) -> ExperimentSpec:
    config = SystemConfig(
        system_kw.pop("kind", "catdet"),
        system_kw.pop("refinement", "resnet50"),
        system_kw.pop("proposal", "resnet10a"),
        **system_kw,
    )
    return ExperimentSpec(system=config, dataset=TINY, eval=EvalSpec(("hard",)))


def _assert_bit_identical(a, b):
    assert a.config == b.config
    assert set(a.run.sequences) == set(b.run.sequences)
    for name in a.run.sequences:
        fa, fb = a.run.sequences[name].frames, b.run.sequences[name].frames
        assert len(fa) == len(fb)
        for x, y in zip(fa, fb):
            assert x.frame == y.frame
            assert np.array_equal(x.detections.boxes, y.detections.boxes)
            assert np.array_equal(x.detections.scores, y.detections.scores)
            assert np.array_equal(x.detections.labels, y.detections.labels)
            assert x.ops.proposal == y.ops.proposal
            assert x.ops.refinement == y.ops.refinement
            assert x.ops.refinement_from_tracker == y.ops.refinement_from_tracker
            assert x.ops.refinement_from_proposal == y.ops.refinement_from_proposal
            assert x.num_regions == y.num_regions
            assert x.coverage_fraction == y.coverage_fraction
    assert set(a.evaluations) == set(b.evaluations)
    for name in a.evaluations:
        ea, eb = a.evaluations[name], b.evaluations[name]
        assert ea.mean_ap() == eb.mean_ap()
        for ca, cb in zip(ea.per_class, eb.per_class):
            assert np.array_equal(ca.scores, cb.scores)
            assert np.array_equal(ca.tp, cb.tp)
            assert ca.num_gt == cb.num_gt
            assert len(ca.tracks) == len(cb.tracks)
            for ta, tb in zip(ca.tracks, cb.tracks):
                assert ta.frames == tb.frames
                assert ta.matched_scores == tb.matched_scores
                assert ta.ever_cared == tb.ever_cared


class TestSessionCache:
    def test_second_run_is_bit_identical_without_pipeline(self, tmp_path, monkeypatch):
        session = Session(cache_dir=tmp_path / "cache")
        spec = _spec()
        first = session.run(spec)
        assert session.cache_misses == 1

        def _boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("pipeline ran on a warm cache")

        monkeypatch.setattr("repro.api.session.run_on_dataset", _boom)
        second = session.run(spec)
        assert session.cache_hits == 1
        _assert_bit_identical(first, second)
        # Delay metrics survive the -Infinity JSON round trip.
        assert first.mean_delay("hard") == second.mean_delay("hard")

    def test_cache_shared_across_sessions(self, tmp_path):
        spec = _spec()
        a = Session(cache_dir=tmp_path)
        first = a.run(spec)
        b = Session(cache_dir=tmp_path)
        second = b.run(spec)
        assert b.cache_hits == 1 and b.cache_misses == 0
        _assert_bit_identical(first, second)

    def test_no_cache_dir_means_no_files(self, tmp_path):
        session = Session()
        session.run(_spec())
        assert session.cache is None
        assert list(tmp_path.iterdir()) == []

    def test_use_cache_false_bypasses(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        session.run(_spec(), use_cache=False)
        assert len(session.cache) == 0

    def test_corrupt_entry_recomputed(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        spec = _spec()
        first = session.run(spec)
        path = session.cache.path_for(spec.fingerprint)
        path.write_text("{not json", encoding="utf-8")
        second = session.run(spec)
        _assert_bit_identical(first, second)
        # The corrupt entry was rewritten with a valid payload.
        third = session.run(spec)
        _assert_bit_identical(first, third)

    def test_exec_variants_share_entries(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        spec = _spec()
        serial = session.run(spec)
        import dataclasses

        parallel_spec = dataclasses.replace(spec, exec=ExecSpec(workers=2))
        parallel = session.run(parallel_spec)
        assert session.cache_hits == 1
        _assert_bit_identical(serial, parallel)


class TestColumnarCodec:
    """Result-cache entries store frame lists and evaluations as columns."""

    @staticmethod
    def _edge_result(frames):
        from repro.core.results import SequenceResult, SystemRunResult
        from repro.harness.experiment import ExperimentResult
        from repro.metrics.delay import TrackDelayRecord
        from repro.metrics.evaluate import ClassEvaluation, EvaluationResult

        run = SystemRunResult("edge", {
            "a": SequenceResult("a", frames),
            "empty": SequenceResult("empty", []),
        })
        tracks = [
            TrackDelayRecord([3, 4, 5], [-np.inf, 0.25, np.nan], True),
            TrackDelayRecord([], [], False),
            TrackDelayRecord([7], [-np.inf], False),
        ]
        per_class = [
            ClassEvaluation(0, "Car", np.array([0.9, np.nan, -0.0]),
                            np.array([True, False, True]), 4, tracks),
            ClassEvaluation(1, "Pedestrian", np.zeros(0), np.zeros(0, dtype=bool), 0, []),
        ]
        return ExperimentResult(
            config=SystemConfig("catdet", "resnet50", "resnet10a"),
            run=run,
            evaluations={"hard": EvaluationResult("hard", per_class)},
        )

    def test_round_trip_is_byte_exact(self, edge_frames, frame_bytes):
        from repro.harness.io import experiment_from_dict, experiment_to_dict

        result = self._edge_result(edge_frames)
        text = json.dumps(experiment_to_dict(result), allow_nan=True)
        loaded = experiment_from_dict(json.loads(text))
        for name, seq in result.run.sequences.items():
            assert frame_bytes(loaded.run.sequences[name].frames) == frame_bytes(seq.frames)
        assert loaded.run.mean_ops() == result.run.mean_ops()
        assert loaded.run.mean_timing() == result.run.mean_timing()
        for a, b in zip(result.evaluations["hard"].per_class,
                        loaded.evaluations["hard"].per_class):
            assert (a.label, a.name, a.num_gt) == (b.label, b.name, b.num_gt)
            assert a.scores.tobytes() == b.scores.tobytes()
            assert a.tp.tobytes() == b.tp.tobytes()
            assert [
                (t.frames, np.array(t.matched_scores).tobytes(), t.ever_cared)
                for t in a.tracks
            ] == [
                (t.frames, np.array(t.matched_scores).tobytes(), t.ever_cared)
                for t in b.tracks
            ]

    def test_a_hit_builds_no_per_frame_objects(self, tmp_path):
        from repro.core.results import FrameResultBuffer

        spec = _spec()
        Session(cache_dir=tmp_path).run(spec)
        hit = Session(cache_dir=tmp_path).run(spec)
        for seq in hit.run.sequences.values():
            assert isinstance(seq.frames, FrameResultBuffer)

    @pytest.mark.parametrize("damage", ["truncated base64", "wrong length", "v1 entry"])
    def test_damaged_entry_is_a_miss_and_rewritten(self, tmp_path, damage):
        import base64

        spec = _spec()
        Session(cache_dir=tmp_path).run(spec)
        cache = ResultCache(tmp_path)
        path = cache.path_for(spec.fingerprint)
        good = path.read_bytes()
        payload = json.loads(good)
        frames = payload["result"]["run"]["frames"]
        if damage == "truncated base64":
            frames["boxes"] = frames["boxes"][:-2]
        elif damage == "wrong length":  # valid base64, one frame short
            short = base64.b64decode(frames["frame"])[:-8]
            frames["frame"] = base64.b64encode(short).decode("ascii")
        else:  # an entry of the previous layout version
            payload["format"] = "repro-result-cache/1"
            payload["result"]["format"] = "repro-experiment-full/1"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load(spec.fingerprint) is None
        session = Session(cache_dir=tmp_path)
        session.run(spec)
        assert session.cache_misses == 1
        assert path.read_bytes() == good


class TestLoadSchedule:
    def test_one_generation_per_tune(self, tmp_path, monkeypatch):
        from repro.api.spec import ServeSpec
        from repro.serve import LoadSpec, ServePolicy
        from repro.serve import loadgen

        spec = ServeSpec(
            system=SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False),
            dataset=DatasetSpec("kitti", num_sequences=2, frames_per_sequence=8),
            load=LoadSpec(pattern="uniform", num_streams=3, rate_hz=10.0, frames_per_stream=8),
            policy=ServePolicy(),
        )
        real, calls = loadgen.generate_load, []
        monkeypatch.setattr(
            loadgen, "generate_load", lambda *args: calls.append(1) or real(*args)
        )
        load_schedule.cache_clear()
        Session(cache_dir=tmp_path).tune_serve(
            spec, slo_p99_ms=1000.0, batch_sizes=(1, 2), max_waits_ms=(0.0, 25.0), workers=1
        )
        assert len(calls) == 1
        schedule = load_schedule(spec.load, spec.dataset)
        assert isinstance(schedule, tuple)
        assert list(schedule) == real(spec.load, build_dataset(spec.dataset))


class TestRunMany:
    def test_dedupes_identical_specs(self, tmp_path, monkeypatch):
        session = Session(cache_dir=tmp_path)
        calls = []
        real = pipeline_mod.run_on_dataset

        def _counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr("repro.api.session.run_on_dataset", _counting)
        spec = _spec()
        cheaper = spec.with_system(c_thresh=0.4)
        results = session.run_many([spec, cheaper, spec, spec])
        assert len(results) == 4
        assert len(calls) == 2
        assert results[0] is results[2] is results[3]
        _assert_bit_identical(results[0], results[2])

    def test_order_preserved(self):
        session = Session()
        specs = [_spec(), _spec(kind="cascade"), _spec()]
        results = session.run_many(specs)
        assert [r.config for r in results] == [s.system for s in specs]


class TestRunExperimentShim:
    def test_signature_and_result_shape(self):
        dataset = build_dataset(TINY)
        result = run_experiment(
            SystemConfig("cascade", "resnet50", "resnet10a"), dataset
        )
        assert set(result.evaluations) == {"moderate", "hard"}
        assert result.ops_gops > 0

    def test_shim_caches_by_dataset_content(self, tmp_path, monkeypatch):
        session = Session(cache_dir=tmp_path)
        dataset = build_dataset(TINY)
        config = SystemConfig("catdet", "resnet50", "resnet10a")
        first = run_experiment(config, dataset, (HARD,), session=session)
        monkeypatch.setattr(
            "repro.api.session.run_on_dataset",
            lambda *a, **k: pytest.fail("pipeline ran on a warm cache"),
        )
        second = run_experiment(config, dataset, (HARD,), session=session)
        assert session.cache_hits == 1
        _assert_bit_identical(first, second)

    def test_custom_difficulty_bypasses_cache(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        dataset = build_dataset(TINY)
        custom = DifficultyFilter(
            name="hard", min_height=30.0, max_occlusion=0.9, max_truncation=0.9
        )
        run_experiment(
            SystemConfig("single", "resnet10a"), dataset, (custom,), session=session
        )
        assert len(session.cache) == 0

    def test_spec_and_shim_agree(self, tmp_path):
        """The declarative and classic paths produce identical numbers."""
        spec = _spec()
        via_spec = Session().run(spec)
        via_shim = run_experiment(spec.system, build_dataset(TINY), (HARD,))
        _assert_bit_identical(via_spec, via_shim)


class TestDatasetHelpers:
    def test_build_dataset_memoized(self):
        assert build_dataset(TINY) is build_dataset(TINY)

    def test_standard_kitti_shim_memoized(self):
        assert standard_kitti(2, 30) is standard_kitti(2, 30)

    def test_fingerprint_tracks_content(self):
        a = build_dataset(TINY)
        b = build_dataset(DatasetSpec("kitti", 1, 25, seed=7))
        assert fingerprint_dataset(a) == fingerprint_dataset(a)
        assert fingerprint_dataset(a) != fingerprint_dataset(b)

    def test_unknown_family_error(self):
        with pytest.raises(KeyError, match="dataset family"):
            build_dataset(DatasetSpec("imagenet"))


class TestResultCacheUnit:
    def test_len_and_clear(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        session.run(_spec())
        session.run(_spec(kind="cascade"))
        cache = session.cache
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_contains(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        spec = _spec()
        assert spec.fingerprint not in ResultCache(tmp_path)
        session.run(spec)
        assert spec.fingerprint in ResultCache(tmp_path)

    def test_entry_bytes_are_one_shot_dumps(self, tmp_path):
        payload = {"values": [float("nan"), float("inf"), -float("inf"), 0.1, 3]}
        store = EntryStore(tmp_path)
        path = store._write("ab" * 32, payload)
        assert path.read_bytes() == json.dumps(payload, allow_nan=True).encode("utf-8")
        loaded = store._read("ab" * 32, "values", list)
        assert np.isnan(loaded[0]) and loaded[1:] == payload["values"][1:]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        """An encode error mid-write removes its temp file (``stats``/``ls``/
        ``prune`` see only ``*.json``) and keeps the existing entry."""
        store = ResultCache(tmp_path)
        fingerprint = "ab" * 32
        path = store._write(fingerprint, {"values": [1, 2]})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            store._write(fingerprint, {"x": object()})
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        assert path.read_bytes() == before
        assert store.prune(0) == 1
        assert not path.parent.exists()

    def test_entry_labels_come_from_the_store_that_wrote_them(self, tmp_path):
        from repro.serve.server import ServeReportStore
        from repro.serve.trace import ComputeTrace, TraceStore

        session = Session(cache_dir=tmp_path)
        spec = _spec()
        session.run(spec)
        fixture = json.loads(
            (Path(__file__).parent / "fixtures" / "serve_report_entry.json").read_text()
        )
        report_fp, bare_fp, trace_fp = "cd" * 32, "ef" * 32, "12" * 32
        ServeReportStore(tmp_path)._write(report_fp, fixture)
        ServeReportStore(tmp_path)._write(bare_fp, {**fixture, "spec": None})
        TraceStore(tmp_path).store(trace_fp, ComputeTrace())
        labels = {e.fingerprint: e.label for e in session.cache.entries(with_labels=True)}
        assert labels == {
            spec.fingerprint: "resnet10a, resnet50, CaTDet @ kitti",
            report_fp: "resnet10a, resnet50, CaTDet @ kitti x2 poisson batch=4 wait=10ms",
            bare_fp: None,
            trace_fp: "compute trace: 0 stream(s), 0 frame(s)",
        }

    def test_entry_written_with_json_dump_still_loads(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        spec = _spec()
        fresh = session.run(spec)
        path = session.cache.path_for(spec.fingerprint)
        written = path.read_bytes()
        payload = json.loads(written)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, allow_nan=True)
        assert path.read_bytes() == written
        _assert_bit_identical(ResultCache(tmp_path).load(spec.fingerprint), fresh)


class TestRacingWriters:
    def test_processes_and_threads_leave_a_whole_entry(self, tmp_path):
        """Two processes and two threads rewrite one fingerprint while a
        reader polls it: every read is a miss or a whole entry, no writer
        fails, and the survivor is one writer's complete payload.

        The threads start once a process has written the entry, so all
        four writers overlap, and the reader yields between reads so it
        does not starve the writers on a single CPU."""
        rounds = 40
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_race_writes, args=(str(tmp_path), f"p{i}", rounds))
            for i in range(2)
        ]
        errors = []

        def thread_writer(name):
            try:
                _race_writes(str(tmp_path), name, rounds)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=thread_writer, args=(f"t{i}",)) for i in range(2)
        ]
        path = EntryStore(tmp_path).path_for(RACE_FP)
        torn = []

        def read_until(workers):
            while any(w.is_alive() for w in workers):
                time.sleep(0)
                try:
                    text = path.read_text(encoding="utf-8")
                except FileNotFoundError:
                    continue
                try:
                    payload = json.loads(text)
                except json.JSONDecodeError:
                    torn.append(len(text))
                    continue
                if payload != _race_payload(payload["writer"]):
                    torn.append(payload["writer"])

        for proc in procs:
            proc.start()
        while not path.exists() and any(p.is_alive() for p in procs):
            time.sleep(0.01)
        interval = sys.getswitchinterval()
        # Switch threads every microsecond while the writer threads run,
        # so their writes interleave finely.
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            read_until(threads)
        finally:
            sys.setswitchinterval(interval)
        read_until(procs)
        for worker in procs + threads:
            worker.join(timeout=60)
        assert not any(w.is_alive() for w in procs + threads)
        assert [p.exitcode for p in procs] == [0, 0]
        assert errors == []
        assert torn == []
        writer = EntryStore(tmp_path)._read(RACE_FP, "writer", str)
        assert writer in {"p0", "p1", "t0", "t1"}
        assert json.loads(path.read_text(encoding="utf-8")) == _race_payload(writer)
        assert [p.name for p in path.parent.iterdir()] == [path.name]
