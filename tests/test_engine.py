"""Engine tests: stage pipelines, streaming, and parallel execution.

The load-bearing guarantees:

* the parallel executor produces byte-identical ``SystemRunResult``s to
  the serial executor for all three system kinds;
* ``stream()`` matches ``process_sequence()`` frame-for-frame;
* ``reset()`` makes back-to-back runs on one instance bit-identical.
"""

import numpy as np
import pytest

from repro.core.config import SystemConfig, build_system
from repro.core.keyframe import KeyFrameSystem
from repro.core.pipeline import run_on_dataset
from repro.core.systems import CaTDetSystem
from repro.datasets.types import Sequence
from repro.engine.scheduler import (
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    plan_shards,
    run_frame_range,
    split_frame_ranges,
)
from repro.engine.stream import FrameRef, sequence_frames

ALL_KINDS = [
    SystemConfig("single", "resnet10b"),
    SystemConfig("cascade", "resnet50", "resnet10a"),
    SystemConfig("catdet", "resnet50", "resnet10a"),
]


def assert_frames_identical(fa, fb):
    """Byte-identical frame results: detections, ops and region stats."""
    assert fa.frame == fb.frame
    np.testing.assert_array_equal(fa.detections.boxes, fb.detections.boxes)
    np.testing.assert_array_equal(fa.detections.scores, fb.detections.scores)
    np.testing.assert_array_equal(fa.detections.labels, fb.detections.labels)
    assert fa.ops.proposal == fb.ops.proposal
    assert fa.ops.refinement == fb.ops.refinement
    assert fa.ops.refinement_from_tracker == fb.ops.refinement_from_tracker
    assert fa.ops.refinement_from_proposal == fb.ops.refinement_from_proposal
    assert fa.num_regions == fb.num_regions
    assert fa.coverage_fraction == fb.coverage_fraction


def assert_runs_identical(a, b):
    assert set(a.sequences) == set(b.sequences)
    for name in a.sequences:
        for fa, fb in zip(a.sequences[name].frames, b.sequences[name].frames):
            assert_frames_identical(fa, fb)


class TestParallelExecutor:
    @pytest.mark.parametrize("config", ALL_KINDS, ids=lambda c: c.kind)
    def test_parallel_matches_serial(self, config, kitti_small):
        serial = run_on_dataset(config, kitti_small, workers=1)
        parallel = run_on_dataset(config, kitti_small, workers=2)
        assert serial.system_name == parallel.system_name
        assert_runs_identical(serial, parallel)

    def test_parallel_accepts_system_instance(self, kitti_small):
        config = SystemConfig("catdet", "resnet50", "resnet10a")
        serial = run_on_dataset(config, kitti_small)
        parallel = run_on_dataset(build_system(config), kitti_small, workers=2)
        assert_runs_identical(serial, parallel)

    def test_workers_zero_uses_cpu_count(self, kitti_small):
        config = SystemConfig("single", "resnet10b")
        auto = run_on_dataset(config, kitti_small, workers=0, max_sequences=1)
        serial = run_on_dataset(config, kitti_small, workers=1, max_sequences=1)
        assert_runs_identical(serial, auto)

    def test_executor_selection(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        pool = make_executor(4)
        assert isinstance(pool, ParallelExecutor)
        assert pool.workers == 4
        with pytest.raises(ValueError, match="workers"):
            make_executor(-1)
        with pytest.raises(ValueError, match="workers"):
            ParallelExecutor(0)

    def test_max_sequences_respected(self, kitti_small):
        run = run_on_dataset(
            SystemConfig("single", "resnet10b"), kitti_small, workers=2, max_sequences=1
        )
        assert len(run.sequences) == 1


class TestFrameSharding:
    @pytest.mark.parametrize(
        "config",
        [SystemConfig("single", "resnet10b"),
         SystemConfig("cascade", "resnet50", "resnet10a")],
        ids=lambda c: c.kind,
    )
    def test_frame_chunks_match_serial(self, config, kitti_small):
        """Frame-range sharding is byte-identical for independent-frame kinds."""
        serial = run_on_dataset(config, kitti_small, workers=1)
        chunked = run_on_dataset(config, kitti_small, workers=4)
        assert_runs_identical(serial, chunked)

    def test_tracker_kinds_stay_sequence_serial(self, kitti_small):
        """catdet runs whole-sequence shards — still identical."""
        config = SystemConfig("catdet", "resnet50", "resnet10a")
        serial = run_on_dataset(config, kitti_small, workers=1)
        fallback = run_on_dataset(config, kitti_small, workers=3)
        assert_runs_identical(serial, fallback)

    def test_plan_splits_only_frame_parallel_configs_short_of_workers(
        self, kitti_small
    ):
        sequences = kitti_small.sequences  # 2 x 60 frames
        whole = [(s, 0, s.num_frames) for s in sequences]
        for config in (SystemConfig("single", "resnet10b"),
                       SystemConfig("cascade", "resnet50", "resnet10a")):
            # 4 // 2 = 2 contiguous ranges per sequence.
            assert plan_shards(config, sequences, 4) == [
                (sequences[0], 0, 30), (sequences[0], 30, 60),
                (sequences[1], 0, 30), (sequences[1], 30, 60),
            ]
            # 3 // 2 rounds down: splitting would only add a second round.
            assert plan_shards(config, sequences, 3) == whole
            assert plan_shards(config, sequences, 2) == whole
            assert plan_shards(config, sequences[:1], 4) == [
                (sequences[0], start, start + 15) for start in (0, 15, 30, 45)
            ]
        catdet = SystemConfig("catdet", "resnet50", "resnet10a")
        assert plan_shards(catdet, sequences, 8) == whole
        live = build_system(SystemConfig("single", "resnet10b"))
        assert plan_shards(live, sequences, 8) == whole

    def test_progress_fires_once_per_split_sequence(self, kitti_small):
        seen = []
        ParallelExecutor(4).map_sequences(
            SystemConfig("single", "resnet10b"),
            kitti_small.sequences,
            on_progress=lambda done, total, name: seen.append((done, total, name)),
        )
        assert [(d, t) for d, t, _ in seen] == [(1, 2), (2, 2)]
        assert {name for _, _, name in seen} == {s.name for s in kitti_small.sequences}

    def test_run_frame_range_prefix_only_for_causal_kinds(self, kitti_small):
        sequence = kitti_small.sequences[0]
        catdet = SystemConfig("catdet", "resnet50", "resnet10a")
        with pytest.raises(ValueError, match="cross-frame feedback"):
            run_frame_range(catdet, sequence, 5, 10)
        # The guard must hold for live instances too, not just configs.
        with pytest.raises(ValueError, match="cross-frame feedback"):
            run_frame_range(build_system(catdet), sequence, 5, 10)
        prefix = run_frame_range(catdet, sequence, 0, 10)
        serial = build_system(catdet).process_sequence(sequence)
        for fa, fb in zip(prefix.frames, serial.frames[:10]):
            assert_frames_identical(fa, fb)

    def test_run_frame_range_accepts_live_independent_system(self, kitti_small):
        sequence = kitti_small.sequences[0]
        config = SystemConfig("cascade", "resnet50", "resnet10a")
        chunk = run_frame_range(build_system(config), sequence, 10, 15)
        serial = build_system(config).process_sequence(sequence)
        for fa, fb in zip(chunk.frames, serial.frames[10:15]):
            assert_frames_identical(fa, fb)

    def test_run_frame_range_mid_sequence_for_independent_kinds(self, kitti_small):
        sequence = kitti_small.sequences[0]
        config = SystemConfig("cascade", "resnet50", "resnet10a")
        chunk = run_frame_range(config, sequence, 20, 30)
        serial = build_system(config).process_sequence(sequence)
        assert [fr.frame for fr in chunk.frames] == list(range(20, 30))
        for fa, fb in zip(chunk.frames, serial.frames[20:30]):
            assert_frames_identical(fa, fb)

    def test_split_frame_ranges_covers_exactly(self):
        assert split_frame_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert split_frame_ranges(2, 5) == [(0, 1), (1, 2)]
        assert split_frame_ranges(0, 3) == []


class TestStream:
    @pytest.mark.parametrize("config", ALL_KINDS, ids=lambda c: c.kind)
    def test_stream_matches_process_sequence(self, config, kitti_small):
        sequence = kitti_small.sequences[0]
        batch = build_system(config).process_sequence(sequence)
        streamed = list(build_system(config).stream(sequence))
        assert len(streamed) == batch.num_frames
        for fa, fb in zip(batch.frames, streamed):
            assert_frames_identical(fa, fb)

    def test_keyframe_stream_matches_process_sequence(self, kitti_small):
        sequence = kitti_small.sequences[0]
        batch = KeyFrameSystem("resnet50", stride=4, seed=0).process_sequence(sequence)
        streamed = list(KeyFrameSystem("resnet50", stride=4, seed=0).stream(sequence))
        for fa, fb in zip(batch.frames, streamed):
            assert_frames_identical(fa, fb)

    def test_chunked_stream_preserves_tracker_state(self, kitti_small):
        """Consuming the feed in chunks equals consuming it in one go."""
        sequence = kitti_small.sequences[0]
        config = SystemConfig("catdet", "resnet50", "resnet10a")
        one_shot = list(build_system(config).stream(sequence))
        chunked_system = build_system(config)
        chunked = []
        for start in range(0, sequence.num_frames, 7):
            chunked.extend(
                chunked_system.stream(sequence_frames(sequence, start, start + 7))
            )
        for fa, fb in zip(one_shot, chunked):
            assert_frames_identical(fa, fb)

    def test_stream_accepts_pairs_and_refs(self, kitti_small):
        sequence = kitti_small.sequences[0]
        system = build_system(SystemConfig("single", "resnet10b"))
        via_refs = list(system.stream([FrameRef(sequence, 0), FrameRef(sequence, 1)]))
        system.reset()
        via_pairs = list(system.stream([(sequence, 0), (sequence, 1)]))
        for fa, fb in zip(via_refs, via_pairs):
            assert_frames_identical(fa, fb)

    def test_same_name_different_sequence_restarts_tracking(self, kitti_small):
        """Sequence identity, not its name, decides when tracking restarts."""
        import dataclasses

        seq_a = kitti_small.sequences[0]
        seq_b = dataclasses.replace(kitti_small.sequences[1], name=seq_a.name)
        config = SystemConfig("catdet", "resnet50", "resnet10a")
        system = build_system(config)
        list(system.stream(sequence_frames(seq_a, 0, 10)))
        restarted = list(system.stream(sequence_frames(seq_b, 0, 10)))
        fresh = list(build_system(config).stream(sequence_frames(seq_b, 0, 10)))
        assert restarted[0].ops.refinement_from_tracker == pytest.approx(0.0)
        for fa, fb in zip(restarted, fresh):
            assert_frames_identical(fa, fb)

    def test_switching_sequences_restarts_tracking(self, kitti_small):
        """Feeding a new sequence starts it fresh (no cross-sequence leaks)."""
        seq_a, seq_b = kitti_small.sequences[:2]
        config = SystemConfig("catdet", "resnet50", "resnet10a")
        system = build_system(config)
        interleaved = list(system.stream(sequence_frames(seq_a, 0, 10)))
        interleaved += list(system.stream(sequence_frames(seq_b, 0, 10)))
        fresh = list(build_system(config).stream(sequence_frames(seq_b, 0, 10)))
        # The first frame of seq_b must carry no tracker regions from seq_a.
        assert interleaved[10].ops.refinement_from_tracker == pytest.approx(0.0)
        for fa, fb in zip(interleaved[10:], fresh):
            assert_frames_identical(fa, fb)

    @pytest.mark.parametrize("config", ALL_KINDS, ids=lambda c: c.kind)
    def test_interleaved_streams_match_back_to_back(self, config, kitti_small):
        """Multi-stream regression: two live feeds interleaved frame by
        frame through *one* system must equal running each back-to-back.

        Before stream routing, every sequence switch re-initialized the
        single pipeline, so interleaving corrupted (restarted) the
        tracker on each alternation.
        """
        seq_a, seq_b = kitti_small.sequences[:2]
        system = build_system(config)
        interleaved = list(
            system.stream(
                ref
                for frame in range(20)
                for ref in ((seq_a, frame), (seq_b, frame))
            )
        )
        solo_a = list(build_system(config).stream(sequence_frames(seq_a, 0, 20)))
        solo_b = list(build_system(config).stream(sequence_frames(seq_b, 0, 20)))
        for i in range(20):
            assert_frames_identical(interleaved[2 * i], solo_a[i])
            assert_frames_identical(interleaved[2 * i + 1], solo_b[i])

    def test_interleaved_keyframe_streams_match_solo(self, kitti_small):
        """The duck-typed keyframe stage is stateful too — interleaving
        must not share its tracker across streams."""
        seq_a, seq_b = kitti_small.sequences[:2]
        system = KeyFrameSystem("resnet50", stride=4, seed=0)
        interleaved = list(
            system.stream(
                ref
                for frame in range(16)
                for ref in ((seq_a, frame), (seq_b, frame))
            )
        )
        solo_b = list(
            KeyFrameSystem("resnet50", stride=4, seed=0).stream(
                sequence_frames(seq_b, 0, 16)
            )
        )
        for i in range(16):
            assert_frames_identical(interleaved[2 * i + 1], solo_b[i])

    def test_stream_router_evicts_least_recently_fed(self, kitti_small):
        """Beyond max_streams the stalest stream restarts when it returns."""
        from repro.engine.stream import StreamRouter

        seq_a, seq_b = kitti_small.sequences[:2]
        system = build_system(SystemConfig("catdet", "resnet50", "resnet10a"))
        router = StreamRouter(system.build_pipeline, max_streams=1)
        router.feed(seq_a, 0)
        router.feed(seq_b, 0)  # evicts seq_a's state
        assert router.active_streams == 1
        restarted = router.feed(seq_a, 0)
        fresh = next(iter(build_system(
            SystemConfig("catdet", "resnet50", "resnet10a")
        ).stream(sequence_frames(seq_a, 0, 1))))
        assert_frames_identical(restarted, fresh)


class TestReset:
    @pytest.mark.parametrize("config", ALL_KINDS, ids=lambda c: c.kind)
    def test_back_to_back_runs_bit_identical(self, config, kitti_small):
        system = build_system(config)
        first = run_on_dataset(system, kitti_small)
        second = run_on_dataset(system, kitti_small)
        assert_runs_identical(first, second)

    def test_reset_clears_detector_caches(self, kitti_small):
        system = build_system(SystemConfig("catdet", "resnet50", "resnet10a"))
        system.process_sequence(kitti_small.sequences[0])
        detectors = (system.proposal_detector, system.refinement_detector)
        assert system.proposal_detector._clutter  # caches were populated
        for detector in detectors:
            assert detector._latents and detector._label_pool
        system.reset()
        for detector in detectors:
            assert not detector._latents
            assert not detector._label_pool
            assert not detector._clutter
            assert not detector._owners

    def test_reused_name_gets_fresh_latents(self, kitti_small):
        """A different sequence under a cached name never sees stale latents.

        The impostor lists the same tracks in reverse, so its frame-table
        rows are a permutation of the original's: latents cached for the
        original would be gathered onto the wrong objects.
        """
        original = kitti_small.sequences[0]
        impostor = Sequence(
            original.name, original.width, original.height,
            original.num_frames, original.fps, tracks=original.tracks[::-1],
        )
        detector = build_system(SystemConfig("single", "resnet50")).detector
        for frame in range(original.num_frames):
            detector.detect_full_frame(original, frame)
        fresh = build_system(SystemConfig("single", "resnet50")).detector
        for frame in range(impostor.num_frames):
            a = detector.detect_full_frame(impostor, frame)
            b = fresh.detect_full_frame(impostor, frame)
            np.testing.assert_array_equal(a.boxes, b.boxes)
            np.testing.assert_array_equal(a.scores, b.scores)
        for cached, expected in zip(
            detector._latents[original.name], fresh._latents[original.name]
        ):
            np.testing.assert_array_equal(cached, expected)

    def test_reset_clears_stream_state(self, kitti_small):
        sequence = kitti_small.sequences[0]
        config = SystemConfig("catdet", "resnet50", "resnet10a")
        system = build_system(config)
        list(system.stream(sequence_frames(sequence, 0, 10)))
        system.reset()
        restarted = list(system.stream(sequence_frames(sequence, 0, 10)))
        fresh = list(build_system(config).stream(sequence_frames(sequence, 0, 10)))
        for fa, fb in zip(restarted, fresh):
            assert_frames_identical(fa, fb)


class TestDetailedOpsFlag:
    def test_fast_path_same_results_except_breakdown(self, kitti_sequence):
        detailed = CaTDetSystem("resnet10a", "resnet50", seed=0, detailed_ops=True)
        fast = CaTDetSystem("resnet10a", "resnet50", seed=0, detailed_ops=False)
        r_detailed = detailed.process_sequence(kitti_sequence)
        r_fast = fast.process_sequence(kitti_sequence)
        for fa, fb in zip(r_detailed.frames, r_fast.frames):
            np.testing.assert_array_equal(fa.detections.boxes, fb.detections.boxes)
            assert fa.ops.proposal == fb.ops.proposal
            assert fa.ops.refinement == fb.ops.refinement
            assert fb.ops.refinement_from_tracker == 0.0
            assert fb.ops.refinement_from_proposal == 0.0
        assert r_detailed.mean_ops().refinement_from_tracker > 0

    def test_config_carries_flag(self):
        config = SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False)
        system = build_system(config)
        assert isinstance(system, CaTDetSystem)
        assert system.detailed_ops is False


class TestConfigValidation:
    def test_errors_name_the_offending_field(self):
        cases = [
            ("kind", dict(kind="magic", refinement_model="resnet50")),
            ("refinement_model", dict(kind="single", refinement_model="")),
            (
                "proposal_model",
                dict(kind="cascade", refinement_model="resnet50"),
            ),
            (
                "c_thresh",
                dict(
                    kind="cascade",
                    refinement_model="resnet50",
                    proposal_model="resnet10a",
                    c_thresh=1.5,
                ),
            ),
            (
                "margin",
                dict(
                    kind="cascade",
                    refinement_model="resnet50",
                    proposal_model="resnet10a",
                    margin=-1.0,
                ),
            ),
            ("num_classes", dict(kind="single", refinement_model="resnet50", num_classes=0)),
            (
                "input_scale",
                dict(kind="single", refinement_model="resnet50", input_scale=0.0),
            ),
        ]
        for fieldname, kwargs in cases:
            with pytest.raises(ValueError, match=fieldname):
                SystemConfig(**kwargs)
