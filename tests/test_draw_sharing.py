"""Draw sharing: a Session's points reuse pure full-frame detector draws.

A full-frame detection is a pure function of (profile, seed, input
scale, sequence, frame), so a :class:`~repro.simdet.detector.DrawMemo`
may serve one draw to every system that asks for it.  These tests pin
that sharing never changes an output, stays inside one ``Session``,
keys the sequence by identity, protects shared arrays, and respects its
bound.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.api.session import Session
from repro.api.spec import DatasetSpec, EvalSpec, ExperimentSpec
from repro.core.config import SystemConfig, build_system
from repro.core.pipeline import run_on_dataset
from repro.datasets.kitti import kitti_like_dataset
from repro.engine.scheduler import ParallelExecutor
from repro.harness.io import experiment_to_dict, run_to_dict
from repro.obs.registry import default_registry
from repro.simdet.detector import DrawMemo, SimulatedDetector
from repro.simdet.zoo import get_model

DATASET = DatasetSpec("kitti", num_sequences=2, frames_per_sequence=6)
EVAL = EvalSpec(("hard",))

#: A mini Figure-6 grid: both cascade kinds x 2 proposal models x 2
#: C-thresh values, plus the single-model baseline.
GRID = [SystemConfig("single", "resnet50")] + [
    SystemConfig(kind, "resnet50", model, c_thresh=c)
    for model in ("resnet10a", "resnet18")
    for kind in ("catdet", "cascade")
    for c in (0.05, 0.3)
]


def _spec(config: SystemConfig) -> ExperimentSpec:
    return ExperimentSpec(config, DATASET, EVAL)


def _canonical(result) -> str:
    return json.dumps(experiment_to_dict(result), sort_keys=True, allow_nan=True)


def _draw_counts():
    registry = default_registry()
    return tuple(
        registry.counter(name).value()
        for name in ("simdet_draws_shared_total", "simdet_draws_sampled_total")
    )


def _frames(dataset) -> int:
    return sum(s.num_frames for s in dataset.sequences)


class TestSessionSharing:
    def test_grid_through_one_session_matches_fresh_sessions(self):
        before = _draw_counts()
        session = Session()
        shared = [_canonical(r) for r in session.run_many(_spec(c) for c in GRID)]
        after = _draw_counts()
        alone = [_canonical(Session().run(_spec(c))) for c in GRID]
        assert shared == alone
        # One draw per (model, frame): single's ResNet-50 plus two
        # proposal models; every other full-frame scan is shared.
        frames = _frames(Session().dataset(DATASET))
        scans = frames * len(GRID)
        assert after[1] - before[1] == 3 * frames
        assert after[0] - before[0] == scans - 3 * frames

    def test_second_session_starts_empty(self):
        spec = _spec(GRID[1])
        first = Session()
        first.run(spec)
        before = _draw_counts()
        Session().run(spec)
        shared, sampled = (b - a for a, b in zip(before, _draw_counts()))
        assert shared == 0
        assert sampled == _frames(first.dataset(DATASET))

    def test_parallel_runs_do_not_share(self):
        dataset = kitti_like_dataset(num_sequences=2, frames_per_sequence=4, seed=5)
        memo = DrawMemo()
        run = run_on_dataset(
            GRID[1], dataset, executor=ParallelExecutor(2), draws=memo
        )
        assert len(memo) == 0 and memo.sampled == 0
        assert run_to_dict(run) == run_to_dict(run_on_dataset(GRID[1], dataset))


class TestDrawMemo:
    def _detector(self) -> SimulatedDetector:
        return SimulatedDetector(get_model("resnet10a").profile, seed=3)

    def test_hit_counts_an_invocation_and_returns_the_same_draw(self):
        sequence = kitti_like_dataset(num_sequences=1, frames_per_sequence=5).sequences[0]
        memo = DrawMemo()
        a, b = self._detector(), self._detector()
        a.draws = b.draws = memo
        first = a.detect_full_frame(sequence, 2)
        second = b.detect_full_frame(sequence, 2)
        assert second is first
        assert (memo.shared, memo.sampled) == (1, 1)
        assert a.invocations == b.invocations == 1

    def test_same_name_different_sequence_misses(self):
        one = kitti_like_dataset(num_sequences=1, frames_per_sequence=5, seed=1)
        two = kitti_like_dataset(num_sequences=1, frames_per_sequence=5, seed=2)
        seq1, seq2 = one.sequences[0], two.sequences[0]
        assert seq1.name == seq2.name and seq1 is not seq2
        memo = DrawMemo()
        detector = self._detector()
        detector.draws = memo
        detector.detect_full_frame(seq1, 0)
        got = detector.detect_full_frame(seq2, 0)
        assert (memo.shared, memo.sampled) == (0, 2)
        fresh = self._detector().detect_full_frame(seq2, 0)
        assert np.array_equal(got.boxes, fresh.boxes)
        assert np.array_equal(got.scores, fresh.scores)

    def test_dead_sequence_draws_drop_and_a_reused_id_misses(self):
        base = kitti_like_dataset(num_sequences=1, frames_per_sequence=5).sequences[0]
        memo = DrawMemo()
        detector = self._detector()
        detector.draws = memo
        first = dataclasses.replace(base)
        detector.detect_full_frame(first, 0)
        del first  # CPython typically hands its id to the next Sequence
        second = dataclasses.replace(base)
        detector.detect_full_frame(second, 0)
        assert (memo.shared, memo.sampled) == (0, 2)
        assert len(memo) == 1

    def test_memoized_arrays_are_read_only(self):
        sequence = kitti_like_dataset(num_sequences=1, frames_per_sequence=5).sequences[0]
        detector = self._detector()
        detector.draws = DrawMemo()
        draw = detector.detect_full_frame(sequence, 1)
        for array in (draw.boxes, draw.scores, draw.labels):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_survives_system_reset(self):
        system = build_system(GRID[1])
        memo = DrawMemo()
        for detector in system._detectors():
            detector.draws = memo
        system.reset()
        assert all(d.draws is memo for d in system._detectors())

    def test_full_memo_stops_growing_and_retained_keys_still_hit(self, monkeypatch):
        dataset = kitti_like_dataset(num_sequences=3, frames_per_sequence=4, seed=7)
        frames = _frames(dataset)
        bound = frames // 2
        monkeypatch.setattr(DrawMemo, "MAX_ENTRIES", bound)
        memo = DrawMemo()
        low, high = (
            SystemConfig("cascade", "resnet50", "resnet10a", c_thresh=c)
            for c in (0.05, 0.3)
        )
        first = run_on_dataset(low, dataset, draws=memo)
        assert len(memo) == bound
        assert (memo.shared, memo.sampled) == (0, frames)
        second = run_on_dataset(high, dataset, draws=memo)
        assert len(memo) == bound
        assert (memo.shared, memo.sampled) == (bound, 2 * frames - bound)
        assert run_to_dict(first) == run_to_dict(run_on_dataset(low, dataset))
        assert run_to_dict(second) == run_to_dict(run_on_dataset(high, dataset))
