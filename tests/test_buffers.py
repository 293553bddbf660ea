"""Columnar accumulators: DetectionsBuffer and FrameResultBuffer.

Both must round-trip appended values bit-identically and behave like the
plain-list containers they replaced (len/iter/index/slice/zip).
"""

import numpy as np
import pytest

from repro.core.results import FrameResult, FrameResultBuffer, FrameTiming, OpsAccount
from repro.detections import Detections, DetectionsBuffer


def _dets(rng, n):
    xy = rng.uniform(0, 500, size=(n, 2))
    return Detections(
        np.concatenate([xy, xy + rng.uniform(5, 80, size=(n, 2))], axis=1),
        rng.uniform(0, 1, size=n),
        rng.integers(0, 4, size=n),
    )


class TestDetectionsBuffer:
    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(0)
        frames = [_dets(rng, int(n)) for n in rng.integers(0, 12, size=40)]
        buf = DetectionsBuffer(capacity_rows=4, capacity_frames=2)  # force growth
        for d in frames:
            buf.append(d)
        assert len(buf) == len(frames)
        assert buf.num_rows == sum(len(d) for d in frames)
        for i, d in enumerate(frames):
            got = buf.frame(i)
            np.testing.assert_array_equal(got.boxes, d.boxes)
            np.testing.assert_array_equal(got.scores, d.scores)
            np.testing.assert_array_equal(got.labels, d.labels)

    def test_track_ids_stored_and_defaulted(self):
        rng = np.random.default_rng(1)
        buf = DetectionsBuffer()
        buf.append(_dets(rng, 3), track_ids=np.array([7, 8, 9]))
        buf.append(_dets(rng, 2))
        np.testing.assert_array_equal(buf.frame_track_ids(0), [7, 8, 9])
        np.testing.assert_array_equal(buf.frame_track_ids(1), [-1, -1])

    def test_track_id_length_validated(self):
        buf = DetectionsBuffer()
        with pytest.raises(ValueError, match="track_ids"):
            buf.append(_dets(np.random.default_rng(2), 3), track_ids=np.array([1]))

    def test_negative_and_out_of_range_index(self):
        rng = np.random.default_rng(3)
        frames = [_dets(rng, 2), _dets(rng, 5)]
        buf = DetectionsBuffer()
        for d in frames:
            buf.append(d)
        np.testing.assert_array_equal(buf.frame(-1).boxes, frames[-1].boxes)
        with pytest.raises(IndexError):
            buf.frame(2)
        with pytest.raises(IndexError):
            buf.frame(-3)

    def test_column_views_concatenate_in_order(self):
        rng = np.random.default_rng(4)
        frames = [_dets(rng, 3), _dets(rng, 0), _dets(rng, 4)]
        buf = DetectionsBuffer()
        for d in frames:
            buf.append(d)
        columns = buf.to_columns()
        for name in ("boxes", "scores", "labels"):
            np.testing.assert_array_equal(
                columns[name], np.concatenate([getattr(d, name) for d in frames])
            )
        np.testing.assert_array_equal(columns["offsets"], [0, 3, 3, 7])


def _frame_result(rng, frame, timed):
    return FrameResult(
        frame=frame,
        detections=_dets(rng, int(rng.integers(0, 8))),
        ops=OpsAccount(
            proposal=float(rng.uniform(0, 1e9)),
            refinement=float(rng.uniform(0, 1e9)),
            refinement_from_tracker=float(rng.uniform(0, 1e9)),
            refinement_from_proposal=float(rng.uniform(0, 1e9)),
        ),
        num_regions=int(rng.integers(0, 20)),
        coverage_fraction=float(rng.uniform(0, 1)),
        timing=FrameTiming(
            gpu_seconds=float(rng.uniform(0, 0.1)),
            cpu_seconds=float(rng.uniform(0, 0.1)),
            num_launches=float(rng.integers(1, 9)),
        )
        if timed
        else None,
    )


class TestFrameResultBuffer:
    def _filled(self, n=50, timed_every=3):
        rng = np.random.default_rng(5)
        originals = [
            _frame_result(rng, i, timed=(i % timed_every == 0)) for i in range(n)
        ]
        buf = FrameResultBuffer(capacity=2)  # force growth
        for r in originals:
            buf.append(r)
        return originals, buf

    def test_round_trip_bit_identical(self):
        originals, buf = self._filled()
        assert len(buf) == len(originals)
        for got, want in zip(buf, originals):
            assert got.frame == want.frame
            np.testing.assert_array_equal(got.detections.boxes, want.detections.boxes)
            np.testing.assert_array_equal(got.detections.scores, want.detections.scores)
            np.testing.assert_array_equal(got.detections.labels, want.detections.labels)
            assert got.ops.proposal == want.ops.proposal
            assert got.ops.refinement == want.ops.refinement
            assert got.ops.refinement_from_tracker == want.ops.refinement_from_tracker
            assert got.ops.refinement_from_proposal == want.ops.refinement_from_proposal
            assert got.num_regions == want.num_regions
            assert got.coverage_fraction == want.coverage_fraction
            if want.timing is None:
                assert got.timing is None
            else:
                assert got.timing == want.timing

    def test_sequence_protocol(self):
        originals, buf = self._filled(n=10)
        assert buf[0].frame == originals[0].frame
        assert buf[-1].frame == originals[-1].frame
        assert [r.frame for r in buf[2:5]] == [2, 3, 4]
        assert isinstance(buf[2:5], list)
        with pytest.raises(IndexError):
            buf[10]
        assert len(list(zip(buf, originals))) == 10

    def test_materialized_results_are_independent(self):
        _, buf = self._filled(n=4)
        a, b = buf[1], buf[1]
        a.ops.proposal = -1.0
        assert b.ops.proposal != -1.0

    def test_concat_then_split_restores_each_list(self, edge_frames, frame_bytes):
        originals, _ = self._filled(n=7)
        lists = [edge_frames, [], originals, edge_frames[:1]]
        table = FrameResultBuffer.concat(lists)
        assert len(table) == sum(len(frames) for frames in lists)
        parts = table.split([len(frames) for frames in lists])
        assert [frame_bytes(part) for part in parts] == [frame_bytes(f) for f in lists]
        for part, frames in zip(parts, lists):
            again = FrameResultBuffer.of(frames).to_columns()
            assert all(
                part.to_columns()[name].tobytes() == column.tobytes()
                for name, column in again.items()
            )
        with pytest.raises(ValueError):
            table.split([1, 2])

    def test_inconsistent_columns_are_rejected(self):
        _, buf = self._filled(n=5)
        columns = buf.to_columns()
        for name, cut in (("frame", 4), ("ops", 3), ("scores", 1), ("offsets", 5)):
            broken = {**columns, name: columns[name][:cut]}
            with pytest.raises(ValueError):
                FrameResultBuffer.from_columns(broken)
        rebuilt = FrameResultBuffer.from_columns(columns)
        assert [r.frame for r in rebuilt] == [r.frame for r in buf]
