"""Unit tests for the ground-truth data model."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.boxes.box import clip_boxes
from repro.datasets.kitti import kitti_like_dataset, kitti_world_config
from repro.datasets.synth import SyntheticWorldConfig, generate_sequence
from repro.datasets.types import ClassSpec, Dataset, ObjectTrack, Sequence


def _track(track_id=0, label=0, first=2, length=5, x0=100.0):
    boxes = np.stack(
        [np.array([x0 + 3 * t, 50.0, x0 + 3 * t + 40.0, 90.0]) for t in range(length)]
    )
    return ObjectTrack(
        track_id=track_id,
        label=label,
        first_frame=first,
        boxes=boxes,
        occlusion=np.zeros(length),
        truncation=np.zeros(length),
    )


class TestObjectTrack:
    def test_length_and_last_frame(self):
        t = _track(first=2, length=5)
        assert t.length == 5
        assert t.last_frame == 6

    def test_frame_index(self):
        t = _track(first=2, length=5)
        assert t.frame_index(2) == 0
        assert t.frame_index(6) == 4
        assert t.frame_index(1) is None
        assert t.frame_index(7) is None

    def test_box_at(self):
        t = _track(first=2, length=5, x0=100.0)
        np.testing.assert_allclose(t.box_at(3), [103, 50, 143, 90])
        assert t.box_at(0) is None

    def test_mismatched_arrays_raise(self):
        with pytest.raises(ValueError, match="equal length"):
            ObjectTrack(0, 0, 0, np.zeros((3, 4)), np.zeros(2), np.zeros(3))

    def test_negative_first_frame_raises(self):
        with pytest.raises(ValueError, match="first_frame"):
            ObjectTrack(0, 0, -1, np.zeros((1, 4)), np.zeros(1), np.zeros(1))


class TestSequence:
    def test_annotations_collects_visible_tracks(self):
        seq = Sequence(
            "s", 200, 100, 10, 10.0, tracks=[_track(0, 0, 2, 5), _track(1, 1, 0, 3)]
        )
        ann = seq.annotations(2)
        assert len(ann) == 2
        assert sorted(ann.track_ids.tolist()) == [0, 1]
        ann5 = seq.annotations(5)
        assert ann5.track_ids.tolist() == [0]
        assert len(seq.annotations(9)) == 0

    def test_annotations_clipped_by_default(self):
        track = _track(0, 0, 0, 1, x0=180.0)  # extends past width 200
        seq = Sequence("s", 200, 100, 5, 10.0, tracks=[track])
        ann = seq.annotations(0)
        assert ann.boxes[0, 2] <= 200.0
        raw = seq.annotations(0, clip=False)
        assert raw.boxes[0, 2] > 200.0

    def test_track_outlives_sequence_raises(self):
        with pytest.raises(ValueError, match="extends"):
            Sequence("s", 200, 100, 3, 10.0, tracks=[_track(0, 0, 0, 5)])

    def test_frame_out_of_range(self):
        seq = Sequence("s", 200, 100, 3, 10.0)
        with pytest.raises(IndexError):
            seq.annotations(3)

    def test_iter_annotations(self):
        seq = Sequence("s", 200, 100, 4, 10.0, tracks=[_track(0, 0, 0, 4)])
        frames = list(seq.iter_annotations())
        assert len(frames) == 4
        assert all(len(f) == 1 for f in frames)


def _per_track_annotations(seq, frame, clip):
    """The per-track construction the frame table replaced (the oracle)."""
    boxes, labels, track_ids, occ, trunc = [], [], [], [], []
    for track in seq.tracks:
        idx = track.frame_index(frame)
        if idx is None:
            continue
        boxes.append(track.boxes[idx])
        labels.append(track.label)
        track_ids.append(track.track_id)
        occ.append(track.occlusion[idx])
        trunc.append(track.truncation[idx])
    box_arr = np.stack(boxes) if boxes else np.zeros((0, 4))
    if clip and box_arr.shape[0]:
        box_arr = clip_boxes(box_arr, seq.width, seq.height)
    return (
        box_arr,
        np.array(labels, dtype=np.int64),
        np.array(track_ids, dtype=np.int64),
        np.array(occ),
        np.array(trunc),
    )


def _sparse_synth_sequences():
    """Synth sequences sparse enough to have empty frames."""
    world = kitti_world_config()
    sparse = SyntheticWorldConfig(
        width=world.width,
        height=world.height,
        fps=world.fps,
        populations=tuple(
            dataclasses.replace(pop, initial_count_mean=0.5, entry_rate=0.03)
            for pop in world.populations
        ),
    )
    return [generate_sequence(sparse, 80, name=f"sparse-{i}", seed=i) for i in range(4)]


def _fields(ann):
    return (ann.boxes, ann.labels, ann.track_ids, ann.occlusion, ann.truncation)


class TestFrameTable:
    @pytest.fixture(scope="class")
    def sequences(self):
        hand = Sequence(
            "hand", 200, 100, 12, 10.0,
            tracks=[_track(0, 0, 2, 5, x0=170.0), _track(1, 1, 0, 3), _track(7, 0, 4, 8)],
        )
        return [hand] + _sparse_synth_sequences() + kitti_like_dataset(
            num_sequences=2, frames_per_sequence=40
        ).sequences

    def test_matches_per_track_construction(self, sequences):
        empty = mid_start = mid_end = 0
        for seq in sequences:
            mid_start += any(t.first_frame > 0 for t in seq.tracks)
            mid_end += any(t.last_frame < seq.num_frames - 1 for t in seq.tracks)
            for frame in range(seq.num_frames):
                for clip in (True, False):
                    ann = seq.annotations(frame, clip=clip)
                    expected = _per_track_annotations(seq, frame, clip)
                    assert ann.frame == frame
                    for got, want in zip(_fields(ann), expected):
                        assert got.dtype == want.dtype and got.shape == want.shape
                        np.testing.assert_array_equal(got, want)
                empty += len(seq.annotations(frame)) == 0
        assert empty and mid_start and mid_end  # the cases worth covering occur

    def test_returned_arrays_are_read_only(self, sequences):
        ann = sequences[0].annotations(3)
        assert len(ann) > 0
        for array in _fields(ann):
            with pytest.raises(ValueError):
                array[...] = 0

    def test_pickle_round_trip_drops_the_table(self, sequences):
        seq = dataclasses.replace(sequences[-1])  # a copy with no table built yet
        cold = pickle.dumps(seq)
        seq.frame_table()
        assert pickle.dumps(seq) == cold  # the built table is not pickled
        restored = pickle.loads(pickle.dumps(seq))
        for frame in range(seq.num_frames):
            for got, want in zip(
                _fields(restored.annotations(frame)), _fields(seq.annotations(frame))
            ):
                np.testing.assert_array_equal(got, want)


class TestDataset:
    def _dataset(self, labeled=None):
        seq = Sequence("s0", 200, 100, 7, 10.0, tracks=[_track()])
        classes = (ClassSpec("Car", 0, 0.7), ClassSpec("Ped", 1, 0.5))
        return Dataset("d", classes, [seq], labeled_frames=labeled)

    def test_class_lookup(self):
        ds = self._dataset()
        assert ds.class_spec(0).name == "Car"
        with pytest.raises(KeyError):
            ds.class_spec(9)

    def test_duplicate_labels_raise(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset("d", (ClassSpec("A", 0), ClassSpec("B", 0)), [])

    def test_evaluation_frames_default_all(self):
        ds = self._dataset()
        assert ds.evaluation_frames(ds.sequences[0]) == list(range(7))

    def test_evaluation_frames_sparse(self):
        ds = self._dataset(labeled={"s0": [3]})
        assert ds.evaluation_frames(ds.sequences[0]) == [3]

    def test_totals(self):
        ds = self._dataset()
        assert ds.total_frames == 7
        assert ds.total_objects == 1
