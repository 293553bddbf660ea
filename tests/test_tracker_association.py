"""Unit tests for per-class Hungarian association (paper §4.1)."""

import numpy as np
import pytest

from repro.tracker.association import associate, associate_per_class


class TestAssociate:
    def test_perfect_match(self):
        tracks = np.array([[0, 0, 10, 10], [50, 50, 60, 60]])
        dets = np.array([[51, 51, 61, 61], [1, 1, 11, 11]])
        res = associate(tracks, dets)
        matches = {tuple(m) for m in res.matches.tolist()}
        assert matches == {(0, 1), (1, 0)}
        assert res.unmatched_tracks.size == 0
        assert res.unmatched_detections.size == 0

    def test_empty_tracks(self):
        dets = np.array([[0, 0, 10, 10]])
        res = associate(np.zeros((0, 4)), dets)
        assert res.matches.shape == (0, 2)
        assert res.unmatched_detections.tolist() == [0]

    def test_empty_detections(self):
        tracks = np.array([[0, 0, 10, 10]])
        res = associate(tracks, np.zeros((0, 4)))
        assert res.unmatched_tracks.tolist() == [0]

    def test_iou_gate_severs_weak_pairs(self):
        tracks = np.array([[0, 0, 10, 10]])
        dets = np.array([[9, 9, 20, 20]])  # tiny overlap
        res = associate(tracks, dets, iou_threshold=0.3)
        assert res.matches.shape[0] == 0
        assert res.unmatched_tracks.tolist() == [0]
        assert res.unmatched_detections.tolist() == [0]

    def test_beta_zero_allows_any_positive_overlap(self):
        tracks = np.array([[0, 0, 10, 10]])
        dets = np.array([[9, 9, 20, 20]])
        res = associate(tracks, dets, iou_threshold=0.0)
        assert res.matches.shape[0] == 1

    def test_disjoint_never_matched_even_at_beta_zero(self):
        tracks = np.array([[0, 0, 10, 10]])
        dets = np.array([[100, 100, 110, 110]])
        res = associate(tracks, dets, iou_threshold=0.0)
        assert res.matches.shape[0] == 0

    def test_maximizes_total_iou(self):
        # Greedy would pair track0 with det0 (IoU .58); optimal pairs differ.
        tracks = np.array([[0.0, 0.0, 10.0, 10.0], [4.0, 0.0, 14.0, 10.0]])
        dets = np.array([[3.0, 0.0, 13.0, 10.0], [5.0, 0.0, 15.0, 10.0]])
        res = associate(tracks, dets)
        matches = dict(res.matches.tolist())
        assert matches == {0: 0, 1: 1}


    def test_unmatched_sets_equal_set_differences(self):
        rng = np.random.default_rng(5)
        for trial in range(200):
            n, m = rng.integers(0, 12, size=2)
            tracks = _random_boxes(rng, n)
            dets = _random_boxes(rng, m)
            res = associate(tracks, dets, iou_threshold=float(rng.choice([0.0, 0.3])))
            for got, size, matched in (
                (res.unmatched_tracks, n, res.matches[:, 0]),
                (res.unmatched_detections, m, res.matches[:, 1]),
            ):
                assert got.dtype == np.int64, trial
                np.testing.assert_array_equal(got, np.setdiff1d(np.arange(size), matched))


def _random_boxes(rng, n):
    corners = rng.uniform(0, 100, size=(n, 2))
    return np.concatenate([corners, corners + rng.uniform(5, 30, size=(n, 2))], axis=1)


class TestAssociatePerClass:
    def test_classes_never_cross_match(self):
        tracks = np.array([[0, 0, 10, 10]])
        track_labels = np.array([0])
        dets = np.array([[0, 0, 10, 10]])
        det_labels = np.array([1])
        res = associate_per_class(tracks, track_labels, dets, det_labels)
        assert res.matches.shape[0] == 0
        assert res.unmatched_tracks.tolist() == [0]
        assert res.unmatched_detections.tolist() == [0]

    def test_indices_refer_to_full_arrays(self):
        tracks = np.array([[0, 0, 10, 10], [100, 100, 120, 120]])
        track_labels = np.array([0, 1])
        dets = np.array([[101, 101, 121, 121], [1, 1, 11, 11]])
        det_labels = np.array([1, 0])
        res = associate_per_class(tracks, track_labels, dets, det_labels)
        matches = {tuple(m) for m in res.matches.tolist()}
        assert matches == {(0, 1), (1, 0)}

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="track_boxes"):
            associate_per_class(
                np.zeros((2, 4)), np.zeros(1), np.zeros((0, 4)), np.zeros(0)
            )

    def test_all_empty(self):
        res = associate_per_class(
            np.zeros((0, 4)), np.zeros(0), np.zeros((0, 4)), np.zeros(0)
        )
        assert res.matches.shape == (0, 2)
