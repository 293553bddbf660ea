"""Unit tests for NMS variants."""

import numpy as np
import pytest

from repro.boxes.nms import class_aware_nms, nms, soft_nms
from repro.boxes.reference import scalar_nms


class TestNms:
    def test_keeps_highest_scoring_duplicate(self):
        boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11], [50, 50, 60, 60]])
        scores = np.array([0.9, 0.8, 0.7])
        keep = nms(boxes, scores, 0.5)
        assert 0 in keep and 2 in keep and 1 not in keep

    def test_no_suppression_below_threshold(self):
        boxes = np.array([[0, 0, 10, 10], [8, 8, 20, 20]])
        scores = np.array([0.9, 0.8])
        keep = nms(boxes, scores, 0.5)
        assert len(keep) == 2

    def test_returns_descending_score_order(self):
        boxes = np.array([[0, 0, 5, 5], [20, 20, 30, 30], [50, 50, 60, 60]])
        scores = np.array([0.1, 0.9, 0.5])
        keep = nms(boxes, scores, 0.5)
        assert scores[keep].tolist() == sorted(scores.tolist(), reverse=True)

    def test_empty(self):
        assert nms(np.zeros((0, 4)), np.zeros(0)).shape == (0,)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            nms(np.zeros((2, 4)), np.zeros(3))

    def test_invalid_threshold_raises(self):
        with pytest.raises(ValueError, match="iou_threshold"):
            nms(np.zeros((1, 4)), np.zeros(1), iou_threshold=1.5)

    def test_identical_boxes_keep_one(self):
        boxes = np.tile(np.array([[0.0, 0.0, 10.0, 10.0]]), (5, 1))
        scores = np.linspace(0.5, 0.9, 5)
        keep = nms(boxes, scores, 0.5)
        assert len(keep) == 1
        assert scores[keep[0]] == pytest.approx(0.9)


class TestClassAwareNms:
    def test_different_classes_not_suppressed(self):
        boxes = np.array([[0, 0, 10, 10], [0, 0, 10, 10]])
        scores = np.array([0.9, 0.8])
        labels = np.array([0, 1])
        keep = class_aware_nms(boxes, scores, labels, 0.5)
        assert len(keep) == 2

    def test_same_class_suppressed(self):
        boxes = np.array([[0, 0, 10, 10], [0, 0, 10, 10]])
        scores = np.array([0.9, 0.8])
        labels = np.array([0, 0])
        keep = class_aware_nms(boxes, scores, labels, 0.5)
        assert len(keep) == 1

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="equal length"):
            class_aware_nms(np.zeros((2, 4)), np.zeros(2), np.zeros(3))

    def test_bad_threshold_raises_with_one_box(self):
        with pytest.raises(ValueError, match="iou_threshold"):
            class_aware_nms(np.zeros((1, 4)), np.ones(1), np.zeros(1), 1.5)

    @staticmethod
    def _per_label_oracle(boxes, scores, labels, iou_threshold):
        """Scalar NMS once per label, kept set re-sorted by stable score."""
        kept = [np.zeros(0, dtype=np.int64)]
        for label in np.unique(labels):
            idx = np.flatnonzero(labels == label)
            kept.append(idx[scalar_nms(boxes[idx], scores[idx], iou_threshold)])
        kept = np.sort(np.concatenate(kept))
        return kept[np.argsort(-scores[kept], kind="stable")]

    def test_matches_per_label_scalar_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(300):
            n = int(rng.integers(0, 41))
            centers = rng.uniform(0, 120, size=(n, 2))
            sizes = rng.uniform(5, 40, size=(n, 2))
            boxes = np.concatenate([centers - sizes / 2, centers + sizes / 2], axis=1)
            if n > 1:  # duplicated boxes
                dup = rng.integers(0, n, size=n // 4)
                boxes[rng.integers(0, n, size=dup.size)] = boxes[dup]
            # Few distinct score values, so ties are common.
            scores = rng.choice(np.linspace(0.1, 0.9, int(rng.integers(1, 6))), size=n)
            labels = rng.integers(0, int(rng.integers(1, 5)), size=n)
            for thr in (0.0, 0.5, 1.0):
                got = class_aware_nms(boxes, scores, labels, thr)
                want = self._per_label_oracle(boxes, scores, labels, thr)
                assert got.dtype == np.int64, trial
                np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}, thr {thr}")


class TestSoftNms:
    def test_decays_overlapping_scores(self):
        boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11]])
        scores = np.array([0.9, 0.8])
        keep, decayed = soft_nms(boxes, scores, iou_threshold=0.3)
        assert keep[0] == 0
        # Second box survives but with a reduced score.
        idx = list(keep).index(1)
        assert decayed[idx] < 0.8

    def test_disjoint_scores_unchanged(self):
        boxes = np.array([[0, 0, 10, 10], [100, 100, 110, 110]])
        scores = np.array([0.9, 0.8])
        _, decayed = soft_nms(boxes, scores)
        np.testing.assert_allclose(sorted(decayed, reverse=True), [0.9, 0.8])

    def test_score_threshold_drops_tail(self):
        boxes = np.tile(np.array([[0.0, 0.0, 10.0, 10.0]]), (3, 1))
        scores = np.array([0.9, 0.88, 0.86])
        keep, _ = soft_nms(boxes, scores, sigma=0.05, score_threshold=0.5)
        assert len(keep) < 3

    def test_bad_sigma_raises(self):
        with pytest.raises(ValueError, match="sigma"):
            soft_nms(np.zeros((1, 4)), np.zeros(1), sigma=0.0)
