"""Unit tests for Average Precision."""

import numpy as np
import pytest

from repro.metrics.ap import _pr_points, average_precision, interpolated_precision_at


class TestAveragePrecision:
    def test_perfect_detector(self):
        scores = np.array([0.9, 0.8, 0.7])
        tp = np.array([True, True, True])
        for method in ("voc11", "r40", "continuous"):
            assert average_precision(scores, tp, 3, method=method) == pytest.approx(1.0)

    def test_all_false_positives(self):
        scores = np.array([0.9, 0.8])
        tp = np.array([False, False])
        assert average_precision(scores, tp, 5) == 0.0

    def test_no_detections(self):
        assert average_precision(np.zeros(0), np.zeros(0, dtype=bool), 5) == 0.0

    def test_no_ground_truth(self):
        assert average_precision(np.array([0.5]), np.array([True]), 0) == 0.0

    def test_half_recall_perfect_precision(self):
        # 5 TPs out of 10 GT, no FPs: precision 1 up to recall .5, 0 beyond.
        scores = np.linspace(0.9, 0.5, 5)
        tp = np.ones(5, dtype=bool)
        ap11 = average_precision(scores, tp, 10, method="voc11")
        assert ap11 == pytest.approx(6 / 11)  # recalls 0.0..0.5 -> 6 points
        cont = average_precision(scores, tp, 10, method="continuous")
        assert cont == pytest.approx(0.5)

    def test_fp_before_tp_hurts(self):
        tp_first = average_precision(
            np.array([0.9, 0.8]), np.array([True, False]), 1
        )
        fp_first = average_precision(
            np.array([0.9, 0.8]), np.array([False, True]), 1
        )
        assert fp_first < tp_first

    def test_score_order_not_input_order(self):
        """AP must sort by score internally."""
        scores = np.array([0.5, 0.9])
        tp = np.array([False, True])  # the higher-scored one is the TP
        ap = average_precision(scores, tp, 1, method="continuous")
        assert ap == pytest.approx(1.0)

    def test_r40_finer_than_voc11(self):
        rng = np.random.default_rng(0)
        scores = rng.random(200)
        tp = rng.random(200) < 0.6
        ap11 = average_precision(scores, tp, 150, method="voc11")
        ap40 = average_precision(scores, tp, 150, method="r40")
        cont = average_precision(scores, tp, 150, method="continuous")
        # All three agree within a few points on a smooth curve.
        assert abs(ap40 - cont) < 0.05
        assert abs(ap11 - cont) < 0.08

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown AP method"):
            average_precision(np.array([0.5]), np.array([True]), 1, method="x")

    def test_negative_gt_raises(self):
        with pytest.raises(ValueError, match="num_gt"):
            average_precision(np.array([0.5]), np.array([True]), -1)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            average_precision(np.zeros(2), np.zeros(3, dtype=bool), 5)


class TestInterpolatedPrecision:
    def test_at_zero_recall_is_max_precision(self):
        scores = np.array([0.9, 0.8, 0.7])
        tp = np.array([True, False, True])
        p = interpolated_precision_at(scores, tp, 2, 0.0)
        assert p == pytest.approx(1.0)

    def test_beyond_max_recall_zero(self):
        scores = np.array([0.9])
        tp = np.array([True])
        assert interpolated_precision_at(scores, tp, 10, 0.9) == 0.0

    def test_invalid_recall_level(self):
        with pytest.raises(ValueError, match="recall_level"):
            interpolated_precision_at(np.zeros(1), np.zeros(1, dtype=bool), 1, 1.5)


def _loop_interpolated_ap(scores, tp, num_gt, levels):
    """The per-level mask loop the suffix-max envelope replaced."""
    if num_gt == 0 or scores.size == 0:
        return 0.0
    precision, recall = _pr_points(scores, tp, num_gt)
    ap = 0.0
    for r in levels:
        mask = recall >= r
        p = float(precision[mask].max()) if mask.any() else 0.0
        ap += p / float(len(levels))
    return min(ap, 1.0)


class TestInterpolationOracle:
    @pytest.mark.parametrize(
        "method, levels",
        [("voc11", np.linspace(0.0, 1.0, 11)), ("r40", np.linspace(0.025, 1.0, 40))],
    )
    def test_equals_per_level_loop(self, method, levels):
        rng = np.random.default_rng(len(levels))
        for _ in range(2000):
            n = int(rng.choice([0, 1, 2, 5, 30, 200]))
            scores = rng.random(n)
            if rng.random() < 0.5:
                scores = np.round(scores * 5) / 5  # heavy ties
            tp = rng.random(n) < rng.random()
            num_gt = int(rng.integers(0, n + 5)) if rng.random() < 0.8 else int(tp.sum())
            assert average_precision(scores, tp, num_gt, method=method) == (
                _loop_interpolated_ap(scores, tp, num_gt, levels)
            )
