"""Unit tests for the mean Delay metric (paper §5)."""

import numpy as np
import pytest

from repro.metrics.delay import (
    DelayEvaluation,
    TrackDelayRecord,
    _at_least,
    delay_at_threshold,
    mean_delay_at_precision,
    threshold_for_precision,
)


def record(scores, cared=True):
    r = TrackDelayRecord()
    for i, s in enumerate(scores):
        r.append(i, s, cared=cared)
    return r


class TestTrackDelayRecord:
    def test_detected_first_frame(self):
        assert record([0.9, 0.9]).delay_at(0.5) == 0

    def test_detected_third_frame(self):
        assert record([-np.inf, 0.3, 0.9]).delay_at(0.5) == 2

    def test_never_detected_full_length(self):
        assert record([0.1, 0.2, 0.1]).delay_at(0.5) == 3

    def test_threshold_sensitivity(self):
        r = record([0.4, 0.6, 0.9])
        assert r.delay_at(0.3) == 0
        assert r.delay_at(0.5) == 1
        assert r.delay_at(0.8) == 2

    def test_figure5_example(self):
        """Paper Figure 5: detected in frames 1-3 of 5, delay 1."""
        r = record([-np.inf, 0.9, 0.9, 0.9, -np.inf])
        assert r.delay_at(0.5) == 1

    def test_ever_cared_tracking(self):
        r = TrackDelayRecord()
        r.append(0, 0.5, cared=False)
        assert not r.ever_cared
        r.append(1, 0.5, cared=True)
        assert r.ever_cared


class TestPrecisionAndThreshold:
    def _evaluation(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
        tp = np.array([True, True, False, True, False, False])
        return DelayEvaluation(scores=scores, tp=tp, tracks=[record([0.9])])

    def test_precision_at(self):
        e = self._evaluation()
        assert e.precision_at(0.85) == pytest.approx(1.0)
        assert e.precision_at(0.65) == pytest.approx(2 / 3)
        assert e.precision_at(0.0) == pytest.approx(0.5)

    def test_precision_empty_is_one(self):
        e = self._evaluation()
        assert e.precision_at(0.99) == 1.0

    def test_threshold_for_precision_hits_target(self):
        e = self._evaluation()
        t = threshold_for_precision([e], beta=1.0)
        assert e.precision_at(t) == pytest.approx(1.0)

    def test_threshold_prefers_lower_on_tie(self):
        scores = np.array([0.9, 0.5])
        tp = np.array([True, True])
        e = DelayEvaluation(scores=scores, tp=tp, tracks=[])
        t = threshold_for_precision([e], beta=1.0)
        assert t <= 0.5  # precision is 1.0 everywhere; lowest wins

    def test_invalid_beta(self):
        with pytest.raises(ValueError, match="beta"):
            threshold_for_precision([self._evaluation()], beta=0.0)

    def test_empty_class_list_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            threshold_for_precision([], beta=0.8)


class TestMeanDelay:
    def test_average_over_classes(self):
        c0 = DelayEvaluation(
            scores=np.array([0.9]),
            tp=np.array([True]),
            tracks=[record([0.9, 0.9]), record([-np.inf, 0.9])],
        )
        c1 = DelayEvaluation(
            scores=np.array([0.9]),
            tp=np.array([True]),
            tracks=[record([-np.inf, -np.inf, 0.9])],
        )
        # class 0 mean delay = (0 + 1)/2 = 0.5; class 1 = 2.0 -> mean 1.25
        assert delay_at_threshold([c0, c1], 0.5) == pytest.approx(1.25)

    def test_classes_without_tracks_skipped(self):
        c0 = DelayEvaluation(
            scores=np.array([0.9]), tp=np.array([True]), tracks=[record([0.9])]
        )
        c1 = DelayEvaluation(scores=np.array([0.9]), tp=np.array([True]), tracks=[])
        assert delay_at_threshold([c0, c1], 0.5) == pytest.approx(0.0)

    def test_mean_delay_at_precision_returns_threshold(self):
        c = DelayEvaluation(
            scores=np.array([0.9, 0.8, 0.2]),
            tp=np.array([True, True, False]),
            tracks=[record([0.9])],
        )
        delay, t = mean_delay_at_precision([c], beta=1.0)
        assert delay == 0.0
        assert c.precision_at(t) == 1.0

    def test_higher_beta_never_lowers_delay(self):
        rng = np.random.default_rng(1)
        scores = rng.random(300)
        tp = rng.random(300) < scores  # score-correlated correctness
        tracks = [record(list(rng.random(10) * s)) for s in rng.random(20)]
        e = DelayEvaluation(scores=scores, tp=tp, tracks=tracks)
        d_low, _ = mean_delay_at_precision([e], beta=0.5)
        d_high, _ = mean_delay_at_precision([e], beta=0.9)
        assert d_high >= d_low - 1e-9


def _loop_threshold_for_precision(per_class, beta, num_candidates):
    """The per-threshold mask loop the one-pass search replaced."""
    pooled = np.concatenate([c.scores for c in per_class])
    if pooled.size == 0:
        return 0.0
    qs = np.quantile(pooled, np.linspace(0.0, 1.0, num_candidates))
    candidates = np.unique(np.concatenate([[0.0], qs, [pooled.max() + 1e-9]]))
    best_t = candidates[0]
    best_err = np.inf
    for t in candidates:
        mean_prec = float(np.mean([c.precision_at(t) for c in per_class]))
        err = abs(mean_prec - beta)
        if err < best_err - 1e-12:
            best_err = err
            best_t = t
    return float(best_t)


def _random_class(rng):
    """Scores with ties, quantisation, NaN and -inf; possibly empty."""
    n = int(rng.choice([0, 1, 2, 5, 12, 30]))
    scores = rng.random(n)
    if rng.random() < 0.6:
        scores = np.round(scores * rng.choice([2, 4, 10])) / 10
    if n and rng.random() < 0.25:
        scores[rng.random(n) < 0.2] = np.nan
    if n and rng.random() < 0.25:
        scores[rng.random(n) < 0.2] = -np.inf
    tp = rng.random(n) < rng.random()
    return DelayEvaluation(scores=scores, tp=tp, tracks=[])


class TestThresholdSearchOracle:
    @pytest.mark.parametrize("num_candidates", [8, 64, 512])
    def test_equals_per_threshold_loop(self, num_candidates):
        rng = np.random.default_rng(num_candidates)
        seen = {"empty": 0, "nan": 0, "neg_inf": 0, "beta_one": 0}
        for _ in range(1000):
            per_class = [_random_class(rng) for _ in range(int(rng.integers(1, 4)))]
            beta = float(rng.choice([0.1, 0.5, 0.8, 0.9, 1.0, rng.uniform(0.05, 1.0)]))
            with np.errstate(invalid="ignore"):  # quantiles next to -inf
                fast = threshold_for_precision(
                    per_class, beta, num_candidates=num_candidates
                )
                loop = _loop_threshold_for_precision(per_class, beta, num_candidates)
            # NaN scores make every quantile NaN, and a NaN candidate can win.
            assert fast == loop or (np.isnan(fast) and np.isnan(loop))
            pooled = np.concatenate([c.scores for c in per_class])
            seen["empty"] += any(c.scores.size == 0 for c in per_class)
            seen["nan"] += bool(np.isnan(pooled).any())
            seen["neg_inf"] += bool(np.isneginf(pooled).any())
            seen["beta_one"] += beta == 1.0
        assert min(seen.values()) >= 50, seen

    def test_nan_scores_never_count(self):
        precision, hits = _at_least(
            np.array([np.nan, 0.9, np.nan, 0.4]),
            np.array([True, True, True, False]),
            np.array([0.0, 0.5, 0.95, np.nan]),
        )
        assert hits.tolist() == [1, 1, 0, 0]
        assert precision.tolist() == [0.5, 1.0, 1.0, 1.0]
