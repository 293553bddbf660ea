"""Unit tests for the mean Delay metric (paper §5)."""

import numpy as np
import pytest

from repro.metrics.delay import (
    DelayEvaluation,
    TrackDelayRecord,
    TrackDelays,
    _at_least,
    delay_at_threshold,
    mean_delay_at_precision,
    quantiles,
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


def _random_tracks(rng):
    """Tracks with empty ones, ties, -inf misses and NaN scores."""
    records = []
    for _ in range(int(rng.choice([0, 1, 3, 8]))):
        n, grid = int(rng.choice([0, 1, 2, 5, 9])), rng.choice([4, 10, 1000])
        scores = np.round(rng.random(n) * grid) / grid  # ties on coarse grids
        scores[rng.random(n) < 0.3] = -np.inf
        if rng.random() < 0.2:
            scores[rng.random(n) < 0.3] = np.nan
        records.append(TrackDelayRecord(
            sorted(rng.choice(100, n, replace=False).tolist()),
            scores.tolist(),
            bool(rng.random() < 0.8),
        ))
    return records


class TestTrackDelaysOracle:
    """The table's segment reductions against the per-record scalar loop."""

    def test_delays_equal_record_loop(self):
        rng = np.random.default_rng(11)
        seen = {"no_tracks": 0, "empty_track": 0, "nan": 0, "neg_inf": 0, "exact": 0}
        for _ in range(500):
            records = _random_tracks(rng)
            table = TrackDelays.from_records(records)
            pool = np.array([s for r in records for s in r.matched_scores])
            finite = pool[np.isfinite(pool)]
            thresholds = [0.0, 0.5, 1.0, -np.inf, np.nan, *rng.random(3)]
            thresholds += rng.choice(finite, min(3, finite.size)).tolist() if finite.size else []
            for exit in (False, True):
                expected = [
                    [r.exit_delay_at(t) if exit else r.delay_at(t) for r in records]
                    for t in thresholds
                ]
                got = table.delays(thresholds, exit=exit)
                assert got.dtype == np.int64 and got.tolist() == expected
                evaluation = DelayEvaluation(np.zeros(0), np.zeros(0, dtype=bool), records)
                for t, row in zip(thresholds, expected):
                    mean = evaluation.mean_exit_delay(t) if exit else evaluation.mean_delay(t)
                    if records:
                        assert mean == float(np.mean(row))
                    else:
                        assert np.isnan(mean)
            seen["no_tracks"] += not records
            seen["empty_track"] += any(len(r) == 0 for r in records)
            seen["nan"] += bool(np.isnan(pool).any())
            seen["neg_inf"] += bool(np.isneginf(pool).any())
            seen["exact"] += bool(finite.size)
        assert min(seen.values()) >= 25, seen

    def test_iteration_yields_read_only_records(self):
        records = [
            TrackDelayRecord([3, 4, 5], [-np.inf, 0.25, np.nan], True),
            TrackDelayRecord([], [], False),
            TrackDelayRecord([7], [0.5], False),
        ]
        table = TrackDelays.from_records(records)
        assert len(table) == 3 and table and not TrackDelays.from_records([])
        views = list(table)
        for view, record in zip(views, records):
            assert list(view.frames) == record.frames
            assert np.array(view.matched_scores).tobytes() == np.array(record.matched_scores).tobytes()
            assert view.ever_cared == record.ever_cared
        with pytest.raises(AttributeError):
            views[0].append(8, 0.9)
        assert TrackDelays.from_records(table) is table
        assert DelayEvaluation(np.zeros(0), np.zeros(0, dtype=bool), records).tracks.frames.tolist() == [3, 4, 5, 7]

    @pytest.mark.parametrize("damage", ["offset start", "offset end", "decreasing", "cared length", "scores length"])
    def test_inconsistent_columns_raise(self, damage):
        offsets, frames = np.array([0, 2, 3]), np.array([0, 1, 5])
        scores, cared = np.array([0.1, 0.2, 0.3]), np.array([True, True])
        if damage == "offset start":
            offsets = np.array([1, 2, 3])
        elif damage == "offset end":
            offsets = np.array([0, 2, 4])
        elif damage == "decreasing":
            offsets = np.array([0, 3, 2, 3])
            cared = np.array([True, True, True])
        elif damage == "cared length":
            cared = np.array([True])
        else:
            scores = scores[:2]
        with pytest.raises(ValueError, match="inconsistent"):
            TrackDelays(offsets, frames, scores, cared)


class TestExactQuantiles:
    def test_bit_equal_to_np_quantile(self):
        rng = np.random.default_rng(5)
        q = np.linspace(0.0, 1.0, 512)
        cases = [np.array([0.3]), np.full(7, 0.25), np.array([0.1, np.nan, 0.2]),
                 np.array([-np.inf, 0.5, 0.5]), np.array([np.nan])]
        for _ in range(500):
            n = int(rng.integers(1, 300))
            values = rng.random(n)
            if rng.random() < 0.5:
                values = np.round(values * rng.choice([2, 5, 20])) / 20  # heavy ties
            if rng.random() < 0.1:
                values[rng.random(n) < 0.1] = -np.inf
            if rng.random() < 0.1:
                values[rng.random(n) < 0.1] = np.nan
            cases.append(values)
        for values in cases:
            for qs in (q, np.linspace(0.0, 1.0, int(rng.integers(2, 70))), np.sort(rng.random(9))):
                with np.errstate(invalid="ignore"):  # quantiles next to -inf
                    expected = np.quantile(values, qs)
                    got = quantiles(values, qs)
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes()


class TestThresholdTieBand:
    def test_errors_within_tie_band_match_the_full_scan(self):
        """beta midway between two candidates' precisions (plus a nudge
        below 1e-12) puts their errors inside the tie band."""
        rng = np.random.default_rng(23)
        seen = 0
        for _ in range(500):
            per_class = [_random_class(rng) for _ in range(int(rng.integers(1, 4)))]
            pooled = np.concatenate([c.scores for c in per_class])
            candidates = np.unique(np.concatenate([[0.0], pooled[np.isfinite(pooled)], [2.0]]))
            mean_precision = np.mean(
                [[c.precision_at(t) for c in per_class] for t in candidates], axis=1
            )
            distinct = np.unique(mean_precision)
            if distinct.size < 2:
                continue
            a, b = rng.choice(distinct, 2, replace=False)
            beta = float((a + b) / 2 + rng.choice([-4e-13, 0.0, 4e-13]))
            with np.errstate(invalid="ignore"):
                fast = threshold_for_precision(per_class, beta)
                loop = _loop_threshold_for_precision(per_class, beta, 512)
            assert fast == loop or (np.isnan(fast) and np.isnan(loop))
            errors = np.abs(mean_precision - beta)
            seen += bool((np.abs(errors - errors.min()) < 1e-12).sum() > 1)
        assert seen >= 100
