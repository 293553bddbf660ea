"""Unit + integration tests for dataset-level evaluation."""

import numpy as np
import pytest

from repro.datasets.types import ClassSpec, Dataset, ObjectTrack, Sequence
from repro.detections import Detections
from repro.metrics.curves import CurvePoint, precision_recall_delay_curves
from repro.metrics.delay import TrackDelayRecord
from repro.metrics.evaluate import ClassEvaluation, evaluate_dataset
from repro.metrics.kitti_eval import EASY, HARD, MODERATE, care_mask


def _perfect_world():
    """One sequence, one large unoccluded object, 5 frames."""
    boxes = np.stack([np.array([100.0, 100.0, 200.0, 180.0])] * 5)
    track = ObjectTrack(0, 0, 0, boxes, np.zeros(5), np.zeros(5))
    seq = Sequence("s", 400, 300, 5, 10.0, tracks=[track])
    return Dataset("d", (ClassSpec("Car", 0, 0.7),), [seq])


def _perfect_detections(dataset, score=0.9):
    out = {}
    for seq in dataset.sequences:
        frames = []
        for f in range(seq.num_frames):
            ann = seq.annotations(f)
            frames.append(
                Detections(ann.boxes, np.full(len(ann), score), ann.labels)
            )
        out[seq.name] = frames
    return out


class TestEvaluateDataset:
    def test_perfect_detector_perfect_scores(self):
        ds = _perfect_world()
        res = evaluate_dataset(ds, _perfect_detections(ds), HARD)
        assert res.mean_ap() == pytest.approx(1.0)
        assert res.mean_delay(0.8) == 0.0

    def test_missing_sequence_raises(self):
        ds = _perfect_world()
        with pytest.raises(KeyError, match="missing sequence"):
            evaluate_dataset(ds, {}, HARD)

    def test_wrong_frame_count_raises(self):
        ds = _perfect_world()
        with pytest.raises(ValueError, match="frames"):
            evaluate_dataset(ds, {"s": [Detections.empty()]}, HARD)

    def test_blind_detector_zero_ap_max_delay(self):
        ds = _perfect_world()
        results = {"s": [Detections.empty()] * 5}
        res = evaluate_dataset(ds, results, HARD)
        assert res.mean_ap() == 0.0
        assert res.mean_delay(0.8) == 5.0  # undetected = full track length

    def test_late_detection_delay(self):
        ds = _perfect_world()
        perfect = _perfect_detections(ds)["s"]
        results = {"s": [Detections.empty(), Detections.empty()] + perfect[2:]}
        res = evaluate_dataset(ds, results, HARD)
        assert res.mean_delay(0.8) == 2.0

    def test_sparse_labels_restrict_evaluation(self):
        ds = _perfect_world()
        ds.labeled_frames = {"s": [2]}
        # Detections only on frame 2; other frames empty — AP unaffected.
        perfect = _perfect_detections(ds)["s"]
        results = {"s": [Detections.empty()] * 2 + [perfect[2]] + [Detections.empty()] * 2}
        res = evaluate_dataset(ds, results, HARD, with_delay=False)
        assert res.mean_ap() == pytest.approx(1.0)

    def test_class_eval_lookup(self):
        ds = _perfect_world()
        res = evaluate_dataset(ds, _perfect_detections(ds), HARD)
        assert res.class_eval("Car").num_gt == 5
        with pytest.raises(KeyError):
            res.class_eval("Plane")

    @pytest.mark.parametrize("difficulty", [EASY, HARD])
    def test_track_table_equals_per_gt_records(self, kitti_small, difficulty):
        """The table keeps the per-GT record loop's tracks, order and rows."""
        from repro.core.config import SystemConfig
        from repro.core.pipeline import run_on_dataset
        from repro.metrics.matching import match_frame

        results = run_on_dataset(SystemConfig("single", "resnet10a"), kitti_small).detections_by_sequence
        res = evaluate_dataset(kitti_small, results, difficulty)
        dropped = 0
        for spec, ce in zip(kitti_small.classes, res.per_class):
            records = {}
            for sequence in kitti_small.sequences:
                for frame in kitti_small.evaluation_frames(sequence):
                    annotations = sequence.annotations(frame)
                    match = match_frame(
                        results[sequence.name][frame], annotations, spec.label,
                        spec.min_iou, care_mask(annotations, difficulty),
                    )
                    for gt_i, track_id in enumerate(match.gt_track_ids):
                        records.setdefault((sequence.name, int(track_id)), TrackDelayRecord()).append(
                            frame, float(match.gt_matched_scores[gt_i]), bool(match.gt_care[gt_i])
                        )
            expected = [
                (r.frames, r.matched_scores, r.ever_cared) for r in records.values() if r.ever_cared
            ]
            assert len(expected) >= 2
            assert [(list(t.frames), list(t.matched_scores), t.ever_cared) for t in ce.tracks] == expected
            dropped += len(records) - len(expected)
        assert dropped > 0  # some tracks never meet the bar

    def test_summary_keys(self):
        ds = _perfect_world()
        res = evaluate_dataset(ds, _perfect_detections(ds), HARD)
        summary = res.summary()
        assert "mAP" in summary and "AP[Car]" in summary and "mD@0.8" in summary


class TestDifficultyFilters:
    def test_care_mask_ordering(self, kitti_sequence):
        """Easy ⊆ Moderate ⊆ Hard."""
        for frame in range(0, 40, 7):
            ann = kitti_sequence.annotations(frame)
            easy = care_mask(ann, EASY)
            mod = care_mask(ann, MODERATE)
            hard = care_mask(ann, HARD)
            assert np.all(~easy | mod)   # easy implies moderate
            assert np.all(~mod | hard)   # moderate implies hard

    def test_height_gate(self):
        from repro.datasets.types import FrameAnnotations

        ann = FrameAnnotations(
            frame=0,
            boxes=np.array([[0, 0, 50, 20], [0, 0, 50, 60]]),
            labels=np.zeros(2, dtype=int),
            track_ids=np.arange(2),
            occlusion=np.zeros(2),
            truncation=np.zeros(2),
        )
        assert care_mask(ann, HARD).tolist() == [False, True]

    def test_occlusion_gate(self):
        from repro.datasets.types import FrameAnnotations

        ann = FrameAnnotations(
            frame=0,
            boxes=np.tile(np.array([[0.0, 0.0, 50.0, 60.0]]), (3, 1)),
            labels=np.zeros(3, dtype=int),
            track_ids=np.arange(3),
            occlusion=np.array([0.1, 0.6, 0.9]),
            truncation=np.zeros(3),
        )
        assert care_mask(ann, EASY).tolist() == [True, False, False]
        assert care_mask(ann, MODERATE).tolist() == [True, False, False]
        assert care_mask(ann, HARD).tolist() == [True, True, False]


class TestCurves:
    def test_monotone_recall_vs_threshold(self):
        ds = _perfect_world()
        res = evaluate_dataset(ds, _perfect_detections(ds), HARD)
        points = precision_recall_delay_curves(res.class_eval("Car"), num_points=8)
        recalls = [p.recall for p in points]
        assert recalls == sorted(recalls, reverse=True)

    def test_empty_class(self):
        ds = _perfect_world()
        results = {"s": [Detections.empty()] * 5}
        res = evaluate_dataset(ds, results, HARD)
        assert precision_recall_delay_curves(res.class_eval("Car")) == []

    def test_points_equal_per_threshold_values(self):
        """Every column equals the per-threshold scalar methods exactly."""
        rng = np.random.default_rng(7)
        for case in range(300):
            n = int(rng.integers(1, 60))
            scores = rng.random(n)
            if case % 2:
                scores = np.round(scores * 4) / 4  # heavy ties
            tracks = []
            for _ in range(int(rng.integers(1, 5))):
                record = TrackDelayRecord()
                for frame, score in enumerate(rng.random(int(rng.integers(1, 8)))):
                    record.append(frame, score if rng.random() < 0.7 else -np.inf)
                tracks.append(record)
            tp = rng.random(n) < 0.6
            num_gt = int(rng.integers(0, n + 3))
            ce = ClassEvaluation(0, "Car", scores, tp, num_gt, tracks)
            num_points = int(rng.choice([2, 8, 64]))
            delay_eval = ce.as_delay_eval()
            expected = [
                CurvePoint(
                    threshold=float(t),
                    precision=delay_eval.precision_at(float(t)),
                    recall=ce.recall_at(float(t)),
                    mean_delay=delay_eval.mean_delay(float(t)),
                )
                for t in np.unique(np.quantile(scores, np.linspace(0.0, 1.0, num_points)))
            ]
            assert precision_recall_delay_curves(ce, num_points=num_points) == expected

    def test_num_points_validation(self):
        ds = _perfect_world()
        res = evaluate_dataset(ds, _perfect_detections(ds), HARD)
        with pytest.raises(ValueError, match="num_points"):
            precision_recall_delay_curves(res.class_eval("Car"), num_points=1)
