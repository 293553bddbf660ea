"""Unit tests for the detector simulation."""

import numpy as np
import pytest

from repro.boxes.iou import iou_matrix
from repro.boxes.mask import RegionMask
from repro.simdet.detector import SimulatedDetector
from repro.simdet.profile import DetectorProfile, sigmoid
from repro.simdet.zoo import MODEL_ZOO, get_model
from repro.utils.rng import RngFactory


class TestSigmoid:
    def test_values(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)
        assert sigmoid(np.array([100.0]))[0] == pytest.approx(1.0)
        assert sigmoid(np.array([-100.0]))[0] == pytest.approx(0.0)

    def test_no_overflow(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))


class TestProfile:
    def test_base_logit_monotone_in_width(self):
        p = DetectorProfile(name="m", size_midpoint=4.0)
        widths = np.array([10.0, 30.0, 100.0])
        logits = p.base_logit(widths, np.zeros(3), np.zeros(3))
        assert logits.tolist() == sorted(logits.tolist())

    def test_occlusion_penalty_convex(self):
        p = DetectorProfile(name="m", size_midpoint=4.0, occlusion_penalty=8.0)
        w = np.full(3, 50.0)
        logits = p.base_logit(w, np.array([0.0, 0.4, 0.8]), np.zeros(3))
        drop_light = logits[0] - logits[1]
        drop_heavy = logits[1] - logits[2]
        assert drop_heavy > drop_light  # convex: heavy occlusion hurts more

    def test_detection_probability_capped(self):
        p = DetectorProfile(name="m", size_midpoint=2.0, max_recall=0.9)
        assert p.detection_probability(np.array([50.0]))[0] == pytest.approx(0.9)

    def test_with_overrides(self):
        p = DetectorProfile(name="m", size_midpoint=4.0)
        q = p.with_overrides(name="m2", fp_rate=7.0)
        assert q.fp_rate == 7.0 and p.fp_rate != 7.0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(max_recall=0.0),
            dict(temporal_rho=1.0),
            dict(loc_noise=-0.1),
            dict(clutter_persistence=2.0),
            dict(fp_confirm_rate=-0.5),
            dict(refine_loc_factor=0.0),
            dict(occlusion_exponent=0.0),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            DetectorProfile(name="m", size_midpoint=4.0, **kw)


class TestDeterminism:
    def test_same_seed_same_detections(self, kitti_sequence):
        p = get_model("resnet50").profile
        d1 = SimulatedDetector(p, seed=5)
        d2 = SimulatedDetector(p, seed=5)
        for frame in (0, 10, 25):
            a = d1.detect_full_frame(kitti_sequence, frame)
            b = d2.detect_full_frame(kitti_sequence, frame)
            np.testing.assert_array_equal(a.boxes, b.boxes)
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_call_order_independence(self, kitti_sequence):
        """Frame results must not depend on which frames were queried before."""
        p = get_model("resnet50").profile
        d1 = SimulatedDetector(p, seed=5)
        d2 = SimulatedDetector(p, seed=5)
        d2.detect_full_frame(kitti_sequence, 40)  # query out of order first
        a = d1.detect_full_frame(kitti_sequence, 10)
        b = d2.detect_full_frame(kitti_sequence, 10)
        np.testing.assert_array_equal(a.boxes, b.boxes)

    def test_different_seeds_differ(self, kitti_sequence):
        p = get_model("resnet50").profile
        a = SimulatedDetector(p, seed=1).detect_full_frame(kitti_sequence, 5)
        b = SimulatedDetector(p, seed=2).detect_full_frame(kitti_sequence, 5)
        assert len(a) != len(b) or not np.allclose(a.boxes, b.boxes)

    def test_batched_calls_match_serial_and_count_one_invocation(
        self, kitti_sequence
    ):
        p = get_model("resnet50").profile
        serial = SimulatedDetector(p, seed=5)
        batched = SimulatedDetector(p, seed=5)
        expected = [serial.detect_full_frame(kitti_sequence, f) for f in (0, 3, 7)]
        got = batched.detect_full_frame_batch(
            [(kitti_sequence, f) for f in (0, 3, 7)]
        )
        for a, b in zip(expected, got):
            np.testing.assert_array_equal(a.boxes, b.boxes)
            np.testing.assert_array_equal(a.scores, b.scores)
        assert serial.invocations == 3
        assert batched.invocations == 1
        assert batched.detect_full_frame_batch([]) == []
        assert batched.invocations == 1  # empty batches are free

    def test_name_collision_purges_stale_caches(self, kitti_sequence):
        """A different sequence object reusing a name must not inherit the
        first owner's latents."""
        import dataclasses

        p = get_model("resnet50").profile
        shifted = dataclasses.replace(
            kitti_sequence,
            tracks=kitti_sequence.tracks[: len(kitti_sequence.tracks) // 2],
        )
        detector = SimulatedDetector(p, seed=5)
        detector.detect_full_frame(kitti_sequence, 0)  # warm original caches
        collided = detector.detect_full_frame(shifted, 0)
        fresh = SimulatedDetector(p, seed=5).detect_full_frame(shifted, 0)
        np.testing.assert_array_equal(collided.boxes, fresh.boxes)
        np.testing.assert_array_equal(collided.scores, fresh.scores)

    def test_cached_sequences_are_bounded(self, kitti_small):
        """Long-lived detectors under stream churn keep bounded caches."""
        import dataclasses

        p = get_model("resnet50").profile
        detector = SimulatedDetector(p, seed=5)
        detector.max_cached_sequences = 3
        variants = [
            dataclasses.replace(kitti_small.sequences[0], name=f"cam-{i:03d}")
            for i in range(10)
        ]
        for sequence in variants:
            detector.detect_full_frame(sequence, 0)
        assert len(detector._owners) <= 3
        assert len(detector._clutter) <= 3
        assert len(detector._latents) <= 3 and len(detector._label_pool) <= 3
        # Eviction is a recompute cost, never a result change.
        evicted = variants[0]
        again = detector.detect_full_frame(evicted, 0)
        fresh = SimulatedDetector(p, seed=5).detect_full_frame(evicted, 0)
        np.testing.assert_array_equal(again.boxes, fresh.boxes)


    def test_latents_match_per_track_scalar_draws(self, kitti_sequence):
        """Per-row latents equal the per-track scalar draws they replaced."""
        p = get_model("resnet50").profile
        persistent, temporal = SimulatedDetector(p, seed=5)._sequence_latents(kitti_sequence)
        factory = RngFactory(5)
        innov = np.sqrt(max(1.0 - p.temporal_rho**2, 1e-12))
        expected = {}
        for track in kitti_sequence.tracks:
            key = (p.name, kitti_sequence.name, track.track_id)
            rng = factory.child("temporal", *key)
            noise = np.empty(track.length)
            state = rng.normal()
            for t in range(track.length):
                noise[t] = state
                state = p.temporal_rho * state + innov * rng.normal()
            latent = float(factory.child("persistent", *key).normal())
            expected[track.track_id] = (track, latent, noise)
        starts = kitti_sequence.frame_table().starts
        for frame in range(kitti_sequence.num_frames):
            rows = range(starts[frame], starts[frame + 1])
            ids = kitti_sequence.annotations(frame).track_ids
            for row, track_id in zip(rows, ids):
                track, latent, noise = expected[int(track_id)]
                assert persistent[row] == latent
                assert temporal[row] == noise[frame - track.first_frame]

    def test_jitter_matches_per_coordinate_draws(self):
        """One (4, N) draw equals the four per-coordinate draws it replaced."""
        detector = SimulatedDetector(get_model("resnet50").profile)
        corners = np.random.default_rng(0).uniform(0, 500, size=(9, 2))
        boxes = np.concatenate([corners, corners + 40.0], axis=1)
        got = detector._jitter_boxes(boxes, np.random.default_rng(3), 0.1)
        rng = np.random.default_rng(3)
        w = boxes[:, 2] - boxes[:, 0]
        h = boxes[:, 3] - boxes[:, 1]
        cx = boxes[:, 0] + w / 2 + rng.normal(scale=0.1, size=9) * w
        cy = boxes[:, 1] + h / 2 + rng.normal(scale=0.1, size=9) * h
        w = w * np.exp(rng.normal(scale=0.1, size=9))
        h = h * np.exp(rng.normal(scale=0.1, size=9))
        expected = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)
        np.testing.assert_array_equal(got, expected)


class TestDetectionBehavior:
    def test_detections_inside_image(self, kitti_sequence):
        d = SimulatedDetector(get_model("resnet10a").profile, seed=0)
        for frame in range(0, 30, 5):
            out = d.detect_full_frame(kitti_sequence, frame)
            assert np.all(out.boxes[:, 0] >= 0)
            assert np.all(out.boxes[:, 2] <= kitti_sequence.width)
            assert np.all(out.scores >= 0) and np.all(out.scores <= 1)

    def test_strong_model_recalls_more(self, kitti_sequence):
        strong = SimulatedDetector(get_model("resnet50").profile, seed=0)
        weak = SimulatedDetector(get_model("resnet10c").profile, seed=0)

        def recall(detector):
            hits = total = 0
            for frame in range(30):
                ann = kitti_sequence.annotations(frame)
                out = detector.detect_full_frame(kitti_sequence, frame)
                big = (ann.boxes[:, 3] - ann.boxes[:, 1]) >= 25
                total += int(big.sum())
                if len(out) and big.any():
                    ious = iou_matrix(ann.boxes[big], out.boxes)
                    hits += int((ious.max(axis=1) >= 0.5).sum())
            return hits / max(total, 1)

        assert recall(strong) > recall(weak) + 0.05

    def test_weak_model_more_false_positives(self, kitti_sequence):
        strong = SimulatedDetector(get_model("resnet50").profile, seed=0)
        weak = SimulatedDetector(get_model("resnet10c").profile, seed=0)
        n_strong = sum(
            len(strong.detect_full_frame(kitti_sequence, f)) for f in range(10)
        )
        n_weak = sum(len(weak.detect_full_frame(kitti_sequence, f)) for f in range(10))
        assert n_weak > n_strong

    def test_input_scale_reduces_recall(self, kitti_sequence):
        p = get_model("resnet10b").profile
        native = SimulatedDetector(p, seed=0)
        scaled = SimulatedDetector(p, seed=0, input_scale=0.4)
        n_native = sum(
            len(native.detect_full_frame(kitti_sequence, f).above_score(0.5))
            for f in range(20)
        )
        n_scaled = sum(
            len(scaled.detect_full_frame(kitti_sequence, f).above_score(0.5))
            for f in range(20)
        )
        assert n_scaled < n_native

    def test_invalid_input_scale(self):
        with pytest.raises(ValueError, match="input_scale"):
            SimulatedDetector(get_model("resnet50").profile, input_scale=0.0)


class TestRegionalDetection:
    def test_empty_mask_detects_nothing_real(self, kitti_sequence):
        d = SimulatedDetector(get_model("resnet50").profile, seed=0)
        mask = RegionMask(np.zeros((0, 4)), kitti_sequence.width, kitti_sequence.height)
        out = d.detect_regions(kitti_sequence, 5, mask)
        # No regions -> no objects can be confirmed (rate-scaled FPs only).
        ann = kitti_sequence.annotations(5)
        if len(out) and len(ann):
            ious = iou_matrix(out.boxes, ann.boxes)
            assert np.all(ious.max(axis=1) < 0.5)

    def test_full_mask_approximates_full_frame_recall(self, kitti_sequence):
        d = SimulatedDetector(get_model("resnet50").profile, seed=0)
        w, h = kitti_sequence.width, kitti_sequence.height
        mask = RegionMask(np.array([[0.0, 0.0, w, h]]), w, h, margin=0)
        hits = total = 0
        for frame in range(20):
            ann = kitti_sequence.annotations(frame)
            big = (ann.boxes[:, 3] - ann.boxes[:, 1]) >= 25
            out = d.detect_regions(kitti_sequence, frame, mask)
            total += int(big.sum())
            if len(out) and big.any():
                ious = iou_matrix(ann.boxes[big], out.boxes)
                hits += int((ious.max(axis=1) >= 0.5).sum())
        assert hits / max(total, 1) > 0.7

    def test_objects_outside_mask_undetected(self, kitti_sequence):
        d = SimulatedDetector(get_model("resnet50").profile, seed=0)
        ann = kitti_sequence.annotations(5)
        assert len(ann) > 0
        # Mask covering only the far corner, away from all objects.
        mask = RegionMask(
            np.array([[0.0, 0.0, 5.0, 5.0]]),
            kitti_sequence.width,
            kitti_sequence.height,
            margin=0,
        )
        out = d.detect_regions(kitti_sequence, 5, mask)
        if len(out):
            ious = iou_matrix(out.boxes, ann.boxes)
            assert np.all(ious.max(axis=1) < 0.5)


class TestZoo:
    def test_all_entries_complete(self):
        for name, entry in MODEL_ZOO.items():
            assert entry.profile.name == name

    def test_get_model_error_lists_known(self):
        with pytest.raises(KeyError, match="resnet50"):
            get_model("nope")

    def test_quality_ordering(self):
        """Weaker nets localize worse and produce more false positives."""
        order = ("resnet50", "resnet18", "resnet10a", "resnet10b", "resnet10c")
        locs = [get_model(n).profile.loc_noise for n in order]
        fps = [get_model(n).profile.fp_rate for n in order]
        assert locs == sorted(locs)
        assert fps == sorted(fps)

    def test_ops_wrappers(self):
        entry = get_model("resnet50")
        assert entry.rcnn_ops(1242, 375).full_frame(300).total > 0
        with pytest.raises(ValueError, match="not a RetinaNet"):
            entry.retinanet_ops(1242, 375)
        retina = get_model("retinanet50")
        assert retina.retinanet_ops(1242, 375).full_frame().total > 0
        with pytest.raises(ValueError, match="not a Faster R-CNN"):
            retina.rcnn_ops(1242, 375)
