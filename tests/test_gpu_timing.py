"""Unit tests for the Titan X timing model (Appendix I / Table 7)."""

import numpy as np
import pytest

from repro.cost import CostModel, DeviceProfile, TITANX

GIGA = 1e9

TITANX_COST = CostModel.for_device("titanx")


class TestGpuTimingModel:
    def test_kernel_time_linear(self):
        t1 = TITANX_COST.kernel_seconds(10 * GIGA)
        t2 = TITANX_COST.kernel_seconds(20 * GIGA)
        assert t2 - t1 == pytest.approx(TITANX.alpha * 10 * GIGA)

    def test_launch_overhead_positive(self):
        assert TITANX.launch_overhead_seconds > 0

    def test_negative_macs_raises(self):
        with pytest.raises(ValueError, match="macs"):
            TITANX_COST.kernel_seconds(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            DeviceProfile(name="bad", alpha=0.0)
        with pytest.raises(ValueError, match="CPU"):
            DeviceProfile(name="bad", alpha=TITANX.alpha, cpu_frame_overhead=-1.0)

    def test_merge_cost_model_consistent(self):
        mc = TITANX_COST.merge_cost_model()
        # A region of A pixels should cost the same through both paths.
        region_area = 300.0 * 200.0
        assert mc.region_time(region_area) == pytest.approx(
            TITANX_COST.kernel_seconds(region_area * TITANX.trunk_macs_per_pixel)
        )


class TestSingleModelTiming:
    def test_matches_paper_calibration(self):
        """Res50 Faster R-CNN: 0.159 s GPU, 0.193 s total (Table 7)."""
        timing = TITANX_COST.single_model_timing(254.3 * GIGA)
        assert timing.gpu_seconds == pytest.approx(0.159, rel=0.1)
        assert timing.total_seconds == pytest.approx(0.193, rel=0.1)
        assert timing.num_launches == 1


class TestCaTDetTiming:
    def _regions(self, n, size=80.0, spacing=300.0):
        out = []
        for i in range(n):
            x = (i % 4) * spacing
            y = (i // 4) * spacing
            out.append([x, y, x + size, y + size])
        return np.array(out)

    def test_catdet_faster_than_single(self):
        single = TITANX_COST.single_model_timing(254.3 * GIGA)
        catdet = TITANX_COST.catdet_timing(
            proposal_macs=20.7 * GIGA,
            region_boxes=self._regions(15),
            refinement_head_macs=12 * GIGA,
        )
        assert catdet.gpu_seconds < single.gpu_seconds / 2
        assert catdet.total_seconds < single.total_seconds

    def test_matches_paper_scale(self):
        """Res10a+Res50 CaTDet: 0.042 s GPU, 0.094 s total (Table 7).

        Regions follow KITTI geometry: objects cluster along the road band,
        so the greedy merge collapses them into a handful of launches.
        """
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1100, size=16)
        y = rng.uniform(150, 230, size=16)
        w = rng.uniform(60, 140, size=16)
        regions = np.stack([x, y, x + w, y + w * 0.7], axis=1)
        catdet = TITANX_COST.catdet_timing(
            proposal_macs=20.7 * GIGA,
            region_boxes=regions,
            refinement_head_macs=12 * GIGA,
        )
        assert catdet.gpu_seconds == pytest.approx(0.042, rel=0.5)
        assert catdet.total_seconds == pytest.approx(0.094, rel=0.5)

    def test_merging_reduces_time_for_clustered_regions(self):
        # Many overlapping small regions: merging trims launch overhead.
        rng = np.random.default_rng(0)
        base = rng.random((12, 2)) * 50
        boxes = np.concatenate([base, base + 60], axis=1)
        merged = TITANX_COST.catdet_timing(1 * GIGA, boxes, 0.0, merge=True)
        unmerged = TITANX_COST.catdet_timing(1 * GIGA, boxes, 0.0, merge=False)
        assert merged.gpu_seconds <= unmerged.gpu_seconds + 1e-12
        assert merged.num_launches <= unmerged.num_launches

    def test_empty_regions(self):
        timing = TITANX_COST.catdet_timing(5 * GIGA, np.zeros((0, 4)), 0.0)
        assert timing.num_launches == 1  # the proposal pass only
        assert timing.gpu_seconds > 0
