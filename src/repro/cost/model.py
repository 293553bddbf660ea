"""The cost model: per-frame ops and invocation counts → seconds.

One :class:`CostModel` wraps one :class:`~repro.cost.profile.DeviceProfile`
and answers every timing question in the repo under the paper's linear
model ``T = alpha * W + b`` per launch (Appendix I):

* :meth:`kernel_seconds` — GPU time of one launch of ``W`` MACs.
* :meth:`single_model_timing` / :meth:`catdet_timing` — the Table-7
  estimators (one full-frame launch vs proposal + greedily-merged region
  launches).
* :meth:`frame_timing` — per-frame latency from a *measured*
  :class:`~repro.core.results.OpsAccount` plus the frame's actual region
  geometry; what the engine's
  :class:`~repro.engine.stages.TimingAccountingStage` charges.
* :meth:`batch_seconds` — service time of one micro-batch from measured
  invocation counts and MACs; what the serving simulator's
  :class:`~repro.serve.server.ServiceModel` charges.

All four share the profile's constants, so the offline tables, the
engine's latency column and the serving simulator can no longer drift
apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.boxes.box import area
from repro.boxes.merge import MergeCostModel, greedy_merge_boxes
from repro.core.results import FrameTiming, OpsAccount
from repro.cost.profile import DeviceProfile, get_device


@dataclass(frozen=True)
class CostModel:
    """Timing queries against one calibrated :class:`DeviceProfile`."""

    profile: DeviceProfile

    @classmethod
    def for_device(cls, device) -> "CostModel":
        """A cost model for a registered device name (or a profile)."""
        return cls(get_device(device))

    # ------------------------------------------------------------------ #
    # Primitive quantities
    # ------------------------------------------------------------------ #

    def compute_seconds(self, macs: float) -> float:
        """Pure compute time ``alpha * W`` (no launch overhead)."""
        if macs < 0:
            raise ValueError(f"macs must be >= 0, got {macs}")
        return self.profile.alpha * macs

    def kernel_seconds(self, macs: float) -> float:
        """GPU time for one launch of ``macs`` multiply-accumulates."""
        if macs < 0:
            raise ValueError(f"macs must be >= 0, got {macs}")
        return self.profile.alpha * macs + self.profile.launch_overhead_seconds

    def merge_cost_model(self) -> MergeCostModel:
        """The equivalent area-based model for greedy box merging."""
        return MergeCostModel(
            alpha=self.profile.alpha * self.profile.trunk_macs_per_pixel,
            base_area=self.profile.base_crop_pixels,
        )

    # ------------------------------------------------------------------ #
    # Serving: micro-batch service time from measured quantities
    # ------------------------------------------------------------------ #

    def batch_seconds(self, invocations: int, macs: float, frames: int = 0) -> float:
        """Service time of one batch: fixed cost per invocation, compute
        at the profile's throughput, plus per-frame CPU overhead."""
        p = self.profile
        return (
            invocations * (p.launch_overhead_seconds + p.cpu_invocation_overhead)
            + p.alpha * macs
            + frames * p.cpu_frame_overhead
        )

    # ------------------------------------------------------------------ #
    # Table-7 estimators (geometry-driven)
    # ------------------------------------------------------------------ #

    def single_model_timing(self, frame_macs: float) -> FrameTiming:
        """Timing of a single-model detector: one full-frame launch."""
        return FrameTiming(
            gpu_seconds=self.kernel_seconds(frame_macs),
            cpu_seconds=self.profile.cpu_frame_overhead,
            num_launches=1,
        )

    def catdet_timing(
        self,
        proposal_macs: float,
        region_boxes: np.ndarray,
        refinement_head_macs: float,
        *,
        merge: bool = True,
    ) -> FrameTiming:
        """Timing of one CaTDet frame.

        Parameters
        ----------
        proposal_macs:
            Full-frame cost of the proposal network.
        region_boxes : (N, 4) array
            Regions of interest fed to the refinement network (tracker +
            proposal sources, margin already applied).
        refinement_head_macs:
            Total RoI-head cost for the frame's proposals.
        merge:
            Apply the paper's greedy merging before timing regions.
            Merging *increases* the computed workload (merged rectangles
            cover more area) but reduces launch overhead — the
            Appendix I trade-off.
        """
        p = self.profile
        region_boxes = np.asarray(region_boxes, dtype=np.float64).reshape(-1, 4)
        if merge and region_boxes.shape[0] > 1:
            region_boxes, _ = greedy_merge_boxes(region_boxes, self.merge_cost_model())

        gpu = self.kernel_seconds(proposal_macs)  # proposal network launch
        for region_area in area(region_boxes):
            gpu += self.kernel_seconds(region_area * p.trunk_macs_per_pixel)
        if refinement_head_macs > 0:
            gpu += p.alpha * refinement_head_macs  # batched RoI heads

        launches = 1 + region_boxes.shape[0]
        cpu = p.cpu_frame_overhead + p.cpu_invocation_overhead * launches
        return FrameTiming(gpu_seconds=gpu, cpu_seconds=cpu, num_launches=launches)

    # ------------------------------------------------------------------ #
    # Engine: per-frame latency from the measured ops account
    # ------------------------------------------------------------------ #

    def frame_timing(
        self,
        ops: OpsAccount,
        *,
        region_boxes: Optional[np.ndarray] = None,
        full_frame: bool = False,
        merge: bool = True,
    ) -> FrameTiming:
        """Estimated latency of one executed frame.

        Charges the frame's *measured* MAC account at the profile's
        throughput; launch overheads come from the launch count the
        frame's structure implies — one full-frame launch per network
        that ran (``full_frame=True``), or one proposal launch plus one
        per (greedily merged) refinement region.  A frame that ran no
        network (a key-frame system coasting the tracker) costs CPU
        frame overhead only.
        """
        p = self.profile
        if full_frame or region_boxes is None:
            launches = int(ops.proposal > 0) + int(ops.refinement > 0)
            if launches == 0:
                return FrameTiming(
                    gpu_seconds=0.0,
                    cpu_seconds=p.cpu_frame_overhead,
                    num_launches=0,
                )
            gpu = 0.0
            if ops.proposal > 0:
                gpu += self.kernel_seconds(ops.proposal)
            if ops.refinement > 0:
                gpu += self.kernel_seconds(ops.refinement)
            return FrameTiming(
                gpu_seconds=gpu,
                cpu_seconds=p.cpu_frame_overhead,
                num_launches=launches,
            )
        boxes = np.asarray(region_boxes, dtype=np.float64).reshape(-1, 4)
        if merge and boxes.shape[0] > 1:
            boxes, _ = greedy_merge_boxes(boxes, self.merge_cost_model())
        launches = int(ops.proposal > 0) + boxes.shape[0]
        gpu = p.alpha * ops.total + launches * p.launch_overhead_seconds
        cpu = p.cpu_frame_overhead + p.cpu_invocation_overhead * launches
        return FrameTiming(gpu_seconds=gpu, cpu_seconds=cpu, num_launches=launches)
