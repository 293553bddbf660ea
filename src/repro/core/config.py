"""Declarative system configuration + factory.

Experiments describe systems as :class:`SystemConfig` values; the factory
builds the runnable object.  This keeps benchmark tables data-driven.

Valid ``kind`` strings come from the system registry
(:data:`repro.api.registry.SYSTEMS`): the built-ins below register
``"single"``, ``"cascade"``, ``"catdet"`` and ``"keyframe"``, and
third-party scenarios add their own with
:func:`repro.api.registry.register_system` — no edits here required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro import schema
from repro.api.registry import SYSTEMS, SystemEntry, register_system
from repro.cost import DEVICE_PROFILES
from repro.core.systems import (
    CascadedSystem,
    CaTDetSystem,
    DetectionSystem,
    SingleModelSystem,
)
from repro.tracker.catdet_tracker import TrackerConfig


@dataclass(frozen=True)
class SystemConfig(schema.Schema):
    """Description of one detection system.

    Parameters
    ----------
    kind:
        A registered system kind (built-ins: ``"single"``, ``"cascade"``,
        ``"catdet"``, ``"keyframe"``).
    refinement_model:
        The (only, for ``single``) expensive model's zoo name.
    proposal_model:
        The cheap scanner's zoo name (cascade / catdet only).
    c_thresh:
        Proposal-network output threshold.
    tracker:
        Tracker hyper-parameters (catdet / keyframe only).
    margin:
        Region-of-interest context margin in pixels.
    seed:
        Detector-simulation seed.
    num_classes:
        Dataset class count (affects op models marginally).
    input_scale:
        Downscale factor applied to frames before the networks (CityPersons
        runs at reduced resolution, §7).
    detailed_ops:
        Whether CaTDet systems also compute the hypothetical per-source
        refinement costs of Table 3 (two extra region-mask unions per
        frame); turn off on throughput-critical paths.
    stride:
        Key-frame interval (``keyframe`` systems only; ``None`` = the
        system's default).  Lives here rather than in the builder so the
        result cache's content fingerprint captures it.
    device:
        Modeled device for per-frame latency accounting — a registered
        :data:`repro.cost.DEVICE_PROFILES` name (``"titanx"``,
        ``"abstract"``, ...).  ``None`` (default) skips timing accounting
        entirely.  Part of the content fingerprint: runs on different
        modeled devices report different timing columns.

    ``tracker`` is keyword-only, so it serializes last.  The flags name
    the options of the serving commands; they build throughput systems
    (``detailed_ops`` off).
    """

    kind: str = schema.field(flag="kind", choices=SYSTEMS.names)
    refinement_model: str = schema.field(flag="refinement")
    proposal_model: Optional[str] = schema.field(None, "proposal")
    c_thresh: float = schema.field(0.1, "--c-thresh", must="lie in [0, 1]")
    tracker: TrackerConfig = schema.field(default_factory=TrackerConfig, kw_only=True)
    margin: float = schema.field(30.0, must="be >= 0")
    seed: int = schema.field(0, "--seed", "detector-simulation seed")
    num_classes: int = schema.field(2, must="be >= 1")
    input_scale: float = schema.field(1.0, must="be positive")
    detailed_ops: bool = schema.field(True, cli=False)
    stride: Optional[int] = schema.field(None, must="be >= 1")
    device: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in SYSTEMS:
            raise ValueError(
                f"kind must be one of {SYSTEMS.names()}, got {self.kind!r}"
            )
        if not self.refinement_model:
            raise ValueError(
                f"refinement_model must be a model name, got {self.refinement_model!r}"
            )
        if SYSTEMS.get(self.kind).requires_proposal and not self.proposal_model:
            raise ValueError(f"{self.kind!r} systems require a proposal_model")
        if self.device is not None and self.device not in DEVICE_PROFILES:
            raise ValueError(
                f"unknown device {self.device!r}; registered device "
                f"profiles: {DEVICE_PROFILES.names()}"
            )

    @property
    def label(self) -> str:
        """Short label in the paper's table style."""
        if self.kind == "single":
            return f"{self.refinement_model}, Faster R-CNN"
        if self.kind == "cascade":
            return f"{self.proposal_model}, {self.refinement_model}, Cascaded"
        if self.kind == "catdet":
            return f"{self.proposal_model}, {self.refinement_model}, CaTDet"
        if self.proposal_model:
            return f"{self.proposal_model}, {self.refinement_model}, {self.kind}"
        return f"{self.refinement_model}, {self.kind}"


def build_system(config: SystemConfig) -> DetectionSystem:
    """Instantiate the runnable system described by ``config``.

    Dispatches through the system registry, so any kind registered with
    :func:`repro.api.registry.register_system` builds here — including
    from the CLI and the declarative :class:`repro.api.ExperimentSpec`.
    """
    entry: SystemEntry = SYSTEMS.get(config.kind)
    return entry.builder(config)


def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """``SystemConfig`` → plain JSON-safe dict (exact, lossless)."""
    return config.to_dict()


def config_from_dict(data: Dict[str, Any]) -> SystemConfig:
    """Inverse of :func:`config_to_dict`; a missing key takes its default."""
    return SystemConfig.from_dict(data)


# --------------------------------------------------------------------- #
# Built-in system kinds
# --------------------------------------------------------------------- #

@register_system("single", frame_parallel=True)
def _build_single(config: SystemConfig) -> DetectionSystem:
    return SingleModelSystem(
        config.refinement_model,
        seed=config.seed,
        num_classes=config.num_classes,
        input_scale=config.input_scale,
        device=config.device,
    )


@register_system("cascade", requires_proposal=True, frame_parallel=True)
def _build_cascade(config: SystemConfig) -> DetectionSystem:
    return CascadedSystem(
        config.proposal_model,
        config.refinement_model,
        c_thresh=config.c_thresh,
        margin=config.margin,
        seed=config.seed,
        num_classes=config.num_classes,
        input_scale=config.input_scale,
        device=config.device,
    )


@register_system("catdet", requires_proposal=True)
def _build_catdet(config: SystemConfig) -> DetectionSystem:
    return CaTDetSystem(
        config.proposal_model,
        config.refinement_model,
        c_thresh=config.c_thresh,
        margin=config.margin,
        seed=config.seed,
        num_classes=config.num_classes,
        input_scale=config.input_scale,
        device=config.device,
        tracker_config=config.tracker,
        detailed_ops=config.detailed_ops,
    )


@register_system("keyframe")
def _build_keyframe(config: SystemConfig) -> DetectionSystem:
    # Local import: core.keyframe depends on the engine package, which is
    # mid-import when core/__init__ pulls this module in.
    from repro.core.keyframe import KeyFrameSystem

    kwargs = {} if config.stride is None else {"stride": config.stride}
    return KeyFrameSystem(
        config.refinement_model,
        seed=config.seed,
        tracker_config=config.tracker,
        num_classes=config.num_classes,
        input_scale=config.input_scale,
        device=config.device,
        **kwargs,
    )
