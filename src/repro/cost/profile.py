"""Device profiles: the calibrated constants of the linear cost model.

The paper models GPU time of a CNN workload ``W`` as ``T = alpha * W + b``
(Appendix I): a throughput reciprocal ``alpha``, plus a fixed per-launch
overhead ``b`` it estimates as "roughly the execution time of a 400x400
crop".  The CPU side (data loading, NMS, tracker, framework wrapping) adds
a per-frame constant and a per-launch term.  A :class:`DeviceProfile`
captures exactly those calibrated constants for one device, and is the
single source of truth every timing consumer in the repo derives from —
the Table-7 estimators (:mod:`repro.gpu.table7`), the engine's
:class:`~repro.engine.stages.TimingAccountingStage`, and the serving
simulator's :class:`~repro.serve.server.ServiceModel`.

Built-in profiles
-----------------
``"titanx"``
    The Maxwell Titan X the paper measured on: ``alpha`` calibrated from
    the single-model operating point (254.3 Gops in 0.159 s of kernel
    time), the 400x400-crop launch overhead, and the measured CPU
    overheads.
``"abstract"``
    A neutral accelerator reproducing the serving layer's historical
    defaults (2 ms per batched invocation, 2000 Gops/s sustained, no CPU
    overhead).  The default wherever no device is named.
``"edge"`` / ``"datacenter"``
    The heterogeneous-fleet pair the serving tuner sweeps: a slow cheap
    edge box and a fast expensive datacenter accelerator.  Their
    ``cost_per_hour`` is a modeled dollar proxy (arbitrary but mutually
    consistent units) that turns "engine-busy seconds" into the
    cost-per-frame objective ``repro fleet tune`` minimizes.

Third-party scenarios register their own with :func:`register_device`::

    from repro.cost import DeviceProfile, register_device

    register_device(DeviceProfile(name="edge-tpu", alpha=2.5e-12, ...))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.api.registry import Registry
from repro.schema import JsonRoundTrip, field

GIGA = 1e9

#: Titan X effective throughput implied by the paper's single-model
#: measurement: 254.3 Gops of ResNet-50 Faster R-CNN in 0.159 s of GPU
#: kernel time — ~1.6 Tops/s.  THE calibration constant of Appendix I.
TITANX_ALPHA = 0.159 / (254.3 * GIGA)

PROFILE_FORMAT = "repro-device-profile/1"


@dataclass(frozen=True)
class DeviceProfile(JsonRoundTrip):
    """Calibrated constants of one device's ``T = alpha * W + b`` model.

    Parameters
    ----------
    name:
        Registry name (``"titanx"``, ``"abstract"``, ...).
    alpha:
        Seconds per multiply-accumulate (throughput reciprocal).
    base_crop_pixels:
        The fixed per-launch overhead ``b`` expressed as the equivalent
        workload of a square crop with this many pixels (400*400 per the
        paper).
    trunk_macs_per_pixel:
        Backbone cost density converting crop pixels to ops — also the
        density used when costing region geometry for greedy merging.
    cpu_frame_overhead:
        Per-frame CPU seconds (data loading, framework wrapping).
    cpu_invocation_overhead:
        Per-launch CPU seconds (tensor slicing, NMS shares).
    cost_per_hour:
        Modeled price of keeping one such device allocated for an hour
        (a dollar *proxy* in arbitrary but mutually consistent units —
        what matters is edge vs datacenter ratios, not absolute money).
        Fleet tuning divides allocated device-time priced at this rate
        by frames served to get cost-per-frame.

    Serializes through :mod:`repro.schema` behind its ``FORMAT`` tag.
    """

    FORMAT = PROFILE_FORMAT
    NOUN = "device profile"

    name: str = field(must="be a non-empty string")
    alpha: float = field(must="be positive")
    base_crop_pixels: float = 400.0 * 400.0
    trunk_macs_per_pixel: float = 66_000.0
    cpu_frame_overhead: float = 0.0
    cpu_invocation_overhead: float = 0.0
    cost_per_hour: float = field(1.0, must="be positive")

    def __post_init__(self) -> None:
        if self.base_crop_pixels < 0 or self.trunk_macs_per_pixel < 0:
            raise ValueError("workload parameters must be >= 0")
        if self.cpu_frame_overhead < 0 or self.cpu_invocation_overhead < 0:
            raise ValueError("CPU overheads must be >= 0")

    # ------------------------------------------------------------------ #
    # Derived quantities (single definitions — consumers never recompute)
    # ------------------------------------------------------------------ #

    @property
    def launch_overhead_seconds(self) -> float:
        """The ``b`` term in seconds (GPU-side cost of one launch)."""
        return self.alpha * self.base_crop_pixels * self.trunk_macs_per_pixel

    @property
    def gops_per_second(self) -> float:
        """Sustained throughput ``1 / alpha`` in Gops/s."""
        return 1.0 / (self.alpha * GIGA)

    @property
    def invocation_overhead_ms(self) -> float:
        """Total fixed cost per invocation (launch + CPU share), in ms."""
        return (self.launch_overhead_seconds + self.cpu_invocation_overhead) * 1e3

    @property
    def cost_per_second(self) -> float:
        """The hourly allocation price as a per-second rate."""
        return self.cost_per_hour / 3600.0


def profile_from_service_rates(
    invocation_overhead_ms: float,
    gops_per_second: float,
    *,
    name: str = "custom",
    cost_per_hour: float = 1.0,
) -> DeviceProfile:
    """An ad-hoc profile from serving-layer rates (uncalibrated devices).

    Inverts the derived quantities: ``alpha`` from the throughput,
    ``base_crop_pixels`` sized so one launch costs exactly the requested
    overhead.  CPU overheads are zero — explicit serving rates predate
    the cost layer and never modeled a CPU side.
    """
    if gops_per_second <= 0:
        raise ValueError(
            f"gops_per_second must be positive, got {gops_per_second}"
        )
    if invocation_overhead_ms < 0:
        raise ValueError(
            f"invocation_overhead_ms must be >= 0, got {invocation_overhead_ms}"
        )
    alpha = 1.0 / (gops_per_second * GIGA)
    return DeviceProfile(
        name=name,
        alpha=alpha,
        base_crop_pixels=(invocation_overhead_ms / 1e3) / alpha,
        trunk_macs_per_pixel=1.0,
        cost_per_hour=cost_per_hour,
    )


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

#: Device name → :class:`DeviceProfile`.
DEVICE_PROFILES = Registry("device profile")


def register_device(profile: DeviceProfile, *, override: bool = False) -> DeviceProfile:
    """Register ``profile`` under its own name; returns it for chaining."""
    if not isinstance(profile, DeviceProfile):
        raise TypeError(
            f"expected a DeviceProfile, got {type(profile).__name__}"
        )
    DEVICE_PROFILES.register(profile.name, profile, override=override)
    return profile


def get_device(device: Union[str, DeviceProfile]) -> DeviceProfile:
    """Resolve a device name (or pass a profile through)."""
    if isinstance(device, DeviceProfile):
        return device
    return DEVICE_PROFILES.get(device)


#: The paper's Maxwell Titan X (Appendix I / Table 7).
TITANX = register_device(
    DeviceProfile(
        name="titanx",
        alpha=TITANX_ALPHA,
        base_crop_pixels=400.0 * 400.0,
        trunk_macs_per_pixel=66_000.0,  # ResNet-50 C4 trunk on KITTI
        cpu_frame_overhead=0.034,
        cpu_invocation_overhead=0.001,
    )
)

#: Neutral accelerator reproducing the serving layer's historical
#: defaults: 2 ms per batched invocation, 2000 Gops/s, no CPU model.
ABSTRACT = register_device(
    profile_from_service_rates(2.0, 2000.0, name="abstract")
)

#: Heterogeneous-fleet pair for replica placement and fleet tuning: the
#: edge box is ~16x slower but 8x cheaper per hour than the datacenter
#: accelerator, so which mix is cheapest genuinely depends on the load
#: (a calm fleet of edge boxes beats an idle datacenter card; a bursty
#: one doesn't).
EDGE = register_device(
    profile_from_service_rates(6.0, 500.0, name="edge", cost_per_hour=0.5)
)

DATACENTER = register_device(
    profile_from_service_rates(1.5, 8000.0, name="datacenter", cost_per_hour=4.0)
)

DEFAULT_DEVICE = ABSTRACT.name
