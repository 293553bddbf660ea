"""Declarative, JSON-round-trippable experiment specifications.

An :class:`ExperimentSpec` fully describes one operating point of the
paper's grids — which system (:class:`~repro.core.config.SystemConfig`),
on which data (:class:`DatasetSpec`), evaluated how (:class:`EvalSpec`),
executed how (:class:`ExecSpec`).  Specs are frozen, hashable, serialize
to/from JSON exactly (``spec == ExperimentSpec.from_json(spec.to_json())``)
and carry a stable content :attr:`~ExperimentSpec.fingerprint` that keys
the on-disk result cache (:mod:`repro.api.cache`).

The fingerprint covers only result-affecting fields — the execution plan
(worker count, executor choice) is excluded, because results are
byte-identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, ClassVar, Dict, Optional, Tuple

from repro import schema
from repro.core.config import SystemConfig
from repro.cost import DEVICE_PROFILES
from repro.metrics.kitti_eval import DIFFICULTIES
from repro.schema import JsonRoundTrip, content_digest

if TYPE_CHECKING:  # they import this module; the schema resolves them lazily
    from repro.query.spec import QuerySpec
    from repro.serve.loadgen import LoadSpec
    from repro.serve.server import ServePolicy, ServiceModel

SPEC_FORMAT = "repro-spec/1"

_AP_METHODS = ("r40", "voc11")


@dataclass(frozen=True)
class DatasetSpec(schema.Schema):
    """Which evaluation data to generate.

    Parameters
    ----------
    family:
        A registered dataset family (built-ins: ``"kitti"``,
        ``"citypersons"``; extend with
        :func:`repro.api.registry.register_dataset_family`).
    num_sequences / frames_per_sequence / seed:
        Size and world seed; ``None`` defers to the family's defaults.
    """

    family: str = schema.field("kitti", "--dataset", must="be a non-empty string",
                               help="registered dataset family supplying the streams")
    num_sequences: Optional[int] = schema.field(None, "--sequences", must="be >= 1", help=(
        "dataset sequences to generate (default: the family's own default)"))
    frames_per_sequence: Optional[int] = schema.field(
        None, "--seq-frames", "frames per generated sequence", must="be >= 1")
    seed: Optional[int] = None



@dataclass(frozen=True)
class EvalSpec(schema.Schema):
    """How to score a run.

    Parameters
    ----------
    difficulties:
        KITTI difficulty names to evaluate at (see
        :data:`repro.metrics.kitti_eval.DIFFICULTIES`).
    ap_method:
        ``"r40"`` (KITTI 40-recall-point) or ``"voc11"``.
    delay_beta:
        Precision level of the reported mean delay (``mD@beta``).
    with_delay:
        Track per-object delay records (disable for sparse-label data).
    """

    difficulties: Tuple[str, ...] = ("moderate", "hard")
    ap_method: str = schema.field("r40", choices=_AP_METHODS)
    delay_beta: float = schema.field(0.8, must="lie in (0, 1]")
    with_delay: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "difficulties", tuple(self.difficulties))
        if not self.difficulties:
            raise ValueError("at least one difficulty is required")
        for name in self.difficulties:
            if name not in DIFFICULTIES:
                raise ValueError(
                    f"unknown difficulty {name!r}; known: {tuple(sorted(DIFFICULTIES))}"
                )

    def result_key_dict(self) -> Dict[str, Any]:
        """The subset of fields that change the *stored* result.

        ``ap_method`` and ``delay_beta`` are applied at read time on the
        cached evaluation state, so specs differing only in them share one
        cache entry.
        """
        return {"difficulties": list(self.difficulties), "with_delay": self.with_delay}


@dataclass(frozen=True)
class ExecSpec(schema.Schema):
    """How to execute a run — never affects the numbers, only the speed.

    Parameters
    ----------
    executor:
        A registered executor name (built-ins: ``"auto"``, ``"serial"``,
        ``"multihost"``).
    workers:
        Sequence-level worker processes (``1`` = serial, ``0`` = one per
        CPU; ignored by ``"multihost"``, whose fleet size is whoever runs
        ``repro worker``).
    queue_dir:
        Shared work-queue directory for distributed executors
        (``"multihost"``); local executors ignore it.
    """

    executor: str = schema.field("auto", must="be a non-empty string")
    workers: int = schema.field(1, must="be >= 0")
    queue_dir: Optional[str] = schema.field(None, must="be a string path")


@dataclass(frozen=True)
class ExperimentSpec(JsonRoundTrip):
    """One fully-described experiment: system + data + scoring + execution.

    Its top level ignores unknown keys; its sections reject them."""

    STRICT = False
    FORMAT = SPEC_FORMAT
    NOUN = "spec"
    MISSING_MESSAGE = "spec is missing the required 'system' section"

    system: SystemConfig
    dataset: DatasetSpec = schema.field(default_factory=DatasetSpec)
    eval: EvalSpec = schema.field(default_factory=EvalSpec)
    exec: ExecSpec = schema.field(default_factory=ExecSpec)

    @property
    def label(self) -> str:
        """The system's table label plus the dataset family."""
        return f"{self.system.label} @ {self.dataset.family}"

    @property
    def fingerprint(self) -> str:
        """Stable content address of the *result* this spec determines.

        Hashes the canonical JSON of the system, dataset and the
        result-affecting eval fields — not ``exec`` (worker count and
        executor choice never change the numbers) and not
        ``ap_method``/``delay_beta`` (applied at read time on the cached
        evaluation state).  Specs differing only in those therefore share
        one cache entry.
        """
        payload = {
            "format": SPEC_FORMAT,
            "system": self.system.to_dict(),
            "dataset": self.dataset.to_dict(),
            "eval": self.eval.result_key_dict(),
        }
        return content_digest(payload)

    def with_system(self, **changes: Any) -> "ExperimentSpec":
        """A copy with :class:`SystemConfig` fields replaced."""
        return replace(self, system=replace(self.system, **changes))

    @property
    def device(self) -> Optional[str]:
        """The modeled device the run reports latency for.

        Lives on the :class:`SystemConfig` (it rides along wherever the
        system description travels — worker processes, cluster
        envelopes, cache keys) and is therefore part of the content
        fingerprint: the same system on a different modeled device is a
        different result.
        """
        return self.system.device

    def with_device(self, device: Optional[str]) -> "ExperimentSpec":
        """A copy reporting latency for ``device`` (a registered
        :data:`repro.cost.DEVICE_PROFILES` name, or ``None`` to disable
        timing accounting)."""
        return self.with_system(device=device)


# --------------------------------------------------------------------- #
# Serving specs
# --------------------------------------------------------------------- #

SERVE_SPEC_FORMAT = "repro-serve-spec/1"


@dataclass(frozen=True)
class DeploymentSpec(JsonRoundTrip):
    """What every served deployment declares: system + data + load + policy.

    The shared base of :class:`ServeSpec` and
    :class:`~repro.fleet.spec.FleetSpec`: which system serves
    (:class:`~repro.core.config.SystemConfig`), which dataset family
    supplies the camera streams (:class:`DatasetSpec`), the open-loop
    load offered (:class:`~repro.serve.loadgen.LoadSpec`), the
    admission/batching policy (:class:`~repro.serve.server.ServePolicy`)
    and an optional scenario query
    (:class:`~repro.query.spec.QuerySpec`) evaluated online per stream,
    whose windows land in the report's ``query_windows`` section.

    Serving is a deterministic simulation, so every section is
    result-affecting and the fingerprint hashes the whole :meth:`to_dict`
    (the same deployment under a different query is a different report).

    Every spec serializes through :mod:`repro.schema`: the sections in
    field order, a subclass's own fields after ``policy`` and the
    keyword-only ``query`` last.  A subclass names its ``KIND``, its
    ``FORMAT`` tag and the messages of a foreign tag (``NOUN``) and of a
    missing ``system`` section (``MISSING_MESSAGE``), and adds its own
    sections as dataclass fields.  ``knobs`` spells the knobs a tune of
    its kind varies, ``_store_cls()`` is its
    :class:`~repro.serve.server.ReportStore` and ``_server(**options)``
    builds its live server (``options``: ``metrics``, ``sinks``,
    ``trace``, ``record_trace``).
    """

    STRICT = False
    SCHEMA_IMPORTS = ("repro.query.spec", "repro.serve.loadgen", "repro.serve.server")
    KIND: ClassVar[str] = ""

    system: SystemConfig
    dataset: DatasetSpec = schema.field(default_factory=DatasetSpec)
    load: Optional[LoadSpec] = None  # None: the default section
    policy: Optional[ServePolicy] = None
    query: Optional[QuerySpec] = schema.field(None, kw_only=True)

    def __post_init__(self) -> None:
        from repro.serve.loadgen import LoadSpec
        from repro.serve.server import ServePolicy

        for name, cls in (("load", LoadSpec), ("policy", ServePolicy)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, cls())

    #: What :attr:`label` puts between the system and the dataset.
    _shape: ClassVar[str] = ""

    @property
    def label(self) -> str:
        return (
            f"{self.system.label}{self._shape} @ {self.dataset.family} "
            f"x{self.load.num_streams} {self.load.pattern}"
        )


@dataclass(frozen=True)
class ServeSpec(DeploymentSpec):
    """One fully-described serving deployment: the :class:`DeploymentSpec`
    sections plus the accelerator timing model
    (:class:`~repro.serve.server.ServiceModel`).

    The online-serving sibling of :class:`ExperimentSpec`: a spec's
    throughput/latency report is a pure function of the spec and
    :meth:`repro.api.session.Session.serve` caches it by fingerprint,
    which covers the whole spec — the ``device`` included.

    The accelerator is named once: pass ``device`` (a registered
    :data:`repro.cost.DEVICE_PROFILES` name) and the
    :class:`~repro.serve.server.ServiceModel` is calibrated from that
    profile.  Passing an *explicit* uncalibrated service model together
    with a device is an error — the two would silently disagree about
    what a MAC costs.  With neither, the ``"abstract"`` profile (the
    historical serving defaults) applies; a ``device`` on the
    :class:`SystemConfig` itself, if any, takes precedence over that
    fallback so offline timing and serving simulate the same hardware.
    """

    FORMAT = SERVE_SPEC_FORMAT
    NOUN = "serve spec"
    MISSING_MESSAGE = "serve spec is missing the required 'system' section"
    KIND: ClassVar[str] = "serve"

    service: Optional[ServiceModel] = None
    device: Optional[str] = schema.field(None, "--device", choices=DEVICE_PROFILES.names, help=(
        "calibrated device profile the service model is derived from (default: abstract)"))

    def __post_init__(self) -> None:
        from repro.serve.server import ServiceModel

        super().__post_init__()
        if self.device is not None and not isinstance(self.device, str):
            raise TypeError(f"device must be a string, got {type(self.device).__name__}")
        if self.service is None:
            device = self.device or self.system.device or "abstract"
            object.__setattr__(self, "service", ServiceModel.for_device(device))
            object.__setattr__(self, "device", device)
        elif self.device is not None and self.device != self.service.device:
            raise ValueError(
                f"ServeSpec got both an explicit service model and "
                f"device={self.device!r}; pass one or the other — the device "
                f"profile is what calibrates the service model "
                f"(use ServiceModel.for_device({self.device!r}))"
            )
        else:
            # Record the service model's provenance (None for explicit
            # uncalibrated rates) so to_dict/from_dict round-trips exactly.
            object.__setattr__(self, "device", self.service.device)

    # Class-own: perfbench's tracer wraps only attributes in cls.__dict__.
    fingerprint = JsonRoundTrip.fingerprint

    @property
    def knobs(self) -> str:
        return f"batch={self.policy.max_batch_size} wait={self.policy.max_wait_ms:g}ms"

    @classmethod
    def _store_cls(cls) -> type:
        from repro.serve.server import ServeReportStore

        return ServeReportStore

    def _server(self, **options: Any):
        from repro.serve.server import DetectionServer

        return DetectionServer(
            self.system,
            policy=self.policy,
            service=self.service,
            query=self.query,
            **options,
        )
