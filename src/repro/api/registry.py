"""Plugin registries for systems, dataset families and executors.

The declarative API (:mod:`repro.api.spec`) names everything by string —
``"catdet"``, ``"kitti"``, ``"auto"`` — and these registries resolve the
strings to builders.  Third-party scenarios plug in without touching core::

    from repro.api import register_system

    @register_system("mydet")
    def _build_mydet(config):          # config: SystemConfig
        return MyDetSystem(config.refinement_model, seed=config.seed)

    SystemConfig("mydet", "resnet50")  # now a valid kind everywhere:
                                       # CLI, specs, caches, tables.

This module is intentionally dependency-free (nothing from ``repro`` is
imported at module level) so any layer — ``core.config``, the dataset
modules, the engine — can import it without cycles.  Built-in entries
live next to their implementations and are pulled in lazily by each
registry's ``bootstrap`` hook on first lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple


class Registry:
    """A named string → value table with decorator-style registration.

    Parameters
    ----------
    kind:
        Human-readable description of what is being registered (used in
        error messages: ``"system kind"``, ``"dataset family"``, ...).
    bootstrap:
        Zero-argument callable importing the modules that register the
        built-in entries.  Invoked once, before the first lookup, so
        built-ins resolve regardless of import order.
    """

    def __init__(self, kind: str, bootstrap: Optional[Callable[[], None]] = None):
        self.kind = kind
        self._entries: Dict[str, Any] = {}
        self._bootstrap = bootstrap
        self._booted = bootstrap is None

    def _boot(self) -> None:
        if not self._booted:
            # Flip first: the bootstrap import triggers register() calls and
            # may itself perform lookups (e.g. a module-level SystemConfig).
            self._booted = True
            self._bootstrap()

    def register(self, name: str, value: Any = None, *, override: bool = False):
        """Register ``value`` under ``name``; usable as a decorator.

        Raises :class:`ValueError` on duplicate names unless ``override``
        is set — silent shadowing of a built-in is almost always a typo.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string, got {name!r}")

        def _add(obj: Any) -> Any:
            if not override and name in self._entries:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered; "
                    f"pass override=True to replace it"
                )
            self._entries[name] = obj
            return obj

        if value is None:
            return _add
        return _add(value)

    def get(self, name: str) -> Any:
        self._boot()
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(repr(n) for n in self.names())
            raise KeyError(
                f"unknown {self.kind} {name!r}; registered: {known}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        self._boot()
        return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        self._boot()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._boot()
        return len(self._entries)


@dataclass(frozen=True)
class SystemEntry:
    """One registered system kind.

    ``builder`` maps a :class:`~repro.core.config.SystemConfig` to a
    runnable :class:`~repro.core.systems.DetectionSystem`;
    ``requires_proposal`` drives config validation (cascade-style systems
    need a proposal network, single-model ones must not demand it).
    ``frame_parallel`` declares that the system's frames are mutually
    independent (no cross-frame feedback like a tracker), so executors
    may split *within* a sequence by frame range and workers may execute
    partial-sequence shards — output stays byte-identical to the serial
    frame loop.
    """

    builder: Callable[[Any], Any]
    requires_proposal: bool = False
    frame_parallel: bool = False


def _boot_systems() -> None:
    import repro.core.config  # noqa: F401  (registers single/cascade/catdet/keyframe)


def _boot_datasets() -> None:
    import repro.datasets.citypersons  # noqa: F401
    import repro.datasets.kitti  # noqa: F401


def _boot_executors() -> None:
    import repro.cluster.coordinator  # noqa: F401  (registers multihost)
    import repro.engine.scheduler  # noqa: F401


#: System kind → :class:`SystemEntry`.
SYSTEMS = Registry("system kind", bootstrap=_boot_systems)

#: Dataset family → factory ``(num_sequences=None, frames_per_sequence=None,
#: seed=None) -> Dataset`` (``None`` means the family's own default).
DATASET_FAMILIES = Registry("dataset family", bootstrap=_boot_datasets)

#: Executor name → factory ``(workers: Optional[int]) -> SequenceExecutor``.
EXECUTORS = Registry("executor", bootstrap=_boot_executors)


def register_system(
    name: str,
    *,
    requires_proposal: bool = False,
    frame_parallel: bool = False,
    override: bool = False,
):
    """Decorator registering a system builder under ``name``.

    The decorated callable receives the full ``SystemConfig`` and returns a
    runnable system; ``name`` becomes a valid ``SystemConfig.kind``.
    Declare ``frame_parallel=True`` only for systems with no cross-frame
    feedback (see :class:`SystemEntry`).

    Cache-correctness contract: the builder must derive every
    result-affecting parameter from the config it receives.  A knob baked
    into the builder's body is invisible to the spec fingerprint, so the
    content-addressed result cache would serve stale entries after the
    builder changes.
    """

    def _decorate(builder: Callable[[Any], Any]):
        SYSTEMS.register(
            name,
            SystemEntry(
                builder=builder,
                requires_proposal=requires_proposal,
                frame_parallel=frame_parallel,
            ),
            override=override,
        )
        return builder

    return _decorate


def register_dataset_family(name: str, *, override: bool = False):
    """Decorator registering a dataset-family factory under ``name``."""

    def _decorate(factory: Callable[..., Any]):
        DATASET_FAMILIES.register(name, factory, override=override)
        return factory

    return _decorate


def register_executor(name: str, *, override: bool = False):
    """Decorator registering an executor factory under ``name``."""

    def _decorate(factory: Callable[..., Any]):
        EXECUTORS.register(name, factory, override=override)
        return factory

    return _decorate
