"""Temporal scenario specifications — frozen, fingerprinted, JSON-exact.

A :class:`QuerySpec` wraps one temporal expression over frame-local
propositions (:mod:`repro.query.props`):

``Eventually(p, within=k)``
    ``p`` holds on some frame, within the first ``k`` frames of its
    search window (``within=None`` = unbounded).
``Always(p, frames=n, within=k)``
    ``p`` holds on ``n`` consecutive frames; the run *completes* within
    ``k`` frames of the search-window start.
``Then(steps)``
    The steps match strictly in order: each step's search window opens
    on the frame *after* the previous step completed.

A bare proposition used where a step is expected means
``Eventually(prop)``.  Negation is the frame-local
:class:`~repro.query.props.Not` (e.g. ``Always(Not(p), frames=n)`` =
"p stays false for n frames").

Matching semantics (shared bit-for-bit by the online automaton and the
offline reference — see :mod:`repro.query.automaton` and
:mod:`repro.query.offline`): windows are *earliest-completion*, ties
broken by earliest start then lexicographically-earliest per-step
completion trace, and non-overlapping — after a match ends at frame
``e``, the next search starts at ``e + 1``.

Like :class:`~repro.api.spec.ExperimentSpec`, specs are frozen
dataclasses with exact JSON round trips and a sha256 content
:attr:`~QuerySpec.fingerprint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from repro.query.props import Prop
from repro.schema import JsonRoundTrip, Schema, field as schema_field, register

QUERY_SPEC_FORMAT = "repro-query-spec/1"


class TemporalExpr(Schema):
    """Base class of the temporal operators."""

    STRICT = False

    @classmethod
    def _unknown_kind(cls, data: Dict[str, Any]) -> "TemporalExpr":
        """A dict that names no temporal operator is a bare proposition."""
        return Eventually(Prop.from_dict(data))


StepLike = Union[TemporalExpr, Prop]


def _as_step(step: StepLike) -> TemporalExpr:
    """A bare proposition means ``Eventually(prop)``."""
    if isinstance(step, Prop):
        return Eventually(step)
    if isinstance(step, Then):
        raise TypeError("Then cannot nest inside Then; pass a flat step tuple")
    if isinstance(step, TemporalExpr):
        return step
    raise TypeError(
        f"expected a proposition or temporal step, got {type(step).__name__}"
    )


def _check_within(within: Optional[int]) -> Optional[int]:
    if within is None:
        return None
    within = int(within)
    if within < 1:
        raise ValueError(f"within must be >= 1 frame, got {within}")
    return within


@register("eventually")
@dataclass(frozen=True)
class Eventually(TemporalExpr):
    """``prop`` holds on some frame of the step's search window."""

    prop: Prop
    within: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.prop, Prop):
            raise TypeError(
                f"Eventually wraps a proposition, got {type(self.prop).__name__}"
            )
        object.__setattr__(self, "within", _check_within(self.within))


@register("always")
@dataclass(frozen=True)
class Always(TemporalExpr):
    """``prop`` holds on ``frames`` consecutive frames."""

    prop: Prop
    frames: int
    within: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.prop, Prop):
            raise TypeError(
                f"Always wraps a proposition, got {type(self.prop).__name__}"
            )
        if int(self.frames) < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        object.__setattr__(self, "frames", int(self.frames))
        object.__setattr__(self, "within", _check_within(self.within))
        if self.within is not None and self.within < self.frames:
            raise ValueError(
                f"within={self.within} can never fit an always-run of "
                f"{self.frames} frames"
            )


@register("then")
@dataclass(frozen=True)
class Then(TemporalExpr):
    """The steps match strictly in order (sequencing operator)."""

    steps: Tuple[TemporalExpr, ...] = schema_field(default_factory=tuple, required=True)

    def __post_init__(self) -> None:
        steps = tuple(_as_step(s) for s in self.steps)
        if len(steps) < 2:
            raise ValueError(f"Then needs at least two steps, got {len(steps)}")
        object.__setattr__(self, "steps", steps)


def expr_from_dict(data: Dict[str, Any]) -> TemporalExpr:
    """Reconstruct a temporal expression from its tagged dict.

    A dict whose ``kind`` names a *proposition* is accepted as shorthand
    for ``Eventually(prop)``, mirroring the constructor coercion.
    """
    return TemporalExpr.from_dict(data)


@dataclass(frozen=True)
class QuerySpec(JsonRoundTrip):
    """One named scenario query: a temporal expression plus metadata.

    ``name`` labels reports and sink records; it is part of the content
    fingerprint (two differently-named copies of one expression are
    different queries to the cache, exactly as ``ExperimentSpec`` treats
    its sections).
    """

    STRICT = False
    FORMAT = QUERY_SPEC_FORMAT
    NOUN = "query spec"
    MISSING_MESSAGE = "query spec requires 'name' and 'expr'"

    name: str = schema_field(must="be a non-empty string")
    expr: TemporalExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "expr", _as_step(self.expr) if not isinstance(self.expr, Then) else self.expr)
