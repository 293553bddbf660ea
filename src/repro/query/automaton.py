"""Compile specs to phase automata; evaluate them online, one frame at a time.

A temporal expression normalizes to a linear chain of :class:`Phase`
records (``prop``, ``mode``, ``hold``, ``deadline``).  The online
:class:`QueryEvaluator` runs the chain as a small NFA over a stream of
:class:`~repro.core.results.FrameResult` values — strictly causal, no
buffering, no lookahead — and emits :class:`QueryWindow` frames-of-
interest with per-phase match provenance.

Matching semantics (the contract shared with the offline reference in
:mod:`repro.query.offline`, property-tested for equivalence):

* Ticks are 0-based positions in the observed stream; windows report
  the *frame numbers* observed at the boundary ticks.
* Phase 0 searches from the scan start ``s`` (tick 0, or one past the
  previous match).  An ``eventually`` phase completes at any tick ``f``
  with its proposition true; an ``always`` phase at any ``f`` whose last
  ``hold`` ticks are all true with the run inside the scan.  A phase-0
  deadline ``d`` requires ``f - s + 1 <= d``.
* Phase ``k > 0`` anchors at phase ``k-1``'s completion ``c`` and must
  complete strictly later; its deadline requires ``f - c <= d``.  Every
  completion *forks*: the evaluator keeps waiting for later completions
  of the same phase, because a later anchor can be the only one that
  satisfies a downstream deadline.
* The first tick at which any full match completes emits exactly one
  window: among the candidates completing there, the earliest start
  wins, then the lexicographically earliest completion trace.  All
  partial state is then discarded and the scan restarts on the next
  tick — windows never overlap.

The live state is bounded by spec constants (per phase: one partial
match per distinct (run, anchor-within-deadline) pair), never by stream
length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.results import FrameResult
from repro.query.props import FrameState, TrackBook
from repro.query.spec import Always, Eventually, QuerySpec, TemporalExpr, Then
from repro.schema import Schema, field as schema_field


@dataclass(frozen=True)
class Phase:
    """One step of the normalized chain."""

    prop: Any  # repro.query.props.Prop
    mode: str  # "eventually" | "always"
    hold: int  # consecutive true ticks required (1 for eventually)
    deadline: Optional[int]  # frames allowed from the anchor (None = unbounded)


def compile_phases(expr: TemporalExpr) -> Tuple[Phase, ...]:
    """Normalize a temporal expression to its linear phase chain."""
    steps = expr.steps if isinstance(expr, Then) else (expr,)
    phases = []
    for step in steps:
        if isinstance(step, Eventually):
            phases.append(Phase(step.prop, "eventually", 1, step.within))
        elif isinstance(step, Always):
            phases.append(Phase(step.prop, "always", step.frames, step.within))
        else:
            raise TypeError(f"unsupported temporal step {type(step).__name__}")
    return tuple(phases)


@dataclass(frozen=True)
class QueryWindow(Schema):
    """One emitted frames-of-interest window, with match provenance.

    ``start`` / ``end`` are frame numbers of the underlying sequence;
    ``start_tick`` / ``end_tick`` the 0-based stream positions; and
    ``phases`` the frame number at which each phase of the chain
    completed (the last equals ``end``).
    """

    stream: str
    start: int
    end: int
    start_tick: int
    end_tick: int
    phases: Tuple[int, ...]

    STRICT = False


@dataclass
class FramesOfInterest(Schema):
    """All windows one evaluator emitted over one stream."""

    STRICT = False

    stream: str
    query: str
    fingerprint: str
    frames_observed: int
    windows: List[QueryWindow] = schema_field(default_factory=list, required=True)


class _Partial:
    """A live partial match waiting at phase ``k`` (k >= 1)."""

    __slots__ = ("k", "anchor", "run", "start", "trace")

    def __init__(self, k: int, anchor: int, run: int, start: int, trace: Tuple[int, ...]):
        self.k = k
        self.anchor = anchor
        self.run = run
        self.start = start
        self.trace = trace

    def rank(self) -> Tuple[int, ...]:
        return (self.start,) + self.trace


class QueryEvaluator:
    """Online, strictly causal evaluation of one query over one stream.

    Feed one :class:`~repro.core.results.FrameResult` at a time via
    :meth:`observe`; each call returns the window completed at that
    frame, if any.  Clone with :meth:`per_stream` for multi-stream
    engines — the same protocol the serving layer uses for trackers.
    """

    def __init__(self, spec: QuerySpec, stream: str = ""):
        self.spec = spec
        self.stream = stream
        self.phases = compile_phases(spec.expr)
        self.book = TrackBook()
        self._tick = 0
        self._frame_numbers: List[int] = []
        self._windows: List[QueryWindow] = []
        self._partials: List[_Partial] = []
        self._run0 = 0
        self._scan_start = 0

    def per_stream(self, stream: str) -> "QueryEvaluator":
        """A fresh evaluator for one stream of a multi-stream engine."""
        return QueryEvaluator(self.spec, stream)

    @property
    def windows(self) -> List[QueryWindow]:
        return list(self._windows)

    @property
    def frames_observed(self) -> int:
        return self._tick

    def finish(self) -> FramesOfInterest:
        """Freeze the emitted windows (the evaluator stays usable)."""
        return FramesOfInterest(
            stream=self.stream,
            query=self.spec.name,
            fingerprint=self.spec.fingerprint,
            windows=list(self._windows),
            frames_observed=self._tick,
        )

    def observe(
        self,
        result: FrameResult,
        track_ids: Optional[np.ndarray] = None,
    ) -> Optional[QueryWindow]:
        """Consume one frame; return the window it completed, if any."""
        if track_ids is None:
            track_ids = result.track_ids
        self.book.step(result.detections, track_ids if track_ids is not None
                       else np.full(len(result.detections), -1, dtype=np.int64))
        state = FrameState(result.detections, track_ids, self.book)
        pvals = [ph.prop.evaluate(state) for ph in self.phases]

        f = self._tick
        self._tick += 1
        self._frame_numbers.append(int(result.frame))

        phases = self.phases
        last = len(phases) - 1
        candidates: List[Tuple[int, Tuple[int, ...]]] = []
        spawned: List[_Partial] = []
        survivors: List[_Partial] = []

        # Advance partial matches waiting at phases 1..K-1.
        for st in self._partials:
            ph = phases[st.k]
            if ph.deadline is not None and f - st.anchor > ph.deadline:
                continue  # no completion at f or later can meet the deadline
            p = pvals[st.k]
            if ph.mode == "eventually":
                if p:
                    self._complete(st.k, st.start, st.trace, f, last,
                                   candidates, spawned)
                survivors.append(st)
            else:
                # Cap the run at ``hold``: beyond it, behavior is identical
                # (complete on every true tick, reset on false), and the cap
                # keeps the dedup key space finite.
                st.run = min(st.run + 1, ph.hold) if p else 0
                if st.run >= ph.hold:
                    self._complete(st.k, st.start, st.trace, f, last,
                                   candidates, spawned)
                survivors.append(st)

        # Seed / advance phase 0 (anchored at the scan start).
        ph0 = phases[0]
        s = self._scan_start
        within0 = ph0.deadline is None or (f - s + 1) <= ph0.deadline
        if ph0.mode == "eventually":
            if pvals[0] and within0:
                self._complete(0, f, (), f, last, candidates, spawned)
        else:
            self._run0 = min(self._run0 + 1, ph0.hold) if pvals[0] else 0
            if self._run0 >= ph0.hold and within0:
                self._complete(0, f - ph0.hold + 1, (), f, last,
                               candidates, spawned)

        if candidates:
            start, trace = min(candidates, key=lambda c: (c[0],) + c[1])
            window = QueryWindow(
                stream=self.stream,
                start=self._frame_numbers[start],
                end=self._frame_numbers[f],
                start_tick=start,
                end_tick=f,
                phases=tuple(self._frame_numbers[t] for t in trace),
            )
            self._windows.append(window)
            self._partials = []
            self._run0 = 0
            self._scan_start = f + 1
            return window

        self._partials = self._dedup(survivors + spawned)
        return None

    def _complete(
        self,
        k: int,
        start: int,
        trace: Tuple[int, ...],
        f: int,
        last: int,
        candidates: List[Tuple[int, Tuple[int, ...]]],
        spawned: List[_Partial],
    ) -> None:
        trace = trace + (f,)
        if k == last:
            candidates.append((start, trace))
        else:
            spawned.append(_Partial(k + 1, f, 0, start, trace))

    def _dedup(self, partials: List[_Partial]) -> List[_Partial]:
        """One partial per behaviorally-distinct key, best rank kept.

        The anchor only matters while the phase has a deadline; without
        one, partials differing only in anchor behave identically, so
        the lexicographically best (start, trace) dominates.
        """
        best: Dict[Tuple[int, int, Optional[int]], _Partial] = {}
        for st in partials:
            anchor_key = st.anchor if self.phases[st.k].deadline is not None else None
            key = (st.k, st.run, anchor_key)
            cur = best.get(key)
            if cur is None or st.rank() < cur.rank():
                best[key] = st
        return list(best.values())
