"""Offline reference evaluation, multi-camera conjunction, and reports.

:func:`evaluate_frames` re-derives a query's frames-of-interest from a
fully materialized frame sequence with an independent dynamic program —
same matching semantics as the online automaton
(:mod:`repro.query.automaton`), different algorithm.  The Hypothesis
property suite holds the two equivalent on random specs and streams;
production paths may use either (the online evaluator for serving, this
module for cached results).

:func:`conjoin` intersects per-stream window sets — the multi-camera
conjunction: frames during which *every* camera of a scene has a match
window open.

:class:`QueryReport` renders the shared window table.  Its ``format()``
output is byte-identical whether the windows came from a served run or
an offline replay — the acceptance gate of the serving integration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.results import FrameResult
from repro.harness.tables import format_table
from repro.query.automaton import FramesOfInterest, QueryWindow, compile_phases
from repro.query.props import FrameState, TrackBook
from repro.query.spec import QuerySpec
from repro.schema import Schema, field as schema_field


def evaluate_frames(
    spec: QuerySpec,
    frames: Sequence[FrameResult],
    *,
    stream: str = "",
) -> FramesOfInterest:
    """Reference evaluation over a fully materialized stream.

    Runs an O(T^2 * K) dynamic program per emitted window: for each tick
    ``f`` and phase ``k``, the best (start, completion-trace) over all
    ways phases ``0..k`` can complete with phase ``k`` exactly at ``f``.
    The earliest full completion emits; the scan restarts past it.
    """
    phases = compile_phases(spec.expr)
    K = len(phases)
    T = len(frames)
    frame_numbers = [int(fr.frame) for fr in frames]

    # Phase-proposition truth timelines, computed causally once.
    book = TrackBook()
    pvals = np.zeros((K, T), dtype=bool)
    for t, fr in enumerate(frames):
        ids = fr.track_ids
        if ids is None:
            ids = np.full(len(fr.detections), -1, dtype=np.int64)
        book.step(fr.detections, ids)
        state = FrameState(fr.detections, ids, book)
        for k, ph in enumerate(phases):
            pvals[k, t] = ph.prop.evaluate(state)

    windows: List[QueryWindow] = []
    s = 0
    while s < T:
        match = _earliest_match(phases, pvals, s, T)
        if match is None:
            break
        start, trace = match
        end = trace[-1]
        windows.append(
            QueryWindow(
                stream=stream,
                start=frame_numbers[start],
                end=frame_numbers[end],
                start_tick=start,
                end_tick=end,
                phases=tuple(frame_numbers[t] for t in trace),
            )
        )
        s = end + 1

    return FramesOfInterest(
        stream=stream,
        query=spec.name,
        fingerprint=spec.fingerprint,
        windows=windows,
        frames_observed=T,
    )


def _earliest_match(phases, pvals, s: int, T: int):
    """Earliest-completion match for the scan starting at tick ``s``.

    Returns ``(start, trace)`` (the minimal ``(start,) + trace`` among
    candidates completing at the earliest possible tick) or ``None``.
    """
    K = len(phases)
    # best[k][f]: minimal (start, c_0, ..., c_k) tuple with phase k
    # completing exactly at tick f, or None.
    best: List[List[Optional[Tuple[int, ...]]]] = [[None] * T for _ in range(K)]

    ph0 = phases[0]
    for f in range(s, T):
        if ph0.deadline is not None and (f - s + 1) > ph0.deadline:
            break
        if ph0.mode == "eventually":
            if pvals[0, f]:
                best[0][f] = (f, f)
        else:
            lo = f - ph0.hold + 1
            if lo >= s and bool(pvals[0, lo : f + 1].all()):
                best[0][f] = (lo, f)

    for k in range(1, K):
        ph = phases[k]
        for f in range(s + k, T):
            if ph.mode == "eventually":
                if not pvals[k, f]:
                    continue
                c_hi = f - 1
            else:
                lo = f - ph.hold + 1
                if lo <= s or not bool(pvals[k, lo : f + 1].all()):
                    continue
                c_hi = lo - 1
            c_lo = s if ph.deadline is None else max(s, f - ph.deadline)
            cand = None
            for c in range(c_lo, c_hi + 1):
                prev = best[k - 1][c]
                if prev is None:
                    continue
                tup = prev + (f,)
                if cand is None or tup < cand:
                    cand = tup
            best[k][f] = cand

    for f in range(s, T):
        tup = best[K - 1][f]
        if tup is not None:
            return tup[0], tup[1:]
    return None


def conjoin(
    window_sets: Iterable[List[QueryWindow]],
) -> List[Tuple[int, int]]:
    """Frame intervals covered by a window in *every* given set.

    The multi-camera conjunction: given each stream's frames-of-interest
    over the same scene, the returned ``(start, end)`` frame intervals
    are those during which all streams simultaneously have a match
    window open.  Empty when any stream has no windows.
    """
    current: Optional[List[Tuple[int, int]]] = None
    for windows in window_sets:
        intervals = _normalize([(w.start, w.end) for w in windows])
        current = intervals if current is None else _intersect(current, intervals)
        if not current:
            return []
    return current or []


def _normalize(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Sort and merge overlapping/adjacent closed intervals."""
    out: List[Tuple[int, int]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


def _intersect(
    a: List[Tuple[int, int]], b: List[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    out: List[Tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def scene_of_stream(stream: str) -> str:
    """The scene a serve stream watches.

    The load generator names streams ``s<i>:<sequence>``; streams
    sharing the sequence suffix are cameras on the same scene.  Names
    without the prefix are their own scene.
    """
    _, sep, scene = stream.partition(":")
    return scene if sep else stream


@dataclass
class QueryReport(Schema):
    """Frames-of-interest across streams, plus per-scene conjunctions.

    Built identically from served or offline evaluation; ``format()``
    output is byte-for-byte the same for the same windows, which is what
    the serve-vs-offline determinism test pins.
    """

    query: str
    fingerprint: str
    STRICT = False

    streams: Dict[str, FramesOfInterest] = schema_field(default_factory=dict, required=True)
    conjunctions: Dict[str, List[Tuple[int, int]]] = schema_field(
        default_factory=dict, required=True
    )

    @classmethod
    def build(
        cls,
        spec: QuerySpec,
        by_stream: Dict[str, FramesOfInterest],
        *,
        scene_of=scene_of_stream,
    ) -> "QueryReport":
        """Assemble the report; conjunctions cover scenes with >= 2 cameras."""
        ordered = {name: by_stream[name] for name in sorted(by_stream)}
        scenes: Dict[str, List[str]] = {}
        for name in ordered:
            scenes.setdefault(scene_of(name), []).append(name)
        conjunctions = {
            scene: conjoin(ordered[name].windows for name in members)
            for scene, members in sorted(scenes.items())
            if len(members) >= 2
        }
        return cls(
            query=spec.name,
            fingerprint=spec.fingerprint,
            streams=ordered,
            conjunctions=conjunctions,
        )

    @property
    def total_windows(self) -> int:
        return sum(len(foi.windows) for foi in self.streams.values())

    def format(self) -> str:
        """The frames-of-interest window table (plus conjunctions)."""
        rows = []
        for name, foi in self.streams.items():
            if not foi.windows:
                rows.append([name, None, None, None, "-"])
            for w in foi.windows:
                rows.append(
                    [
                        name,
                        w.start,
                        w.end,
                        w.end - w.start + 1,
                        " ".join(str(p) for p in w.phases),
                    ]
                )
        out = [
            format_table(
                ["stream", "start", "end", "frames", "phase completions"],
                rows,
                title=(
                    f"Query '{self.query}' [{self.fingerprint[:12]}]: "
                    f"{self.total_windows} window(s) over "
                    f"{len(self.streams)} stream(s)"
                ),
            )
        ]
        if self.conjunctions:
            crows = []
            for scene, intervals in self.conjunctions.items():
                if not intervals:
                    crows.append([scene, None, None, None])
                for lo, hi in intervals:
                    crows.append([scene, lo, hi, hi - lo + 1])
            out.append("")
            out.append(
                format_table(
                    ["scene", "start", "end", "frames"],
                    crows,
                    title="Multi-camera conjunction (all cameras firing)",
                )
            )
        return "\n".join(out)
