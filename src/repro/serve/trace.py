"""Compute/timing split for the serving simulator: record & replay.

A served configuration factors into two halves.  The **compute phase**
— which detections, track ids, MACs and detector invocations each
admitted frame produces — depends only on the system, the dataset and
the offered load, because the determinism contract keys every sample by
``(model, seed, sequence, frame)`` and tracker state is strictly
per-stream causal.  The **timing phase** — batching, queue waits,
shedding, SLO percentiles — depends on the policy and service-model
knobs a tuning sweep actually varies.

:class:`ComputeTrace` captures the compute phase once: per stream, the
ordered admitted-frame prefix with each frame's lossless
:class:`~repro.core.results.FrameResult` and its detector-invocation
cost.  :class:`TraceStore` content-addresses traces in the same
two-level cache layout as :class:`~repro.api.cache.ResultCache` (atomic
writes, corrupt-entry-is-a-miss), keyed by
:func:`trace_fingerprint` — a digest of the system/dataset/load
sections *only*, so every policy/service/query/replica variation of one
deployment shares a single trace, and serve and fleet runs share it
too.

:class:`TraceRunner` + :func:`traced_execute` implement the replay fast
path of the one serving event loop (:class:`~repro.fleet.loop.
ServingLoop`, behind both servers): while a stream's admitted
subsequence matches the trace prefix, engine stages are skipped and the
recorded outputs and cost terms are fed through the batcher/SLO/metrics
machinery unchanged; on first divergence (a shed frame changed tracker
state) the stream falls back to live compute for the rest of the run,
after re-running the replayed prefix to rebuild its causal state.
Reports are byte-identical to the live path either way.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.api.cache import EntryStore
from repro.core.config import config_to_dict
from repro.core.results import FrameResult
from repro.engine.stages import run_frame_batch
from repro.harness.io import _frame_dict, _frame_from_dict

TRACE_FORMAT = "repro-compute-trace/1"


def trace_fingerprint(spec: Any) -> str:
    """Content address of ``spec``'s compute phase.

    Hashes the system/dataset/load sections only — the policy, service
    model, query and fleet-shape knobs all leave the per-frame engine
    outputs unchanged, so every grid point of a tuning sweep maps to the
    same trace.  Works for :class:`~repro.api.spec.ServeSpec` and
    :class:`~repro.fleet.spec.FleetSpec` alike (their sections share one
    shape), which is what lets a fleet sweep replay a trace a bare-server
    run recorded.
    """
    payload = {
        "format": TRACE_FORMAT,
        "system": config_to_dict(spec.system),
        "dataset": spec.dataset.to_dict(),
        "load": spec.load.to_dict(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class FrameRecord:
    """One admitted frame's recorded engine outputs.

    ``invocations`` is the frame's detector-invocation cost term: for
    shareable systems the whole batch's invocation delta (constant per
    system — stage sharing means a batch costs the same number of
    batched detector calls whatever its size), for per-stream pipelines
    the frame's own measured delta.
    """

    __slots__ = ("frame", "result", "invocations")

    def __init__(self, frame: int, result: FrameResult, invocations: int):
        self.frame = frame
        self.result = result
        self.invocations = invocations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invocations": self.invocations,
            "result": _frame_dict(self.result),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FrameRecord":
        result = _frame_from_dict(data["result"])
        return cls(
            frame=result.frame,
            result=result,
            invocations=int(data["invocations"]),
        )


class StreamTrace:
    """One stream's recorded admitted-frame prefix."""

    __slots__ = ("sequence", "records")

    def __init__(self, sequence: str, records: List[FrameRecord]):
        self.sequence = sequence
        self.records = records

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sequence": self.sequence,
            "records": [rec.to_dict() for rec in self.records],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StreamTrace":
        return cls(
            sequence=data["sequence"],
            records=[FrameRecord.from_dict(r) for r in data["records"]],
        )


class ComputeTrace:
    """Recorded compute phase of one (system, dataset, load) deployment."""

    __slots__ = ("streams",)

    def __init__(self, streams: Optional[Dict[str, StreamTrace]] = None):
        self.streams: Dict[str, StreamTrace] = streams or {}

    @property
    def total_frames(self) -> int:
        return sum(len(st.records) for st in self.streams.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": TRACE_FORMAT,
            "streams": {
                name: st.to_dict() for name, st in sorted(self.streams.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ComputeTrace":
        if data.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"not a {TRACE_FORMAT} payload: {data.get('format')!r}"
            )
        return cls(
            {
                name: StreamTrace.from_dict(st)
                for name, st in data["streams"].items()
            }
        )


class TraceStore(EntryStore):
    """Content-addressed on-disk store of :class:`ComputeTrace`\\ s.

    Shares the result cache's root and layout
    (:class:`~repro.api.cache.EntryStore`) — sweep workers sharing a
    cache directory can therefore share traces without coordination (a
    concurrent overwrite at worst loses a few replayable frames until
    the next long run re-records them; it never corrupts an entry or
    changes any report).
    """

    def load(self, fingerprint: str) -> Optional[ComputeTrace]:
        return self._read(fingerprint, "trace", ComputeTrace.from_dict)

    def store(self, fingerprint: str, trace: ComputeTrace) -> Path:
        return self._write(
            fingerprint,
            {
                "format": "repro-trace-cache/1",
                "fingerprint": fingerprint,
                "trace": trace.to_dict(),
            },
        )


class _Cursor:
    """Replay position over one stream's recorded prefix."""

    __slots__ = ("records", "pos", "live")

    def __init__(self, records: List[FrameRecord]):
        self.records = records
        self.pos = 0
        self.live = not records


class TraceRunner:
    """Per-run replay/record driver of the serving loop.

    Holds one cursor per stream over the stored trace (if any) and
    accumulates the run's own outgoing trace — the replayed prefix plus
    whatever was computed live, so a partially-diverged run still leaves
    behind a longer, more reusable trace than it started with.
    """

    def __init__(self, trace: Optional[ComputeTrace], *, shareable: bool):
        self._trace = trace if trace is not None else ComputeTrace()
        self.shareable = shareable
        self.frames_replayed = 0
        self._cursors: Dict[str, _Cursor] = {}
        self._out: Dict[str, StreamTrace] = {}

    def _cursor(self, stream: str, sequence: str) -> _Cursor:
        cur = self._cursors.get(stream)
        if cur is None:
            stored = self._trace.streams.get(stream)
            records = (
                stored.records
                if stored is not None and stored.sequence == sequence
                else []
            )
            cur = self._cursors[stream] = _Cursor(records)
        return cur

    def match(self, stream: str, sequence: str, frame: int) -> Optional[FrameRecord]:
        """The record to replay for this frame, advancing the cursor —
        or ``None`` if the stream is (or just went) past its prefix."""
        cur = self._cursor(stream, sequence)
        if cur.live or cur.pos >= len(cur.records):
            return None
        rec = cur.records[cur.pos]
        if rec.frame != frame:
            return None
        cur.pos += 1
        return rec

    def go_live(self, stream: str, sequence: str) -> List[FrameRecord]:
        """Mark ``stream`` diverged; returns the replayed prefix that
        must be re-run live to rebuild causal tracker state."""
        cur = self._cursor(stream, sequence)
        if cur.live:
            return []
        cur.live = True
        return cur.records[: cur.pos]

    def append(self, stream: str, sequence: str, record: FrameRecord) -> None:
        out = self._out.get(stream)
        if out is None:
            out = self._out[stream] = StreamTrace(sequence, [])
        out.records.append(record)

    def out_trace(self) -> ComputeTrace:
        return ComputeTrace(dict(self._out))


def traced_execute(loop: Any, batch: List[Any]):
    """Replay-aware ``ServingLoop._execute``.

    Splits the batch into replayable frames (the stream's admitted
    subsequence still matches its trace prefix) and live ones, runs only
    the live cohort through the engine, and reassembles per-frame
    results, the batch invocation count and MACs exactly as the live
    path would have measured them:

    * shareable systems make a constant number of batched detector calls
      per dispatch whatever the batch holds, so the live cohort's delta
      *is* the batch's bill; an all-replay batch bills the recorded
      constant instead;
    * per-stream pipelines (no cross-stream coalescing) bill the sum of
      per-frame deltas, measured one singleton engine call per live
      frame — identical grouping to the live path, whose stage groups
      are singletons for these systems anyway.

    A stream that diverges first re-runs its replayed prefix (outside
    the measurement window — those invocations were already billed when
    the replayed frames were dispatched) and stays live from then on.
    """
    runner = loop._trace_runner
    n = len(batch)
    states: List[Any] = [None] * n
    records: List[Optional[FrameRecord]] = [None] * n
    live: List[int] = []
    for idx, item in enumerate(batch):
        req = item.request
        state = loop._stream_state(req)
        states[idx] = state
        rec = runner.match(req.stream, req.sequence.name, req.frame)
        if rec is not None:
            records[idx] = rec
            continue
        prefix = runner.go_live(req.stream, req.sequence.name)
        for old in prefix:
            run_frame_batch([(state.pipeline, req.sequence, old.frame)])
        live.append(idx)

    frame_results: List[Optional[FrameResult]] = [None] * n
    per_frame_inv: Dict[int, int] = {}
    live_inv = 0
    if live:
        if runner.shareable:
            before = loop._measured_invocations()
            outs = run_frame_batch(
                [
                    (states[i].pipeline, batch[i].request.sequence, batch[i].request.frame)
                    for i in live
                ],
                metrics=loop.metrics,
            )
            live_inv = loop._measured_invocations() - before
            for i, fr in zip(live, outs):
                frame_results[i] = fr
                per_frame_inv[i] = live_inv
        else:
            for i in live:
                before = loop._measured_invocations()
                fr = run_frame_batch(
                    [(states[i].pipeline, batch[i].request.sequence, batch[i].request.frame)],
                    metrics=loop.metrics,
                )[0]
                delta = loop._measured_invocations() - before
                frame_results[i] = fr
                per_frame_inv[i] = delta
                live_inv += delta

    replayed_inv: List[int] = []
    for idx, rec in enumerate(records):
        if rec is not None:
            frame_results[idx] = rec.result
            replayed_inv.append(rec.invocations)
    runner.frames_replayed += len(replayed_inv)

    if runner.shareable:
        invocations = live_inv if live else (max(replayed_inv) if replayed_inv else 0)
    else:
        invocations = live_inv + sum(replayed_inv)
    macs = sum(fr.ops.total for fr in frame_results)

    windows = []
    for idx, item in enumerate(batch):
        state = states[idx]
        fr = frame_results[idx]
        rec = records[idx]
        if rec is None:
            rec = FrameRecord(item.request.frame, fr, per_frame_inv[idx])
        runner.append(item.request.stream, item.request.sequence.name, rec)
        state.results.append(fr)
        if state.query is not None:
            window = state.query.observe(fr)
            if window is not None:
                windows.append(window)
    return frame_results, invocations, macs, windows
