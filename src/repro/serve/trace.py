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
too.  An entry stores each distinct :class:`FrameRecord` (by identity:
streams in step share their lane's records) once, as columns of
:func:`repro.harness.io.encode_columns`, and each stream its sequence
and record rows; an older-format entry is a miss.  A process decodes a
stored trace once while its bytes stay the same, and never decodes one
it stored (:class:`TraceStore` holds that one trace, read-only).

:class:`TraceRunner` + :func:`traced_execute` implement the replay fast
path of the one serving event loop (:class:`~repro.fleet.loop.
ServingLoop`, behind both servers): while a stream's admitted
subsequence matches the trace prefix, engine stages are skipped and the
recorded outputs and cost terms are fed through the batcher/SLO/metrics
machinery unchanged; on first divergence (a shed frame changed tracker
state) the stream falls back to live compute for the rest of the run,
after re-running the replayed prefix to rebuild its causal state.
Reports are byte-identical to the live path either way.

Streams replaying the same sequence that have admitted the same frames
produce the same outputs, so a traced run computes them once: every
stream without stored records follows its sequence's *lane* (a private
pipeline plus the records it produced).  A stream in step with its lane
serves the lane's record, or has the lane compute the next frame once
for every stream that asks; a stream that sheds differently diverges
and goes live exactly as above.  ``frames_replayed`` still counts
stored-trace frames only; the ``serve_trace_frames_total{source}``
counter splits every traced frame into ``replayed``, ``shared`` and
``live``.  Shared
:class:`~repro.core.results.FrameResult`\\ s are only ever read
downstream (result lists and query evaluators hold references to them).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.api.cache import EntryStore
from repro.api.spec import content_digest
from repro.core.config import config_from_dict, config_to_dict
from repro.core.results import FrameResult, FrameResultBuffer
from repro.engine.stages import run_frame_batch
from repro.harness.io import decode_columns, encode_columns

TRACE_FORMAT = "repro-compute-trace/2"


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
    return content_digest({"format": TRACE_FORMAT, **trace_sections(spec)})


def trace_sections(spec: Any) -> Dict[str, Any]:
    """The system/dataset/load sections of ``spec`` that key its trace."""
    system, dataset, load = spec.system, spec.dataset, spec.load
    return {"system": config_to_dict(system), "dataset": dataset.to_dict(), "load": load.to_dict()}


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


class StreamTrace:
    """One stream's recorded admitted-frame prefix."""

    __slots__ = ("sequence", "records")

    def __init__(self, sequence: str, records: List[FrameRecord]):
        self.sequence = sequence
        self.records = records


class ComputeTrace:
    """Recorded compute phase of one (system, dataset, load) deployment."""

    __slots__ = ("streams",)

    def __init__(self, streams: Optional[Dict[str, StreamTrace]] = None):
        self.streams: Dict[str, StreamTrace] = streams or {}

    @property
    def total_frames(self) -> int:
        return sum(len(st.records) for st in self.streams.values())

    def to_dict(self) -> Dict[str, Any]:
        """Each distinct record once, as ``records`` columns, and per
        stream its ``sequence`` and the ``rows`` of its records."""
        rows: Dict[int, int] = {}  # id(record) -> its row in the table
        table, invocations, streams = FrameResultBuffer(), [], {}
        for name, st in sorted(self.streams.items()):
            index = []
            for rec in st.records:
                row = rows.get(id(rec))
                if row is None:
                    row = rows[id(rec)] = len(invocations)
                    table.append(rec.result)
                    invocations.append(rec.invocations)
                index.append(row)
            streams[name] = {"sequence": st.sequence, **encode_columns({"rows": index})}
        records = encode_columns({**table.to_columns(), "invocations": invocations})
        return {"format": TRACE_FORMAT, "records": records, "streams": streams}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ComputeTrace":
        """Inverse of :meth:`to_dict`: streams share their records' one
        read-only :class:`FrameRecord` each."""
        if data.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"not a {TRACE_FORMAT} payload: {data.get('format')!r}"
            )
        columns = decode_columns(data["records"])
        invocations = columns.pop("invocations").tolist()
        table = FrameResultBuffer.from_columns(columns)
        if len(invocations) != len(table):
            raise ValueError("inconsistent trace record columns")
        records = [
            FrameRecord(result.frame, _freeze(result), count)
            for result, count in zip(table, invocations)
        ]
        streams = {}
        for name, st in data["streams"].items():
            index = decode_columns({"rows": st["rows"]})["rows"].tolist()
            if index and not 0 <= min(index) <= max(index) < len(records):
                raise ValueError(f"stream {name!r} names a record the trace lacks")
            streams[name] = StreamTrace(st["sequence"], [records[i] for i in index])
        return cls(streams)


def _freeze(result: FrameResult) -> FrameResult:
    """Make ``result``'s arrays read-only (a held trace's runs share them)."""
    det = result.detections
    for array in (det.boxes, det.scores, det.labels, result.track_ids):
        if array is not None:
            array.flags.writeable = False
    return result


#: The last trace this process decoded or stored:
#: ``(fingerprint, entry bytes, trace)``.
_held: Optional[Tuple[str, bytes, ComputeTrace]] = None


class TraceStore(EntryStore):
    """Content-addressed on-disk store of :class:`ComputeTrace`\\ s.

    Shares the result cache's root and layout
    (:class:`~repro.api.cache.EntryStore`) — sweep workers sharing a
    cache directory can therefore share traces without coordination (a
    concurrent overwrite at worst loses a few replayable frames until
    the next long run re-records them; it never corrupts an entry or
    changes any report).

    ``load`` decodes an entry only when its fingerprint or bytes differ
    from the one ``(fingerprint, bytes, trace)`` entry this process
    holds (a sweep replays one trace), so an overwritten, corrupt or
    deleted entry is never served from it.  ``store`` leaves the trace
    it wrote held under the bytes it wrote, so the process that recorded
    a trace never decodes it.  Runs share the held trace, hence its
    read-only arrays.  The entry is module-level because a parallel
    sweep runs each point in a fresh ``Session`` in a pool child
    (:func:`repro.serve.tune._evaluate_point`); forked children start
    with the parent's.
    """

    ENTRY_FORMAT = "repro-trace-cache/2"

    def load(self, fingerprint: str) -> Optional[ComputeTrace]:
        global _held
        held = _held  # read once: another thread may replace it meanwhile
        raw = self._read_raw(fingerprint)
        if held is not None and held[:2] == (fingerprint, raw):
            return held[2]
        trace = self._parse(raw, "trace", ComputeTrace.from_dict)
        if trace is not None:
            _held = (fingerprint, raw, trace)
        return trace

    def store(self, fingerprint: str, trace: ComputeTrace, *, spec=None) -> Path:
        """Write ``trace`` beside the :func:`trace_sections` of ``spec``,
        then hold it (its arrays made read-only) under the written bytes."""
        global _held
        sections = None if spec is None else trace_sections(spec)
        raw = self._dumps(self._entry(fingerprint, spec=sections, trace=trace.to_dict()))
        path = self._write_bytes(fingerprint, raw)
        for st in trace.streams.values():
            for rec in st.records:
                _freeze(rec.result)
        _held = (fingerprint, raw, trace)
        return path

    @classmethod
    def _label(cls, payload: Dict[str, Any]) -> str:
        streams = payload["trace"]["streams"].values()
        frames = sum(len(decode_columns({"rows": st["rows"]})["rows"]) for st in streams)
        spec, name = payload.get("spec"), ""
        if spec is not None:  # entries written without the key sections
            name = (
                f"{config_from_dict(spec['system']).label} @ {spec['dataset']['family']} "
                f"x{spec['load']['num_streams']} {spec['load']['pattern']}, "
            )
        return f"compute trace: {name}{len(streams)} stream(s), {frames} frame(s)"


class _Lane:
    """One sequence's shared compute: a private pipeline and the records
    it produced, in the order its streams first asked for them."""

    __slots__ = ("pipeline", "records")

    def __init__(self, pipeline: Any, sequence: Any):
        pipeline.begin_sequence(sequence)
        self.pipeline = pipeline
        self.records: List[FrameRecord] = []


class _Cursor:
    """One stream's position over its stored prefix or its sequence lane."""

    __slots__ = ("sequence", "records", "lane", "pos", "live")

    def __init__(self, sequence: str, records: List[FrameRecord], lane=None):
        self.sequence = sequence
        self.records = records
        self.lane = lane
        self.pos = 0
        self.live = False


class TraceRunner:
    """Per-run replay/record driver of the serving loop.

    Holds one cursor per stream over the stored trace (if any) and
    accumulates the run's own outgoing trace — the replayed prefix plus
    whatever was computed live, so a partially-diverged run still leaves
    behind a longer, more reusable trace than it started with.  Every
    stream without stored records follows its sequence's lane instead,
    whose pipelines ``new_pipeline()`` builds, so streams replaying one
    sequence compute each admitted frame once.
    """

    def __init__(
        self, trace: Optional[ComputeTrace], *, shareable: bool, new_pipeline
    ):
        self._trace = trace if trace is not None else ComputeTrace()
        self.shareable = shareable
        self.frames_replayed = 0
        self.frames_counter = None  # looked up at the run's first batch
        self._new_pipeline = new_pipeline
        self._lanes: Dict[str, _Lane] = {}
        self._cursors: Dict[str, _Cursor] = {}
        self._out: Dict[str, StreamTrace] = {}

    def _cursor(self, stream: str, sequence: Any) -> _Cursor:
        name = sequence.name
        cur = self._cursors.get(stream)
        if cur is not None:
            if cur.sequence != name:
                # The switch restarted the stream's own pipeline: nothing
                # to replay or re-run, compute live from here on.
                cur.sequence, cur.pos, cur.live = name, 0, True
            return cur
        stored = self._trace.streams.get(stream)
        records = stored.records if stored is not None and stored.sequence == name else []
        lane = None
        if not records:
            lane = self._lanes.get(name)
            if lane is None:
                lane = self._lanes[name] = _Lane(self._new_pipeline(), sequence)
            records = lane.records
        cur = self._cursors[stream] = _Cursor(name, records, lane)
        return cur

    def match(self, stream: str, sequence: Any, frame: int):
        """``(record, source, pipeline)`` for this frame, advancing the
        cursor, or ``None`` once the stream is (or just went) past its
        records.

        ``source`` is ``"replayed"`` (stored trace) or ``"shared"``
        (another stream's lane frame), with no pipeline; or ``"live"``:
        a new lane placeholder whose result the caller computes on the
        returned lane pipeline.
        """
        cur = self._cursor(stream, sequence)
        if cur.live:
            return None
        if cur.pos < len(cur.records):
            rec = cur.records[cur.pos]
            if rec.frame != frame:
                return None
            hit = rec, "replayed" if cur.lane is None else "shared", None
        elif cur.lane is not None:
            rec = FrameRecord(frame, None, 0)
            cur.records.append(rec)
            hit = rec, "live", cur.lane.pipeline
        else:
            return None
        cur.pos += 1
        return hit

    def go_live(self, stream: str, sequence: Any) -> List[FrameRecord]:
        """Mark ``stream`` diverged; returns the consumed prefix that
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
    """The replay-aware engine half of ``ServingLoop._execute``: the
    batch's ``(stream states, frame results, invocations)``.

    Serves each frame from the stream's stored trace prefix or its
    sequence lane while its admitted subsequence matches them, computes
    the rest — new lane frames on the lane's pipeline, once however many
    streams of the batch need them, and diverged streams on their own —
    and reassembles per-frame results and the batch invocation count
    exactly as the live path would have measured them:

    * shareable systems make a constant number of batched detector calls
      per dispatch whatever the batch holds, so the computed cohort's
      delta *is* the batch's bill; a batch that computed nothing bills
      the recorded constant instead;
    * per-stream pipelines (no cross-stream coalescing) bill the sum of
      per-frame deltas, measured one singleton engine call per computed
      frame and billed again to every stream that shares it — identical
      grouping to the live path, whose stage groups are singletons for
      these systems anyway.

    A stream that diverges first re-runs its consumed prefix on its own
    pipeline (outside the measurement window — those invocations were
    already billed when the frames were dispatched) and stays live from
    then on.  Each frame bumps ``serve_trace_frames_total`` under its
    source: ``replayed``, ``shared`` or ``live`` (computed here).
    """
    runner = loop._trace_runner
    records: List[FrameRecord] = []
    states: List[Any] = []
    sources: List[str] = []
    work: List[tuple] = []
    computed: List[FrameRecord] = []
    for item in batch:
        req = item.request
        state = loop._stream_state(req)
        states.append(state)
        hit = runner.match(req.stream, req.sequence, req.frame)
        if hit is None:
            for old in runner.go_live(req.stream, req.sequence):
                run_frame_batch([(state.pipeline, req.sequence, old.frame)])
            hit = FrameRecord(req.frame, None, 0), "live", state.pipeline
        rec, source, pipeline = hit
        if pipeline is not None:
            work.append((pipeline, req.sequence, req.frame))
            computed.append(rec)
        records.append(rec)
        sources.append(source)

    if not runner.shareable:
        for rec, one in zip(computed, work):
            before = loop._measured_invocations()
            rec.result = run_frame_batch([one], metrics=loop.metrics)[0]
            rec.invocations = loop._measured_invocations() - before
        invocations = sum(rec.invocations for rec in records)
    elif work:
        before = loop._measured_invocations()
        outs = run_frame_batch(work, metrics=loop.metrics)
        invocations = loop._measured_invocations() - before
        for rec, fr in zip(computed, outs):
            rec.result, rec.invocations = fr, invocations
    else:
        invocations = max(rec.invocations for rec in records)
    runner.frames_replayed += sources.count("replayed")
    counter = runner.frames_counter = runner.frames_counter or loop.metrics.counter(
        "serve_trace_frames_total",
        "traced frames served, by where their result came from",
        labels=("source",),
    )
    for source in ("replayed", "shared", "live"):
        if source in sources:
            counter.inc(sources.count(source), labels=(source,))
    for item, rec in zip(batch, records):
        runner.append(item.request.stream, item.request.sequence.name, rec)
    return states, [rec.result for rec in records], invocations
