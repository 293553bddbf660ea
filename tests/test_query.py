"""Scenario-query layer tests.

The load-bearing guarantees:

* propositions and query specs round-trip through JSON exactly, and the
  fingerprint is a stable content address;
* the online automaton implements the documented matching semantics
  (earliest completion, deadlines, always-runs, non-overlap);
* per-scene multi-camera conjunction is exact interval intersection;
* the acceptance gate — a query evaluated online inside the batched
  multi-stream server and offline over ``system.stream()`` produces
  byte-identical formatted reports;
* serve-side observability balances: one ``query.window`` sink record
  and one counter increment per emitted window.
"""

import json

import numpy as np
import pytest

from repro.api import Session
from repro.api.spec import DatasetSpec, ExperimentSpec, ServeSpec
from repro.core.config import SystemConfig
from repro.core.pipeline import build_system
from repro.core.results import FrameResult, OpsAccount
from repro.detections import Detections
from repro.obs.registry import MetricsRegistry
from repro.obs.sinks import Sink
from repro.query import (
    AllOf,
    Always,
    AnyOf,
    BoxInRegion,
    ClassPresent,
    CountAtLeast,
    Eventually,
    FramesOfInterest,
    Not,
    Prop,
    QueryEvaluator,
    QueryReport,
    QuerySpec,
    QueryWindow,
    Region,
    TemporalExpr,
    Then,
    TrackEnteredRegion,
    TrackLeftRegion,
    TrackPersisted,
    conjoin,
    evaluate_frames,
    expr_from_dict,
    prop_from_dict,
    scene_of_stream,
)
from repro.serve.loadgen import LoadSpec

CATDET = SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False)

CAR, PED = 0, 1


def frame(n_dets, frame_no, track_ids=None, labels=None, xs=None):
    """A minimal FrameResult with ``n_dets`` unit-score detections."""
    if xs is None:
        xs = [20.0 * i for i in range(n_dets)]
    boxes = np.asarray(
        [[x, 10.0, x + 16.0, 26.0] for x in xs], dtype=float
    ).reshape(-1, 4)
    labels = (
        np.zeros(n_dets, dtype=int) if labels is None else np.asarray(labels, int)
    )
    dets = Detections(boxes, np.ones(n_dets), labels)
    ids = None if track_ids is None else np.asarray(track_ids, dtype=np.int64)
    return FrameResult(
        frame=frame_no, detections=dets, ops=OpsAccount(), track_ids=ids
    )


def presence_frames(pattern):
    """Frames where '1' means one detection present, '0' means none."""
    return [frame(1 if ch == "1" else 0, i) for i, ch in enumerate(pattern)]


def windows_of(spec, frames):
    ev = QueryEvaluator(spec, stream="t")
    for fr in frames:
        ev.observe(fr)
    return [(w.start, w.end, w.phases) for w in ev.windows]


SEEN = CountAtLeast(1)


class TestPropositions:
    def test_region_validation(self):
        with pytest.raises(ValueError):
            Region(10, 0, 10, 5)

    def test_class_present_and_count(self):
        fr = frame(3, 0, labels=[CAR, CAR, PED])
        from repro.query.props import FrameState, TrackBook

        state = FrameState(fr.detections, None, TrackBook())
        assert ClassPresent(CAR).evaluate(state)
        assert ClassPresent(PED).evaluate(state)
        assert CountAtLeast(2, label=CAR).evaluate(state)
        assert not CountAtLeast(3, label=CAR).evaluate(state)
        assert Not(ClassPresent(CAR)).evaluate(state) is False
        assert AllOf((ClassPresent(CAR), ClassPresent(PED))).evaluate(state)
        assert AnyOf((ClassPresent(2), ClassPresent(PED))).evaluate(state)

    def test_box_in_region_by_center(self):
        fr = frame(1, 0, xs=[100.0])  # center x = 108
        from repro.query.props import FrameState, TrackBook

        state = FrameState(fr.detections, None, TrackBook())
        assert BoxInRegion(Region(100, 0, 120, 50)).evaluate(state)
        assert not BoxInRegion(Region(0, 0, 100, 50)).evaluate(state)

    def test_track_persistence_is_causal(self):
        spec = QuerySpec("persist", Eventually(TrackPersisted(3)))
        frames = [frame(1, i, track_ids=[7]) for i in range(5)]
        # Observed on frames 0,1,2 -> persisted >= 3 first true at tick 2
        # (and on every later tick, each its own restarted-scan window).
        assert windows_of(spec, frames) == [
            (2, 2, (2,)),
            (3, 3, (3,)),
            (4, 4, (4,)),
        ]

    def test_track_region_crossing(self):
        region = Region(50, 0, 150, 50)
        # Track 3 moves: outside (x=0) -> inside (x=92) -> outside (x=200).
        frames = [
            frame(1, 0, track_ids=[3], xs=[0.0]),
            frame(1, 1, track_ids=[3], xs=[92.0]),
            frame(1, 2, track_ids=[3], xs=[200.0]),
        ]
        entered = QuerySpec("in", Eventually(TrackEnteredRegion(region)))
        left = QuerySpec("out", Eventually(TrackLeftRegion(region)))
        assert windows_of(entered, frames) == [(1, 1, (1,))]
        assert windows_of(left, frames) == [(2, 2, (2,))]

    def test_first_observation_never_crosses(self):
        region = Region(50, 0, 150, 50)
        frames = [frame(1, 0, track_ids=[3], xs=[92.0])]
        assert windows_of(
            QuerySpec("in", Eventually(TrackEnteredRegion(region))), frames
        ) == []

    def test_prop_round_trips(self):
        props = [
            ClassPresent(CAR, min_score=0.5),
            CountAtLeast(3, label=PED),
            BoxInRegion(Region(0, 0, 100, 50), label=CAR),
            TrackPersisted(4, label=CAR),
            TrackEnteredRegion(Region(1, 2, 3, 4)),
            TrackLeftRegion(Region(1, 2, 3, 4), label=PED),
            Not(ClassPresent(CAR)),
            AllOf((ClassPresent(CAR), CountAtLeast(1))),
            AnyOf((ClassPresent(CAR), Not(CountAtLeast(2)))),
        ]
        for prop in props:
            clone = prop_from_dict(json.loads(json.dumps(prop.to_dict())))
            assert clone == prop


class TestQuerySpec:
    def test_round_trip_and_fingerprint(self):
        spec = QuerySpec(
            "demo",
            Then(
                (
                    Always(ClassPresent(CAR), frames=2, within=10),
                    Eventually(TrackPersisted(3), within=20),
                )
            ),
        )
        clone = QuerySpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.fingerprint == spec.fingerprint
        renamed = QuerySpec("demo2", spec.expr)
        assert renamed.fingerprint != spec.fingerprint

    def test_bare_prop_means_eventually(self):
        spec = QuerySpec("p", ClassPresent(CAR))
        assert spec.expr == Eventually(ClassPresent(CAR))
        then = Then((ClassPresent(CAR), ClassPresent(PED)))
        assert then.steps[0] == Eventually(ClassPresent(CAR))

    def test_nested_then_rejected(self):
        inner = Then((ClassPresent(CAR), ClassPresent(PED)))
        with pytest.raises(TypeError):
            Then((inner, ClassPresent(CAR)))

    def test_validation(self):
        with pytest.raises(ValueError):
            Always(ClassPresent(CAR), frames=3, within=2)
        with pytest.raises(ValueError):
            Eventually(ClassPresent(CAR), within=0)
        with pytest.raises(ValueError):
            Then((ClassPresent(CAR),))


# One instance of every serializable query class, float-typed fields
# built from ints where the API allows, and the exact ``json.dumps`` of
# its ``to_dict`` (unsorted, so key order is pinned too).
_R = Region(0, 0, 621, 375)
_W = QueryWindow("s0:0000", 3, 9, 1, 7, (5, 9))
_FOI = FramesOfInterest(
    stream="s0:0000",
    query="q",
    fingerprint="0123abcd" * 8,
    windows=[_W, QueryWindow("s0:0000", 12, 12, 10, 10, (12, 12))],
    frames_observed=30,
)
_FOI_EMPTY = FramesOfInterest(
    stream="s1:0000", query="q", fingerprint="0123abcd" * 8, windows=[], frames_observed=0
)
_FOI_BYTES = (
    '{"stream": "s0:0000", "query": "q", "fingerprint": "' + "0123abcd" * 8 + '", '
    '"frames_observed": 30, "windows": [{"stream": "s0:0000", "start": 3, "end": 9, '
    '"start_tick": 1, "end_tick": 7, "phases": [5, 9]}, {"stream": "s0:0000", '
    '"start": 12, "end": 12, "start_tick": 10, "end_tick": 10, "phases": [12, 12]}]}'
)
PINNED_BYTES = {
    "region": (_R, '{"x0": 0, "y0": 0, "x1": 621, "y1": 375}'),
    "class_present": (
        ClassPresent(0, min_score=0),
        '{"kind": "class_present", "label": 0, "min_score": 0}',
    ),
    "count_at_least": (
        CountAtLeast(3, label=1, min_score=0.25),
        '{"kind": "count_at_least", "k": 3, "label": 1, "min_score": 0.25}',
    ),
    "box_in_region": (
        BoxInRegion(_R, label=0, min_score=0.5),
        '{"kind": "box_in_region", "region": {"x0": 0, "y0": 0, "x1": 621, "y1": 375}, '
        '"label": 0, "min_score": 0.5}',
    ),
    "track_persisted": (
        TrackPersisted(5, label=0),
        '{"kind": "track_persisted", "min_frames": 5, "label": 0}',
    ),
    "track_entered_region": (
        TrackEnteredRegion(Region(1, 2.5, 30, 40)),
        '{"kind": "track_entered_region", "region": {"x0": 1, "y0": 2.5, "x1": 30, '
        '"y1": 40}, "label": null}',
    ),
    "track_left_region": (
        TrackLeftRegion(_R, label=1),
        '{"kind": "track_left_region", "region": {"x0": 0, "y0": 0, "x1": 621, '
        '"y1": 375}, "label": 1}',
    ),
    "not": (
        Not(ClassPresent(1)),
        '{"kind": "not", "prop": {"kind": "class_present", "label": 1, "min_score": 0.0}}',
    ),
    "all_of": (
        AllOf((ClassPresent(0), CountAtLeast(2))),
        '{"kind": "all_of", "props": [{"kind": "class_present", "label": 0, '
        '"min_score": 0.0}, {"kind": "count_at_least", "k": 2, "label": null, '
        '"min_score": 0.0}]}',
    ),
    "any_of": (
        AnyOf((ClassPresent(0, min_score=1), Not(TrackPersisted(2)))),
        '{"kind": "any_of", "props": [{"kind": "class_present", "label": 0, '
        '"min_score": 1}, {"kind": "not", "prop": {"kind": "track_persisted", '
        '"min_frames": 2, "label": null}}]}',
    ),
    "eventually": (
        Eventually(ClassPresent(0), within=40),
        '{"kind": "eventually", "prop": {"kind": "class_present", "label": 0, '
        '"min_score": 0.0}, "within": 40}',
    ),
    "always": (
        Always(CountAtLeast(1), frames=3),
        '{"kind": "always", "prop": {"kind": "count_at_least", "k": 1, "label": null, '
        '"min_score": 0.0}, "frames": 3, "within": null}',
    ),
    "then": (
        Then((ClassPresent(0), Always(ClassPresent(1), frames=2, within=10))),
        '{"kind": "then", "steps": [{"kind": "eventually", "prop": {"kind": '
        '"class_present", "label": 0, "min_score": 0.0}, "within": null}, {"kind": '
        '"always", "prop": {"kind": "class_present", "label": 1, "min_score": 0.0}, '
        '"frames": 2, "within": 10}]}',
    ),
    "query_window": (
        _W,
        '{"stream": "s0:0000", "start": 3, "end": 9, "start_tick": 1, "end_tick": 7, '
        '"phases": [5, 9]}',
    ),
    "frames_of_interest": (_FOI, _FOI_BYTES),
    "query_report": (
        QueryReport(
            query="q",
            fingerprint="0123abcd" * 8,
            streams={"s0:0000": _FOI, "s1:0000": _FOI_EMPTY},
            conjunctions={"0000": [(3, 9), (12, 12)]},
        ),
        '{"query": "q", "fingerprint": "' + "0123abcd" * 8 + '", "streams": '
        '{"s0:0000": ' + _FOI_BYTES + ', "s1:0000": {"stream": "s1:0000", "query": '
        '"q", "fingerprint": "' + "0123abcd" * 8 + '", "frames_observed": 0, '
        '"windows": []}}, "conjunctions": {"0000": [[3, 9], [12, 12]]}}',
    ),
}

EVERY_KIND = QuerySpec(
    "every-kind",
    Then(
        (
            Eventually(
                AllOf((ClassPresent(0, min_score=0), CountAtLeast(2, label=1), BoxInRegion(_R)))
            ),
            Always(
                AnyOf((TrackPersisted(3), TrackEnteredRegion(Region(10, 10, 200, 100), label=0))),
                frames=2,
                within=5,
            ),
            Eventually(Not(TrackLeftRegion(_R, label=0)), within=30),
        )
    ),
)
EVERY_KIND_JSON = (
    '{"expr": {"kind": "then", "steps": [{"kind": "eventually", "prop": {"kind": '
    '"all_of", "props": [{"kind": "class_present", "label": 0, "min_score": 0}, '
    '{"k": 2, "kind": "count_at_least", "label": 1, "min_score": 0.0}, {"kind": '
    '"box_in_region", "label": null, "min_score": 0.0, "region": {"x0": 0, "x1": 621, '
    '"y0": 0, "y1": 375}}]}, "within": null}, {"frames": 2, "kind": "always", "prop": '
    '{"kind": "any_of", "props": [{"kind": "track_persisted", "label": null, '
    '"min_frames": 3}, {"kind": "track_entered_region", "label": 0, "region": {"x0": '
    '10, "x1": 200, "y0": 10, "y1": 100}}]}, "within": 5}, {"kind": "eventually", '
    '"prop": {"kind": "not", "prop": {"kind": "track_left_region", "label": 0, '
    '"region": {"x0": 0, "x1": 621, "y0": 0, "y1": 375}}}, "within": 30}]}, '
    '"format": "repro-query-spec/1", "name": "every-kind"}'
)


def decode_like(obj, data):
    """``data`` decoded as the class of ``obj``."""
    if isinstance(obj, TemporalExpr):
        return expr_from_dict(data)
    return type(obj).from_dict(data)


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_BYTES))
    def test_to_dict_bytes(self, name):
        obj, pinned = PINNED_BYTES[name]
        assert json.dumps(obj.to_dict()) == pinned
        assert decode_like(obj, json.loads(pinned)) == obj

    @pytest.mark.parametrize("name", sorted(PINNED_BYTES))
    def test_decode_keeps_the_bytes(self, name):
        obj, pinned = PINNED_BYTES[name]
        assert json.dumps(decode_like(obj, json.loads(pinned)).to_dict()) == pinned
        if isinstance(obj, (Prop, TemporalExpr)):
            spec = QuerySpec("pinned", obj)
            assert QuerySpec.from_json(spec.to_json()).fingerprint == spec.fingerprint

    def test_spec_fingerprint_survives_its_json(self):
        from repro.__main__ import _example_query

        example = _example_query()
        assert example.fingerprint == (
            "eb2325c848597619707f638aa19f88a5699e1a56b990c36c020dfbeb9684eb3c"
        )
        for spec in (example, EVERY_KIND):
            assert QuerySpec.from_json(spec.to_json()).fingerprint == spec.fingerprint

    def test_every_kind_spec(self):
        assert list(EVERY_KIND.to_dict()) == ["format", "name", "expr"]
        assert EVERY_KIND.to_json() == EVERY_KIND_JSON
        assert EVERY_KIND.fingerprint == (
            "f5eaa273f4183489aa8a69ee6b743042ebf52879fe28d2da7ac9f67ab88d4151"
        )


_CP = {"kind": "class_present", "label": 0}
_KNOWN = (
    "known: ['all_of', 'any_of', 'box_in_region', 'class_present', "
    "'count_at_least', 'not', 'track_entered_region', 'track_left_region', "
    "'track_persisted']"
)
DECODE_ERRORS = [
    (prop_from_dict, {"kind": "nope"}, ValueError, f"unknown proposition kind 'nope'; {_KNOWN}"),
    (
        prop_from_dict,
        {"kind": "eventually", "prop": _CP},
        ValueError,
        f"unknown proposition kind 'eventually'; {_KNOWN}",
    ),
    (expr_from_dict, {"kind": "nope"}, ValueError, f"unknown proposition kind 'nope'; {_KNOWN}"),
    (expr_from_dict, {"label": 0}, ValueError, f"unknown proposition kind None; {_KNOWN}"),
    (prop_from_dict, {"kind": "class_present"}, KeyError, "'label'"),
    (prop_from_dict, {"kind": "box_in_region"}, KeyError, "'region'"),
    (
        prop_from_dict,
        {"kind": "box_in_region", "region": {"x0": 0, "y0": 0, "x1": 1}},
        KeyError,
        "'y1'",
    ),
    (prop_from_dict, {"kind": "all_of"}, KeyError, "'props'"),
    (prop_from_dict, {"kind": "all_of", "props": []}, ValueError, "AllOf needs at least one proposition"),
    (expr_from_dict, {"kind": "always", "prop": _CP}, KeyError, "'frames'"),
    (expr_from_dict, {"kind": "then"}, KeyError, "'steps'"),
    (expr_from_dict, {"kind": "then", "steps": [_CP]}, ValueError, "Then needs at least two steps, got 1"),
    (
        expr_from_dict,
        {"kind": "then", "steps": [{"kind": "then", "steps": [_CP, _CP]}, _CP]},
        TypeError,
        "Then cannot nest inside Then; pass a flat step tuple",
    ),
    (QuerySpec.from_dict, {"name": "x"}, ValueError, "query spec requires 'name' and 'expr'"),
    (
        QuerySpec.from_dict,
        {"format": "zz", "name": "x", "expr": _CP},
        ValueError,
        "unsupported query-spec format 'zz', expected 'repro-query-spec/1'",
    ),
    (QuerySpec.from_dict, {"name": "", "expr": _CP}, ValueError, "name must be a non-empty string, got ''"),
    (QueryWindow.from_dict, {"stream": "s"}, KeyError, "'start'"),
    (
        FramesOfInterest.from_dict,
        {"stream": "s", "query": "q", "fingerprint": "f", "windows": []},
        KeyError,
        "'frames_observed'",
    ),
    (QueryReport.from_dict, {"query": "q", "fingerprint": "f", "streams": {}}, KeyError, "'conjunctions'"),
]


class TestDecodeErrors:
    @pytest.mark.parametrize(
        "decode, data, exc, message",
        DECODE_ERRORS,
        ids=[f"{case[0].__qualname__}-{i}" for i, case in enumerate(DECODE_ERRORS)],
    )
    def test_error_type_and_message(self, decode, data, exc, message):
        with pytest.raises(exc) as info:
            decode(data)
        assert str(info.value) == message


class TestMalformedJson:
    """A value whose JSON shape does not fit its field is a ValueError
    naming the field, never an AttributeError or TypeError."""

    @pytest.mark.parametrize(
        "expr, message",
        [
            ({"kind": "not", "prop": 5}, "Not.prop: expected an object, got int"),
            (
                {"kind": "box_in_region", "region": [0, 0, 1, 1]},
                "BoxInRegion.region: expected an object, got list",
            ),
            ({"kind": "then", "steps": 7}, "Then.steps: expected a list, got int"),
            (
                {"kind": "all_of", "props": [{"kind": "class_present", "label": None}]},
                "ClassPresent.label: expected a number, got NoneType",
            ),
        ],
    )
    def test_shape_mismatch_names_the_field(self, expr, message):
        with pytest.raises(ValueError) as info:
            QuerySpec.from_dict({"name": "bad", "expr": expr})
        assert str(info.value) == message

    def test_non_object_spec(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            QuerySpec.from_json("[1, 2]")


class TestAutomaton:
    def test_eventually_earliest_completion(self):
        spec = QuerySpec("q", Eventually(SEEN))
        assert windows_of(spec, presence_frames("00101")) == [
            (2, 2, (2,)),
            (4, 4, (4,)),
        ]

    def test_always_needs_consecutive_run(self):
        spec = QuerySpec("q", Always(SEEN, frames=3))
        # Run of 2 broken at tick 2; run 3..5 completes at tick 5.
        assert windows_of(spec, presence_frames("1101110")) == [(3, 5, (5,))]

    def test_then_strict_order(self):
        spec = QuerySpec("q", Then((SEEN, Not(SEEN), SEEN)))
        # present(0), absent(1), present(2): one window spanning 0..2.
        assert windows_of(spec, presence_frames("1011")) == [(0, 2, (0, 1, 2))]

    def test_within_deadline_prunes(self):
        spec = QuerySpec("q", Then((SEEN, Eventually(SEEN, within=2))))
        # Phase 1 must complete <= 2 frames after phase 0's completion.
        assert windows_of(spec, presence_frames("10001")) == []
        # A later phase-0 completion rescues the deadline.
        assert windows_of(spec, presence_frames("10011")) == [(3, 4, (3, 4))]

    def test_phase0_deadline_anchors_at_scan_start(self):
        spec = QuerySpec("q", Eventually(SEEN, within=2))
        # First scan: true at tick 3 > deadline 2 from scan start 0 -> no
        # match ever (the scan start never advances without a match).
        assert windows_of(spec, presence_frames("00010")) == []
        # True at tick 1 is within the deadline; scan restarts at 2 and
        # the next true tick 2 is frame 1 of the new scan.
        assert windows_of(spec, presence_frames("0110")) == [
            (1, 1, (1,)),
            (2, 2, (2,)),
        ]

    def test_windows_never_overlap(self):
        spec = QuerySpec("q", Always(SEEN, frames=2))
        # Six consecutive true ticks -> runs [0,1], [2,3], [4,5].
        assert windows_of(spec, presence_frames("111111")) == [
            (0, 1, (1,)),
            (2, 3, (3,)),
            (4, 5, (5,)),
        ]

    def test_window_reports_frame_numbers(self):
        spec = QuerySpec("q", Eventually(SEEN))
        frames = [frame(0, 10), frame(1, 17)]
        ev = QueryEvaluator(spec, stream="s")
        assert ev.observe(frames[0]) is None
        w = ev.observe(frames[1])
        assert (w.start, w.end, w.start_tick, w.end_tick) == (17, 17, 1, 1)

    def test_observe_returns_the_emitted_window(self):
        spec = QuerySpec("q", Eventually(SEEN))
        ev = QueryEvaluator(spec, stream="s")
        emitted = [ev.observe(fr) for fr in presence_frames("0101")]
        assert [w is not None for w in emitted] == [False, True, False, True]
        assert [w for w in emitted if w is not None] == ev.windows

    def test_state_stays_bounded(self):
        spec = QuerySpec(
            "q", Then((SEEN, Eventually(SEEN, within=5), Always(SEEN, frames=2)))
        )
        ev = QueryEvaluator(spec, stream="s")
        sizes = []
        for fr in presence_frames("10" * 200):
            ev.observe(fr)
            sizes.append(len(ev._partials))
        # Dedup keys: (phase, run, anchor-within-deadline) — a small
        # constant for this spec, regardless of stream length.
        assert max(sizes) <= 16

    def test_finish_round_trips(self):
        spec = QuerySpec("q", Eventually(SEEN))
        ev = QueryEvaluator(spec, stream="s")
        for fr in presence_frames("0101"):
            ev.observe(fr)
        foi = ev.finish()
        clone = FramesOfInterest.from_dict(json.loads(json.dumps(foi.to_dict())))
        assert clone == foi


class TestConjunction:
    def w(self, start, end):
        return QueryWindow("s", start, end, start, end, (end,))

    def test_intersection(self):
        a = [self.w(0, 5), self.w(10, 20)]
        b = [self.w(3, 12), self.w(18, 25)]
        assert conjoin([a, b]) == [(3, 5), (10, 12), (18, 20)]

    def test_empty_stream_empties_conjunction(self):
        assert conjoin([[self.w(0, 5)], []]) == []

    def test_adjacent_windows_merge(self):
        a = [self.w(0, 4), self.w(5, 9)]
        b = [self.w(2, 7)]
        assert conjoin([a, b]) == [(2, 7)]

    def test_scene_of_stream(self):
        assert scene_of_stream("s0:kitti-like-0000") == "kitti-like-0000"
        assert scene_of_stream("plain-name") == "plain-name"


PERSIST_QUERY = QuerySpec(
    "car-persists",
    Then((Eventually(ClassPresent(CAR)), Eventually(TrackPersisted(3, label=CAR), within=30))),
)


def offline_replay_report(query, dataset, num_streams, frames_per_stream):
    """The CLI's offline mode: fresh system per stream, loadgen naming."""
    import itertools

    by_stream = {}
    for i in range(num_streams):
        seq = dataset.sequences[i % len(dataset.sequences)]
        frames = list(
            itertools.islice(build_system(CATDET).stream(seq), frames_per_stream)
        )
        name = f"s{i}:{seq.name}"
        by_stream[name] = evaluate_frames(query, frames, stream=name)
    return QueryReport.build(query, by_stream)


class ListSink(Sink):
    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


class TestServeIntegration:
    def serve_spec(self, query=PERSIST_QUERY):
        return ServeSpec(
            system=CATDET,
            dataset=DatasetSpec("kitti", num_sequences=2, frames_per_sequence=40),
            load=LoadSpec(pattern="replay", num_streams=4, frames_per_stream=40),
            query=query,
        )

    def test_serve_vs_offline_byte_identical(self):
        """Acceptance gate: served (multi-stream, batched) == offline."""
        session = Session()
        spec = self.serve_spec()
        report = session.serve(spec, use_cache=False)
        served = report.query_report()
        dataset = session.dataset(spec.dataset)
        offline = offline_replay_report(PERSIST_QUERY, dataset, 4, 40)
        assert served.format() == offline.format()
        assert served.to_dict() == offline.to_dict()
        assert served.total_windows > 0
        # Same scene watched by two cameras -> a conjunction per sequence.
        assert set(served.conjunctions) == {s.name for s in dataset.sequences}

    def test_observability_balances(self):
        metrics = MetricsRegistry()
        sink = ListSink()
        report = Session().serve(
            self.serve_spec(), use_cache=False, metrics=metrics, sinks=sink
        )
        qreport = report.query_report()
        window_records = [
            r for r in sink.records if r.get("record") == "query.window"
        ]
        assert len(window_records) == qreport.total_windows
        series = metrics.snapshot()["serve_query_events_total"]["series"]
        assert sum(s["value"] for s in series) == qreport.total_windows
        per_stream = {s["labels"][0]: s["value"] for s in series}
        assert per_stream == {
            name: len(foi.windows) for name, foi in qreport.streams.items()
        }
        summary = [r for r in sink.records if r.get("record") == "serve.summary"][0]
        assert summary["query"] == PERSIST_QUERY.name
        assert summary["query_events"] == qreport.total_windows

    def test_report_round_trips_with_query(self):
        report = Session().serve(self.serve_spec(), use_cache=False)
        clone = type(report).from_dict(json.loads(json.dumps(report.to_dict())))
        assert clone.query_windows == report.query_windows
        assert clone.format() == report.format()

    def test_report_cached_with_query(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        spec = self.serve_spec()
        fresh = session.serve(spec)
        cached = session.serve(spec)
        assert session.cache_hits == 1
        assert cached.query_report().format() == fresh.query_report().format()

    def test_query_changes_serve_fingerprint(self):
        with_query = self.serve_spec()
        without = ServeSpec(
            system=CATDET, dataset=with_query.dataset, load=with_query.load
        )
        assert with_query.fingerprint != without.fingerprint
        clone = ServeSpec.from_dict(json.loads(json.dumps(with_query.to_dict())))
        assert clone.fingerprint == with_query.fingerprint
        assert clone.query == PERSIST_QUERY

    def test_no_query_report_without_query(self):
        spec = ServeSpec(
            system=CATDET,
            dataset=DatasetSpec("kitti", num_sequences=1, frames_per_sequence=20),
            load=LoadSpec(pattern="replay", num_streams=1, frames_per_stream=20),
        )
        report = Session().serve(spec, use_cache=False)
        assert report.query_windows is None
        assert report.query_report() is None


class TestSessionQuery:
    def test_query_over_cached_run(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        spec = ExperimentSpec(
            system=CATDET,
            dataset=DatasetSpec("kitti", num_sequences=2, frames_per_sequence=40),
        )
        report = session.query(spec, PERSIST_QUERY)
        assert set(report.streams) == {
            s.name for s in session.dataset(spec.dataset).sequences
        }
        assert report.total_windows > 0
        # Second query re-reads the cached experiment result.
        again = session.query(spec, PERSIST_QUERY)
        assert session.cache_hits >= 1
        assert again.format() == report.format()

    def test_rejects_non_spec(self):
        with pytest.raises(TypeError):
            Session().query(
                ExperimentSpec(system=CATDET), {"kind": "class_present"}
            )
