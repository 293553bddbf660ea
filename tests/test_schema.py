"""The schema's value checks: what every spec, section, query class and
report accepts, at construction and when decoded from JSON.

Numbers are checked, never converted: an ``int`` field takes integers
only, a ``float`` field integers and floats, and neither a bool or a
string.  Decoding builds the object through its constructor, so a value
read from JSON meets the same rule, with the same message, as a value
passed in code.
"""

import json

import numpy as np
import pytest

from repro.api.spec import DatasetSpec, EvalSpec, ExecSpec, ExperimentSpec, ServeSpec
from repro.core.config import SystemConfig
from repro.cost import DeviceProfile
from repro.fleet import AutoscalerPolicy, FleetSpec
from repro.query import (
    BoxInRegion,
    ClassPresent,
    CountAtLeast,
    Eventually,
    QuerySpec,
    QueryWindow,
    Region,
    TrackPersisted,
    prop_from_dict,
)
from repro.serve import LoadSpec, ServePolicy, ServiceModel
from repro.tracker import TrackerConfig

SYSTEM = SystemConfig("single", "resnet50")


class TestFoundExamples:
    """The inputs that used to build, or to decode into something else."""

    def test_non_integral_count_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"^CountAtLeast\.k: expected an integer, got 2\.7$"):
            CountAtLeast(2.7)

    def test_non_integral_count_is_rejected_at_decode(self):
        with pytest.raises(ValueError, match=r"^CountAtLeast\.k: expected an integer, got 2\.7$"):
            prop_from_dict({"kind": "count_at_least", "k": 2.7})

    def test_string_count_is_rejected(self):
        with pytest.raises(ValueError, match=r"^CountAtLeast\.k: expected a number, got str$"):
            prop_from_dict({"kind": "count_at_least", "k": "3"})

    def test_string_score_is_rejected(self):
        with pytest.raises(ValueError, match=r"^ClassPresent\.min_score: expected a number, got str$"):
            prop_from_dict({"kind": "class_present", "label": 0, "min_score": "nan"})

    def test_valid_counts_still_round_trip(self):
        spec = QuerySpec("q", Eventually(CountAtLeast(2, label=1, min_score=0)))
        assert QuerySpec.from_json(spec.to_json()) == spec
        assert QuerySpec.from_json(spec.to_json()).fingerprint == spec.fingerprint


#: (id, builder taking one keyword, the field, a valid value)
SECTIONS = [
    ("SystemConfig", lambda **kw: SystemConfig("single", "resnet50", **kw), "seed", 3),
    ("TrackerConfig", TrackerConfig, "eta", 0.5),
    ("DatasetSpec", DatasetSpec, "num_sequences", 2),
    ("EvalSpec", EvalSpec, "delay_beta", 0.5),
    ("ExecSpec", ExecSpec, "workers", 2),
    ("LoadSpec", LoadSpec, "num_streams", 2),
    ("ServePolicy", ServePolicy, "max_batch_size", 4),
    ("ServiceModel", ServiceModel, "gops_per_second", 100.0),
    ("AutoscalerPolicy", AutoscalerPolicy, "min_replicas", 1),
    ("FleetSpec", lambda **kw: FleetSpec(system=SYSTEM, **kw), "replicas", 1),
    ("DeviceProfile", lambda **kw: DeviceProfile(name="d", **kw), "alpha", 1e-12),
    ("Region", lambda **kw: Region(**{"x0": 0, "y0": 0, "x1": 10, "y1": 10, **kw}), "x0", 1),
    ("TrackPersisted", lambda **kw: TrackPersisted(**kw), "min_frames", 2),
]

INTEGRAL = {"seed", "num_sequences", "workers", "num_streams", "max_batch_size",
            "min_replicas", "replicas", "min_frames"}
OPTIONAL = {"num_sequences", "gops_per_second"}  # None is a valid value


def _bad_values(field):
    bad = [("3", "expected a number, got str"), (True, "expected a number, got bool"),
           (None, "expected a number, got NoneType")]
    if field in INTEGRAL:
        bad.append((2.5, "expected an integer, got 2.5"))
    if field in OPTIONAL:
        bad.remove((None, "expected a number, got NoneType"))
    return bad


@pytest.mark.parametrize("name,build,field,good", SECTIONS, ids=[s[0] for s in SECTIONS])
class TestSectionNumbers:
    def test_valid_value_builds_and_round_trips(self, name, build, field, good):
        obj = build(**{field: good})
        assert getattr(obj, field) == good
        assert type(obj).from_dict(json.loads(json.dumps(obj.to_dict()))) == obj

    def test_invalid_value_is_rejected_at_construction(self, name, build, field, good):
        owner = type(build(**{field: good})).__name__
        for value, message in _bad_values(field):
            with pytest.raises(ValueError) as info:
                build(**{field: value})
            assert str(info.value) == f"{owner}.{field}: {message}"

    def test_invalid_value_is_rejected_at_decode(self, name, build, field, good):
        obj = build(**{field: good})
        for value, message in _bad_values(field):
            data = json.loads(json.dumps(obj.to_dict()))
            data[field] = value
            with pytest.raises(ValueError) as info:
                type(obj).from_dict(data)
            assert str(info.value) == f"{type(obj).__name__}.{field}: {message}"


class TestNumbersAreCheckedNotConverted:
    def test_int_in_a_float_field_stays_an_int(self):
        region = Region(0, 0, 621, 375)
        assert type(region.x1) is int
        assert json.dumps(region.to_dict()) == '{"x0": 0, "y0": 0, "x1": 621, "y1": 375}'
        assert type(Region.from_dict(region.to_dict()).x1) is int
        assert SystemConfig("single", "r", margin=12).to_dict()["margin"] == 12

    def test_numpy_numbers_are_numbers(self):
        assert LoadSpec(num_streams=np.int64(3), rate_hz=np.float64(2.5)).num_streams == 3

    def test_rates_items_are_checked(self):
        with pytest.raises(ValueError, match=r"^LoadSpec\.rates: expected a number, got str$"):
            LoadSpec(rates=(1.0, "2"))
        assert LoadSpec(rates=[1, 2.5]).rates == (1.0, 2.5)

    def test_window_phases_are_integers(self):
        with pytest.raises(ValueError, match=r"^QueryWindow\.phases: expected an integer"):
            QueryWindow("s", 1, 2, 0, 1, (1.5,))

    def test_report_counts_are_integers(self, tmp_path):
        from repro.serve.server import ServeReport

        with pytest.raises(ValueError, match=r"^ServeReport\.frames_served: expected an integer"):
            ServeReport(
                policy=ServePolicy(), service=ServiceModel(), frames_offered=1,
                frames_served=1.5, frames_shed=0, batches=1, invocations=1,
                makespan_seconds=1.0, compute_seconds=0.5, slo={},
            )


class TestBoundsKeepTheirMessages:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SystemConfig("single", "r", c_thresh=1.5), "c_thresh must lie in [0, 1], got 1.5"),
            (lambda: SystemConfig("single", "r", margin=-1), "margin must be >= 0, got -1"),
            (lambda: SystemConfig("keyframe", "r", stride=0), "stride must be >= 1, got 0"),
            (lambda: TrackerConfig(iou_threshold=2.0), "iou_threshold must lie in [0, 1], got 2.0"),
            (lambda: DatasetSpec(frames_per_sequence=0), "frames_per_sequence must be >= 1, got 0"),
            (lambda: DatasetSpec(family=""), "family must be a non-empty string, got ''"),
            (lambda: EvalSpec(delay_beta=0.0), "delay_beta must lie in (0, 1], got 0.0"),
            (lambda: EvalSpec(ap_method="x"), "ap_method must be one of ('r40', 'voc11'), got 'x'"),
            (lambda: ExecSpec(executor=""), "executor must be a non-empty string, got ''"),
            (lambda: LoadSpec(rate_hz=0), "rate_hz must be positive, got 0"),
            (lambda: ServePolicy(shed_policy="x"), "shed_policy must be one of ('oldest', 'newest'), got 'x'"),
            (lambda: ServiceModel(invocation_overhead_ms=-1.0), "invocation_overhead_ms must be >= 0, got -1.0"),
            (lambda: AutoscalerPolicy(scale_out_wait_share=0.0), "scale_out_wait_share must be in (0, 1], got 0.0"),
            (lambda: AutoscalerPolicy(scale_in_occupancy=1.0), "scale_in_occupancy must be in [0, 1), got 1.0"),
            (lambda: DeviceProfile(name="d", alpha=0.0), "alpha must be positive, got 0.0"),
            (lambda: CountAtLeast(0), "k must be >= 1, got 0"),
            (lambda: QuerySpec("", Eventually(ClassPresent(0))), "name must be a non-empty string, got ''"),
        ],
    )
    def test_message(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ExperimentSpec(system="single"), "system must be a SystemConfig, got str"),
            (lambda: ServeSpec(system=SYSTEM, load={}), "load must be a LoadSpec, got dict"),
            (lambda: ServeSpec(system=SYSTEM, service="titanx"), "service must be a ServiceModel, got str"),
            (
                lambda: FleetSpec(system=SYSTEM, autoscaler={}),
                "autoscaler must be an AutoscalerPolicy, got dict",
            ),
            (lambda: BoxInRegion((0, 0, 1, 1)), "region must be a Region, got tuple"),
        ],
    )
    def test_sections_hold_their_class(self, build, message):
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == message
