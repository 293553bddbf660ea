"""Pinned serialized forms of the deployment specs and reports.

Spec fingerprints key every report cache entry, and report ``to_dict``
bytes are what those entries hold.  These tests pin both absolutely —
literal fingerprint hex strings and two report entries committed under
``tests/fixtures/`` — so a refactor of the spec, report or store code
that changed either would fail here instead of silently turning every
warm cache cold (or serving it misread).
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.api import Session
from repro.api.spec import (
    DatasetSpec,
    EvalSpec,
    ExecSpec,
    ExperimentSpec,
    ServeSpec,
    content_digest,
)
from repro.core.config import SystemConfig, config_from_dict, config_to_dict
from repro.cost import DeviceProfile, get_device
from repro.fleet import AutoscalerPolicy, FleetReport, FleetReportStore, FleetSpec
from repro.query import ClassPresent, Eventually, QuerySpec, prop_from_dict
from repro.serve import LoadSpec, ServePolicy, ServiceModel
from repro.serve.server import ServeReport, ServeReportStore
from repro.tracker import TrackerConfig

FIXTURES = Path(__file__).parent / "fixtures"

SYSTEM = SystemConfig("catdet", "resnet50", "resnet10a")
DATA = DatasetSpec(num_sequences=1, frames_per_sequence=12)
LOAD = LoadSpec(num_streams=2, rate_hz=6.0, frames_per_stream=5, seed=3)
POLICY = ServePolicy(max_batch_size=4, max_wait_ms=10.0)
QUERY = QuerySpec("cars", Eventually(ClassPresent(0)))

SERVE_EXPLICIT = ServeSpec(
    system=SYSTEM,
    dataset=DATA,
    load=LOAD,
    policy=POLICY,
    service=ServiceModel(invocation_overhead_ms=2.5, gops_per_second=800.0),
)
SERVE_DEVICE = ServeSpec(
    system=SYSTEM, dataset=DATA, load=LOAD, policy=POLICY, device="titanx"
)
FLEET_AUTO = FleetSpec(
    system=SYSTEM,
    dataset=DATA,
    load=LOAD,
    policy=POLICY,
    replicas=2,
    devices=("edge", "datacenter"),
    autoscaler=AutoscalerPolicy(min_replicas=1, max_replicas=3, interval_s=0.5),
    query=QUERY,
)
EXPERIMENT = ExperimentSpec(
    SYSTEM, dataset=DATA, eval=EvalSpec(difficulties=("moderate",))
)

PINNED = [
    (SERVE_EXPLICIT, "3e45b7fc34eb02cb983d8ec32cb9921f31c0f40ae70114ecf69fe739fd5b71b6"),
    (SERVE_DEVICE, "8b6e1f602d60ee158d6df96c4eebc3818d27d6145131569eb64b5c2275ab45ee"),
    (FLEET_AUTO, "a258ac68e4a05793137b5dfee487f09f27c3b8f6c12535556e3f632199ed7185"),
    (EXPERIMENT, "a3de6948137a212c479299eeabe91f1f45bb25ff58212566520c9e578971882a"),
    (QUERY, "d2145364be8bda452e80abf6539df001a1d2e8b990db7cb123c4b9adb0df5ad4"),
]

#: (fixture file, spec, report class, store class, Session method)
ENTRIES = [
    ("serve_report_entry.json", SERVE_DEVICE, ServeReport, ServeReportStore, "serve"),
    ("fleet_report_entry.json", FLEET_AUTO, FleetReport, FleetReportStore, "serve_fleet"),
]


@pytest.mark.parametrize("spec,fingerprint", PINNED, ids=lambda v: type(v).__name__)
def test_fingerprint_is_pinned(spec, fingerprint):
    assert spec.fingerprint == fingerprint


@pytest.mark.parametrize(
    "spec", [SERVE_EXPLICIT, SERVE_DEVICE, FLEET_AUTO, EXPERIMENT, QUERY],
    ids=lambda v: type(v).__name__,
)
def test_spec_round_trips(spec):
    cls = type(spec)
    assert cls.from_dict(spec.to_dict()) == spec
    assert cls.from_json(spec.to_json()) == spec
    assert cls.from_json(spec.to_json(indent=2)).fingerprint == spec.fingerprint


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e[0])
def test_committed_entry_loads_to_the_recorded_report(tmp_path, entry):
    name, spec, report_cls, store_cls, _ = entry
    payload = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    assert payload["fingerprint"] == spec.fingerprint
    assert type(spec).from_dict(payload["spec"]) == spec
    store = store_cls(tmp_path)
    path = store.path_for(spec.fingerprint)
    path.parent.mkdir(parents=True)
    shutil.copy(FIXTURES / name, path)
    report = store.load(spec.fingerprint)
    assert isinstance(report, report_cls)
    assert report.to_dict() == payload["report"]
    assert report_cls.from_dict(report.to_dict()) == report


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e[0])
def test_committed_entry_is_a_warm_cache_hit(tmp_path, entry):
    name, spec, _, store_cls, method = entry
    path = store_cls(tmp_path).path_for(spec.fingerprint)
    path.parent.mkdir(parents=True)
    shutil.copy(FIXTURES / name, path)
    session = Session(cache_dir=tmp_path)
    report = getattr(session, method)(spec)
    assert (session.cache_hits, session.cache_misses) == (1, 0)
    recorded = json.loads((FIXTURES / name).read_text(encoding="utf-8"))["report"]
    assert report.to_dict() == recorded


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e[0])
def test_live_run_reproduces_the_committed_report(entry):
    name, spec, report_cls, _, method = entry
    report = getattr(Session(), method)(spec)
    recorded = json.loads((FIXTURES / name).read_text(encoding="utf-8"))["report"]
    assert report.to_dict() == recorded
    clone = report_cls.from_dict(report.to_dict())
    assert clone.to_dict() == recorded
    assert report_cls.from_dict(clone.to_dict()) == clone


# --------------------------------------------------------------------- #
# Sections and profiles: exact bytes (key order included), digest and
# round trip of the forms the deployment pins above leave out.
# --------------------------------------------------------------------- #

_TRACKER_DEFAULT = (
    '"tracker": {"eta": 0.7, "iou_threshold": 0.0, "input_score_threshold": 0.5, '
    '"match_gain": 1.0, "miss_penalty": 1.0, "max_confidence": 3.0, '
    '"initial_confidence": 1.0, "min_prediction_width": 10.0, '
    '"min_visible_fraction": 0.3, "motion_model": "decay"}'
)
_CATDET = (
    '{"kind": "catdet", "refinement_model": "resnet50", "proposal_model": "resnet10a", '
    '"c_thresh": 0.1, "margin": 30.0, "seed": 0, "num_classes": 2, "input_scale": 1.0, '
    '"detailed_ops": true, "stride": null, "device": null, ' + _TRACKER_DEFAULT + "}"
)
_DEFAULT_DATASET = '{"family": "kitti", "num_sequences": null, "frames_per_sequence": null, "seed": null}'
_DEFAULT_EVAL = '{"difficulties": ["moderate", "hard"], "ap_method": "r40", "delay_beta": 0.8, "with_delay": true}'

#: (id, object, exact ``json.dumps(obj.to_dict())``, its content digest,
#: the object's own fingerprint or ``None``)
FORMS = [
    (
        "LoadSpec-rates",
        LoadSpec(num_streams=3, rate_hz=6.0, frames_per_stream=5, seed=3, rates=(4.0, 8.5)),
        '{"pattern": "poisson", "num_streams": 3, "rate_hz": 6.0, "frames_per_stream": 5, '
        '"seed": 3, "rates": [4.0, 8.5]}',
        "5be5815f8633712f8c41314364d3d4fd835d3b59262cc33173bfae297e523e56",
        None,
    ),
    (
        "ExecSpec-queue_dir",
        ExperimentSpec(SYSTEM, exec=ExecSpec(executor="multihost", workers=0, queue_dir="/tmp/q")),
        '{"format": "repro-spec/1", "system": ' + _CATDET + ', "dataset": ' + _DEFAULT_DATASET
        + ', "eval": ' + _DEFAULT_EVAL
        + ', "exec": {"executor": "multihost", "workers": 0, "queue_dir": "/tmp/q"}}',
        "7764a4b4f4cda4c2d306681f6f080e5c271d4ba6a94a12d45946666e7ffda353",
        "bbe139ccbb6ac02d7695d8f8a76075b1c1dd1b2d2f525d2b7c89709d60646633",
    ),
    (
        "SystemConfig-tracker-stride-device",
        ExperimentSpec(
            SystemConfig(
                "keyframe",
                "resnet50",
                tracker=TrackerConfig(eta=0.5, motion_model="kalman", max_confidence=4.0),
                stride=3,
                device="titanx",
                seed=7,
                margin=12,
            )
        ),
        '{"format": "repro-spec/1", "system": {"kind": "keyframe", "refinement_model": '
        '"resnet50", "proposal_model": null, "c_thresh": 0.1, "margin": 12, "seed": 7, '
        '"num_classes": 2, "input_scale": 1.0, "detailed_ops": true, "stride": 3, '
        '"device": "titanx", "tracker": {"eta": 0.5, "iou_threshold": 0.0, '
        '"input_score_threshold": 0.5, "match_gain": 1.0, "miss_penalty": 1.0, '
        '"max_confidence": 4.0, "initial_confidence": 1.0, "min_prediction_width": 10.0, '
        '"min_visible_fraction": 0.3, "motion_model": "kalman"}}, "dataset": '
        + _DEFAULT_DATASET + ', "eval": ' + _DEFAULT_EVAL
        + ', "exec": {"executor": "auto", "workers": 1, "queue_dir": null}}',
        "3663b8eb172cc03d288ea7f3015c42c3e95e5072be7320565d3402ff307d2c38",
        "414b83cc65dea36d2e77eb12ef327d65f2ff484398663080934dc031f5e260b8",
    ),
    (
        "FleetSpec-static",
        FleetSpec(
            system=SYSTEM,
            dataset=DATA,
            load=LOAD,
            replicas=3,
            devices=("edge", "datacenter"),
            placement="round_robin",
        ),
        '{"format": "repro-fleet-spec/1", "system": ' + _CATDET + ', "dataset": {"family": '
        '"kitti", "num_sequences": 1, "frames_per_sequence": 12, "seed": null}, "load": '
        '{"pattern": "poisson", "num_streams": 2, "rate_hz": 6.0, "frames_per_stream": 5, '
        '"seed": 3}, "policy": {"max_batch_size": 8, "max_wait_ms": 25.0, '
        '"queue_capacity": 64, "shed_policy": "oldest", "slo_ms": 200.0}, "replicas": 3, '
        '"devices": ["edge", "datacenter"], "placement": "round_robin", "autoscaler": null, '
        '"query": null}',
        "92ca705334fa123933c027e0e581b191d3cf8fb7d2a10fdf5e898d9580111916",
        "92ca705334fa123933c027e0e581b191d3cf8fb7d2a10fdf5e898d9580111916",
    ),
    (
        "DeviceProfile-titanx",
        get_device("titanx"),
        '{"format": "repro-device-profile/1", "name": "titanx", "alpha": '
        '6.252457727093983e-13, "base_crop_pixels": 160000.0, "trunk_macs_per_pixel": '
        '66000.0, "cpu_frame_overhead": 0.034, "cpu_invocation_overhead": 0.001, '
        '"cost_per_hour": 1.0}',
        "ad25e8a766eccb219151cb533e41d6a5e59f3fa946cc0b3caa4674014fd11c59",
        None,
    ),
]


@pytest.mark.parametrize("obj,text,digest,fingerprint", [f[1:] for f in FORMS], ids=[f[0] for f in FORMS])
def test_section_form_is_pinned(obj, text, digest, fingerprint):
    assert json.dumps(obj.to_dict()) == text
    assert content_digest(obj.to_dict()) == digest
    if fingerprint is not None:
        assert obj.fingerprint == fingerprint
    clone = type(obj).from_dict(json.loads(text))
    assert clone == obj
    assert json.dumps(clone.to_dict()) == text


def test_system_config_functions_round_trip():
    spec = FORMS[2][1]
    system_dict = config_to_dict(spec.system)
    assert system_dict == spec.to_dict()["system"]
    assert list(system_dict)[-1] == "tracker"
    assert config_from_dict(json.loads(json.dumps(system_dict))) == spec.system


def test_device_profile_json_is_pinned():
    edge = get_device("edge")
    text = (
        '{"alpha": 2e-12, "base_crop_pixels": 3000000000.0, "cost_per_hour": 0.5, '
        '"cpu_frame_overhead": 0.0, "cpu_invocation_overhead": 0.0, "format": '
        '"repro-device-profile/1", "name": "edge", "trunk_macs_per_pixel": 1.0}'
    )
    assert edge.to_json() == text
    assert DeviceProfile.from_json(text) == edge
    assert DeviceProfile.from_json(edge.to_json(indent=2)) == edge


# --------------------------------------------------------------------- #
# Malformed inputs: the exact exception each one raises.
# --------------------------------------------------------------------- #

_SYS = {"kind": "single", "refinement_model": "resnet50"}
_KNOWN_PROPS = (
    "known: ['all_of', 'any_of', 'box_in_region', 'class_present', 'count_at_least', "
    "'not', 'track_entered_region', 'track_left_region', 'track_persisted']"
)
MALFORMED = [
    (ExperimentSpec.from_dict, {"system": _SYS, "dataset": {"nope": 1}}, "unknown DatasetSpec fields: ['nope']"),
    (ExperimentSpec.from_dict, {"system": _SYS, "eval": {"beta": 1}}, "unknown EvalSpec fields: ['beta']"),
    (ExperimentSpec.from_dict, {"system": _SYS, "exec": {"threads": 2}}, "unknown ExecSpec fields: ['threads']"),
    (ServeSpec.from_dict, {"system": _SYS, "load": {"streams": 2}}, "unknown LoadSpec fields: ['streams']"),
    (ServeSpec.from_dict, {"system": _SYS, "policy": {"batch": 2}}, "unknown ServePolicy fields: ['batch']"),
    (ServeSpec.from_dict, {"system": _SYS, "service": {"gpu": 2}}, "unknown ServiceModel fields: ['gpu']"),
    (FleetSpec.from_dict, {"system": _SYS, "autoscaler": {"max": 2}}, "unknown AutoscalerPolicy fields: ['max']"),
    (
        ExperimentSpec.from_dict,
        {"format": "repro-spec/0", "system": _SYS},
        "unsupported spec format 'repro-spec/0', expected 'repro-spec/1'",
    ),
    (
        ServeSpec.from_dict,
        {"format": "repro-fleet-spec/1", "system": _SYS},
        "unsupported serve-spec format 'repro-fleet-spec/1', expected 'repro-serve-spec/1'",
    ),
    (
        FleetSpec.from_dict,
        {"format": "x", "system": _SYS},
        "unsupported fleet-spec format 'x', expected 'repro-fleet-spec/1'",
    ),
    (
        DeviceProfile.from_dict,
        {"format": "repro-device-profile/2", "name": "d", "alpha": 1e-12},
        "unsupported device-profile format 'repro-device-profile/2', expected 'repro-device-profile/1'",
    ),
    (ServeReport.from_dict, {}, "unsupported report format None, expected 'repro-serve-report/3'"),
    (
        FleetReport.from_dict,
        {"format": "repro-serve-report/3"},
        "unsupported report format 'repro-serve-report/3', expected 'repro-fleet-report/1'",
    ),
    (
        QuerySpec.from_dict,
        {"format": "q", "name": "n", "expr": {"kind": "class_present", "label": 0}},
        "unsupported query-spec format 'q', expected 'repro-query-spec/1'",
    ),
    (ExperimentSpec.from_dict, {}, "spec is missing the required 'system' section"),
    (ServeSpec.from_dict, {"dataset": {}}, "serve spec is missing the required 'system' section"),
    (FleetSpec.from_dict, {"load": {}}, "fleet spec is missing the required 'system' section"),
    (config_from_dict, {**_SYS, "nope": 1}, "unknown SystemConfig fields: ['nope']"),
    (config_from_dict, {**_SYS, "tracker": {"gain": 1}}, "unknown SystemConfig fields: ['gain']"),
    (
        ExperimentSpec.from_dict,
        {"system": {**_SYS, "tracker": {"gain": 1}}},
        "unknown SystemConfig fields: ['gain']",
    ),
    (DeviceProfile.from_dict, {"name": "d", "alpha": 1e-12, "beta": 2}, "unknown DeviceProfile fields: ['beta']"),
    (prop_from_dict, {"kind": "nope"}, f"unknown proposition kind 'nope'; {_KNOWN_PROPS}"),
    (
        QuerySpec.from_dict,
        {"name": "n", "expr": {"kind": "sometimes"}},
        f"unknown proposition kind 'sometimes'; {_KNOWN_PROPS}",
    ),
]


@pytest.mark.parametrize(
    "decode,data,message",
    MALFORMED,
    ids=[f"{case[0].__qualname__}-{i}" for i, case in enumerate(MALFORMED)],
)
def test_malformed_input_error(decode, data, message):
    with pytest.raises(ValueError) as info:
        decode(data)
    assert type(info.value) is ValueError
    assert str(info.value) == message
