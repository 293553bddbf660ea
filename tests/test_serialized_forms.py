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
from repro.api.spec import DatasetSpec, EvalSpec, ExperimentSpec, ServeSpec
from repro.core.config import SystemConfig
from repro.fleet import AutoscalerPolicy, FleetReport, FleetReportStore, FleetSpec
from repro.query import ClassPresent, Eventually, QuerySpec
from repro.serve import LoadSpec, ServePolicy, ServiceModel
from repro.serve.server import ServeReport, ServeReportStore

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
