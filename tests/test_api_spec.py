"""Spec round trips, fingerprints, config dict round trips, registries."""

import dataclasses
import json

import pytest

from repro.api.registry import Registry, SYSTEMS, register_system
from repro.api.spec import DatasetSpec, EvalSpec, ExecSpec, ExperimentSpec
from repro.core.config import SystemConfig, build_system
from repro.harness.io import config_from_dict, config_to_dict
from repro.tracker.catdet_tracker import TrackerConfig


def _rich_spec() -> ExperimentSpec:
    return ExperimentSpec(
        system=SystemConfig(
            "catdet",
            "resnet50",
            "resnet10b",
            c_thresh=0.25,
            margin=12.5,
            seed=3,
            num_classes=1,
            input_scale=0.72,
            detailed_ops=False,
            tracker=TrackerConfig(eta=0.5, input_score_threshold=0.6, motion_model="kalman"),
        ),
        dataset=DatasetSpec("citypersons", num_sequences=5, seed=11),
        eval=EvalSpec(difficulties=("moderate",), ap_method="voc11", with_delay=False),
        exec=ExecSpec(executor="multihost", workers=2, queue_dir="q"),
    )


class TestSpecRoundTrip:
    def test_json_round_trip_exact(self):
        spec = _rich_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_default_spec_round_trip(self):
        spec = ExperimentSpec(SystemConfig("single", "resnet50"))
        assert ExperimentSpec.from_json(spec.to_json(indent=2)) == spec

    def test_difficulties_list_coerced_to_tuple(self):
        # JSON has no tuples; equality after a round trip relies on coercion.
        ev = EvalSpec(difficulties=["hard"])
        assert ev.difficulties == ("hard",)

    def test_from_dict_rejects_unknown_fields(self):
        payload = _rich_spec().to_dict()
        payload["dataset"]["typo"] = 1
        with pytest.raises(ValueError, match="typo"):
            ExperimentSpec.from_dict(payload)

    def test_from_dict_rejects_bad_format(self):
        payload = _rich_spec().to_dict()
        payload["format"] = "other/9"
        with pytest.raises(ValueError, match="format"):
            ExperimentSpec.from_dict(payload)

    def test_missing_sections_default(self):
        spec = ExperimentSpec.from_dict({"system": config_to_dict(SystemConfig("single", "vgg16"))})
        assert spec.dataset == DatasetSpec()
        assert spec.eval == EvalSpec()
        assert spec.exec == ExecSpec()


class TestFingerprint:
    def test_exec_plan_does_not_change_fingerprint(self):
        spec = _rich_spec()
        other = dataclasses.replace(spec, exec=ExecSpec(executor="auto", workers=0))
        assert other.fingerprint == spec.fingerprint

    def test_result_affecting_fields_change_fingerprint(self):
        spec = _rich_spec()
        assert spec.with_system(c_thresh=0.3).fingerprint != spec.fingerprint
        assert (
            dataclasses.replace(spec, dataset=DatasetSpec("kitti")).fingerprint
            != spec.fingerprint
        )
        assert (
            dataclasses.replace(spec, eval=EvalSpec(("hard",))).fingerprint
            != spec.fingerprint
        )

    def test_read_time_eval_knobs_share_fingerprint(self):
        # ap_method / delay_beta are applied when reading the cached
        # evaluation state — they must not fork cache entries.
        spec = ExperimentSpec(SystemConfig("single", "resnet50"))
        voc = dataclasses.replace(spec, eval=EvalSpec(ap_method="voc11"))
        beta = dataclasses.replace(spec, eval=EvalSpec(delay_beta=0.9))
        assert spec.fingerprint == voc.fingerprint == beta.fingerprint
        no_delay = dataclasses.replace(spec, eval=EvalSpec(with_delay=False))
        assert no_delay.fingerprint != spec.fingerprint

    def test_keyframe_stride_in_fingerprint(self):
        # stride lives on SystemConfig precisely so the cache sees it.
        spec = ExperimentSpec(SystemConfig("keyframe", "resnet50", stride=7))
        assert spec.with_system(stride=3).fingerprint != spec.fingerprint

    def test_fingerprint_stable_across_processes(self):
        # sha256 of canonical JSON — no dict-ordering or hash-seed effects.
        spec = _rich_spec()
        assert spec.fingerprint == ExperimentSpec.from_json(spec.to_json()).fingerprint

    def test_device_changes_fingerprint(self):
        # The modeled device changes the reported timing column, so the
        # same system on different devices must not share a cache entry.
        spec = ExperimentSpec(SystemConfig("catdet", "resnet50", "resnet10a"))
        titanx = spec.with_device("titanx")
        assert titanx.device == "titanx"
        assert titanx.fingerprint != spec.fingerprint
        assert titanx.with_device(None).fingerprint == spec.fingerprint

    def test_device_round_trips(self):
        spec = ExperimentSpec(
            SystemConfig("single", "resnet50", device="abstract")
        )
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec
        assert again.device == "abstract"

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError, match="unknown device"):
            SystemConfig("single", "resnet50", device="warp-core")


class TestConfigDictRoundTrip:
    def test_round_trip_preserves_every_field(self):
        config = _rich_spec().system
        assert config_from_dict(config_to_dict(config)) == config

    def test_detailed_ops_survives(self):
        # Regression: the old _config_dict dropped detailed_ops (and the
        # tracker lifecycle fields), silently reverting them on reload.
        config = SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False)
        assert config_from_dict(config_to_dict(config)).detailed_ops is False

    def test_json_safe(self):
        payload = json.loads(json.dumps(config_to_dict(_rich_spec().system)))
        assert config_from_dict(payload) == _rich_spec().system

    def test_missing_optional_fields_default(self):
        config = config_from_dict({"kind": "single", "refinement_model": "resnet50"})
        assert config == SystemConfig("single", "resnet50")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_dict({"kind": "single", "refinement_model": "r", "nope": 1})


class TestValidation:
    def test_unknown_difficulty(self):
        with pytest.raises(ValueError, match="difficulty"):
            EvalSpec(difficulties=("impossible",))

    def test_bad_ap_method(self):
        with pytest.raises(ValueError, match="ap_method"):
            EvalSpec(ap_method="r11")

    def test_bad_beta(self):
        with pytest.raises(ValueError, match="delay_beta"):
            EvalSpec(delay_beta=0.0)

    def test_bad_dataset_counts(self):
        with pytest.raises(ValueError, match="num_sequences"):
            DatasetSpec("kitti", num_sequences=0)

    def test_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ExecSpec(workers=-1)


class TestRegistries:
    def test_builtin_kinds_registered(self):
        for kind in ("single", "cascade", "catdet", "keyframe"):
            assert kind in SYSTEMS

    def test_keyframe_kind_builds(self):
        from repro.core.keyframe import KeyFrameSystem

        system = build_system(SystemConfig("keyframe", "resnet50"))
        assert isinstance(system, KeyFrameSystem)

    def test_keyframe_stride_round_trips_and_builds(self):
        config = SystemConfig("keyframe", "resnet50", stride=7)
        assert config_from_dict(config_to_dict(config)) == config
        assert build_system(config).stride == 7
        with pytest.raises(ValueError, match="stride"):
            SystemConfig("keyframe", "resnet50", stride=0)

    def test_unknown_kind_lists_known(self):
        with pytest.raises(ValueError, match="kind"):
            SystemConfig("warp", "resnet50")

    def test_proposal_requirement_from_registry(self):
        with pytest.raises(ValueError, match="proposal_model"):
            SystemConfig("cascade", "resnet50")

    def test_custom_system_registers_and_builds(self):
        name = "test-custom-kind"
        if name not in SYSTEMS:

            @register_system(name)
            def _build(config):
                from repro.core.systems import SingleModelSystem

                return SingleModelSystem(config.refinement_model, seed=config.seed)

        from repro.core.systems import SingleModelSystem

        config = SystemConfig(name, "resnet10a", seed=5)
        system = build_system(config)
        assert isinstance(system, SingleModelSystem)
        assert name in config.label

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", 2)
        registry.register("a", 3, override=True)
        assert registry.get("a") == 3

    def test_unknown_entry_error_names_known(self):
        registry = Registry("thing")
        registry.register("known", 1)
        with pytest.raises(KeyError, match="known"):
            registry.get("missing")
