"""RunSpec: validation, canonical serialization, digest sensitivity."""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.caer.runtime import CaerConfig
from repro.config import MachineConfig
from repro.errors import ConfigError, ExperimentError
from repro.faults import FaultPlan
from repro.runspec import (
    BATCH_BENCHMARK,
    SPEC_VERSION,
    ContenderSpec,
    RunSpec,
    paper_run_spec,
)

MACHINE = MachineConfig.scaled_nehalem()


def colocated_spec(**overrides) -> RunSpec:
    base = dict(
        victim="429.mcf",
        contenders=(ContenderSpec(BATCH_BENCHMARK),),
        machine=MACHINE,
        caer=CaerConfig.rule_based(),
        seed=0,
        length=0.02,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestValidation:
    def test_empty_victim_rejected(self):
        with pytest.raises(ConfigError, match="victim"):
            RunSpec(victim="")

    def test_caer_without_contenders_rejected(self):
        with pytest.raises(ConfigError, match="contender"):
            RunSpec(victim="429.mcf", caer=CaerConfig.rule_based())

    def test_non_positive_length_rejected(self):
        with pytest.raises(ConfigError, match="length"):
            RunSpec(victim="429.mcf", length=0.0)

    def test_contender_list_coerced_to_tuple(self):
        spec = RunSpec(
            victim="429.mcf",
            contenders=[ContenderSpec(BATCH_BENCHMARK)],
        )
        assert isinstance(spec.contenders, tuple)
        hash(spec)  # stays hashable

    def test_negative_launch_period_rejected(self):
        with pytest.raises(ConfigError, match="launch_period"):
            ContenderSpec("470.lbm", launch_period=-1)

    def test_empty_backend_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            RunSpec(victim="429.mcf", backend="")


class TestCanonicalForm:
    def test_json_is_compact_and_sorted(self):
        text = colocated_spec().to_json()
        data = json.loads(text)
        assert list(data) == sorted(data)
        assert ": " not in text and ", " not in text

    def test_version_tag_present(self):
        assert colocated_spec().to_dict()["version"] == SPEC_VERSION

    def test_unsupported_version_rejected(self):
        payload = colocated_spec().to_dict()
        payload["version"] = SPEC_VERSION + 1
        with pytest.raises(ConfigError, match="version"):
            RunSpec.from_dict(payload)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            RunSpec.from_json("{not json")

    def test_non_object_json_rejected(self):
        with pytest.raises(ConfigError, match="object"):
            RunSpec.from_json("[1, 2]")

    def test_bad_payload_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec.from_dict({"version": SPEC_VERSION, "victim": "x",
                               "machine": {"bogus": 1}})

    def test_faulted_spec_round_trips(self):
        spec = colocated_spec(faults=FaultPlan.scaled(0.5, seed=7))
        again = RunSpec.from_json(spec.to_json())
        assert again == spec and again.digest == spec.digest

    def test_version_1_payload_still_accepted(self):
        payload = colocated_spec().to_dict()
        payload["version"] = 1
        payload.pop("faults")
        payload["caer"].pop("detector_params")
        payload["caer"].pop("response_params")
        spec = RunSpec.from_dict(payload)
        assert spec.faults is None

    def test_version_2_payload_still_accepted(self):
        """v2 caer payloads predate the plugin-parameter mappings."""
        payload = colocated_spec().to_dict()
        payload["version"] = 2
        payload["caer"].pop("detector_params")
        payload["caer"].pop("response_params")
        spec = RunSpec.from_dict(payload)
        assert spec.caer is not None
        assert spec.caer.detector_params == ()
        assert spec.caer.response_params == ()


class TestDigest:
    def test_equal_specs_share_a_digest(self):
        assert colocated_spec().digest == colocated_spec().digest

    @pytest.mark.parametrize(
        "overrides",
        [
            {"victim": "444.namd"},
            {"contenders": (), "caer": None},
            {"contenders": (ContenderSpec(BATCH_BENCHMARK),) * 2},
            {"contenders": (ContenderSpec(BATCH_BENCHMARK,
                                          relaunch=False),)},
            {"caer": None},
            {"caer": CaerConfig.shutter()},
            {"caer": CaerConfig.rule_based(
                detector_params={"train_periods": 16})},
            {"caer": CaerConfig.rule_based(
                response_params={"hold": 5})},
            {"seed": 1},
            {"length": 0.04},
            {"slices_per_period": 4},
            {"launch_stagger": 5},
            {"backend": "statistical"},
            {"machine": MachineConfig.scaled_nehalem(cache_scale=32)},
            {"faults": FaultPlan()},
            {"faults": FaultPlan(drop_rate=0.1)},
        ],
    )
    def test_every_field_moves_the_digest(self, overrides):
        assert colocated_spec(**overrides).digest != colocated_spec().digest

    def test_no_collision_across_config_tags(self):
        digests = {
            paper_run_spec("429.mcf", config, MACHINE).digest
            for config in ("solo", "raw", "shutter", "rule", "random")
        }
        assert len(digests) == 5

    def test_with_backend_only_moves_backend(self):
        spec = colocated_spec()
        flipped = spec.with_backend("statistical")
        assert flipped.backend == "statistical"
        assert dataclasses.replace(flipped, backend="sim") == spec

    def test_copies_report_a_fresh_specs_digest(self):
        """The digest is computed once per object; a pickled copy and a
        ``dataclasses.replace``d one still report what a freshly built
        equal spec computes, and a replaced field moves it."""
        spec = colocated_spec()
        digest = spec.digest
        pickled = pickle.loads(pickle.dumps(spec))
        replaced = dataclasses.replace(spec, seed=0)
        assert pickled.digest == replaced.digest == digest
        assert digest == colocated_spec().digest
        reseeded = dataclasses.replace(spec, seed=1)
        assert reseeded.digest == colocated_spec(seed=1).digest != digest
        moved = spec.with_backend("statistical")
        assert moved.digest == colocated_spec(backend="statistical").digest
        assert pickle.loads(pickle.dumps(moved)).digest == moved.digest


class TestPaperSpecs:
    def test_solo_has_no_contenders(self):
        spec = paper_run_spec("429.mcf", "solo", MACHINE)
        assert spec.contenders == () and spec.caer is None
        assert spec.config_tag == "solo"

    def test_raw_has_contender_but_no_caer(self):
        spec = paper_run_spec("429.mcf", "raw", MACHINE)
        assert spec.contenders[0].bench == BATCH_BENCHMARK
        assert spec.caer is None and spec.config_tag == "raw"

    @pytest.mark.parametrize("tag", ["shutter", "rule", "random"])
    def test_caer_tags_recovered_from_policy(self, tag):
        spec = paper_run_spec("429.mcf", tag, MACHINE)
        assert spec.config_tag == tag
        assert spec.describe() == f"(429.mcf, {tag})"

    def test_fault_intensity_reaches_the_description(self):
        # A quarantine message must say which intensity of a sweep failed.
        spec = paper_run_spec("429.mcf", "shutter", MACHINE)
        light, heavy = (
            spec.with_faults(FaultPlan.scaled(intensity))
            for intensity in (0.25, 1.0)
        )
        assert light.describe() != heavy.describe()
        assert light.describe() == (
            f"(429.mcf, shutter+{FaultPlan.scaled(0.25).describe()})"
        )

    def test_unknown_tag_rejected_listing_choices(self):
        with pytest.raises(ExperimentError, match="shutter"):
            paper_run_spec("429.mcf", "psychic", MACHINE)

    @pytest.mark.parametrize(
        "name", ["gmm-fence", "cdf-quantile", "proactive-analytic"]
    )
    def test_registry_detector_names_resolve(self, name):
        spec = paper_run_spec("429.mcf", name, MACHINE)
        assert spec.caer is not None
        assert spec.caer.detector == name
        assert spec.caer.response == "soft-lock"

    def test_detector_plus_response_syntax(self):
        spec = paper_run_spec("429.mcf", "gmm-fence+rlgl", MACHINE)
        assert spec.caer.detector == "gmm-fence"
        assert spec.caer.response == "rlgl"

    def test_unknown_response_rejected_listing_choices(self):
        with pytest.raises(ExperimentError, match="soft-lock"):
            paper_run_spec("429.mcf", "gmm-fence+prayer", MACHINE)
