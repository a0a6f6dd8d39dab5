"""The consolidated profile report and its schema validation."""

import json

import pytest

from repro.obs.profile import (
    channel_name,
    profile_spec,
    render_report,
    render_report_json,
    spec_display_name,
)
from repro.obs.schema import PROFILE_SCHEMA, validate_report

SEQUENCE = "SPEC a1; exit >> b2; exit ENDSPEC"
DISABLE = "SPEC (a1; b2; c3; exit) [> (d3; exit) ENDSPEC"


@pytest.fixture(scope="module")
def sequence_report():
    return profile_spec(SEQUENCE, source="sequence", runs=2, seed=1)


class TestReport:
    def test_validates_against_the_schema(self, sequence_report):
        assert validate_report(sequence_report) == []
        assert sequence_report["schema"] == PROFILE_SCHEMA

    def test_derivation_section(self, sequence_report):
        derivation = sequence_report["derivation"]
        assert sequence_report["places"] == [1, 2]
        assert derivation["places"] == 2
        assert derivation["sync_fragments"] > 0
        assert derivation["violations"] == 0
        assert derivation["has_disable"] is False

    def test_verification_is_exact_for_the_finite_service(
        self, sequence_report
    ):
        verification = sequence_report["verification"]
        assert verification["method"] == "weak-bisimulation"
        assert verification["equivalent"] is True

    def test_runs_are_seeded_and_conformant(self, sequence_report):
        rows = sequence_report["runs"]
        assert [row["seed"] for row in rows] == [1, 2]
        assert all(row["conformant"] for row in rows)
        assert all(row["status"] == "terminated" for row in rows)
        assert sequence_report["conformant"] is True

    def test_medium_section_has_channel_high_water(self, sequence_report):
        hwm = sequence_report["medium"]["queue_high_water"]
        assert hwm.get("1->2") == 1
        delays = sequence_report["medium"]["delays"]
        assert delays["count"] == sum(
            row["messages_sent"] for row in sequence_report["runs"]
        )
        assert delays["min"] >= 1

    def test_trace_and_metrics_are_embedded(self, sequence_report):
        span_names = [s["name"] for s in sequence_report["trace"]["spans"]]
        assert span_names == ["profile"]
        children = [
            c["name"] for c in sequence_report["trace"]["spans"][0]["children"]
        ]
        assert "derive" in children
        assert "profile.verify" in children
        assert "profile.execute" in children
        metric_names = [
            m["name"] for m in sequence_report["metrics"]["metrics"]
        ]
        assert "derive.places" in metric_names
        assert "executor.runs" in metric_names

    def test_system_lts_span_carries_component_sizes(self, sequence_report):
        stack = list(sequence_report["trace"]["spans"])
        while stack:
            span = stack.pop()
            if span["name"] == "verify.system_lts":
                break
            stack.extend(span["children"])
        else:
            raise AssertionError("no verify.system_lts span")
        attrs = span["attrs"]
        assert sorted(attrs["entity_states"]) == ["1", "2"]
        assert all(isinstance(n, int) for n in attrs["entity_states"].values())
        assert isinstance(attrs["medium_states"], int)
        assert attrs["states"] >= sequence_report["verification"]["system_states"]
        assert validate_report(json.loads(render_report_json(sequence_report))) == []

    def test_deterministic_given_the_seed(self, sequence_report):
        again = profile_spec(SEQUENCE, source="sequence", runs=2, seed=1)
        assert again["runs"] == sequence_report["runs"]
        assert (
            again["medium"]["queue_high_water"]
            == sequence_report["medium"]["queue_high_water"]
        )


class TestDisableService:
    def test_uses_trace_inclusion_and_selective_discipline(self):
        report = profile_spec(DISABLE, source="disable", runs=1)
        assert validate_report(report) == []
        assert report["derivation"]["has_disable"] is True
        assert report["verification"]["method"] == "bounded-trace-inclusion"
        assert report["medium"]["discipline"] == "selective"

    def test_no_verify_skips_the_section(self):
        report = profile_spec(DISABLE, runs=1, verify=False)
        assert report["verification"] is None
        assert validate_report(report) == []


class TestRendering:
    def test_digest_mentions_the_key_numbers(self, sequence_report):
        text = render_report(sequence_report)
        assert "profile of sequence" in text
        assert "2 entities" in text
        assert "weak-bisimulation -> EQUIVALENT" in text
        assert "run seed=1" in text
        assert "queue high-water" in text

    def test_json_round_trips(self, sequence_report):
        parsed = json.loads(render_report_json(sequence_report))
        assert parsed["schema"] == PROFILE_SCHEMA
        compact = render_report_json(sequence_report, indent=None)
        assert "\n" not in compact


def test_channel_name():
    assert channel_name((1, 2)) == "1->2"


class TestSpecDisplayName:
    def test_absolute_paths_collapse_to_the_basename(self):
        assert spec_display_name("/tmp/xyz123/service.lotos") == "service.lotos"

    def test_relative_paths_are_kept_as_typed(self):
        assert (
            spec_display_name("tests/goldens/example4_sequence.lotos")
            == "tests/goldens/example4_sequence.lotos"
        )

    def test_root_relative_naming(self, tmp_path):
        spec = tmp_path / "corpus" / "deep.lotos"
        assert spec_display_name(str(spec), root=str(tmp_path)) == (
            "corpus/deep.lotos"
        )

    def test_stdin_marker(self):
        assert spec_display_name("-") == "<stdin>"
