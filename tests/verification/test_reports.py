"""Verification-report API tests: rendering, truthiness, safety path."""


from collections import Counter

from repro import workloads
from repro.core.generator import derive_protocol
from repro.obs import observe
from repro.verification.checker import (
    VerificationReport,
    safety_report,
    verify_derivation,
)


class TestReportApi:
    def test_bool_follows_equivalent(self):
        assert bool(
            VerificationReport(method="weak-bisimulation", equivalent=True)
        )
        assert not bool(
            VerificationReport(method="bounded-traces", equivalent=False)
        )

    def test_str_mentions_verdict_and_method(self):
        report = VerificationReport(
            method="weak-bisimulation",
            equivalent=True,
            congruent=True,
            service_states=5,
            system_states=9,
        )
        text = str(report)
        assert "EQUIVALENT" in text
        assert "weak-bisimulation" in text
        assert "service=5" in text

    def test_counterexample_rendered(self):
        from repro.lotos.events import ServicePrimitive

        report = VerificationReport(
            method="bounded-traces",
            equivalent=False,
            counterexample=(ServicePrimitive("b", 2),),
        )
        assert "counterexample: b2" in str(report)

    def test_notes_rendered(self):
        report = VerificationReport(
            method="bounded-traces", equivalent=True, notes=["a note"]
        )
        assert "a note" in str(report)


class TestSafetyPath:
    def test_conforming_protocol_is_safe(self):
        report = safety_report("SPEC a1; b2; c3; exit ENDSPEC", trace_depth=5)
        assert report.equivalent
        assert report.method == "bounded-trace-inclusion"

    def test_safety_accepts_derivation_result(self):
        result = derive_protocol("SPEC a1; b2; exit ENDSPEC")
        assert safety_report(result, trace_depth=4).equivalent

    def test_has_disable_flag(self):
        report = verify_derivation(
            "SPEC a1; b2; exit [> d2; exit ENDSPEC", trace_depth=4
        )
        assert report.has_disable

    def test_disable_free_flag(self):
        report = verify_derivation("SPEC a1; b2; exit ENDSPEC")
        assert not report.has_disable


class TestCheckerOptions:
    def test_exact_state_limit_forces_bounded(self):
        report = verify_derivation(
            "SPEC (a1; exit ||| b2; exit) >> c3; exit ENDSPEC",
            exact_state_limit=3,
            trace_depth=5,
        )
        assert report.method == "bounded-traces"
        assert report.equivalent

    def test_sizes_kept_above_exact_limit(self):
        # Both sides build within the budget, but the compressed system
        # is above the exact limit: the bounded report keeps both sizes.
        report = verify_derivation(workloads.pipeline(10, 2))
        assert report.method == "bounded-traces"
        assert report.system_states == 9139
        assert report.service_states is not None
        assert "state space above the exact limit of 5000 states" in report.notes

    def test_overflowed_build_has_no_size(self):
        report = verify_derivation(
            workloads.pipeline(10, 2), max_states=1_000, trace_depth=4
        )
        assert report.method == "bounded-traces"
        assert report.system_states is None
        assert "state space exceeded budget" in report.notes

    def test_trace_depth_recorded(self):
        report = verify_derivation(
            "SPEC A WHERE PROC A = a1; b2; A [] c1; exit END ENDSPEC",
            trace_depth=5,
        )
        assert report.trace_depth == 5

    def test_capacity_one_matches_proof_assumption(self):
        report = verify_derivation(
            "SPEC a1; b2; c3; exit ENDSPEC", capacity=1
        )
        assert report.equivalent and report.congruent


def equivalence_passes(service):
    """Saturation and refinement spans recorded by one theorem check."""
    with observe() as obs:
        report = verify_derivation(service)
    names = Counter()
    stack = list(obs.tracer.roots)
    while stack:
        span = stack.pop()
        names[span.name] += 1
        stack.extend(span.children)
    return report, names["equivalence.saturate"], names["equivalence.refine"]


class TestEquivalencePasses:
    def test_equivalent_check_saturates_once(self):
        report, saturations, refinements = equivalence_passes(
            "SPEC (a1; exit ||| b2; exit) >> c3; exit ENDSPEC"
        )
        assert report.method == "weak-bisimulation"
        assert report.equivalent and report.congruent
        assert (saturations, refinements) == (1, 1)

    def test_naive_projection_saturates_at_most_twice(self):
        naive = derive_protocol(workloads.fan_out_join(4), emit_sync=False)
        report, saturations, refinements = equivalence_passes(naive)
        assert report.method == "weak-bisimulation"
        assert not report.equivalent
        assert 1 <= saturations <= 2 and 1 <= refinements <= 2


def system_lts_span(service, **options):
    """The report and the ``verify.system_lts`` span of one check."""
    with observe() as obs:
        report = verify_derivation(service, **options)
    stack = list(obs.tracer.roots)
    while stack:
        span = stack.pop()
        if span.name == "verify.system_lts":
            return report, span.attrs
        stack.extend(span.children)
    raise AssertionError("no verify.system_lts span")


class TestComponentSizes:
    """The composed system's span shows its components next to the product."""

    def test_exact_check_records_entity_and_medium_states(self):
        report, attrs = system_lts_span(
            "SPEC (a1; exit ||| b2; exit) >> c3; exit ENDSPEC"
        )
        assert report.method == "weak-bisimulation"
        assert sorted(attrs["entity_states"]) == [1, 2, 3]
        assert all(count > 1 for count in attrs["entity_states"].values())
        assert attrs["medium_states"] > 1
        # The span counts the raw product; the report the compressed LTS.
        assert attrs["states"] >= report.system_states

    def test_overflowed_build_records_how_far_it_got(self):
        report, attrs = system_lts_span(
            workloads.pipeline(10, 2), max_states=1_000, trace_depth=4
        )
        assert report.system_states is None
        assert attrs["states"] >= 1_000
        entities = attrs["entity_states"].values()
        assert sum(entities) + attrs["medium_states"] < attrs["states"]
