"""Disabled observability must not change any output, byte for byte."""

from repro.core.generator import derive_protocol
from repro.obs import observe
from repro.runtime import build_system, random_run
from repro.verification import verify_derivation

SERVICE = "SPEC a1; b2; exit >> c3; exit ENDSPEC"


def _entity_texts(result):
    return {place: result.entity_text(place) for place in result.places}


def test_derivation_output_identical_enabled_vs_disabled():
    baseline = derive_protocol(SERVICE)
    with observe():
        observed = derive_protocol(SERVICE)
    assert _entity_texts(observed) == _entity_texts(baseline)


def test_verification_verdict_identical_enabled_vs_disabled():
    result = derive_protocol(SERVICE)
    baseline = verify_derivation(result)
    with observe():
        observed = verify_derivation(result)
    assert observed.method == baseline.method
    assert observed.equivalent == baseline.equivalent
    assert observed.congruent == baseline.congruent


def test_run_schedule_identical_enabled_vs_disabled():
    result = derive_protocol(SERVICE)
    system = build_system(result.entities)
    baseline = random_run(system, seed=9)
    with observe():
        observed = random_run(system, seed=9)
    assert observed.schedule == baseline.schedule
    assert observed.observable == baseline.observable
    assert observed.queue_high_water == baseline.queue_high_water
    assert observed.delivery_delays == baseline.delivery_delays


def test_instrumentation_publishes_only_when_enabled():
    with observe() as obs:
        result = derive_protocol(SERVICE)
        system = build_system(result.entities)
        random_run(system, seed=0)
    metrics = {m["name"] for m in obs.metrics.snapshot()["metrics"]}
    assert {
        "derive.places",
        "derive.sync_fragments",
        "executor.runs",
        "executor.messages_sent",
        "medium.queue_depth",
        "medium.delay_steps",
    } <= metrics
    span_names = {span["name"] for span in obs.tracer.to_dict()["spans"]}
    assert {"derive", "executor.run"} <= span_names


def test_component_sizes_are_not_read_while_disabled(monkeypatch):
    """The system-side span attributes cost nothing with tracing off."""
    from repro.runtime.system import DistributedSystem

    def forbidden(self):
        raise AssertionError("component sizes read with tracing disabled")

    result = derive_protocol(SERVICE)
    baseline = verify_derivation(result)
    monkeypatch.setattr(DistributedSystem, "component_sizes", forbidden)
    again = verify_derivation(result)
    assert (again.method, again.equivalent, again.system_states) == (
        baseline.method,
        baseline.equivalent,
        baseline.system_states,
    )
