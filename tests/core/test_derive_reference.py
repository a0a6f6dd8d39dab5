"""``Deriver.derive`` against its reference, ``simplify_spec(derive_raw)``.

``derive`` applies the Section 4.2 elimination laws to each node as
``T_p`` builds it; ``derive_raw`` builds Table 3's output verbatim, and
the bottom-up simplifier reduces that to the entity.  The two routes
must agree node for node and byte for byte, record the same ledger,
and fail with the same error on an option set a spec rejects.
"""

import json
import pathlib
import sys
import threading

import pytest
from hypothesis import given, settings

import repro.core.simplify as simplify_module
from repro import workloads
from repro.core.attributes import evaluate_attributes
from repro.core.derivation import Deriver
from repro.core.generator import ProtocolGenerator, derive_protocol
from repro.core.simplify import simplify_spec
from repro.errors import ReproError
from repro.lotos.syntax import Specification
from repro.lotos.unparse import unparse
from tests.integration.test_properties import conforming_services

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "goldens"
MANIFEST = json.loads((GOLDEN_DIR / "manifest.json").read_text())

#: Overrides of the manifest options: each golden as recorded, without
#: messages, and with the mixed-choice arbiter protocol.
OPTION_SETS = {
    "manifest": {},
    "naive": {"emit_sync": False},
    "mixed": {"mixed_choice": True},
}

#: Every ``repro.workloads`` family at a small and a larger size.
FAMILIES = {
    "pipeline-small": lambda: workloads.pipeline(3),
    "pipeline-large": lambda: workloads.pipeline(12, 3),
    "fan_out_join-small": lambda: workloads.fan_out_join(3),
    "fan_out_join-large": lambda: workloads.fan_out_join(9),
    "choice_ladder-small": lambda: workloads.choice_ladder(2),
    "choice_ladder-large": lambda: workloads.choice_ladder(7, 5),
    "recursion_tower-small": lambda: workloads.recursion_tower(2),
    "recursion_tower-large": lambda: workloads.recursion_tower(6),
    "interrupt_stack-small": lambda: workloads.interrupt_stack(2),
    "interrupt_stack-large": lambda: workloads.interrupt_stack(8),
    "process_chain-small": lambda: workloads.process_chain(1),
    "process_chain-large": lambda: workloads.process_chain(15, 4),
}


def _deriver(service, options) -> Deriver:
    generator = ProtocolGenerator(**options)
    prepared = generator.prepare(service)
    return Deriver(
        prepared,
        evaluate_attributes(prepared),
        emit_sync=generator.emit_sync,
        allow_mixed_choice=generator.mixed_choice,
    )


def _outcome(derive, place):
    try:
        return derive(place)
    except ReproError as exc:
        return (type(exc), str(exc))


def assert_matches_reference(service, options=None) -> int:
    """Check every place; return how many derived without an error."""
    options = options or {}
    direct = _deriver(service, options)
    reference = _deriver(service, options)
    derived = 0
    for place in sorted(direct.attrs.all_places):
        got = _outcome(direct.derive, place)
        want = _outcome(
            lambda p: simplify_spec(reference.derive_raw(p)), place
        )
        if isinstance(want, Specification):
            assert isinstance(got, Specification), got
            assert got == want
            assert unparse(got) == unparse(want)
            assert unparse(got, compact=False) == unparse(want, compact=False)
            derived += 1
        else:
            assert got == want
    assert direct.ledger == reference.ledger
    return derived


@pytest.mark.parametrize("option_set", sorted(OPTION_SETS))
@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_goldens_match_the_reference(name, option_set):
    service = (GOLDEN_DIR / f"{name}.lotos").read_text()
    options = {**MANIFEST[name], **OPTION_SETS[option_set]}
    derived = assert_matches_reference(service, options)
    if option_set == "manifest":
        assert derived > 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_workload_families_match_the_reference(family):
    assert assert_matches_reference(FAMILIES[family]()) > 0


@given(conforming_services())
@settings(max_examples=40, deadline=None)
def test_generated_services_match_the_reference(service):
    assert assert_matches_reference(service) > 0


def test_raw_and_simplified_derivations_share_a_deriver_across_threads():
    """The raw/simplified mode is per call, not process-wide: threads
    alternating ``derive`` and ``derive_raw`` on one deriver each get
    the output of the method they called."""
    deriver = _deriver(workloads.choice_ladder(4, 4), {})
    places = sorted(deriver.attrs.all_places)
    simplified = {p: unparse(deriver.derive(p)) for p in places}
    raw = {p: unparse(deriver.derive_raw(p)) for p in places}
    mismatches = []

    def work(raw_first: bool) -> None:
        for round_index in range(40):
            use_raw = (round_index % 2 == 0) == raw_first
            for p in places:
                if use_raw:
                    text, want = unparse(deriver.derive_raw(p)), raw[p]
                else:
                    text, want = unparse(deriver.derive(p)), simplified[p]
                if text != want:
                    mismatches.append((use_raw, p))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(index % 2 == 0,))
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_derivation_never_calls_the_simplifier(name, monkeypatch):
    """``derive`` makes no second pass: every binding of ``simplify``
    and ``simplify_spec`` in a loaded ``repro`` module is made to raise."""
    originals = {simplify_module.simplify, simplify_module.simplify_spec}

    def forbidden(*args, **kwargs):
        raise AssertionError("derivation called the bottom-up simplifier")

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if any(value is original for original in originals):
                monkeypatch.setattr(module, attribute, forbidden)

    service = (GOLDEN_DIR / f"{name}.lotos").read_text()
    expected = (GOLDEN_DIR / f"{name}.expected").read_text()
    assert derive_protocol(service, **MANIFEST[name]).describe() == expected
