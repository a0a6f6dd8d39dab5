"""Mixed-choice (R1 relaxation) tests — the [Kant 92/93] extension.

The arbiter protocol lets a choice start at two different places.  Its
guarantee is deliberately weaker than the theorem's: weak *trace*
equivalence (plus deadlock freedom and per-run conformance), because any
distributed resolution of an external choice must internally commit at
some point — the very reason the paper imposed R1 in the first place.
The last test pins that limitation down.
"""

import pytest

from repro.core.generator import derive_protocol
from repro.errors import DerivationError, RestrictionViolation
from repro.lotos.events import SyncMessage
from repro.lotos.semantics import Semantics
from repro.lotos.traces import weak_trace_equivalent
from repro.runtime import build_system, check_run, random_run

SERVICE = "SPEC (a1; x3; exit) [] (b2; y3; exit) ENDSPEC"


@pytest.fixture(scope="module")
def mixed():
    return derive_protocol(SERVICE, mixed_choice=True)


class TestAdmission:
    def test_rejected_without_the_flag(self):
        with pytest.raises(RestrictionViolation, match="R1"):
            derive_protocol(SERVICE)

    def test_accepted_with_the_flag(self, mixed):
        assert mixed.violations == []
        assert mixed.places == [1, 2, 3]

    def test_multi_place_starters_still_rejected(self):
        with pytest.raises(RestrictionViolation, match="R1"):
            derive_protocol(
                "SPEC ((a1; z3; exit ||| a2; z3; exit)) [] (b1; z3; exit) ENDSPEC",
                mixed_choice=True,
            )

    def test_r2_still_enforced(self):
        with pytest.raises(RestrictionViolation, match="R2"):
            derive_protocol(
                "SPEC (a1; x3; exit) [] (b2; y2; exit) ENDSPEC",
                mixed_choice=True,
            )

    @pytest.mark.parametrize(
        "text, role",
        [
            ("SPEC ((a1; c3; exit) ||| exit) [] (b2; d3; exit) ENDSPEC", "arbiter"),
            ("SPEC (a1; c3; exit) [] ((b2; d3; exit) ||| exit) ENDSPEC", "requester"),
        ],
    )
    def test_starter_alternative_must_be_event_prefixed(self, text, role):
        # The starter's projection simplifies to a prefix (B ||| exit = B),
        # but the service alternative itself is not one.
        with pytest.raises(DerivationError, match=f"the {role}'s alternative"):
            derive_protocol(text, mixed_choice=True)

    def test_common_starter_uses_the_standard_rule(self):
        # R1-conforming choices must be untouched by the flag.
        text = "SPEC (a1; b2; exit) [] (c1; d2; exit) ENDSPEC"
        standard = derive_protocol(text)
        flagged = derive_protocol(text, mixed_choice=True)
        assert standard.entities == flagged.entities


class TestProtocolShape:
    def test_arbiter_offers_event_and_request(self, mixed):
        text = mixed.entity_text(1)
        assert "r2(req,1)" in text
        assert "s2(grant,1)" in text
        assert "s2(deny,1)" in text

    def test_requester_guards_initial_event_on_grant(self, mixed):
        text = mixed.entity_text(2)
        assert text.index("s1(req,1)") < text.index("r1(grant,1)")
        assert text.index("r1(grant,1)") < text.index("b2")

    def test_third_place_unchanged(self, mixed):
        text = mixed.entity_text(3)
        assert "req" not in text and "grant" not in text and "deny" not in text


class TestExecution:
    def test_all_schedules_conform(self, mixed):
        system = build_system(mixed.entities)
        firsts = set()
        for seed in range(50):
            run = random_run(system, seed=seed, max_steps=600)
            assert run.terminated and not run.deadlocked, str(run)
            assert check_run(mixed.service, run)
            firsts.add(str(run.trace[0]))
        assert firsts == {"a1", "b2"}  # both alternatives reachable

    def test_losing_event_never_fires_after_resolution(self, mixed):
        system = build_system(mixed.entities)
        for seed in range(50):
            run = random_run(system, seed=seed, max_steps=600)
            names = [str(event) for event in run.trace]
            assert not ("a1" in names and "b2" in names)

    def test_nested_under_prefix(self):
        result = derive_protocol(
            "SPEC m1; ((a1; x3; exit) [] (b2; x3; exit)) ENDSPEC",
            mixed_choice=True,
        )
        system = build_system(result.entities)
        for seed in range(30):
            run = random_run(system, seed=seed, max_steps=600)
            assert run.terminated and check_run(result.service, run)

    def test_requester_participating_in_left_branch(self):
        # place 2 starts the right branch AND acts inside the left one.
        result = derive_protocol(
            "SPEC (a1; b2; c3; exit) [] (d2; e1; c3; exit) ENDSPEC",
            mixed_choice=True,
        )
        system = build_system(result.entities)
        for seed in range(40):
            run = random_run(system, seed=seed, max_steps=800)
            assert run.terminated and check_run(result.service, run), str(run)


class TestGuarantees:
    @pytest.mark.parametrize(
        "service",
        [
            SERVICE,
            "SPEC (a1; b2; c3; exit) [] (d2; e1; c3; exit) ENDSPEC",
            "SPEC m1; ((a1; x3; exit) [] (b2; x3; exit)) ENDSPEC",
        ],
    )
    def test_weak_trace_equivalence(self, service):
        result = derive_protocol(service, mixed_choice=True)
        semantics, root = Semantics.of_specification(
            result.prepared, bind_occurrences=False
        )
        system = build_system(result.entities)
        equivalent, witness = weak_trace_equivalent(
            root, semantics, system.initial, system, depth=6
        )
        assert equivalent, witness

    def test_not_weakly_bisimilar_documented_limitation(self, mixed):
        """The arbiter must commit internally at some point, so the
        *branching* structure differs from the service's external
        choice — weak bisimulation cannot hold.  This is precisely why
        the paper keeps R1 and this relaxation is an extension with a
        weaker contract."""
        from repro.verification.checker import verify_derivation

        report = verify_derivation(mixed)
        assert report.method == "weak-bisimulation"
        assert not report.equivalent

    def test_messages_use_req_grant_deny_kinds(self, mixed):
        kinds = set()
        for place in mixed.places:
            for node in mixed.entity(place).walk_behaviours():
                event = getattr(node, "event", None)
                message = getattr(event, "message", None)
                if isinstance(message, SyncMessage):
                    kinds.add(message.kind)
        assert {"req", "grant", "deny"} <= kinds
