"""E9 — cost of checking the Section 5 theorem.

Times the full verification stack: LTS construction for both sides,
weak-bisimulation saturation + refinement (finite case), bounded
weak-trace comparison (recursive case), and the independent term-level
Section 5.2 composition.
"""

import pytest

from repro import workloads
from repro.core.generator import derive_protocol
from repro.lotos.equivalence import observationally_congruent, weak_bisimilar
from repro.lotos.lts import build_lts
from repro.lotos.semantics import Semantics
from repro.runtime.system import build_system
from repro.verification.checker import verify_derivation
from repro.verification.composition import compose_term

FINITE = "SPEC (a1; exit ||| b2; exit) >> c3; exit ENDSPEC"


def test_verify_finite_service(benchmark):
    result = derive_protocol(FINITE)

    def run():
        report = verify_derivation(result)
        assert report.equivalent and report.congruent
        return report

    benchmark(run)


@pytest.mark.parametrize("depth", [4, 6, 8])
def test_verify_recursive_bounded(benchmark, example2_result, depth):
    def run():
        report = verify_derivation(example2_result, trace_depth=depth)
        assert report.equivalent
        return report

    benchmark(run)


@pytest.mark.parametrize("places", [2, 3, 4])
def test_verify_pipeline(benchmark, places):
    result = derive_protocol(workloads.pipeline(places, rounds=1))

    def run():
        report = verify_derivation(result)
        assert report.equivalent
        return report

    benchmark(run)


def test_verify_pipeline_exact_mid_size(benchmark):
    """A mid-size exact check (527 compressed system states): unlike the
    few-dozen-state cases above, equivalence is a large share of it."""
    result = derive_protocol(workloads.pipeline(6, 2))

    def run():
        report = verify_derivation(result)
        assert report.method == "weak-bisimulation"
        assert report.equivalent and report.congruent
        return report

    benchmark(run)


def test_verify_overflowing_three_place_instances(benchmark):
    """Example 7's ``B ||| B`` shape at three places: the system build
    runs to the 15k-state budget, then the check falls back to depth-8
    weak traces, so nearly all of it is composed-system exploration."""
    result = derive_protocol(
        "SPEC B ||| B WHERE PROC B = a1; (b2; exit ||| c3; exit) END ENDSPEC"
    )

    def run():
        report = verify_derivation(result)
        assert report.method == "bounded-traces"
        assert report.trace_depth == 8
        assert "state space exceeded budget" in report.notes
        assert report.equivalent
        return report

    benchmark(run)


def test_system_lts_construction(benchmark, example3_result):
    def run():
        system = build_system(
            example3_result.entities,
            discipline="selective",
            require_empty_at_exit=False,
        )
        return build_lts(system.initial, system, max_states=30_000, on_limit="truncate")

    lts = benchmark(run)
    assert lts.num_states > 10


def test_weak_bisimulation_check(benchmark):
    result = derive_protocol(FINITE)
    system = build_system(result.entities)
    system_lts = build_lts(system.initial, system, max_states=10_000)
    semantics, root = Semantics.of_specification(result.prepared, bind_occurrences=False)
    service_lts = build_lts(root, semantics)

    def run():
        assert weak_bisimilar(service_lts, system_lts)
        assert observationally_congruent(service_lts, system_lts)

    benchmark(run)


def test_term_level_composition(benchmark):
    result = derive_protocol(FINITE)

    def run():
        term, environment, gates = compose_term(result.entities)
        lts = build_lts(
            term, Semantics(environment, bind_occurrences=False), max_states=60_000
        )
        return lts

    lts = benchmark(run)
    assert lts.complete


def test_tau_chain_compression(benchmark):
    """LTS reduction cost and effect (repro.lotos.reduction)."""
    from repro.lotos.reduction import compress_tau_chains

    result = derive_protocol(
        "SPEC begin1; ready2; ready3; ((commit1; apply2; apply3; done1; exit)"
        " [] (abort1; undo2; undo3; done1; exit)) ENDSPEC"
    )
    system = build_system(result.entities)
    lts = build_lts(system.initial, system, max_states=30_000)

    def run():
        return compress_tau_chains(lts)

    reduced = benchmark(run)
    assert reduced.num_states < lts.num_states
    print(f"\n[compression] {lts.num_states} -> {reduced.num_states} states")
