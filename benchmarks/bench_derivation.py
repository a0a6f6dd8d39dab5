"""E2/E3 — the Protocol Generator itself.

Times the full pipeline (flatten, disable-normalize, number, attribute,
check, derive-per-place with the elimination laws applied as each node
is built) on the paper's examples and on parameter sweeps over place
count and specification size.  The paper
reports only that its Prolog PG was "effective"; these benchmarks give
the reproduction a concrete derivation-cost profile.
"""

import pytest

from repro import workloads
from repro.core.attributes import evaluate_attributes, number_nodes
from repro.core.derivation import Deriver
from repro.core.generator import ProtocolGenerator, derive_protocol


@pytest.mark.parametrize(
    "name,text",
    [
        ("example2", workloads.EXAMPLE2_COUNTING),
        ("example3", workloads.EXAMPLE3_FILE_TRANSFER),
        ("example4", workloads.EXAMPLE4_SEQUENCE),
        ("example7", workloads.EXAMPLE7_TWO_INSTANCES),
        ("transport", workloads.TRANSPORT_SESSION),
    ],
)
def test_derive_paper_examples(benchmark, name, text):
    result = benchmark(derive_protocol, text)
    assert result.entities


@pytest.mark.parametrize("places", [2, 4, 8, 16])
def test_derive_pipeline_scaling_places(benchmark, places):
    spec = workloads.pipeline(places, rounds=2)
    result = benchmark(derive_protocol, spec)
    assert len(result.entities) == places


@pytest.mark.parametrize("rounds", [1, 4, 16])
def test_derive_pipeline_scaling_length(benchmark, rounds):
    spec = workloads.pipeline(4, rounds=rounds)
    result = benchmark(derive_protocol, spec)
    assert len(result.entities) == 4


@pytest.mark.parametrize("length", [2, 8, 32])
def test_derive_process_chain_scaling(benchmark, length):
    spec = workloads.process_chain(length)
    result = benchmark(derive_protocol, spec)
    assert result.entities


def test_attribute_evaluation_alone(benchmark):
    generator = ProtocolGenerator()
    prepared = generator.prepare(workloads.TRANSPORT_SESSION)

    def evaluate():
        return evaluate_attributes(prepared)

    table = benchmark(evaluate)
    assert table.all_places == frozenset({1, 2})


def test_single_place_projection_alone(benchmark, example3_result):
    deriver = Deriver(example3_result.prepared, example3_result.attrs)
    entity = benchmark(deriver.derive, 2)
    assert entity.definitions


def test_numbering_alone(benchmark):
    spec = workloads.pipeline(8, rounds=8)
    from repro.lotos.scope import flatten_spec

    flat = flatten_spec(spec)
    numbered = benchmark(number_nodes, flat)
    assert numbered is not None


def test_derive_mixed_choice_extension(benchmark):
    """The R1-relaxation arbiter protocol (docs/algorithm.md)."""
    service = "SPEC (a1; x3; exit) [] (b2; y3; exit) ENDSPEC"

    def run():
        return derive_protocol(service, mixed_choice=True)

    result = benchmark(run)
    assert result.places == [1, 2, 3]


def test_derive_1986_subset_mode(benchmark):
    generator = ProtocolGenerator(subset_1986=True)
    service = "SPEC (a1; b2; exit) [] (c1; d2; exit) ENDSPEC"

    def run():
        return generator.derive(service)

    result = benchmark(run)
    assert result.entities
