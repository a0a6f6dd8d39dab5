"""The table-driven validators agree with the hand-written reference.

``schema_reference.py`` keeps the ten validators that the
:data:`repro.obs.schema.SHAPES` table replaced.  Both must return the
same problem list, in the same order and wording, for every input:
real documents produced by the program, every single-point mutation of
them, and hypothesis-chosen sequences of mutations (drop a field,
change a field's type, swap an enum value, insert ``null``, add an
unknown key, put a non-object at any nesting level).  Where the
reference raises (it iterates over whatever a list field holds), the
table must raise the same exception type.
"""

import asyncio
import copy
import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch import EntityCache, load_corpus, run_batch
from repro.chaos.runner import resolve_plan, run_chaos
from repro.core.generator import derive_protocol
from repro.obs import observe, profile_spec
from repro.obs import schema
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import AsyncServeClient, request_document
from repro.serve.loadgen import run_loadgen
from tests.obs import schema_reference as reference
from tests.serve.conftest import running_server

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = "SPEC a1; exit >> b2; exit ENDSPEC"
VALIDATORS = (
    "validate_trace",
    "validate_metrics",
    "validate_report",
    "validate_bench",
    "validate_batch",
    "validate_serve_request",
    "validate_serve_response",
    "validate_loadgen",
    "validate_chaos",
)

#: Values a mutation puts in place of a field, an item or a document:
#: every JSON type, and strings that are valid enum values elsewhere.
REPLACEMENTS = (
    None, True, False, 0, 7, 1.5, "", "bogus", "failed", "hit", "histogram",
    "repro.obs.trace/v1", [], [1], [{}], {}, {"type": "x"}, {"labels": {}},
)


def outcome(validate, document):
    try:
        return validate(document)
    except Exception as exc:  # the reference crashes on some inputs
        return f"raised {type(exc).__name__}"


def assert_agree(name, document):
    table = outcome(getattr(schema, name), document)
    expected = outcome(getattr(reference, name), document)
    assert table == expected, (name, document)


async def serve_documents():
    """Envelopes, a /metrics snapshot and a loadgen report from a live
    in-process server."""
    found = []
    async with running_server(workers=1) as server:
        client = AsyncServeClient(*server.address)
        try:
            for op, spec, options in (
                ("derive", SPEC, None),
                ("derive", SPEC, None),  # a cache-less repeat
                ("lint", SPEC, {"mixed_choice": True}),
                ("profile", SPEC, None),
                ("derive", "SPEC a1; ENDSPEC [", None),  # a failure
            ):
                document = request_document(spec, options)
                found.append(("validate_serve_request", document))
                _, envelope = await client.post_op(op, spec, options)
                found.append(("validate_serve_response", envelope))
            _, metrics = await client.request("GET", "/metrics")
            found.append(("validate_metrics", metrics))
        finally:
            await client.close()
        host, port = server.address
        report = await run_loadgen(host, port, SPEC, connections=2, requests=4)
        found.append(("validate_loadgen", report))
    return found


@pytest.fixture(scope="module")
def real_documents(tmp_path_factory):
    found = []
    # A profile report, and the trace and metrics documents inside it.
    report = profile_spec(SPEC, runs=2)
    found += [
        ("validate_report", report),
        ("validate_trace", report["trace"]),
        ("validate_metrics", report["metrics"]),
    ]
    # A trace and a metrics snapshot of a derivation.
    with observe() as obs:
        derive_protocol((ROOT / "tests/goldens/example2_counting.lotos").read_text())
    found += [
        ("validate_trace", obs.tracer.to_dict()),
        ("validate_metrics", obs.metrics.snapshot()),
    ]
    # A batch summary with a cache, an ok row and a failed row.
    corpus = tmp_path_factory.mktemp("corpus")
    (corpus / "good.lotos").write_text(SPEC)
    (corpus / "bad.lotos").write_text("SPEC a1; ENDSPEC [")
    cache = EntityCache(str(tmp_path_factory.mktemp("cache")))
    found.append(
        ("validate_batch", run_batch(load_corpus(corpus), cache=cache).summary)
    )
    # A --bench-json dump, with histogram series in its metrics.
    registry = MetricsRegistry()
    registry.histogram("bench.latency_s", help="h").observe(0.25, op="x")
    registry.counter("bench.calls", help="c").inc()
    bench = json.loads((ROOT / "benchmarks/baseline_bench.json").read_text())
    bench["metrics"] = registry.snapshot()
    found.append(("validate_bench", bench))
    found += asyncio.run(serve_documents())
    # A chaos report, and the loadgen report inside it.
    chaos = asyncio.run(
        run_chaos(resolve_plan("worker-kill", 1), connections=1, requests=4,
                  workers=1)
    )
    found += [("validate_chaos", chaos), ("validate_loadgen", chaos["loadgen"])]
    return found


def locations(value, path=()):
    """Every path into ``value``, the root included."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from locations(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from locations(child, path + (index,))


def mutate(document, path, kind, value):
    """``document`` with one mutation at ``path``."""
    if not path:
        return value if kind == "replace" else document
    document = copy.deepcopy(document)
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if kind == "replace":
        parent[last] = value
    elif kind == "drop" and isinstance(parent, dict):
        del parent[last]
    elif kind == "add" and isinstance(parent[last], dict):
        parent[last]["unexpected_field"] = value
    return document


def test_real_documents_cover_every_validator(real_documents):
    assert {name for name, _ in real_documents} == set(VALIDATORS)
    for name, document in real_documents:
        assert getattr(schema, name)(document) == [], name


def test_real_documents_agree(real_documents):
    for name, document in real_documents:
        assert_agree(name, document)


def test_every_single_mutation_agrees(real_documents):
    for name, document in real_documents:
        for path in locations(document):
            for kind, value in (
                ("drop", None),
                ("replace", None),
                ("replace", "bogus"),
                ("replace", 0),
                ("replace", []),
                ("replace", {}),
                ("add", 1),
            ):
                assert_agree(name, mutate(document, path, kind, value))


def test_every_validator_agrees_on_non_objects():
    for name in VALIDATORS:
        for value in REPLACEMENTS:
            assert_agree(name, value)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutation_sequences_agree(real_documents, data):
    name, document = data.draw(st.sampled_from(real_documents))
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        path = data.draw(st.sampled_from(list(locations(document))))
        kind = data.draw(st.sampled_from(("drop", "replace", "add")))
        value = data.draw(st.sampled_from(REPLACEMENTS))
        document = mutate(document, path, kind, value)
        assert_agree(name, document)
