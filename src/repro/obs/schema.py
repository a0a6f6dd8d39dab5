"""Dependency-free structural validation of the ``repro.obs`` documents.

Seven JSON documents are validated here: the span tree
(``repro.obs.trace/v1``), the metrics snapshot
(``repro.obs.metrics/v1``), the consolidated profile report
(``repro.obs.profile/v1``), the corpus batch summary
(``repro.obs.batch/v1``, produced by :mod:`repro.batch`), the
derivation-server wire envelopes (``repro.serve.request/v1`` /
``repro.serve.response/v1``, spoken by :mod:`repro.serve`), the
load-generator report (``repro.obs.loadgen/v2`` — v2 added the retry
outcome classification: recovered / exhausted / retry counts) and the
chaos-run report (``repro.obs.chaos/v1``, produced by ``repro
chaos``).  CI's smoke and gate jobs validate against these shapes
before trusting a report, and tests pin them so the schemas only
change deliberately.

Each document is one entry of the :data:`SHAPES` table: its required
fields and their types, its schema constant, its enumerations, its
nested objects and lists of objects, and the few cross-field rules that
are not a field type (a failed row needs an ``error``, histogram series
need buckets, ...).  One walker, :func:`_walk`, checks a document
against its entry; each ``validate_*`` function returns its list of
human-readable problem strings, empty when the document conforms.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.spans import TRACE_SCHEMA

PROFILE_SCHEMA = "repro.obs.profile/v1"
BENCH_SCHEMA = "repro.obs.bench/v1"
BATCH_SCHEMA = "repro.obs.batch/v1"
SERVE_REQUEST_SCHEMA = "repro.serve.request/v1"
SERVE_RESPONSE_SCHEMA = "repro.serve.response/v1"
LOADGEN_SCHEMA = "repro.obs.loadgen/v2"

#: Operations the derivation server can run (``POST /v1/<op>``).
SERVE_OPS = ("derive", "lint", "profile")

NUMBER = (int, float)
CACHE_STATES = ("hit", "miss", "off")

Rule = Callable[[Dict[str, Any], str, List[str]], None]

# How a child field is walked; an absent ``object`` or ``document``
# reads as ``{}``, so its own required fields are reported missing.
LIST = "list"  # a list of objects; each item must be an object
OBJECT = "object"  # checked only when it is an object
OPTIONAL = "optional"  # checked only when present and an object
DOCUMENT = "document"  # a document of its own: a non-object is a problem
PRESENT = "present"  # a document of its own, checked only when present
NULLABLE = "nullable"  # absent or null; otherwise it must be an object


class Shape(NamedTuple):
    """What one JSON object must hold.

    The walker checks, in this order: ``fields`` (name -> type or tuple
    of types, all required); the ``schema`` constant (``absent_schema_ok``
    also accepts a missing or null one); ``enums`` (name -> allowed
    values); ``children`` (``(name, kind, shape)``, ``shape`` being a
    :class:`Shape` or a :data:`SHAPES` name); then each of ``rules``.
    """

    fields: Dict[str, Any] = {}
    schema: Optional[str] = None
    absent_schema_ok: bool = False
    enums: Dict[str, Tuple[Any, ...]] = {}
    children: Tuple[Tuple[str, str, Union["Shape", str]], ...] = ()
    rules: Tuple[Rule, ...] = ()


def _require(
    document: Dict[str, Any],
    path: str,
    fields: Dict[str, Any],
    problems: List[str],
) -> None:
    for name, expected in fields.items():
        if name not in document:
            problems.append(f"{path}: missing required field {name!r}")
        elif not isinstance(document[name], expected):
            wanted = (
                "/".join(e.__name__ for e in expected)
                if isinstance(expected, tuple)
                else expected.__name__
            )
            problems.append(
                f"{path}.{name}: expected {wanted}, "
                f"got {type(document[name]).__name__}"
            )


# ----------------------------------------------------------------------
# Cross-field rules
# ----------------------------------------------------------------------
def _metric_series(metric: Dict[str, Any], path: str, problems: List[str]) -> None:
    """A known metric type; histogram series carry buckets, the others
    a value."""
    kind = metric.get("type")
    if kind not in ("counter", "gauge", "histogram"):
        problems.append(f"{path}.type: unknown type {kind!r}")
    for index, series in enumerate(metric.get("series", [])):
        spath = f"{path}.series[{index}]"
        if not isinstance(series, dict):
            problems.append(f"{spath}: not an object")
            continue
        if "labels" not in series or not isinstance(series["labels"], dict):
            problems.append(f"{spath}.labels: missing or not an object")
        if kind == "histogram":
            _require(
                series, spath,
                {"count": int, "sum": NUMBER, "buckets": list},
                problems,
            )
        elif "value" not in series:
            problems.append(f"{spath}: missing required field 'value'")


def _needs_error(
    document: Dict[str, Any], path: str, problems: List[str], noun: str
) -> None:
    error = document.get("error")
    if not isinstance(error, dict) or "type" not in error:
        problems.append(f"{path}.error: failed {noun} needs an error")


def _failed_row(row: Dict[str, Any], path: str, problems: List[str]) -> None:
    if row.get("status") == "failed":
        _needs_error(row, path, problems, "row")


def _response_outcome(
    document: Dict[str, Any], path: str, problems: List[str]
) -> None:
    if document.get("ok"):
        if not isinstance(document.get("result"), dict):
            problems.append(f"{path}.result: ok response needs a result object")
    else:
        _needs_error(document, path, problems, "response")


def _known_request_fields(
    document: Dict[str, Any], path: str, problems: List[str]
) -> None:
    unknown = sorted(set(document) - {"schema", "spec", "options"})
    if unknown:
        problems.append(f"{path}: unknown field(s) {unknown}")


# ----------------------------------------------------------------------
# The documents
# ----------------------------------------------------------------------
SHAPES: Dict[str, Shape] = {
    "trace": Shape(
        fields={"schema": str, "enabled": bool, "spans": list},
        schema=TRACE_SCHEMA,
        absent_schema_ok=True,
        children=(("spans", LIST, "span"),),
    ),
    "span": Shape(
        fields={"name": str, "start_s": NUMBER, "duration_s": NUMBER,
                "attrs": dict, "children": list},
        children=(("children", LIST, "span"),),
    ),
    "metrics": Shape(
        fields={"schema": str, "metrics": list},
        schema=METRICS_SCHEMA,
        absent_schema_ok=True,
        children=((
            "metrics", LIST,
            Shape(fields={"name": str, "type": str, "series": list},
                  rules=(_metric_series,)),
        ),),
    ),
    "report": Shape(
        fields={
            "schema": str,
            "source": str,
            "places": list,
            "derivation": dict,
            "runs": list,
            "medium": dict,
            "trace": dict,
            "metrics": dict,
        },
        schema=PROFILE_SCHEMA,
        children=(
            ("derivation", OBJECT, Shape(
                fields={"places": int, "sync_fragments": int, "violations": int},
            )),
            ("verification", OPTIONAL, Shape(
                fields={"method": str, "equivalent": bool},
            )),
            ("runs", LIST, Shape(
                fields={
                    "seed": int,
                    "steps": int,
                    "messages_sent": int,
                    "status": str,
                    "queue_high_water": dict,
                },
            )),
            ("medium", OBJECT, Shape(fields={"queue_high_water": dict})),
            ("trace", DOCUMENT, "trace"),
            ("metrics", DOCUMENT, "metrics"),
        ),
    ),
    "bench": Shape(
        fields={"schema": str, "benchmarks": list, "metrics": dict},
        schema=BENCH_SCHEMA,
        children=(
            ("benchmarks", LIST, Shape(
                fields={"nodeid": str, "wall_time_s": NUMBER, "outcome": str},
            )),
            ("metrics", DOCUMENT, "metrics"),
        ),
    ),
    "batch": Shape(
        fields={
            "schema": str,
            "workers": int,
            "degraded": bool,
            "specs": list,
            "totals": dict,
            "metrics": dict,
        },
        schema=BATCH_SCHEMA,
        children=(
            ("specs", LIST, Shape(
                fields={
                    "name": str,
                    "status": str,
                    "cache": str,
                    "places": list,
                    "tasks": int,
                    "duration_s": NUMBER,
                },
                enums={"status": ("ok", "failed"), "cache": CACHE_STATES},
                rules=(_failed_row,),
            )),
            ("totals", OBJECT, Shape(
                fields={
                    "specs": int,
                    "ok": int,
                    "failed": int,
                    "cache_hits": int,
                    "cache_misses": int,
                    "derivations": int,
                    "tasks": int,
                    "duration_s": NUMBER,
                },
            )),
            ("cache", NULLABLE, Shape(
                fields={"dir": str, "hits": int, "misses": int,
                        "evictions": int, "entries": int},
            )),
            ("metrics", DOCUMENT, "metrics"),
        ),
    ),
    "request": Shape(
        fields={"schema": str, "spec": str},
        schema=SERVE_REQUEST_SCHEMA,
        children=(("options", NULLABLE, Shape()),),
        rules=(_known_request_fields,),
    ),
    "response": Shape(
        fields={
            "schema": str,
            "op": str,
            "ok": bool,
            "status": int,
            "cache": str,
            "duration_s": NUMBER,
            "request_id": str,
        },
        schema=SERVE_RESPONSE_SCHEMA,
        enums={"cache": CACHE_STATES},
        rules=(_response_outcome,),
    ),
    "loadgen": Shape(
        fields={
            "schema": str,
            "op": str,
            "target": str,
            "connections": int,
            "requests": int,
            "completed": int,
            "ok": int,
            "shed": int,
            "failed": int,
            "recovered": int,
            "exhausted": int,
            "retries": int,
            "statuses": dict,
            "cache": dict,
            "duration_s": NUMBER,
            "throughput_rps": NUMBER,
            "latency_ms": dict,
        },
        schema=LOADGEN_SCHEMA,
        enums={"op": SERVE_OPS},
        children=(
            ("latency_ms", OBJECT, Shape(
                fields={"mean": NUMBER, "p50": NUMBER, "p95": NUMBER,
                        "p99": NUMBER, "max": NUMBER},
            )),
            ("cache", OBJECT, Shape(fields={"hit": int, "miss": int, "off": int})),
        ),
    ),
    # The schema constant is filled in by validate_chaos: importing
    # repro.chaos here would load it with every repro.obs import.
    "chaos": Shape(
        fields={
            "schema": str,
            "plan": dict,
            "injections": dict,
            "loadgen": dict,
            "health": dict,
            "server": dict,
            "verdict": dict,
        },
        children=(
            ("plan", OBJECT, Shape(
                fields={"name": str, "seed": int, "faults": list},
            )),
            ("injections", OBJECT, Shape(
                fields={"total": int, "by_point": dict, "by_kind": dict,
                        "hits": dict, "events": list},
            )),
            ("loadgen", DOCUMENT, "loadgen"),
            ("health", OBJECT, Shape(fields={"probes": int, "failures": int})),
            ("server", OBJECT, Shape(
                fields={"respawns": int},
                children=(("metrics", PRESENT, "metrics"),),
            )),
            ("verdict", OBJECT, Shape(
                fields={"lost_requests": int, "server_alive": bool, "ok": bool},
            )),
        ),
    ),
}


def _walk(document: Any, path: str, shape: Shape) -> List[str]:
    """The problems of ``document`` against ``shape``, at ``path``."""
    if not isinstance(document, dict):
        return [f"{path}: not an object"]
    problems: List[str] = []
    _require(document, path, shape.fields, problems)
    if shape.schema is not None:
        found = document.get("schema")
        if not shape.absent_schema_ok:
            if found != shape.schema:
                problems.append(f"{path}.schema: expected {shape.schema!r}")
        elif found not in (None, shape.schema):
            problems.append(f"{path}.schema: unknown schema {found!r}")
    for name, allowed in shape.enums.items():
        if document.get(name) not in allowed:
            problems.append(f"{path}.{name}: unknown {document.get(name)!r}")
    for name, kind, child in shape.children:
        child_path = f"{path}.{name}"
        if isinstance(child, str):
            child = SHAPES[child]
        if kind == LIST:
            for index, item in enumerate(document.get(name, [])):
                problems.extend(_walk(item, f"{child_path}[{index}]", child))
            continue
        if kind == PRESENT and name not in document:
            continue
        value = document.get(name, {} if kind in (OBJECT, DOCUMENT) else None)
        if kind == NULLABLE and value is not None and not isinstance(value, dict):
            problems.append(f"{child_path}: not an object or null")
        elif kind in (DOCUMENT, PRESENT) or isinstance(value, dict):
            problems.extend(_walk(value, child_path, child))
    for rule in shape.rules:
        rule(document, path, problems)
    return problems


def validate_trace(document: Any, path: str = "trace") -> List[str]:
    return _walk(document, path, SHAPES["trace"])


def validate_metrics(document: Any, path: str = "metrics") -> List[str]:
    return _walk(document, path, SHAPES["metrics"])


def validate_report(document: Any) -> List[str]:
    """Validate a consolidated ``repro profile`` report (profile/v1)."""
    return _walk(document, "report", SHAPES["report"])


def validate_bench(document: Any) -> List[str]:
    """Validate a ``--bench-json`` dump (bench/v1)."""
    return _walk(document, "bench", SHAPES["bench"])


def validate_batch(document: Any) -> List[str]:
    """Validate a ``repro batch`` corpus summary (batch/v1)."""
    return _walk(document, "batch", SHAPES["batch"])


def validate_serve_request(document: Any) -> List[str]:
    """Validate one ``POST /v1/<op>`` body (serve.request/v1).

    The operation itself is carried by the URL, not the body; the body
    is the spec text plus its options, so one shape serves all three
    endpoints.
    """
    return _walk(document, "request", SHAPES["request"])


def validate_serve_response(document: Any) -> List[str]:
    """Validate one derivation-server response envelope (serve.response/v1)."""
    return _walk(document, "response", SHAPES["response"])


def validate_loadgen(document: Any) -> List[str]:
    """Validate a ``repro loadgen`` report (loadgen/v2)."""
    return _walk(document, "loadgen", SHAPES["loadgen"])


def validate_chaos(document: Any) -> List[str]:
    """Validate a ``repro chaos`` run report (chaos/v1)."""
    from repro.chaos.faults import CHAOS_SCHEMA

    return _walk(document, "chaos", SHAPES["chaos"]._replace(schema=CHAOS_SCHEMA))
