"""Per-layer tracing from outside the program.

The traced run wraps public functions of each layer (the table
:data:`LAYERS`) in place, in every loaded ``repro`` module that holds a
reference to them, and restores them afterwards.  The program's source
is never edited.  A wrapped call is one span; a layer's self time is the
duration of its spans minus the time of the wrapped calls they made
(their children).  Nesting is tracked on a stack, so the aggregate is
kept as the calls happen and no per-call record is stored: the hottest
layers (``Semantics.transitions``) run millions of times in one pass.
What is kept in memory per operation is one op span with its per-layer
self times; :meth:`Recorder.write` writes those out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


class Recorder:
    """Aggregates self time, call counts and work counts per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.ops: List[Dict[str, Any]] = []
        self._stack: List[List[float]] = []  # one [child seconds] per open span

    def wrap(
        self,
        name: str,
        function: Callable,
        on_result: Optional[Callable] = None,
        on_error: Optional[Callable] = None,
    ) -> Callable:
        """``function`` recorded as a span of layer ``name``.

        ``on_result(recorder, args, result)`` and ``on_error(recorder,
        exc)`` add work counts; they run outside the span's interval.
        """
        stack = self._stack
        clock = self.clock

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                self._close(name, frame, start)
                if on_error is not None:
                    on_error(self, exc)
                raise
            self._close(name, frame, start)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def _close(self, name: str, frame: List[float], start: float) -> None:
        elapsed = self.clock() - start
        self._stack.pop()
        self.self_s[name] += elapsed - frame[0]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += elapsed

    @contextmanager
    def op(self, name: str):
        """One operation of the workload: records its span and the
        per-layer self time spent inside it."""
        before = dict(self.self_s)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            layers = {
                layer: seconds - before.get(layer, 0.0)
                for layer, seconds in self.self_s.items()
                if seconds != before.get(layer, 0.0)
            }
            self.ops.append(
                {"op": name, "start": start, "end": end, "layers": layers}
            )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"ops": self.ops}, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Work counts recorded at the layer boundaries.
# ----------------------------------------------------------------------
def _count_nodes(recorder, args, table) -> None:
    recorder.counts["core.attributes.nodes"] += len(table.by_node)


def _count_bytes(recorder, args, text) -> None:
    recorder.counts["lotos.unparse.bytes"] += len(text.encode("utf-8"))


def _count_states(recorder, args, lts) -> None:
    recorder.counts["lotos.lts.states"] += lts.num_states


def _count_overflow(recorder, exc) -> None:
    from repro.errors import StateSpaceLimitExceeded

    if isinstance(exc, StateSpaceLimitExceeded):
        recorder.counts["lotos.lts.overflows"] += 1
        recorder.counts["lotos.lts.states"] += exc.limit


def _count_removed(recorder, args, reduced) -> None:
    recorder.counts["lotos.reduction.states_removed"] += (
        args[0].num_states - reduced.num_states
    )


def _count_steps(recorder, args, run) -> None:
    recorder.counts["runtime.executor.steps"] += run.steps


#: (layer, module, attribute, on_result, on_error).  ``attribute`` is a
#: module-level function or ``Class.method``.  Recursive helpers are not
#: wrapped, only each layer's entry point, so one call is one span.
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("lotos.parser", "repro.lotos.parser", "parse", None, None),
    ("lotos.scope", "repro.lotos.scope", "flatten_spec", None, None),
    ("lotos.expansion", "repro.lotos.expansion", "transform_disable_operands", None, None),
    ("core.attributes", "repro.core.attributes", "evaluate_attributes", _count_nodes, None),
    ("core.restrictions", "repro.core.restrictions", "check_service", None, None),
    ("core.derivation", "repro.core.derivation", "Deriver.derive", None, None),
    ("core.simplify", "repro.core.simplify", "simplify_spec", None, None),
    ("lotos.unparse", "repro.lotos.unparse", "unparse", _count_bytes, None),
    ("lotos.semantics", "repro.lotos.semantics", "Semantics.transitions", None, None),
    ("runtime.system", "repro.runtime.system", "DistributedSystem.transitions", None, None),
    ("lotos.lts", "repro.lotos.lts", "build_lts", _count_states, _count_overflow),
    ("lotos.reduction", "repro.lotos.reduction", "compress_tau_chains", _count_removed, None),
    ("lotos.equivalence.weak", "repro.lotos.equivalence", "weak_bisimilar", None, None),
    ("lotos.equivalence.congruence", "repro.lotos.equivalence", "observationally_congruent", None, None),
    ("lotos.traces", "repro.lotos.traces", "weak_trace_equivalent", None, None),
    ("lotos.traces", "repro.lotos.traces", "weak_trace_included", None, None),
    ("runtime.executor", "repro.runtime.executor", "random_run", _count_steps, None),
    ("runtime.conformance", "repro.runtime.conformance", "check_run", None, None),
)


def _wrap_deriver(recorder: Recorder, original: Callable) -> Callable:
    """``Deriver.derive`` also counts the Table 4 fragments it adds."""
    wrapped = recorder.wrap("core.derivation", original)

    @functools.wraps(original)
    def derive(deriver, place):
        before = len(deriver.ledger)
        result = wrapped(deriver, place)
        recorder.counts["core.derivation.sync_fragments"] += (
            len(deriver.ledger) - before
        )
        return result

    return derive


class Instrumentation:
    """Installs :data:`LAYERS` around a block and restores them after."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._patched: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        for layer, module_name, attribute, on_result, on_error in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                if attribute == "Deriver.derive":
                    replacement = _wrap_deriver(self.recorder, original)
                else:
                    replacement = self.recorder.wrap(
                        layer, original, on_result, on_error
                    )
                self._set(owner, method, replacement)
                continue
            original = getattr(module, attribute)
            replacement = self.recorder.wrap(layer, original, on_result, on_error)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, name, replacement)

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def layer_metrics(recorder: Recorder) -> Dict[str, float]:
    """The per-layer figures of one traced pass, by metric name."""
    metrics: Dict[str, float] = {}
    for layer in {entry[0] for entry in LAYERS}:
        metrics[f"{layer}.self_s"] = recorder.self_s.get(layer, 0.0)
    for layer in ("lotos.parser", "core.derivation", "lotos.semantics",
                  "runtime.system", "lotos.traces"):
        metrics[f"{layer}.calls"] = float(recorder.calls.get(layer, 0))
    for name in ("core.attributes.nodes", "core.derivation.sync_fragments",
                 "lotos.unparse.bytes", "lotos.lts.states", "lotos.lts.overflows",
                 "lotos.reduction.states_removed", "runtime.executor.steps"):
        metrics[name] = float(recorder.counts.get(name, 0.0))
    return metrics
