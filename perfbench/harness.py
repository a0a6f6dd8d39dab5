"""What every workload shares: op records, passes, the traced run."""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import stats
from tracing import Instrumentation, Recorder, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
#: Where traced runs write their op spans (ignored by git).
TRACE_DIR = ROOT / ".perfbench" / "trace"
#: Scratch space for per-run temporary directories (ignored by git).
TMP_DIR = ROOT / ".perfbench" / "tmp"


def digest(value: Any) -> str:
    if not isinstance(value, (str, bytes)):
        value = json.dumps(value, sort_keys=True)
    if isinstance(value, str):
        value = value.encode("utf-8")
    return hashlib.sha256(value).hexdigest()[:16]


def op_record(
    key: str,
    latency_s: float,
    output: Any,
    recursive: bool,
    repeat: Optional[bool],
    exact: bool = True,
    result_s: Optional[float] = None,
) -> Dict[str, Any]:
    return {
        "key": key,
        "latency_s": latency_s,
        "result_s": latency_s if result_s is None else result_s,
        "output": output,
        "recursive": recursive,
        "repeat": repeat,
        "exact": exact,
        "error": None,  # set by the output checks
    }


#: The reference loop's iterations, and its median time on the machine
#: the benchmark was defined on (2 cores, Python 3.11.7).
REFERENCE_ITERATIONS = 50_000
REFERENCE_MS = 5.0


def reference_loop_ms() -> float:
    """Time of a fixed pure-Python loop that does not touch the program:
    how fast the machine ran at that moment."""
    start = time.perf_counter()
    total = 0
    for value in range(REFERENCE_ITERATIONS):
        total += value * value % 7
    return (time.perf_counter() - start) * 1000


class SpeedProbe:
    """Samples the reference loop about twice a second in the timed
    region, between operations.

    On a shared machine the speed of the processor itself drifts by tens
    of percent over seconds, for every program alike.  ``slowdown()`` is
    the median sample over :data:`REFERENCE_MS`; the end-to-end timings
    are divided by it (throughput multiplied), so they read as at the
    reference speed and a change in the program is not drowned by the
    machine.  The unscaled figures are kept beside them."""

    INTERVAL_S = 0.5

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0  # seconds spent sampling
        self._last = time.perf_counter()

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(reference_loop_ms())
        self._last = time.perf_counter()
        self.spent += self._last - start

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()

    def slowdown(self) -> float:
        return stats.median(self.samples) / REFERENCE_MS

    def parts(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class PairedProbe(SpeedProbe):
    """The reference loop, then a second probe of what the workload
    spends besides computation in one interpreter.

    When the host is busy, round trips between processes and process
    starts slow down far more than a loop does, so a workload made of
    them drifts further than the loop.  Each sample times the loop and
    then :meth:`run_other`, which runs no code of the program; the
    slowdown is the geometric mean of the two probes' slowdowns, and
    both are reported by :meth:`parts`."""

    #: Name of the second probe in :meth:`parts`.
    OTHER = ""
    #: Median time of :meth:`run_other` on the reference machine.
    OTHER_REFERENCE_MS = 1.0

    def __init__(self) -> None:
        super().__init__()
        self.other_samples: List[float] = []

    def run_other(self) -> None:
        raise NotImplementedError

    def sample(self) -> None:
        super().sample()
        start = time.perf_counter()
        self.run_other()
        self._last = time.perf_counter()
        self.other_samples.append((self._last - start) * 1000)
        self.spent += self._last - start

    def parts(self) -> Dict[str, float]:
        return {"compute_slowdown": super().slowdown(),
                f"{self.OTHER}_slowdown":
                    stats.median(self.other_samples) / self.OTHER_REFERENCE_MS}

    def slowdown(self) -> float:
        return math.sqrt(math.prod(self.parts().values()))


def slowdown(workload: "Workload", probe: Optional[SpeedProbe]) -> float:
    """The factor a workload's timings are scaled by (1 when unscaled)."""
    return probe.slowdown() if workload.scaled and probe is not None else 1.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    """A workload measured as whole passes over seeded inputs.

    Subclasses provide :meth:`setup`, :meth:`run_op` and, when a pass
    should see fresh inputs, :meth:`items_for`.  The timed region runs
    whole passes until ``seconds`` have elapsed, so every run measures
    the same mix.  An op is a *repeat* when its input (name and text)
    already occurred earlier in the run; a workload that draws a fresh
    copy of its inputs clears :attr:`seen` with each copy."""

    name = ""
    #: Whether end-to-end timings are scaled to the reference speed.
    scaled = True
    #: The speed probe of the timed region.
    probe_class = SpeedProbe
    #: The fewest operations a run measures on the reference machine.
    #: ``latency_tail_ms`` is read at the percentile this count gives
    #: (:func:`stats.tail_percentile`), the same in every run: a
    #: percentile that followed each run's own count would jump when a
    #: run fits one pass more.
    min_samples = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.items: List[Any] = []
        self.errors: List[str] = []
        self.recorder: Optional[Recorder] = None
        self.probe: Optional[SpeedProbe] = None
        self.seen: set = set()

    # -- hooks ---------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def items_for(self, pass_index: int) -> List[Any]:
        """The inputs of one pass; the same list every pass by default."""
        return self.items

    def run_op(self, item: Any, repeat: bool) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, ops: List[Dict[str, Any]]) -> None:
        """Output checks outside the timed region: set ``op["error"]``
        on a wrong op, or append to :attr:`errors`."""

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def extra_layers(self) -> Dict[str, float]:
        return {}

    def input_texts(self) -> List[str]:
        return [item.text for item in self.items]

    # -- shared drivers -------------------------------------------------
    def run_items(self, items: List[Any]) -> List[Dict[str, Any]]:
        ops = []
        for item in items:
            identity = (item.name, item.text)
            repeat = identity in self.seen
            self.seen.add(identity)
            if self.recorder is None:
                op = self.run_op(item, repeat)
            else:
                with self.recorder.op(item.name):
                    op = self.run_op(item, repeat)
            op["item"] = item
            ops.append(op)
            if self.probe is not None:
                self.probe.maybe_sample()
        return ops

    def measure(self, seconds: float):
        """Whole passes until their ``seconds`` are spent, and at least
        two, so that both first-time and repeated inputs are measured.
        Preparing a pass's inputs is not timed."""
        ops: List[Dict[str, Any]] = []
        self.probe = self.probe_class()
        wall = 0.0
        passes = 0
        try:
            self.probe.sample()
            while passes < 2 or wall < seconds:
                items = self.items_for(passes)
                start, sampling = time.perf_counter(), self.probe.spent
                ops.extend(self.run_items(items))
                wall += time.perf_counter() - start - (self.probe.spent - sampling)
                passes += 1
            self.probe.sample()
        finally:
            self.probe.close()
        return ops, wall, {"passes": passes, **self.probe.parts()}

    def measure_traced(self, seconds: float):
        """Alternate an untraced and a traced pass over the first pass's
        inputs until ``seconds`` have elapsed.  Returns the ops of every
        pass (for the output checks), the per-layer figures (median over
        the traced passes) and the detail document."""
        items = self.items_for(0)
        all_ops: List[Dict[str, Any]] = []
        per_pass: List[Dict[str, float]] = []
        overheads: List[float] = []
        mismatches = 0
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            plain = self.run_items(items)
            t1 = time.perf_counter()
            self.recorder = Recorder()
            with Instrumentation(self.recorder):
                traced = self.run_items(items)
            t2 = time.perf_counter()
            layers = layer_metrics(self.recorder)
            layers.update(self.extra_layers())
            per_pass.append(layers)
            self.recorder.write(
                TRACE_DIR / f"{self.name}-seed{self.seed}-pass{passes}.json"
            )
            self.recorder = None
            overheads.append((t2 - t1) - (t1 - t0))
            for untraced_op, traced_op in zip(plain, traced):
                if digest(untraced_op["output"]) != digest(traced_op["output"]):
                    mismatches += 1
                    self.errors.append(
                        f"traced output differs from untraced: {traced_op['key']}"
                    )
            all_ops.extend(plain + traced)
            passes += 1
        layers = {
            name: stats.median([figures[name] for figures in per_pass])
            for name in per_pass[0]
        }
        layers["trace.overhead_s"] = stats.median(overheads)
        counts = {name: per_pass[0][name] for name in COUNT_NAMES if name in per_pass[0]}
        unsteady = [
            name for name in counts
            if any(figures[name] != counts[name] for figures in per_pass)
        ]
        if unsteady:
            self.errors.append(f"work counts differ between passes: {unsteady}")
        detail = {"passes": passes, "output_mismatches": mismatches, "counts": counts}
        return all_ops, layers, detail


#: Work counts of one pass that must repeat exactly for a given seed.
COUNT_NAMES = (
    "lotos.lts.states",
    "core.derivation.sync_fragments",
    "lotos.unparse.bytes",
    "verdict.weak_bisimulation",
    "verdict.bounded_traces",
    "serve.derivations",
)
