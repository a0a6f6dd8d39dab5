"""Summary statistics the benchmark reports.

Every timing is reported as a median plus a tail: the highest percentile
on :data:`TAIL_GRID` that still has at least :data:`MIN_BEYOND` samples
beyond it, for the fewest samples a run of the workload takes.  Fixing
the percentile per workload (rather than "n - 10" of each run) keeps it
the same from run to run, so two runs of the same code compare like
with like; ``beyond_tail`` in the detail counts the samples beyond it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (the "inclusive" definition)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int) -> float:
    """The highest grid percentile with at least ``MIN_BEYOND`` samples
    beyond it among ``count`` samples; the median when none qualifies."""
    chosen = TAIL_GRID[0]
    for pct in TAIL_GRID:
        # (the tolerance absorbs binary rounding: 1e4 * 0.1% is 10)
        if count * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            chosen = pct
    return chosen


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def summarize_ops(ops: List[Dict], wall_s: float,
                  tail_pct: float) -> Tuple[Dict[str, float], Dict]:
    """End-to-end metrics from one timed region's operation records.

    Each record carries ``latency_s`` (the whole operation),
    ``result_s`` (time to the answer: the verdict of a check, the
    response of a request), ``recursive`` (an input property),
    ``repeat`` (``True``/``False`` for an input seen before in the run
    or served from the cache, ``None`` when the notion does not apply)
    and ``exact`` (``True`` when the answer is not depth-bounded).
    ``latency_tail_ms`` is read at ``tail_pct``.  Returns the metric
    values and a detail document (sample counts and the tail
    percentile).
    """
    latencies = [op["latency_s"] * 1000.0 for op in ops]
    finite = [op["result_s"] for op in ops if not op["recursive"]]
    recursive = [op["result_s"] for op in ops if op["recursive"]]
    hits = [op["result_s"] * 1000.0 for op in ops if op["repeat"] is True]
    misses = [op["result_s"] * 1000.0 for op in ops if op["repeat"] is False]
    exact = [bool(op["exact"]) for op in ops]
    tail_ms = percentile(latencies, tail_pct)
    metrics = {
        "throughput_ops_s": len(ops) / wall_s,
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": tail_ms,
        "finite_check_geomean_s": geomean(finite),
        "recursive_check_geomean_s": geomean(recursive),
        "exact_verdict_share": sum(exact) / len(exact),
        "hit_latency_p50_ms": median(hits),
        "miss_latency_p50_ms": median(misses),
    }
    detail = {
        "samples": len(latencies),
        "tail_percentile": tail_pct,
        "beyond_tail": sum(latency > tail_ms for latency in latencies),
        "finite_samples": len(finite),
        "recursive_samples": len(recursive),
        "hit_samples": len(hits),
        "miss_samples": len(misses),
        "wall_s": wall_s,
    }
    return metrics, detail


def at_reference_speed(metrics: Dict[str, float], slowdown: float) -> Dict[str, float]:
    """``metrics`` as on a machine ``slowdown`` times faster: times (the
    ``_s`` and ``_ms`` metrics) divided, throughput multiplied, shares and
    sizes unchanged."""
    scaled = {}
    for name, value in metrics.items():
        if name == "throughput_ops_s":
            scaled[name] = value * slowdown
        elif name.endswith(("_s", "_ms")):
            scaled[name] = value / slowdown
        else:
            scaled[name] = value
    return scaled
