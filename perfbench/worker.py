"""One workload in a fresh process: set up, measure, check, report.

``run.py`` starts this script once per set-up sample (``--setup-only``)
and once for the measurement, so that import state and peak memory never
carry over from one workload, or one sample, to the next.  The last line
of standard output is one JSON document for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402
from harness import TMP_DIR, SpeedProbe, Workload, digest, slowdown  # noqa: E402


def load(workload: str, seed: int) -> Workload:
    if workload == "derive-corpus":
        from derive_corpus import DeriveCorpus as cls
    elif workload == "theorem-check":
        from theorem_check import TheoremCheck as cls
    elif workload == "serve-mix":
        from serve_mix import ServeMix as cls
    elif workload == "cli-cold":
        from cli_cold import CliCold as cls
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return cls(seed)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # run.py stops an overdue worker with SIGTERM: unwind through the
    # finally blocks so that servers and subprocesses are stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    TMP_DIR.mkdir(parents=True, exist_ok=True)

    workload = load(args.workload, args.seed)
    report: Dict[str, Any] = {}
    try:
        workload.setup()
        report["setup_s"] = time.perf_counter() - START
        probe = SpeedProbe()
        for _ in range(5 if workload.scaled else 0):
            probe.sample()
        report["setup_slowdown"] = slowdown(workload, probe)
        if args.setup_only:
            return _emit(report)
        if args.trace:
            ops, layers, detail = workload.measure_traced(args.seconds)
            report["layers"] = layers
        else:
            ops, wall, detail = workload.measure(args.seconds)
            metrics, summary = stats.summarize_ops(
                ops, wall, stats.tail_percentile(workload.min_samples))
            detail.update(summary, slowdown=slowdown(workload, workload.probe))
    finally:
        workload.teardown()
    # Read before the output checks, which derive and run members again;
    # after teardown, which reaps the serve-mix server tree.
    peak_rss = workload.peak_rss_mb()
    workload.check(ops)
    failed_ops = [op for op in ops if op["error"]]
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss
        detail["unscaled"] = metrics
        report["metrics"] = stats.at_reference_speed(metrics, detail["slowdown"])
    report["attempted"] = len(ops)
    # An op whose output check failed counts once; a failure of the run
    # as a whole (a server that did not drain) counts as one more.
    report["failed"] = min(len(ops), len(failed_ops) + len(workload.errors))
    report["errors"] = ([op["key"] + ": " + op["error"] for op in failed_ops]
                        + workload.errors)[:20]
    detail["inputs_digest"] = digest(workload.input_texts())
    report["detail"] = detail
    return _emit(report)


def _emit(report: Dict[str, Any]) -> int:
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
