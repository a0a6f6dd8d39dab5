"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload derive-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``, the golden specifications from ``tests/goldens``).  Each
workload runs in fresh worker processes: several that only set up (their
median set-up time is ``setup_s``) and one that sets up, measures for
``--seconds`` and checks every output.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("derive-corpus", "theorem-check", "serve-mix", "cli-cold")
#: Set-up-only worker processes per run; with the measuring worker's own
#: set-up they give the samples whose median is ``setup_s``.
SETUP_PROBES = 4
#: Budget for all workers of a run: each set-up, plus three times the
#: measured seconds (a measurement overruns by up to one pass, and the
#: traced run alternates two), plus the output checks.  An overdue worker
#: gets SIGTERM and up to 25 s to stop its server (drain timeout plus
#: grace) before its process group is killed, so a run of 20 s always
#: ends within 180 s.
SETUP_BUDGET_S = 10.0
CHECK_BUDGET_S = 35.0


def deadline_s(seconds: int) -> float:
    return (SETUP_PROBES + 1) * SETUP_BUDGET_S + 3 * seconds + CHECK_BUDGET_S


def metric_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` list of
    BENCHMARK.json, the one place the metrics are declared."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in document[kind]}


class WorkerFailed(Exception):
    pass


def run_worker(args: argparse.Namespace, deadline: float, setup_only: bool) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # SIGTERM lets the worker stop its own server and subprocesses.
        process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=25)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
        raise WorkerFailed(f"{args.workload} worker overran the deadline")
    if process.returncode != 0:
        raise WorkerFailed(f"{args.workload} worker exited with {process.returncode}")
    lines = stdout.decode("utf-8").strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{args.workload} worker printed no report")
    return json.loads(lines[-1])


def preflight() -> List[str]:
    """What a run needs from the checkout besides this directory."""
    needed = [ROOT / "src" / "repro" / "__init__.py",
              ROOT / "tests" / "goldens" / "manifest.json",
              ROOT / "BENCHMARK.json"]
    return [str(path.relative_to(ROOT)) for path in needed if not path.exists()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    missing = preflight()
    if missing:
        print(f"error: not a source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + deadline_s(args.seconds)
    try:
        reports = [run_worker(args, deadline, setup_only=True)
                   for _ in range(SETUP_PROBES)]
        report = run_worker(args, deadline, setup_only=False)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Each set-up sample at the reference speed of its own process.
    setups = [entry["setup_s"] / entry["setup_slowdown"] for entry in reports + [report]]

    if args.trace:
        units = metric_units("per_layer")
        values = {name: report["layers"].get(name, 0.0) for name in units}
    else:
        units = metric_units("end_to_end")
        values = dict(report["metrics"], setup_s=stats.median(setups))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    detail = dict(report["detail"], setup_samples_s=setups, errors=report["errors"])
    if not args.trace:
        detail["error_share"] = report["failed"] / report["attempted"]
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
