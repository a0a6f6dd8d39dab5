"""Tests of the benchmark's own helpers, plus a smoke run of each workload.

    python3 -m pytest perfbench/tests -q

The smoke runs start the real benchmark with ``--seconds 1`` (one or two
passes per workload) and take about two minutes together.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402
from inputs import base_texts, is_recursive, rename, renamed  # noqa: E402
from tracing import Instrumentation, Recorder  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Tail percentile selection.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(5, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_the_highest_grid_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(list(range(1, 101)), 90.0) == pytest.approx(90.1)


def test_geomean():
    assert stats.geomean([1.0, 4.0, 16.0]) == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Self time: a span's duration minus its wrapped children.
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_self_time_subtracts_children_only():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def leaf():
        clock.now += 2.0

    wrapped_leaf = recorder.wrap("leaf", leaf)

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        clock.now += 1.0
        wrapped_leaf()

    wrapped_middle = recorder.wrap("middle", middle)

    def outer():
        clock.now += 3.0
        wrapped_middle()

    recorder.wrap("outer", outer)()
    assert recorder.self_s["outer"] == pytest.approx(3.0)
    assert recorder.self_s["middle"] == pytest.approx(2.0)
    assert recorder.self_s["leaf"] == pytest.approx(4.0)
    assert recorder.calls == {"outer": 1, "middle": 1, "leaf": 2}


def test_self_time_of_a_recursive_span_is_not_counted_twice():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def countdown(n):
        clock.now += 1.0
        if n:
            wrapped(n - 1)

    wrapped = recorder.wrap("countdown", countdown)
    wrapped(3)
    assert recorder.self_s["countdown"] == pytest.approx(4.0)
    assert recorder.calls["countdown"] == 4


def test_a_raising_span_still_closes_and_counts():
    clock = FakeClock()
    recorder = Recorder(clock=clock)
    seen = []

    def fail():
        clock.now += 1.0
        raise ValueError("boom")

    wrapped = recorder.wrap("fail", fail, on_error=lambda rec, exc: seen.append(exc))
    with pytest.raises(ValueError):
        wrapped()
    assert recorder.self_s["fail"] == pytest.approx(1.0)
    assert len(seen) == 1 and not recorder._stack


def test_instrumentation_restores_every_patched_reference():
    import repro.core.generator as generator
    import repro.lotos.parser as parser
    from repro.core.derivation import Deriver

    original_parse, original_derive = parser.parse, Deriver.derive
    recorder = Recorder()
    with Instrumentation(recorder):
        assert generator.parse is not original_parse
        generator.derive_protocol("SPEC a1; exit >> b2; exit ENDSPEC")
    assert parser.parse is original_parse and generator.parse is original_parse
    assert Deriver.derive is original_derive
    assert recorder.calls["lotos.parser"] >= 1
    assert recorder.calls["core.derivation"] == 2
    assert recorder.counts["core.derivation.sync_fragments"] > 0


# ----------------------------------------------------------------------
# Paired speed probes.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("module, name", [("serve_mix", "ServeProbe"), ("cli_cold", "SpawnProbe")])
def test_paired_probe_is_the_geometric_mean_of_its_parts(module, name):
    probe = getattr(__import__(module), name)()
    try:
        for _ in range(3):
            probe.sample()
    finally:
        probe.close()
    assert len(probe.samples) == len(probe.other_samples) == 3
    assert probe.spent >= sum(probe.other_samples) / 1000
    parts = probe.parts()
    assert set(parts) == {"compute_slowdown", f"{probe.OTHER}_slowdown"}
    assert probe.slowdown() == pytest.approx(
        (parts["compute_slowdown"] * parts[f"{probe.OTHER}_slowdown"]) ** 0.5)


def test_serve_probe_stops_its_echo_server():
    from serve_mix import ServeProbe

    probe = ServeProbe()
    probe.sample()
    probe.close()
    assert probe.process.returncode is not None


# ----------------------------------------------------------------------
# Seeded inputs.
# ----------------------------------------------------------------------
PLAN = [("pipeline", (6, 2)), ("recursion_tower", (3,)), ("EXAMPLE3_FILE_TRANSFER", ())]


def test_one_seed_gives_identical_inputs_and_another_seed_different_ones():
    bases = base_texts(PLAN)
    first = renamed(bases, random.Random(7))
    assert first == renamed(bases, random.Random(7))
    other = renamed(bases, random.Random(8))
    assert [m.text for m in first] != [m.text for m in other]


def test_renaming_keeps_structure_and_conformance():
    from repro import derive_protocol, workloads
    from repro.lotos.unparse import unparse

    text = unparse(workloads.process_chain(12))
    other = rename(text, random.Random(1))
    assert other != text
    original, copy = derive_protocol(text), derive_protocol(other)
    assert len(copy.places) == len(original.places)
    assert sum(1 for _ in copy.prepared.walk_behaviours()) == sum(
        1 for _ in original.prepared.walk_behaviours())


def test_recursion_is_read_from_the_text():
    assert is_recursive("SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC")
    assert not is_recursive("SPEC P WHERE PROC P = a1; Q >> b2; exit END "
                            "PROC Q = c1; exit END ENDSPEC")


# ----------------------------------------------------------------------
# Smoke runs of the real command.
# ----------------------------------------------------------------------
def run(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT):
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return process


def parse(process):
    assert process.returncode == 0, process.stderr
    lines = process.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("detail "):])
    return detail, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [entry["name"] for entry in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    detail, result = parse(run(workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["errors"]
    expected = {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
    assert all(value["value"] > 0 for value in result["metrics"].values())


def test_traced_runs_repeat_their_work_counts_per_seed():
    first, traced = parse(run("derive-corpus", seed=3, trace=1))
    again, _ = parse(run("derive-corpus", seed=3, trace=1))
    other, _ = parse(run("derive-corpus", seed=4, trace=1))
    assert traced["correct"] and first["output_mismatches"] == 0
    assert set(traced["metrics"]) == {entry["name"] for entry in BENCHMARK["per_layer"]}
    assert first["counts"] == again["counts"]
    assert first["inputs_digest"] == again["inputs_digest"]
    assert first["inputs_digest"] != other["inputs_digest"]


def test_traced_theorem_check_measures_the_runtime_layers():
    detail, traced = parse(run("theorem-check", trace=1))
    assert traced["correct"] and detail["output_mismatches"] == 0, detail["errors"]
    metrics = {name: value["value"] for name, value in traced["metrics"].items()}
    for name in ("runtime.executor.self_s", "runtime.executor.steps",
                 "runtime.conformance.self_s", "runtime.system.calls",
                 "lotos.lts.states", "lotos.traces.calls"):
        assert metrics[name] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    process = run("derive-corpus", cwd=tmp_path)
    assert process.returncode != 0
    assert process.stdout.strip() == ""
