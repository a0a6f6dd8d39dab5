"""cli-cold: fresh ``repro derive`` and ``repro lint`` processes.

Sequential ``python -m repro`` subprocesses over the golden
specifications, one command each.  Interpreter start, import and
dispatch dominate; every other workload pays import once, in set-up, so
lazy imports show here and nowhere else.  Passes 0 and 1 run the goldens
verbatim, so that their output is checked byte for byte against
``.expected``; pass ``2k`` (k >= 1) runs a fresh seeded renaming of them
from temporary files, checked against the same derivation in this
process, and pass ``2k+1`` the same renaming again.  So first-time
commands recur through the run, not only in its first seconds.
"""

from __future__ import annotations

import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, NamedTuple, Optional

import stats
from harness import ROOT, TMP_DIR, PairedProbe, Workload, digest, op_record, peak_rss_mb
from inputs import expected_entities, goldens, rename, shuffled, split_entities

#: Bare-interpreter starts per traced pass, for ``python.startup_ms``.
STARTUP_SAMPLES = 3
IMPORTS = {
    "import.repro_core_ms": "repro.core",
    "import.repro_cli_ms": "repro.cli",
    "import.repro_serve_ms": "repro.serve",
    "import.asyncio_ms": "asyncio",
}
IMPORT_LINE = re.compile(r"^import time:\s*(\d+) \|\s*(\d+) \| ( *)(\S+)$")


class SpawnProbe(PairedProbe):
    """The speed probe of cli-cold: the reference loop, then a fresh
    interpreter that imports the standard modules ``repro.cli`` imports,
    and nothing of the program.  A cold command is mostly a process start
    and imports."""

    OTHER = "spawn"
    OTHER_REFERENCE_MS = 150.0

    def run_other(self) -> None:
        subprocess.run([sys.executable, "-c", "import argparse, asyncio, json"],
                       cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       check=True)


class Command(NamedTuple):
    name: str
    text: str
    argv: List[str]
    op: str
    golden: Optional[str]  # the golden stem, when run verbatim
    recursive: bool
    options: Dict[str, bool]


class CliCold(Workload):
    name = "cli-cold"
    probe_class = SpawnProbe
    min_samples = 60  # 66-88 measured

    def setup(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.goldens = goldens()
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=TMP_DIR)
        self.copy = (-1, [])
        self.items = self.items_for(0)
        # One untimed start compiles the byte code, as any installation
        # would have done before its first use.
        self.invoke([sys.executable, "-m", "repro", "--version"])

    def items_for(self, pass_index: int) -> List[Command]:
        number = pass_index // 2
        if self.copy[0] != number:
            rng = random.Random(f"cli:{self.seed}:{number}")
            commands = []
            for member in self.goldens:
                if number == 0:
                    text, path = member.text, f"tests/goldens/{member.golden}.lotos"
                else:
                    text = rename(member.text, rng)
                    path = os.path.join(self.dir, f"{member.golden}-{number}.lotos")
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(text)
                flags = ["--mixed-choice"] if member.options.get("mixed_choice") else []
                for op in ("derive", "lint"):
                    commands.append(Command(
                        f"{op}:{member.golden}", text, [op, path] + flags, op,
                        member.golden if number == 0 else None, member.recursive,
                        member.options))
            self.copy = (number, shuffled(commands, self.seed * 1000 + number, "cli"))
            self.seen.clear()  # a repeat is a command run before in this copy
        return self.copy[1]

    def teardown(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def invoke(self, argv: List[str]):
        start = time.perf_counter()
        process = subprocess.run(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return time.perf_counter() - start, process

    def run_op(self, command, repeat, flags=()):
        latency, process = self.invoke([sys.executable, *flags, "-m", "repro", *command.argv])
        output = {"returncode": process.returncode,
                  "stdout": process.stdout.decode("utf-8", "replace")}
        op = op_record(command.name, latency, output, command.recursive, repeat)
        op["stderr"] = process.stderr.decode("utf-8", "replace")
        return op

    def peak_rss_mb(self) -> float:
        """Largest resident set among the CLI processes."""
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def measure_traced(self, seconds: float):
        """Each command twice in a row: plainly, then under
        ``-X importtime``; standard output must be byte-identical."""
        all_ops, plain_s, traced_s, startup = [], [], [], []
        imports: Dict[str, List[float]] = {name: [] for name in IMPORTS}
        repro_imports: List[float] = []
        mismatches = 0
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < seconds:
            for _ in range(STARTUP_SAMPLES):
                startup.append(self.invoke([sys.executable, "-c", "pass"])[0] * 1000)
            for command in self.items:
                plain = self.run_op(command, passes > 0)
                traced = self.run_op(command, True, flags=("-X", "importtime"))
                plain["item"] = traced["item"] = command
                plain_s.append(plain["latency_s"])
                traced_s.append(traced["latency_s"])
                if digest(plain["output"]) != digest(traced["output"]):
                    mismatches += 1
                    self.errors.append(f"traced output differs from untraced: {command.name}")
                cumulative, top_level = import_times(traced.pop("stderr"))
                for metric, module in IMPORTS.items():
                    imports[metric].append(cumulative.get(module, 0) / 1000.0)
                repro_imports.append(top_level / 1000.0)
                all_ops.extend([plain, traced])
            passes += 1
        layers = {metric: stats.median(values) for metric, values in imports.items()}
        layers["python.startup_ms"] = stats.median(startup)
        # What the command does once it is loaded: wall time less the
        # bare interpreter and every import of the program's modules.
        layers["cli.work_ms"] = (stats.median(plain_s) * 1000 - layers["python.startup_ms"]
                                 - stats.median(repro_imports))
        layers["trace.overhead_s"] = stats.median(traced_s) - stats.median(plain_s)
        detail = {"passes": passes, "output_mismatches": mismatches}
        return all_ops, layers, detail

    def check(self, ops) -> None:
        """Derive output must reproduce ``.expected`` (goldens) or the
        same derivation in this process (renamings); lint must be clean."""
        from repro.core.generator import ProtocolGenerator

        references: Dict[str, Dict[int, str]] = {}
        for op in ops:
            command, output = op["item"], op["output"]
            if output["returncode"] != 0:
                op["error"] = f"exit status {output['returncode']}"
            elif command.op == "derive":
                if command.golden:
                    expected = expected_entities(command.golden)
                else:
                    if command.text not in references:
                        result = ProtocolGenerator(**command.options).derive(command.text)
                        references[command.text] = split_entities(result.describe())
                    expected = references[command.text]
                if split_entities(output["stdout"]) != expected:
                    op["error"] = "differs from the expected entities"
            elif not re.fullmatch(r".*: 0 error\(s\), 0 warning\(s\), \d+ info\(s\)\n",
                                  output["stdout"]):
                op["error"] = "lint reported findings"


def import_times(stderr: str):
    """From ``-X importtime`` output: module -> cumulative import
    microseconds (first import), and the microseconds of all top-level
    imports of ``repro`` modules, eager or lazy."""
    times: Dict[str, int] = {}
    top_level = 0
    for line in stderr.splitlines():
        found = IMPORT_LINE.match(line)
        if not found:
            continue
        module, cumulative = found.group(4), int(found.group(2))
        times.setdefault(module, cumulative)
        if not found.group(3) and module.split(".")[0] == "repro":
            top_level += cumulative
    return times, top_level
