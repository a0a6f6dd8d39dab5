"""The ``repro`` argparse tree: lazy imports, per-command help, and
``lotos-pg`` as an argv alias of ``repro derive``."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import main, repro_main

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "goldens"
COMMANDS = ("lint", "derive", "profile", "batch", "serve", "loadgen", "chaos")


def test_importing_the_cli_leaves_the_server_stacks_unloaded():
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys, repro.cli\n"
        "heavy = ('asyncio', 'repro.serve', 'repro.batch', 'repro.chaos')\n"
        "print(sorted(name for name in heavy if name in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_has_help(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        repro_main([command, "--help"])
    assert excinfo.value.code == 0
    prog = "lotos-pg" if command == "derive" else f"repro {command}"
    assert capsys.readouterr().out.startswith(f"usage: {prog} ")


def golden_argvs():
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    for name, options in sorted(manifest.items()):
        flags = ["--mixed-choice"] if options.get("mixed_choice") else []
        yield pytest.param([str(GOLDEN / f"{name}.lotos"), *flags], id=name)


@pytest.mark.parametrize("argv", golden_argvs())
def test_lotos_pg_is_repro_derive(argv, capsys):
    alias_code = main(argv)
    alias = capsys.readouterr()
    derive_code = repro_main(["derive", *argv])
    derive = capsys.readouterr()
    assert alias_code == derive_code == 0
    assert alias.out == derive.out
    assert alias.out.startswith("-- Protocol entity for place")
