"""Behaviour hashes are a function of the term and PYTHONHASHSEED only.

Before Python 3.12 ``hash(None)`` is the address of ``None``, which
changes from process to process.  Hashing a ``None`` field directly
made ``Behaviour`` (and event, medium) hashes differ between two runs
under the same ``PYTHONHASHSEED``, and a pickled behaviour carried
its cached hash into a process where strings hash differently.
"""

import os
import pathlib
import subprocess
import sys

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])
GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "goldens"


def run_python(code, seed, stdin=None):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


HASHES = f"""
from repro.core.generator import derive_protocol
from repro.lotos.parser import parse
from repro.lotos.syntax import Exit

text = open({str(GOLDEN / "example3_file_transfer.lotos")!r}).read()
result = derive_protocol(text)
print(hash(Exit()))
print(hash(parse(text).behaviour))
for place in result.places:
    print(hash(result.entities[place].behaviour))
"""


def test_hashes_agree_between_processes_under_one_seed():
    first = run_python(HASHES, seed=0)
    second = run_python(HASHES, seed=0)
    assert len(first.split()) > 2
    assert first == second


def test_a_pickled_behaviour_loads_equal_under_another_seed():
    pickled = run_python(
        "import pickle, sys\n"
        "from repro.lotos.parser import parse_behaviour\n"
        "term = parse_behaviour('a1; b2; exit')\n"
        "hash(term)\n"  # fill the cache before pickling
        "sys.stdout.buffer.write(pickle.dumps(term))\n",
        seed=1,
    )
    verdict = run_python(
        "import pickle, sys\n"
        "from repro.lotos.parser import parse_behaviour\n"
        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = parse_behaviour('a1; b2; exit')\n"
        "print(loaded == fresh, loaded in {fresh}, fresh in {loaded})\n",
        seed=2,
        stdin=pickled,
    )
    assert verdict.split() == [b"True", b"True", b"True"]
