"""derive-corpus: parse -> attributes -> T_p -> simplify -> unparse.

A seeded corpus of distinct conforming specifications, derived serially
in this process and unparsed, one after another.  It draws from all six
``repro.workloads`` families, the paper's examples and the golden
specifications, with sizes spread over many places (``pipeline(100,3)``)
and deep nesting (``process_chain(200)``).  Verification, serving and
import do no work here, so a change to them should not move it.
"""

from __future__ import annotations

import random
import time

from harness import Workload, op_record
from inputs import GOLDEN_DIR, base_texts, goldens, renamed, shuffled

PLAN = [
    ("pipeline", (100, 3)),
    ("pipeline", (50, 2)),
    ("pipeline", (20, 3)),
    ("pipeline", (12, 2)),
    ("pipeline", (8, 3)),
    ("fan_out_join", (8,)),
    ("fan_out_join", (12,)),
    ("fan_out_join", (16,)),
    ("fan_out_join", (24,)),
    ("process_chain", (12,)),
    ("process_chain", (50,)),
    ("process_chain", (100,)),
    ("process_chain", (200,)),
    ("choice_ladder", (6, 4)),
    ("choice_ladder", (20, 4)),
    ("choice_ladder", (50, 4)),
    ("recursion_tower", (2,)),
    ("recursion_tower", (4,)),
    ("recursion_tower", (8,)),
    ("recursion_tower", (16,)),
    ("interrupt_stack", (3,)),
    ("interrupt_stack", (10,)),
    ("interrupt_stack", (30,)),
    ("EXAMPLE2_COUNTING", ()),
    ("EXAMPLE3_FILE_TRANSFER", ()),
    ("EXAMPLE4_SEQUENCE", ()),
    ("EXAMPLE7_TWO_INSTANCES", ()),
    ("TRANSPORT_SESSION", ()),
]


class DeriveCorpus(Workload):
    """Pass ``2k`` derives a fresh seeded copy of the corpus (goldens
    verbatim, every other member renamed anew) and pass ``2k+1`` derives
    the same copy again, so first-time and repeated inputs of one copy
    are measured in equal numbers and the same mix.  The program keeps
    no cache between derivations, so the two should take the same time."""

    name = "derive-corpus"
    min_samples = 400  # 507-897 measured

    def setup(self) -> None:
        from repro.core.generator import ProtocolGenerator

        self.generator = ProtocolGenerator
        self.goldens = goldens()
        self.bases = base_texts(PLAN)
        self.copy = (-1, [])
        self.items = self.items_for(0)

    def items_for(self, pass_index: int):
        number = pass_index // 2
        if self.copy[0] != number:
            rng = random.Random(f"derive:{self.seed}:{number}")
            members = self.goldens + renamed(self.bases, rng)
            if len({member.text for member in members}) != len(members):
                raise RuntimeError("derive-corpus members are not distinct")
            self.copy = (number, shuffled(members, self.seed * 1000 + number, "derive"))
            self.seen.clear()  # a repeat is an input seen before in this copy
        return self.copy[1]

    def run_op(self, member, repeat):
        start = time.perf_counter()
        result = self.generator(**member.options).derive(member.text)
        output = result.describe()
        return op_record(member.name, time.perf_counter() - start, output,
                         member.recursive, repeat)

    def check(self, ops) -> None:
        """Goldens must match ``.expected`` byte for byte; every member
        of the first copy must pass one seeded conformance run."""
        from repro.lotos.syntax import Disable
        from repro.runtime import build_system, check_run, random_run

        for op in ops:
            member = op["item"]
            if member.golden and op["output"] != (
                    GOLDEN_DIR / f"{member.golden}.expected").read_text():
                op["error"] = "differs from the golden .expected"
        first = {op["item"].text: op for op in reversed(ops)}
        for member in self.items:
            result = self.generator(**member.options).derive(member.text)
            interrupts = {
                str(event)
                for node in result.prepared.walk_behaviours()
                if isinstance(node, Disable)
                for event in _events(node.right)
            }
            system = build_system(
                result.entities,
                discipline="selective" if interrupts else "fifo",
                require_empty_at_exit=not interrupts,
            )
            seed = random.Random(f"run:{member.name}:{self.seed}").randrange(2**31)
            run = random_run(system, seed=seed)
            verdict = check_run(result.service, run)
            # Section 3.3: with [> the distributed system may let normal
            # events slide past a broadcast interrupt, so a trace the
            # service refuses is the documented shortcoming only when an
            # interrupt event occurred; deadlock or truncation never is.
            tolerated = (
                interrupts
                and not run.deadlocked
                and not run.truncated
                and any(str(event) in interrupts for event in run.trace)
            )
            if not verdict.ok and not tolerated:
                first[member.text]["error"] = f"conformance run failed: {verdict}"


def _events(node):
    from repro.lotos.syntax import ActionPrefix

    return [sub.event for sub in node.walk() if isinstance(sub, ActionPrefix)]
