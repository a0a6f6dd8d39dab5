"""theorem-check: the Section 5 theorem on specifications of known verdict.

Each check is ``verify_derivation`` followed by a few seeded
``random_run`` + ``check_run`` conformance runs.  The seed picks event
names, place labels and order, never sizes, so the work per pass stays
comparable across seeds.  The members cover both verdict paths:

* non-recursive specifications inside the exact budget (weak
  bisimulation plus the rooted condition);
* non-recursive specifications that overflow it and fall back to bounded
  weak traces: a long pipeline and Example 7's ``B ||| B`` shape at
  three places, which is the build-then-overflow waste of exact
  checking;
* recursive specifications (always bounded traces);
* naive projections (``emit_sync=False``), whose known answer is "not
  equivalent" with a witness the service refuses.

Example 7 itself (about 80 s) stays out: every check runs each workload
many times.
"""

from __future__ import annotations

import random
import time

from harness import Workload, op_record
from inputs import GOLDEN_DIR, Member, family_member, is_recursive, rename, shuffled

B_EXACT = "SPEC B ||| B WHERE PROC B = a1; (b2; exit ||| c2; exit) END ENDSPEC"
B_OVERFLOW = "SPEC B ||| B WHERE PROC B = a1; (b2; exit ||| c3; exit) END ENDSPEC"

#: (label, source text or family member, derived with synchronization?)
PLAN = [
    ("fan_out_join(5)", ("fan_out_join", (5,)), True),
    ("process_chain(3)", ("process_chain", (3,)), True),
    ("choice_ladder(4,4)", ("choice_ladder", (4, 4)), True),
    ("two_phase_commit", GOLDEN_DIR / "two_phase_commit.lotos", True),
    ("B|||B exact", B_EXACT, True),
    ("B|||B exact 2", B_EXACT, True),
    ("B|||B exact 3", B_EXACT, True),
    # The time of one check depends on the event names (they order the
    # sets the checker iterates over) by up to a factor of two, so the
    # median check must rest on many independent namings: it falls among
    # these six renamed instances of one member.
    ("pipeline(6,2)", ("pipeline", (6, 2)), True),
    ("pipeline(6,2) 2", ("pipeline", (6, 2)), True),
    ("pipeline(6,2) 3", ("pipeline", (6, 2)), True),
    ("pipeline(6,2) 4", ("pipeline", (6, 2)), True),
    ("pipeline(6,2) 5", ("pipeline", (6, 2)), True),
    ("pipeline(6,2) 6", ("pipeline", (6, 2)), True),
    ("pipeline(10,2)", ("pipeline", (10, 2)), True),
    ("B|||B overflow", B_OVERFLOW, True),
    ("recursion_tower(3)", ("recursion_tower", (3,)), True),
    ("EXAMPLE2_COUNTING", ("EXAMPLE2_COUNTING", ()), True),
    ("example5_choice_recursion", GOLDEN_DIR / "example5_choice_recursion.lotos", True),
    ("naive process_chain(4)", ("process_chain", (4,)), False),
    ("naive fan_out_join(4)", ("fan_out_join", (4,)), False),
]

#: Conformance runs after each check.
RUNS = 3


class TheoremCheck(Workload):
    name = "theorem-check"
    min_samples = 60  # 80-100 measured

    def setup(self) -> None:
        from repro.core.generator import ProtocolGenerator
        from repro.verification import verify_derivation

        self.generator = ProtocolGenerator
        self.verify = verify_derivation
        self.bases = []
        for label, source, emit_sync in PLAN:
            if isinstance(source, tuple):
                text = family_member(*source)
            elif hasattr(source, "read_text"):
                text = source.read_text()
            else:
                text = source
            self.bases.append((label, text, emit_sync))
        self.copy = (-1, [])
        self.items = self.items_for(0)

    def items_for(self, pass_index: int):
        """Pass ``2k`` checks a fresh seeded copy of the members, pass
        ``2k+1`` the same copy again (derived once, in between passes)."""
        number = pass_index // 2
        if self.copy[0] != number:
            rng = random.Random(f"theorem:{self.seed}:{number}")
            members = []
            self.derived = {}  # only the current copy: memory stays flat
            for label, text, emit_sync in self.bases:
                text = rename(text, rng)
                member = Member(label, text, {"emit_sync": emit_sync}, is_recursive(text))
                self.derived[text] = self.generator(emit_sync=emit_sync).derive(text)
                members.append(member)
            self.copy = (number, shuffled(members, self.seed * 1000 + number, "theorem"))
            self.seen.clear()  # a repeat is an input seen before in this copy
        return self.copy[1]

    def run_op(self, member, repeat):
        # Looked up at call time, so that the traced run's wrappers of
        # the runtime layers are the functions called.
        from repro.runtime import conformance, executor, system as runtime_system

        recorder = self.recorder
        states_before = recorder.counts["lotos.lts.states"] if recorder else 0.0
        derived = self.derived[member.text]
        start = time.perf_counter()
        report = self.verify(derived)
        verdict_s = time.perf_counter() - start
        system = runtime_system.build_system(derived.entities)
        runs = []
        for index in range(RUNS):
            seed = random.Random(f"{member.name}:{index}:{self.seed}").randrange(2**31)
            run = executor.random_run(system, seed=seed)
            runs.append([run.steps, conformance.check_run(derived.service, run).ok])
        latency = time.perf_counter() - start
        exact = report.method == "weak-bisimulation"
        if recorder is not None:
            recorder.counts["verdict." + report.method.replace("-", "_")] += 1
            if exact:
                recorder.counts["lotos.lts.useful_states"] += (
                    recorder.counts["lotos.lts.states"] - states_before)
        output = {
            "method": report.method,
            "equivalent": report.equivalent,
            "congruent": report.congruent,
            "counterexample": (None if report.counterexample is None
                               else [str(label) for label in report.counterexample]),
            "states": [report.service_states, report.system_states],
            "runs": runs,
        }
        op = op_record(member.name, latency, output, member.recursive, repeat,
                       exact=exact, result_s=verdict_s)
        op["witness"] = report.counterexample
        return op

    def extra_layers(self):
        counts = self.recorder.counts
        built = counts["lotos.lts.states"]
        return {
            "lotos.lts.useful_share": counts["lotos.lts.useful_states"] / built if built else 0.0,
            "verdict.weak_bisimulation": counts["verdict.weak_bisimulation"],
            "verdict.bounded_traces": counts["verdict.bounded_traces"],
        }

    def check(self, ops) -> None:
        """Conforming, ``[>``-free members are equivalent (the theorem)
        and their runs conform; naive projections are not equivalent and
        the service refuses their witness."""
        from repro.runtime.conformance import check_trace

        for op in ops:
            member, output = op["item"], op["output"]
            if member.options["emit_sync"]:
                if not output["equivalent"]:
                    op["error"] = "verdict: not equivalent, expected equivalent"
                elif not all(ok for _, ok in output["runs"]):
                    op["error"] = "a conformance run failed"
                continue
            if output["equivalent"]:
                op["error"] = "verdict: equivalent, expected not equivalent"
                continue
            service = self.generator(emit_sync=False).derive(member.text).service
            if op["witness"] is None or check_trace(service, op["witness"]).ok:
                op["error"] = "the service accepts the witness trace"
