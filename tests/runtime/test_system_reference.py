"""``DistributedSystem.transitions`` against its reference composition.

The system explores ``hide G in ((PE_1 ||| ... ||| PE_n) |[G]| Medium)``
over integer-coded local and medium states.  The reference below writes
the composition rule out directly over whole ``SystemState`` values:
each entity's moves in place order (service primitives and internal
moves free, sends and receives gated by the medium), then global
``delta``, then the medium's internal moves.  Both must give equal
transitions in the same order on every reachable state, and the system
must hand out one state object per global state.
"""

import copy
import json
import pathlib
import pickle
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.core.generator import derive_protocol
from repro.errors import ExecutionError
from repro.lotos.events import (
    DELTA,
    INTERNAL,
    Delta,
    InternalAction,
    ReceiveAction,
    SendAction,
    ServicePrimitive,
    SyncMessage,
)
from repro.lotos.lts import build_lts
from repro.lotos.semantics import Semantics
from repro.lotos.syntax import Behaviour, Exit, Stop
from repro.medium.lossy import ArqMedium, LossyMedium
from repro.medium.state import make_medium
from repro.runtime.executor import random_run
from repro.runtime.system import DistributedSystem, SystemState, build_system
from tests.integration.test_properties import conforming_services

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "goldens"
MANIFEST = json.loads((GOLDEN_DIR / "manifest.json").read_text())

#: ``build_system`` options: the default and every variant of the medium
#: and of the composition rule.
VARIANTS = {
    "default": {},
    "selective": {"discipline": "selective"},
    "capacity-1": {"capacity": 1},
    "unhidden": {"hide": False},
    "exit-unchecked": {"require_empty_at_exit": False},
    "lossy": {"medium": LossyMedium(loss_budget=1)},
    "arq": {"medium": ArqMedium(loss_budget=1)},
    # Global delta and medium-internal moves are enabled together only
    # when a message may be left behind at exit.
    "arq-exit-unchecked": {
        "medium": ArqMedium(loss_budget=1),
        "require_empty_at_exit": False,
    },
}

#: Every ``repro.workloads`` family at a small size.
FAMILIES = {
    "pipeline": lambda: workloads.pipeline(3),
    "fan_out_join": lambda: workloads.fan_out_join(3),
    "choice_ladder": lambda: workloads.choice_ladder(2),
    "recursion_tower": lambda: workloads.recursion_tower(2),
    "interrupt_stack": lambda: workloads.interrupt_stack(2),
    "process_chain": lambda: workloads.process_chain(1),
}

#: States each exploration visits at most.
BOUND = 400


def reference_transitions(system, state):
    """The composition rule over whole states, as the system applied it
    before it coded its components as ints."""
    result = []
    exits = []
    for index, behaviour in enumerate(state.entities):
        place = system.places[index]
        can_exit = False
        for label, residual in system.semantics[index].transitions(behaviour):
            if isinstance(label, Delta):
                can_exit = True
                continue
            entities = state.entities[:index] + (residual,) + state.entities[index + 1 :]
            medium = state.medium
            if isinstance(label, ServicePrimitive):
                visible = label
            elif isinstance(label, InternalAction):
                visible = INTERNAL
            elif isinstance(label, SendAction):
                if not medium.can_send(place, label.dest):
                    continue
                medium = medium.send(place, label.dest, label.message)
                visible = INTERNAL if system.hide else label.with_src(place)
            elif isinstance(label, ReceiveAction):
                if not medium.receivable(label.src, place, label.message):
                    continue
                medium = medium.receive(label.src, place, label.message)
                visible = INTERNAL if system.hide else label.with_dest(place)
            else:
                raise ExecutionError(f"entity at place {place} offered unexpected {label}")
            result.append((visible, SystemState(entities, medium)))
        exits.append(can_exit)
    if all(exits) and (not system.require_empty_at_exit or state.medium.is_empty):
        result.append((DELTA, SystemState(tuple(Stop() for _ in exits), state.medium)))
    internal = getattr(state.medium, "internal_transitions", None)
    if internal is not None:
        for _description, medium in internal():
            result.append((INTERNAL, SystemState(state.entities, medium)))
    return tuple(result)


class ReferenceSystem:
    """The reference rule behind the interface ``random_run`` drives."""

    def __init__(self, system):
        self.system = system
        self.initial = system.initial

    def transitions(self, state):
        return reference_transitions(self.system, state)

    def is_terminated(self, state):
        return self.system.is_terminated(state)


def assert_matches_reference(system, bound=BOUND):
    """BFS from ``initial``; return the number of states compared."""
    canonical = {system.initial: system.initial}
    queue = deque([system.initial])
    compared = 0
    while queue and compared < bound:
        state = queue.popleft()
        got = system.transitions(state)
        assert got == reference_transitions(system, state)
        compared += 1
        for _label, target in got:
            known = canonical.get(target)
            if known is None:
                canonical[target] = target
                queue.append(target)
            else:
                assert known is target, "two objects for one global state"
    return compared


def _explore(system, bound=BOUND):
    seen = {system.initial}
    queue = deque([system.initial])
    while queue and len(seen) < bound:
        for _label, target in system.transitions(queue.popleft()):
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return seen


def _golden(name):
    return derive_protocol((GOLDEN_DIR / f"{name}.lotos").read_text(), **MANIFEST[name])


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_goldens_match_the_reference(name, variant):
    system = build_system(_golden(name).entities, **VARIANTS[variant])
    assert assert_matches_reference(system) > 1


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_workload_families_match_the_reference(family, variant):
    result = derive_protocol(FAMILIES[family]())
    system = build_system(result.entities, **VARIANTS[variant])
    assert assert_matches_reference(system) > 1


@given(conforming_services(), st.sampled_from(sorted(VARIANTS)))
@settings(max_examples=30, deadline=None)
def test_generated_services_match_the_reference(service, variant):
    system = build_system(derive_protocol(service).entities, **VARIANTS[variant])
    assert assert_matches_reference(system, bound=150) >= 1


@pytest.mark.parametrize("variant", ["default", "selective", "unhidden", "arq"])
def test_random_runs_match_a_run_over_the_reference(example7, variant):
    system = build_system(example7.entities, **VARIANTS[variant])
    reference = ReferenceSystem(build_system(example7.entities, **VARIANTS[variant]))
    for seed in range(4):
        run = random_run(system, seed=seed, max_steps=300)
        want = random_run(reference, seed=seed, max_steps=300)
        assert run.schedule == want.schedule
        assert run.trace == want.trace
        assert (run.terminated, run.deadlocked, run.truncated) == (
            want.terminated,
            want.deadlocked,
            want.truncated,
        )
        assert run.queue_high_water == want.queue_high_water
        assert run.delivery_delays == want.delivery_delays
        assert run.final_state == want.final_state


def test_structurally_equal_states_get_equal_transitions(example3):
    system = build_system(example3.entities, discipline="selective")
    for state in list(_explore(system, bound=120)):
        # Deep copies share no object with the system's own states.
        foreign = copy.deepcopy(state)
        assert foreign == state and foreign is not state
        assert system.transitions(foreign) == system.transitions(state)
    # A second system, fed the first one's states, agrees with it.
    other = build_system(example3.entities, discipline="selective")
    for state in list(_explore(system, bound=60)):
        assert other.transitions(state) == system.transitions(state)


def test_hand_built_states_work():
    system = DistributedSystem(
        places=[1],
        semantics=[Semantics()],
        initial=SystemState((Exit(),), make_medium()),
    )
    ((label, target),) = system.transitions(SystemState((Exit(),), make_medium()))
    assert label == DELTA
    assert target == SystemState((Stop(),), make_medium())
    assert system.is_terminated(target)
    assert system.transitions(SystemState((Stop(),), make_medium())) == ()
    # The hand-built state and the system's initial share a key.
    (again,) = system.transitions(system.initial)
    assert again == (label, target)


def test_warm_tables_need_no_deep_behaviour_comparison(example7, monkeypatch):
    """Once every local state is in its table, exploring the product
    compares no two distinct ``Behaviour`` objects: states are found by
    their integer key, and each successor is the canonical object."""
    system = build_system(example7.entities)
    first = build_lts(system.initial, system, max_states=3_000, on_limit="truncate")
    deep = []
    original = Behaviour.__eq__

    def counting(self, other):
        if self is not other:
            deep.append(type(self).__name__)
        return original(self, other)

    monkeypatch.setattr(Behaviour, "__eq__", counting)
    second = build_lts(system.initial, system, max_states=3_000, on_limit="truncate")
    assert _explore(system, bound=3_000)
    assert deep == []
    assert second.num_states == first.num_states
    assert second.edges == first.edges


def test_component_tables_are_small_next_to_the_product(example7):
    system = build_system(example7.entities)
    lts = build_lts(system.initial, system, max_states=3_000, on_limit="truncate")
    entity_states, medium_states, global_states = system.component_sizes()
    assert len(entity_states) == len(system.places)
    assert global_states >= lts.num_states
    assert sum(entity_states) + medium_states < global_states
    # Tables belong to the instance: a fresh system starts empty.
    assert build_system(example7.entities).component_sizes() == ((0,) * 4, 0, 0)


class TestStateHashing:
    def test_hash_is_structural_and_cached_once(self):
        medium = make_medium().send(1, 2, SyncMessage(3))
        hand_built = make_medium().send(1, 2, SyncMessage(3))
        assert medium == hand_built and hash(medium) == hash(hand_built)
        state = SystemState((Exit(),), medium)
        other = SystemState((Exit(),), hand_built)
        assert state == other and hash(state) == hash(other)
        assert state != SystemState((Stop(),), medium)
        assert hash(state) == hash((state.entities, state.medium))
        assert state.__dict__["_hash"] == hash(state)
        assert medium.__dict__["_hash"] == hash(medium)

    def test_pickled_states_drop_the_cached_hash(self):
        medium = make_medium(capacity=2).send(1, 2, SyncMessage(3))
        state = SystemState((Exit(),), medium)
        hash(state)
        copied = pickle.loads(pickle.dumps(state))
        assert "_hash" not in copied.__dict__
        assert "_hash" not in copied.medium.__dict__
        assert copied == state and hash(copied) == hash(state)
