"""Composition of protocol entities with the communication medium.

:class:`DistributedSystem` is a transition-function object over
:class:`SystemState` (entity behaviours + medium snapshot) with the same
``transitions(state)`` interface as :class:`repro.lotos.semantics.
Semantics`, so every analysis in :mod:`repro.lotos.traces` and the LTS
builder work on whole distributed systems unchanged.

The composition implements, operationally, the right-hand side of the
paper's correctness theorem::

    hide G in ( (PE_1 ||| PE_2 ||| ... ||| PE_n) |[G]| Medium )

* each entity moves independently (the ``|||``);
* a send interaction synchronizes with the medium appending to the
  corresponding channel, a receive with the medium releasing a matching
  message (the ``|[G]| Medium``);
* with ``hide=True`` (default) those interactions become internal moves
  (the ``hide G in``), leaving service primitives and ``delta``
  observable;
* ``delta`` happens globally, when every entity offers it — the ``|||``
  synchronizes on termination in LOTOS.

The paper's Medium processes never terminate, so strictly the composed
LOTOS term never offers ``delta``; we let the system terminate when all
*entities* can (the medium is dropped at global termination).  With
``require_empty_at_exit=True`` termination is additionally gated on all
channels being drained, which is the honest check for disable-free
derivations — a leftover message would mean the protocol leaked state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.lotos.events import (
    DELTA,
    INTERNAL,
    Delta,
    InternalAction,
    Label,
    ReceiveAction,
    SendAction,
    ServicePrimitive,
    SyncMessage,
)
from repro.lotos.scope import bind_occurrence, flatten
from repro.lotos.semantics import Semantics
from repro.lotos.syntax import Behaviour, Specification, Stop
from repro.medium.state import MediumState, make_medium

Transition = Tuple[Label, "SystemState"]

#: A global state as the composer sees it: one local-state id per
#: entity, then the medium-state id.
Key = Tuple[int, ...]

#: Gate id of a local move the medium does not take part in.
_FREE = -1
#: Result of a gate whose send or receive the medium does not enable.
_BLOCKED = -1


@dataclass(frozen=True)
class SystemState:
    """One global state: each entity's behaviour plus the medium.

    Equality is structural; the hash is computed once per object (the
    same value the field tuple hashes to), because LTS construction and
    the trace search probe dicts and sets with the same states over and
    over.
    """

    entities: Tuple[Behaviour, ...]
    medium: MediumState

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.entities, self.medium))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # String hashes differ between processes: never ship the cache.
        return {"entities": self.entities, "medium": self.medium}


class _LocalTable:
    """One entity's local states (``Behaviour`` <-> int) and their moves.

    ``moves[i]`` is filled the first time a global state holding local
    state ``i`` is expanded, from one call to the entity's
    ``Semantics.transitions``: ``(visible label, residual id, gate id)``
    per non-``delta`` move.  ``can_exit[i]`` records whether the state
    offers ``delta``.
    """

    __slots__ = ("semantics", "ids", "terms", "moves", "can_exit")

    def __init__(self, semantics: Semantics) -> None:
        self.semantics = semantics
        self.ids: Dict[Behaviour, int] = {}
        self.terms: List[Behaviour] = []
        self.moves: List[Optional[Tuple[Tuple[Label, int, int], ...]]] = []
        self.can_exit: List[bool] = []

    def intern(self, term: Behaviour) -> int:
        local = self.ids.get(term)
        if local is None:
            local = len(self.terms)
            self.ids[term] = local
            self.terms.append(term)
            self.moves.append(None)
            self.can_exit.append(False)
        return local


class DistributedSystem:
    """Transition function for n entities + medium.

    ``hide=True`` maps message interactions to the internal action
    (verification view); ``hide=False`` keeps them observable in long
    form (``s^i_j(m)``), which is how the message-complexity experiments
    count traffic.

    The composed system is explored as a product of integer-coded
    components.  Each entity has a :class:`_LocalTable`, so its
    semantics runs once per local state, not once per global state.
    The medium has a table of its own (``MediumState`` <-> int) with the
    result of every send/receive memoized per ``(gate, medium id)``,
    where a gate is one ``(entity, send/receive label)`` pair.  A global
    state is keyed by the tuple of its component ids and stands for
    exactly one canonical :class:`SystemState` object, the one the
    transitions hand out; a structurally equal state built elsewhere is
    mapped to its key on first sight.  All tables belong to the instance.
    """

    def __init__(
        self,
        places: Sequence[int],
        semantics: Sequence[Semantics],
        initial: SystemState,
        hide: bool = True,
        require_empty_at_exit: bool = True,
    ) -> None:
        if len(places) != len(initial.entities) or len(places) != len(semantics):
            raise ExecutionError("places, semantics and entities must align")
        self.places = tuple(places)
        self.semantics = tuple(semantics)
        self.initial = initial
        self.hide = hide
        self.require_empty_at_exit = require_empty_at_exit
        self._tables = tuple(_LocalTable(entry) for entry in self.semantics)
        self._media: List[MediumState] = []
        self._medium_ids: Dict[MediumState, int] = {}
        self._medium_moves: List[Optional[Tuple[int, ...]]] = []
        # (is_send, src, dest, message) per gate, and its memoized
        # medium id -> successor medium id (or _BLOCKED).
        self._gate_ids: Dict[Tuple[int, Label], int] = {}
        self._gates: List[Tuple[bool, int, int, SyncMessage]] = []
        self._gate_results: List[Dict[int, int]] = []
        self._states: Dict[Key, SystemState] = {}
        self._keys: Dict[int, Key] = {}  # id(canonical state) -> key
        self._cache: Dict[Key, Tuple[Transition, ...]] = {}
        self._stop_ids: Optional[Key] = None

    # ------------------------------------------------------------------
    def transitions(self, state: SystemState) -> Tuple[Transition, ...]:
        key = self._keys.get(id(state))
        if key is None:
            key = self._key_of(state)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._transitions(key)
            self._cache[key] = cached
        return cached

    def _transitions(self, key: Key) -> Tuple[Transition, ...]:
        """Each entity's moves in place order, each in its semantics'
        order (sends and receives only where the medium enables them);
        then global ``delta``; then the medium's own internal moves."""
        result: List[Transition] = []
        states = self._states
        medium = key[-1]
        everyone_exits = True
        for index, table in enumerate(self._tables):
            local = key[index]
            moves = table.moves[local]
            if moves is None:
                moves = self._local_moves(index, local)
            before, after = key[:index], key[index + 1 :]
            for label, target, gate in moves:
                if gate == _FREE:
                    successor = before + (target,) + after
                else:
                    moved = self._gate_results[gate].get(medium)
                    if moved is None:
                        moved = self._through_gate(gate, medium)
                    if moved == _BLOCKED:
                        continue
                    successor = before + (target,) + after[:-1] + (moved,)
                state = states.get(successor)
                if state is None:
                    state = self._state(successor)
                result.append((label, state))
            everyone_exits = everyone_exits and table.can_exit[local]
        if everyone_exits and (
            not self.require_empty_at_exit or self._media[medium].is_empty
        ):
            # Every entity terminates into a literal stop: the delta
            # residual of e.g. ``exit ||| exit`` is ``stop ||| stop``,
            # behaviourally stop but structurally distinct, and one
            # canonical terminated state is what ``is_terminated``
            # recognizes.
            result.append((DELTA, self._state(self._stops() + (medium,))))
        # Media with internal machinery (ARQ recovery, loss faults)
        # contribute their own moves as internal steps.
        for moved in self._medium_internal(medium):
            result.append((INTERNAL, self._state(key[:-1] + (moved,))))
        return tuple(result)

    def _local_moves(
        self, index: int, local: int
    ) -> Tuple[Tuple[Label, int, int], ...]:
        table = self._tables[index]
        place = self.places[index]
        moves: List[Tuple[Label, int, int]] = []
        can_exit = False
        for label, residual in table.semantics.transitions(table.terms[local]):
            if isinstance(label, Delta):
                can_exit = True
                continue
            if isinstance(label, ServicePrimitive):
                moves.append((label, table.intern(residual), _FREE))
            elif isinstance(label, InternalAction):
                moves.append((INTERNAL, table.intern(residual), _FREE))
            elif isinstance(label, SendAction):
                visible: Label = INTERNAL if self.hide else label.with_src(place)
                gate = self._gate(index, label, True, place, label.dest)
                moves.append((visible, table.intern(residual), gate))
            elif isinstance(label, ReceiveAction):
                visible = INTERNAL if self.hide else label.with_dest(place)
                gate = self._gate(index, label, False, label.src, place)
                moves.append((visible, table.intern(residual), gate))
            else:
                raise ExecutionError(
                    f"entity at place {place} offered unexpected {label}"
                )
        result = tuple(moves)
        table.moves[local] = result
        table.can_exit[local] = can_exit
        return result

    def _gate(
        self, index: int, label: Label, is_send: bool, src: int, dest: int
    ) -> int:
        gate = self._gate_ids.get((index, label))
        if gate is None:
            gate = len(self._gates)
            self._gate_ids[(index, label)] = gate
            self._gates.append((is_send, src, dest, label.message))
            self._gate_results.append({})
        return gate

    def _through_gate(self, gate: int, medium: int) -> int:
        is_send, src, dest, message = self._gates[gate]
        state = self._media[medium]
        successor: Optional[MediumState] = None
        if is_send:
            if state.can_send(src, dest):
                successor = state.send(src, dest, message)
        elif state.receivable(src, dest, message):
            successor = state.receive(src, dest, message)
        moved = _BLOCKED if successor is None else self._medium_id(successor)
        self._gate_results[gate][medium] = moved
        return moved

    def _medium_internal(self, medium: int) -> Tuple[int, ...]:
        moves = self._medium_moves[medium]
        if moves is None:
            internal = getattr(self._media[medium], "internal_transitions", None)
            moves = (
                tuple(self._medium_id(moved) for _description, moved in internal())
                if internal is not None
                else ()
            )
            self._medium_moves[medium] = moves
        return moves

    def _medium_id(self, medium: MediumState) -> int:
        number = self._medium_ids.get(medium)
        if number is None:
            number = len(self._media)
            self._medium_ids[medium] = number
            self._media.append(medium)
            self._medium_moves.append(None)
        return number

    def _stops(self) -> Key:
        if self._stop_ids is None:
            self._stop_ids = tuple(table.intern(Stop()) for table in self._tables)
        return self._stop_ids

    def _state(self, key: Key) -> SystemState:
        """The canonical state of ``key``, made on first use."""
        state = self._states.get(key)
        if state is None:
            entities = tuple(
                table.terms[local] for table, local in zip(self._tables, key)
            )
            state = SystemState(entities, self._media[key[-1]])
            self._states[key] = state
            self._keys[id(state)] = key
        return state

    def _key_of(self, state: SystemState) -> Key:
        """Key of a state this system did not hand out (``initial`` or a
        structurally equal copy); an unseen key adopts it as canonical."""
        key = tuple(
            table.intern(entity) for table, entity in zip(self._tables, state.entities)
        ) + (self._medium_id(state.medium),)
        if key not in self._states:
            self._states[key] = state
            self._keys[id(state)] = key
        return key

    # ------------------------------------------------------------------
    def component_sizes(self) -> Tuple[Tuple[int, ...], int, int]:
        """States seen so far: per entity, in the medium, and global."""
        return (
            tuple(len(table.terms) for table in self._tables),
            len(self._media),
            len(self._states),
        )

    def is_terminated(self, state: SystemState) -> bool:
        return all(isinstance(entity, Stop) for entity in state.entities)

    def enabled(self, state: SystemState) -> Tuple[Transition, ...]:
        return self.transitions(state)


def build_system(
    entities: Mapping[int, Specification],
    capacity: Optional[int] = None,
    discipline: str = "fifo",
    hide: bool = True,
    use_occurrences: bool = True,
    require_empty_at_exit: bool = True,
    medium: Optional[object] = None,
) -> DistributedSystem:
    """Compose derived entity specifications into a distributed system.

    ``use_occurrences=False`` runs the entities without the Section 3.5
    occurrence parameterization (all messages carry the symbolic
    occurrence).  That keeps tail-recursive systems finite-state — at the
    price of instance ambiguity, which experiment E7 demonstrates.

    ``medium`` overrides the default perfect-FIFO medium with any object
    implementing the medium interface — e.g.
    :class:`repro.medium.lossy.LossyMedium` (fault injection) or
    :class:`repro.medium.lossy.ArqMedium` (the Section 6 error-recovery
    sublayer over lossy channels).
    """
    places = sorted(entities)
    semantics_list: List[Semantics] = []
    roots: List[Behaviour] = []
    for place in places:
        root, environment = flatten(entities[place])
        semantics_list.append(
            Semantics(environment, bind_occurrences=use_occurrences)
        )
        roots.append(bind_occurrence(root, ()) if use_occurrences else root)
    if medium is None:
        medium = make_medium(capacity, discipline)
    initial = SystemState(tuple(roots), medium)
    return DistributedSystem(
        places,
        semantics_list,
        initial,
        hide=hide,
        require_empty_at_exit=require_empty_at_exit,
    )
