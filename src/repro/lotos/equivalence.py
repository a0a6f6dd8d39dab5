"""Behavioural equivalences on finite LTSs.

The paper's correctness theorem (Section 5) is stated in terms of
*observation congruence* ``≈`` [Lotos 89] — weak bisimulation plus the
rooted condition on initial internal moves.  This module implements, by
partition refinement:

* strong bisimulation equivalence,
* weak bisimulation equivalence (saturation + strong refinement),
* observation congruence (rooted weak bisimulation),

all between two finite, complete LTSs.  Bounded comparison of
infinite-state systems lives in :mod:`repro.lotos.traces`.

Labels are coded as ints once per check: observable labels are numbered
from 1, and code 0 is the internal move (``tau`` on strong edges, the
reflexive ``eps`` on saturated ones).  Saturation and refinement then
hash only small int pairs.  One saturation and one refinement serve both
the weak verdict and the rooted pass of observation congruence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Set, Tuple

from repro.errors import VerificationError
from repro.lotos.events import Label
from repro.lotos.lts import LTS
from repro.obs.metrics import get_registry
from repro.obs.spans import get_tracer

#: Code of the internal move: ``tau`` on coded strong edges, ``eps``
#: (zero or more internal moves) on saturated edges.
_INTERNAL = 0

#: Per state, the ``(code, target)`` pairs of its outgoing moves as two
#: parallel tuples, so refinement can pair codes with target blocks
#: without a Python-level loop per edge.
_CodedEdges = List[Tuple[Tuple[int, ...], Tuple[int, ...]]]


@dataclass
class _Union:
    """Disjoint union of two LTSs with a shared state numbering.

    :func:`weak_bisimulation_blocks` fills ``saturated`` and ``codes``
    (observable label -> code), which the rooted pass reuses.
    """

    edges: List[Tuple[Tuple[object, int], ...]]
    initial1: int
    initial2: int
    offset: int
    saturated: _CodedEdges = field(default_factory=list)
    codes: Dict[object, int] = field(default_factory=dict)


def _disjoint_union(lts1: LTS, lts2: LTS) -> _Union:
    for lts, which in ((lts1, "first"), (lts2, "second")):
        if not lts.complete:
            raise VerificationError(
                f"the {which} LTS is truncated; equivalence checking requires "
                "a complete state graph (raise max_states or use bounded "
                "trace comparison instead)"
            )
    offset = lts1.num_states
    edges: List[Tuple[Tuple[object, int], ...]] = list(lts1.edges)
    edges.extend(
        tuple((label, target + offset) for label, target in outgoing)
        for outgoing in lts2.edges
    )
    return _Union(edges, lts1.initial, lts2.initial + offset, offset)


def _is_tau(label: object) -> bool:
    return isinstance(label, Label) and not label.is_observable()


def _code_edges(
    edges: List[Tuple[Tuple[object, int], ...]]
) -> Tuple[List[List[int]], List[List[Tuple[int, int]]], Dict[object, int]]:
    """Split each state's edges into tau targets and ``(code, target)``
    visible moves, numbering observable labels from 1.

    Returns the tau lists, the visible lists and the label -> code table
    (observable labels only).  ``_is_tau`` runs once per distinct label.
    """
    codes: Dict[object, int] = {}
    lookup: Dict[object, int] = {}  # codes, plus tau labels -> 0
    taus: List[List[int]] = []
    moves: List[List[Tuple[int, int]]] = []
    for outgoing in edges:
        tau_targets: List[int] = []
        visible: List[Tuple[int, int]] = []
        for label, target in outgoing:
            code = lookup.get(label)
            if code is None:
                if _is_tau(label):
                    code = _INTERNAL
                else:
                    code = codes[label] = len(codes) + 1
                lookup[label] = code
            if code == _INTERNAL:
                tau_targets.append(target)
            else:
                visible.append((code, target))
        taus.append(tau_targets)
        moves.append(visible)
    return taus, moves, codes


def _strong_coded(edges: List[Tuple[Tuple[object, int], ...]]) -> _CodedEdges:
    """The edges themselves, coded, with tau as code 0."""
    taus, moves, _ = _code_edges(edges)
    return [
        (
            (_INTERNAL,) * len(tau_targets) + tuple(code for code, _ in visible),
            tuple(tau_targets) + tuple(target for _, target in visible),
        )
        for tau_targets, visible in zip(taus, moves)
    ]


def _refine(num_states: int, edges: _CodedEdges) -> List[int]:
    """Signature-based partition refinement; returns block ids per state.

    A state's signature is its current block plus the frozenset of
    ``(code, block of target)`` int pairs of its moves.  Blocks are
    numbered by first occurrence, so the partition is stable exactly
    when the block count stops growing.
    """
    blocks = [0] * num_states
    count = min(num_states, 1)
    iterations = 0
    while True:
        iterations += 1
        block_of = blocks.__getitem__
        mapping: Dict[Tuple[int, frozenset], int] = {}
        new_blocks = [
            mapping.setdefault(
                (blocks[state], frozenset(zip(codes, map(block_of, targets)))),
                len(mapping),
            )
            for state, (codes, targets) in enumerate(edges)
        ]
        if len(mapping) == count:
            registry = get_registry()
            registry.counter(
                "equivalence.refine_iterations",
                help="partition-refinement sweeps until fixpoint",
            ).inc(iterations)
            registry.gauge(
                "equivalence.blocks",
                help="equivalence classes at the last fixpoint",
            ).set(count)
            return blocks
        blocks, count = new_blocks, len(mapping)


def strong_bisimilar(lts1: LTS, lts2: LTS) -> bool:
    """Strong bisimulation equivalence of the two initial states."""
    union = _disjoint_union(lts1, lts2)
    blocks = _refine(len(union.edges), _strong_coded(union.edges))
    return blocks[union.initial1] == blocks[union.initial2]


def _saturate(
    edges: List[Tuple[Tuple[object, int], ...]]
) -> Tuple[_CodedEdges, Dict[object, int]]:
    """Weak (double-arrow) transition relation with epsilon self-loops.

    ``s =a=> t``  iff  ``s (tau)* a (tau)* t`` for observable ``a``;
    ``s =eps=> t`` iff ``s (tau)* t`` (reflexive, code 0).  Strong
    bisimulation on the saturated system coincides with weak bisimulation
    on the original.  Returns the saturated edges and the label -> code
    table.  Each state's tau-closure is its own DFS over the tau lists:
    unioning memoized closures instead is far slower on large systems.
    """
    taus, moves, codes = _code_edges(edges)
    closures: List[Set[int]] = []
    for state in range(len(edges)):
        seen = {state}
        stack = [state]
        while stack:
            for target in taus[stack.pop()]:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        closures.append(seen)

    # ``after[m]``: the pairs ``(a, t)`` with ``m -a-> (tau)* t``, made
    # once per state with visible moves and unioned into each closure.
    after: List[Set[Tuple[int, int]]] = [set() for _ in edges]
    for state, visible in enumerate(moves):
        for code, target in visible:
            after[state].update(zip(repeat(code), closures[target]))
    saturated: _CodedEdges = []
    for closure in closures:
        weak: Set[Tuple[int, int]] = set(zip(repeat(_INTERNAL), closure))
        for mid in closure:
            weak |= after[mid]
        saturated.append(tuple(zip(*weak)) or ((), ()))
    return saturated, codes


def weak_bisimulation_blocks(lts1: LTS, lts2: LTS) -> Tuple[List[int], _Union]:
    """Weak-bisimulation classes over the disjoint union of both LTSs.

    The returned union carries the saturated edges and label codes, so
    the rooted pass of :func:`observationally_congruent` needs no second
    saturation.
    """
    union = _disjoint_union(lts1, lts2)
    with get_tracer().span(
        "equivalence.weak_bisimulation", states=len(union.edges)
    ) as span:
        with get_tracer().span("equivalence.saturate"):
            union.saturated, union.codes = _saturate(union.edges)
        get_registry().counter(
            "equivalence.saturated_edges",
            help="weak (double-arrow) transitions after saturation",
        ).inc(sum(len(targets) for _, targets in union.saturated))
        with get_tracer().span("equivalence.refine"):
            blocks = _refine(len(union.edges), union.saturated)
        span.set(blocks=len(set(blocks)))
    return blocks, union


def weak_bisimilar(lts1: LTS, lts2: LTS) -> bool:
    """Weak bisimulation equivalence of the two initial states."""
    blocks, union = weak_bisimulation_blocks(lts1, lts2)
    return blocks[union.initial1] == blocks[union.initial2]


def observationally_congruent(lts1: LTS, lts2: LTS) -> bool:
    """Observation congruence ``≈`` (rooted weak bisimulation).

    The initial states must match each other's *first* move in the rooted
    sense: an initial internal move of one side must be answered by at
    least one internal move of the other (``B [] i;B`` is weakly
    bisimilar, but not congruent, to ``i;B`` — law I2 of Annex A relates
    them only under a choice context).  Congruence implies weak
    bisimilarity: the answer is False whenever the initial states are in
    different weak-bisimulation classes.
    """
    blocks, union = weak_bisimulation_blocks(lts1, lts2)
    saturated = union.saturated

    def weak_moves(state: int, wanted: int) -> Set[int]:
        codes, targets = saturated[state]
        return {
            blocks[target]
            for code, target in zip(codes, targets)
            if code == wanted
        }

    def rooted_match(source: int, other: int) -> bool:
        for label, target in union.edges[source]:
            if _is_tau(label):
                # Rooted condition: an internal move must be answered by
                # *at least one* internal step — one strong tau step,
                # then any number more (tau then eps-closure).
                answers: Set[int] = set()
                for lab2, mid in union.edges[other]:
                    if _is_tau(lab2):
                        answers |= weak_moves(mid, _INTERNAL)
                if blocks[target] not in answers:
                    return False
            elif blocks[target] not in weak_moves(other, union.codes[label]):
                return False
        return True

    if blocks[union.initial1] != blocks[union.initial2]:
        return False
    return rooted_match(union.initial1, union.initial2) and rooted_match(
        union.initial2, union.initial1
    )


def weak_bisimulation_classes(lts: LTS) -> List[int]:
    """Weak-bisimulation equivalence classes within a single LTS."""
    if not lts.complete:
        raise VerificationError("LTS is truncated")
    saturated, _ = _saturate(lts.edges)
    return _refine(lts.num_states, saturated)


def minimize_weak(lts: LTS) -> Tuple[int, Dict[int, Set[int]]]:
    """Number of weak-bisimulation classes and the class partition."""
    blocks = weak_bisimulation_classes(lts)
    partition: Dict[int, Set[int]] = {}
    for state, block in enumerate(blocks):
        partition.setdefault(block, set()).add(state)
    return len(partition), partition
