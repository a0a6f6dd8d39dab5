"""Differential oracle for the equivalence engine.

Random small complete LTSs (up to 7 states, two visible labels plus the
internal action, tau self-loops and tau cycles allowed) are compared by
the partition-refinement engine of :mod:`repro.lotos.equivalence` and by
a reference written here straight from the definitions: the greatest
fixpoint over state pairs, with weak moves computed by explicit
tau-closure.
"""

from hypothesis import given, settings, strategies as st

from repro.lotos.equivalence import (
    minimize_weak,
    observationally_congruent,
    strong_bisimilar,
    weak_bisimilar,
)
from repro.lotos.events import INTERNAL, ServicePrimitive
from repro.lotos.lts import LTS

A = ServicePrimitive("a", 1)
B = ServicePrimitive("b", 2)
LABELS = (A, B, INTERNAL)


@st.composite
def random_lts(draw):
    size = draw(st.integers(1, 7))
    edge = st.tuples(st.sampled_from(LABELS), st.integers(0, size - 1))
    edges = [
        tuple(draw(st.lists(edge, max_size=4, unique=True)))
        for _ in range(size)
    ]
    return LTS(
        state_terms=[None] * size,
        edges=edges,
        initial=draw(st.integers(0, size - 1)),
    )


@st.composite
def lts_pairs(draw):
    """Two independent LTSs, or one and a relabelled copy: a near miss."""
    first = draw(random_lts())
    if draw(st.booleans()):
        return first, draw(random_lts())
    relabel = draw(
        st.dictionaries(st.sampled_from(LABELS), st.sampled_from(LABELS))
    )
    edges = [
        tuple((relabel.get(label, label), target) for label, target in outgoing)
        for outgoing in first.edges
    ]
    return first, LTS(
        state_terms=list(first.state_terms), edges=edges, initial=first.initial
    )


def union(lts1, lts2):
    """Both LTSs over one state numbering, and the two initial states."""
    offset = lts1.num_states
    edges = list(lts1.edges) + [
        tuple((label, target + offset) for label, target in outgoing)
        for outgoing in lts2.edges
    ]
    return edges, lts1.initial, lts2.initial + offset


def tau_closure(edges, state):
    seen, stack = {state}, [state]
    while stack:
        for label, target in edges[stack.pop()]:
            if label == INTERNAL and target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


def weak_moves(edges):
    """``moves[s][a]`` = states reachable by ``=a=>``; key None is eps."""
    closures = [tau_closure(edges, state) for state in range(len(edges))]
    moves = []
    for state in range(len(edges)):
        reach = {None: set(closures[state])}
        for mid in closures[state]:
            for label, target in edges[mid]:
                if label != INTERNAL:
                    reach.setdefault(label, set()).update(closures[target])
        moves.append(reach)
    return moves


def greatest_bisimulation(edges, answers):
    """Largest relation R such that every strong move ``p -l-> p'`` is
    answered by some ``q'`` in ``answers(q, l)`` with ``(p', q') in R``,
    and symmetrically."""
    states = range(len(edges))
    relation = {(p, q) for p in states for q in states}

    def simulated(p, q):
        return all(
            any((target, answer) in relation for answer in answers(q, label))
            for label, target in edges[p]
        )

    changed = True
    while changed:
        changed = False
        for pair in list(relation):
            p, q = pair
            if not (simulated(p, q) and simulated(q, p)):
                relation.discard(pair)
                changed = True
    return relation


def strong_relation(edges):
    return greatest_bisimulation(
        edges,
        lambda q, label: [t for lab, t in edges[q] if lab == label],
    )


def weak_relation(edges):
    moves = weak_moves(edges)
    return greatest_bisimulation(
        edges,
        lambda q, label: moves[q].get(None if label == INTERNAL else label, ()),
    )


def reference_congruent(edges, p, q):
    """Rooted condition on top of weak bisimilarity: an internal move
    must be answered by at least one internal move (tau then eps)."""
    weak = weak_relation(edges)
    moves = weak_moves(edges)

    def rooted_answers(state, label):
        if label != INTERNAL:
            return moves[state].get(label, ())
        return {
            final
            for lab, mid in edges[state]
            if lab == INTERNAL
            for final in moves[mid][None]
        }

    def matched(source, other):
        return all(
            any((target, answer) in weak for answer in rooted_answers(other, label))
            for label, target in edges[source]
        )

    return (p, q) in weak and matched(p, q) and matched(q, p)


SETTINGS = settings(max_examples=200, deadline=None)


@SETTINGS
@given(lts_pairs())
def test_strong_bisimilar_matches_reference(pair):
    lts1, lts2 = pair
    edges, p, q = union(lts1, lts2)
    assert strong_bisimilar(lts1, lts2) == ((p, q) in strong_relation(edges))


@SETTINGS
@given(lts_pairs())
def test_weak_bisimilar_matches_reference(pair):
    lts1, lts2 = pair
    edges, p, q = union(lts1, lts2)
    assert weak_bisimilar(lts1, lts2) == ((p, q) in weak_relation(edges))


@SETTINGS
@given(lts_pairs())
def test_congruence_matches_reference_and_implies_weak(pair):
    lts1, lts2 = pair
    edges, p, q = union(lts1, lts2)
    congruent = observationally_congruent(lts1, lts2)
    assert congruent == reference_congruent(edges, p, q)
    if congruent:
        assert weak_bisimilar(lts1, lts2)


@SETTINGS
@given(random_lts())
def test_minimize_weak_matches_reference(lts):
    relation = weak_relation(list(lts.edges))
    expected = {
        frozenset(q for q in range(lts.num_states) if (p, q) in relation)
        for p in range(lts.num_states)
    }
    count, partition = minimize_weak(lts)
    assert count == len(expected)
    assert {frozenset(block) for block in partition.values()} == expected

