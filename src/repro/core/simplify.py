"""Elimination of ``empty`` and vacuous fragments (paper Section 4.2).

The derivation rules of Table 3 splice ``empty`` strings wherever a
synchronization function has nothing to contribute for the current place.
The paper removes them, in a second pass, with the laws::

    empty ; e   = e          (realized structurally: the projection rules
                              never build a prefix with an empty event)
    empty >> e  = e
    e >> empty  = e
    e ||| empty = e

plus, implicitly in the printed derivations, the *vacuous-exit* law
``exit >> e = e``.  The last one deserves a comment: in full LOTOS
``exit >> e`` equals ``i; e`` (law E1), which is *not* congruent to ``e``.
Here the ``exit`` arises purely from the projection of actions located at
other places, and eliminating the internal step is not only cosmetic but
necessary: a choice branch that begins with a projected-away alternative
must stay guarded by its synchronization *receive*, not by an internal
action that would let the entity commit to the branch before any message
arrives.  The paper's own Example 5 output (place 2, ``[] (r1(19);exit)``)
shows the law applied.

The choice laws ``e [] e = e`` (C3) and ``empty [] empty = empty`` tidy
the places that participate in neither alternative.

:func:`simplify_node` is the one place the laws are written.
:meth:`repro.core.derivation.Deriver.derive` applies it to every node
``T_p`` builds, as soon as the node's children are final, so a derived
entity comes out already simplified and no second pass is made.
:func:`simplify` and :func:`simplify_spec` are that second pass, kept
as the reference: the output of
:meth:`~repro.core.derivation.Deriver.derive_raw` (Table 3 verbatim)
reduces under them to exactly what ``derive`` returns.
"""

from __future__ import annotations

from repro.errors import DerivationError
from repro.lotos.syntax import (
    Behaviour,
    Choice,
    DefBlock,
    Disable,
    Empty,
    Enable,
    Exit,
    Hide,
    Parallel,
    ProcessDefinition,
    Specification,
)


def simplify(node: Behaviour) -> Behaviour:
    """Bottom-up application of the elimination laws to a whole tree."""
    children = node.children()
    if children:
        new_children = tuple(simplify(child) for child in children)
        if any(new is not old for new, old in zip(new_children, children)):
            node = node.with_children(new_children)
    return simplify_node(node)


def simplify_node(node: Behaviour) -> Behaviour:
    """The elimination laws at the root of ``node`` only.

    ``node``'s children must already be simplified; the result then is.
    """
    if isinstance(node, Enable):
        if isinstance(node.left, Empty):
            return node.right
        if isinstance(node.right, Empty):
            return node.left
        if isinstance(node.left, Exit):
            # Vacuous-exit law; see the module docstring.
            return node.right
        if isinstance(node.right, Exit):
            # ``e >> exit = e`` — unlike the left variant this one is a
            # genuine observation congruence (it removes one internal
            # step just before termination); the paper's printed
            # derivations apply it (Example 3, Section 4.2).
            return node.left
        return node
    if isinstance(node, Parallel):
        left_empty = isinstance(node.left, Empty)
        right_empty = isinstance(node.right, Empty)
        if left_empty and right_empty:
            return Empty()
        if node.is_interleaving():
            if left_empty:
                return node.right
            if right_empty:
                return node.left
            # ``B ||| exit = B``: exit is the unit of pure interleaving
            # (termination synchronizes, so the exit operand adds
            # nothing).  This clears the vacuous fragments that the
            # projection leaves at places not involved in one branch —
            # without it the derived entity performs a spurious initial
            # internal step and observation congruence is lost.
            if isinstance(node.left, Exit):
                return node.right
            if isinstance(node.right, Exit):
                return node.left
        return node
    if isinstance(node, Choice):
        if isinstance(node.left, Empty) and isinstance(node.right, Empty):
            return Empty()
        if isinstance(node.left, Empty) or isinstance(node.right, Empty):
            raise DerivationError(
                "a choice with exactly one empty alternative survived "
                "simplification; the Alternative synchronization should "
                "have prevented this (paper Section 3.2)"
            )
        if node.left == node.right:
            return node.left
        return node
    if isinstance(node, Disable):
        if isinstance(node.left, Empty) and isinstance(node.right, Empty):
            return Empty()
        if isinstance(node.right, Empty):
            return node.left
        if isinstance(node.left, Empty):
            return node.right
        return node
    if isinstance(node, Hide):
        if isinstance(node.body, Empty):
            return Empty()
        return node
    return node


def simplify_spec(spec: Specification) -> Specification:
    """Simplify the main behaviour and every process body."""
    root = simplify(spec.root.behaviour)
    definitions = tuple(
        ProcessDefinition(d.name, DefBlock(simplify(d.body.behaviour)))
        for d in spec.definitions
    )
    return Specification(DefBlock(root, definitions))
