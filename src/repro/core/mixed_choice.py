"""Distributed choice between different places (lifting restriction R1).

The paper restricts every choice ``e1 [] e2`` to alternatives starting
at one common place (R1) because "we cannot 'disable' instantly the not
chosen alternative" across the medium, and defers relaxations to
[Kant 92, Kant 93].  This module implements one such relaxation for the
two-starter case ``SP(e1) = {pA}``, ``SP(e2) = {pB}``, ``pA != pB``:

* ``pA`` acts as the **arbiter**.  It offers its own initial event *and*
  a request from ``pB`` — a choice it can resolve *locally*;
* ``pB`` announces its interest with ``req`` immediately on entering the
  choice and guards its initial event on a ``grant``:

  =============   ==================================================
  entity pA       ``( a; (r_pB(req) >> s_pB(deny) >> restA) )
                  [] ( r_pB(req) >> s_pB(grant) >> T_pA(e2) )``
  entity pB       ``s_pA(req) >> ( (r_pA(grant); b; restB)
                  [] (r_pA(deny) >> T_pB(e1)) )``
  others          unchanged (Table 3 rule 14)
  =============   ==================================================

Properties (exercised by the tests):

* the losing initial event is *never* offered to its user after the
  choice resolves — the instant-disable problem disappears because the
  only cross-place race (pA's own event vs. pB's request) is resolved
  locally at pA;
* ``deny`` doubles as the Section 3.2 ``Alternative`` notification for
  ``pB``, and is exchanged immediately after pA's initial event (not
  after the branch completes), so pB's participation *inside* ``e1``
  is not stalled;
* all request/grant/deny traffic is internal — the composed system
  remains weak-trace equivalent to the service.

R2 (equal ending places) still applies.  The alternatives must be
event-prefixed at their starting place (an alternative that *begins*
with a process invocation would need the graft inside the process body).

Like the rest of ``T_p``, every node built here above a leaf passes
through the deriver's ``build`` hook (the Section 4.2 elimination laws,
or the identity for :meth:`~repro.core.derivation.Deriver.derive_raw`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import DerivationError
from repro.lotos.events import ReceiveAction, SendAction, SyncMessage
from repro.lotos.syntax import (
    ActionPrefix,
    Behaviour,
    Choice,
    Enable,
    Exit,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.derivation import Deriver


def applicable(deriver: "Deriver", node: Choice) -> bool:
    """Whether this choice needs (and supports) the arbiter protocol."""
    sp_left = deriver.attrs.sp(node.left)
    sp_right = deriver.attrs.sp(node.right)
    return len(sp_left) == 1 and len(sp_right) == 1 and sp_left != sp_right


def _one_shot(event) -> Behaviour:
    return ActionPrefix(event, Exit())


def derive_mixed_choice(deriver: "Deriver", p: int, node: Choice) -> Behaviour:
    """``T_p`` for a two-starter choice, arbiter protocol included."""
    attrs = deriver.attrs
    build = deriver.build
    (arbiter,) = attrs.sp(node.left)
    (requester,) = attrs.sp(node.right)
    nid = node.nid
    if nid is None:
        raise DerivationError("mixed choice requires a numbered service tree")

    req = SyncMessage(nid, kind="req")
    grant = SyncMessage(nid, kind="grant")
    deny = SyncMessage(nid, kind="deny")

    left_projection = deriver.transform(p, node.left)
    right_projection = deriver.transform(p, node.right)

    # The checks look at the service alternative, not at its projection:
    # under the elimination laws a projection can collapse to a prefix
    # that Table 3 alone would not produce.
    if p == arbiter:
        if not isinstance(node.left, ActionPrefix):
            raise DerivationError(
                "mixed choice requires the arbiter's alternative to begin "
                "with its own event (event-prefixed Seq)"
            )
        deriver._log("mixed-choice", nid, p, "send", {requester})
        deny_exchange = build(Enable(
            _one_shot(ReceiveAction(src=requester, message=req)),
            _one_shot(SendAction(dest=requester, message=deny)),
        ))
        # a; (recv req >> send deny >> rest-of-e1)
        win_branch = ActionPrefix(
            left_projection.event,
            build(Enable(deny_exchange, left_projection.continuation)),
        )
        win_branch = build(Enable(
            win_branch, deriver._alternative_excluding(p, node.left, node.right, requester)
        ))
        grant_exchange = build(Enable(
            _one_shot(ReceiveAction(src=requester, message=req)),
            _one_shot(SendAction(dest=requester, message=grant)),
        ))
        lose_branch = build(Enable(grant_exchange, right_projection))
        return build(Choice(win_branch, lose_branch))

    if p == requester:
        if not isinstance(node.right, ActionPrefix):
            raise DerivationError(
                "mixed choice requires the requester's alternative to begin "
                "with its own event (event-prefixed Seq)"
            )
        deriver._log("mixed-choice", nid, p, "send", {arbiter})
        granted = build(Enable(
            _one_shot(ReceiveAction(src=arbiter, message=grant)),
            build(Enable(
                ActionPrefix(
                    right_projection.event, right_projection.continuation
                ),
                deriver._alternative_excluding(p, node.right, node.left, arbiter),
            )),
        ))
        denied = build(Enable(
            _one_shot(ReceiveAction(src=arbiter, message=deny)),
            left_projection,
        ))
        return build(Enable(
            _one_shot(SendAction(dest=arbiter, message=req)),
            build(Choice(granted, denied)),
        ))

    # Everyone else: standard rule 14, except that the starters handle
    # their own notifications through grant/deny.
    return build(Choice(
        build(Enable(
            left_projection,
            deriver._alternative_excluding(p, node.left, node.right, requester),
        )),
        build(Enable(
            right_projection,
            deriver._alternative_excluding(p, node.right, node.left, arbiter),
        )),
    ))
