"""Quorum helpers for SEMEL's lightweight inconsistent replication (§3.2).

SEMEL commits an update as soon as a majority of replicas acknowledge it,
with **no ordering requirement** between updates: each backup applies
whatever arrives, in whatever order, because version timestamps make the
order recoverable. Concretely the primary sends an update to its 2f
backups and waits for the first f acknowledgements (itself being the
(f+1)-th copy).

:func:`replicate_to_backups` sends all the calls, fires as soon as the
quorum is met, and leaves the stragglers in flight — this is exactly the
relaxed-backup-update behaviour of the paper's Figure 5. Acks are counted
by a callback on each pending-call record, so a replication round costs
no process beyond the handler that waits for it.
"""

from __future__ import annotations

from typing import Any, List

from ..net.rpc import RpcError, RpcNode
from ..sim.events import PENDING, Event

__all__ = ["QuorumError", "replicate_to_backups"]


class QuorumError(Exception):
    """Fewer than the required number of backups acknowledged."""


def replicate_to_backups(
    node: RpcNode,
    backups: List[str],
    method: str,
    payload: Any,
    need_acks: int,
    timeout: float = 10e-3,
):
    """Generator: send ``method`` to every backup, return after
    ``need_acks`` succeed.

    Raises :class:`QuorumError` once enough backups have *failed* that the
    quorum can no longer be reached. Late acknowledgements beyond the
    quorum land on calls nobody waits for any more.
    """
    if need_acks <= 0:
        return 0
    if need_acks > len(backups):
        raise QuorumError(
            f"need {need_acks} acks but only {len(backups)} backups")

    quorum = node.sim.event()
    acks = failures = 0

    def tally(call: Event) -> None:
        nonlocal acks, failures
        if quorum._value is not PENDING:
            return
        if call._ok:
            acks += 1
            if acks >= need_acks:
                quorum.succeed(acks)
        elif isinstance(call._value, RpcError):
            failures += 1
            if len(backups) - failures < need_acks:
                quorum.fail(QuorumError(
                    f"{method}: only {len(backups) - failures} "
                    f"backups reachable, need {need_acks}"))
        # else: this node crashed, and the handler waiting here with it.

    for backup in backups:
        call = node.call(backup, method, payload, timeout=timeout)
        call.defused = True
        call.callbacks.append(tally)
    result = yield quorum
    return result
