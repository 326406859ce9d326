"""Excerpt of ``repro.semel.replication``: the quorum helper raises
``QuorumError`` when too few backups can acknowledge."""


class QuorumError(Exception):
    """Fewer than the required number of backups acknowledged."""


def replicate_to_backups(node, backups, method, payload, need_acks,
                         timeout=10e-3):
    if need_acks > len(backups):
        raise QuorumError(
            f"need {need_acks} acks but only {len(backups)} backups")
    acks = 0
    for backup in backups:
        yield node.call(backup, method, payload, timeout=timeout)
        acks += 1
    return acks
