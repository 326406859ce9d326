"""Simulated per-server durability: write-ahead logs with fsync points.

The durability layer is what makes an *amnesia* crash (volatile state
wiped, process killed) survivable: every record a server acknowledges as
durable is appended to its :class:`WriteAheadLog` and fsynced *before*
the acknowledgement goes out, so a restart can rebuild the store and
transaction table from the durable prefix.

Durability is opt-in (``ClusterConfig.durability``); with it disabled a
server's ``wal`` stays ``None`` and every hook is a single attribute
check, so default-config schedules are byte-identical.
"""

from .wal import (
    SEMEL_DELETE,
    SEMEL_PUT,
    TXN_RECORD,
    DurabilityConfig,
    WalRecord,
    WriteAheadLog,
)

__all__ = [
    "DurabilityConfig",
    "WalRecord",
    "WriteAheadLog",
    "SEMEL_PUT",
    "SEMEL_DELETE",
    "TXN_RECORD",
]
