"""SEMEL: a replicated multi-version key-value store on precision time.

The storage half of the paper: sharded, primary/backup-replicated,
timestamp-versioned KV storage with lightweight *inconsistent* replication
(no ordering between updates — version stamps recover order), watermark-
based garbage collection, and linearizable single-key RPCs.
"""

from .client import DEFAULT_WATERMARK_INTERVAL, SemelClient
from .master import (
    DEFAULT_FAILURE_TIMEOUT,
    DEFAULT_HEARTBEAT_INTERVAL,
    HeartbeatReporter,
    Master,
)
from .replication import QuorumError, replicate_to_backups
from .server import StorageServer
from .sharding import Directory, HashRing, ShardInfo
from .watermark import WatermarkTracker

__all__ = [
    "SemelClient",
    "DEFAULT_WATERMARK_INTERVAL",
    "Master",
    "HeartbeatReporter",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_FAILURE_TIMEOUT",
    "StorageServer",
    "Directory",
    "HashRing",
    "ShardInfo",
    "WatermarkTracker",
    "QuorumError",
    "replicate_to_backups",
]
