"""MILANA: a lightweight transactional layer over SEMEL.

Serializable ACID transactions via client-coordinated OCC + 2PC (§4),
with snapshot reads from SEMEL's multi-version store, client-local
validation of read-only transactions, relaxed (unordered) backup updates,
and full failure recovery: Algorithm 2 log merge on primary failover,
cooperative termination on client failure, and read leases.
"""

from .client import MilanaClient, TransactionAborted, TxnStats
from .extensions import CachingMilanaClient
from .leases import (
    DEFAULT_LEASE_DURATION,
    DEFAULT_LEASE_INTERVAL,
    LeaseManager,
)
from .recovery import RecoveryError, merge_records, recover_primary
from .server import DEFAULT_CTP_TIMEOUT, MilanaServer
from .transaction import (
    ABORTED,
    COMMITTED,
    PREPARED,
    UNKNOWN,
    ReadObservation,
    Transaction,
    TransactionRecord,
)
from .validation import KeyState, KeyStateTable, ValidationResult, validate

__all__ = [
    "MilanaClient",
    "MilanaServer",
    "CachingMilanaClient",
    "TxnStats",
    "TransactionAborted",
    "Transaction",
    "TransactionRecord",
    "ReadObservation",
    "PREPARED",
    "COMMITTED",
    "ABORTED",
    "UNKNOWN",
    "KeyState",
    "KeyStateTable",
    "ValidationResult",
    "validate",
    "LeaseManager",
    "DEFAULT_LEASE_DURATION",
    "DEFAULT_LEASE_INTERVAL",
    "DEFAULT_CTP_TIMEOUT",
    "RecoveryError",
    "recover_primary",
    "merge_records",
]
