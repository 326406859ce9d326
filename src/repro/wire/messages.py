"""Typed wire messages for every RPC method in the reproduction.

One frozen dataclass per request and per reply, with value semantics
(tuples, not lists) so a message cannot alias mutable state across the
simulated wire. Every message knows its own deterministic byte size
(:meth:`WireMessage.wire_size`), which the network adds to its per-edge
byte counters; the value semantics are also what allow that size to be
computed once per message object.

Every message class is declared with :func:`wire_message`, which builds
it as a frozen dataclass and then generates, once per class, a
straight-line ``__init__`` and ``wire_size`` from its fields (see
:func:`frozen_dataclass` and :func:`_sizer_source`).

The message object is the only wire form: the network carries it as it
is, and nothing encodes it to or decodes it from another shape.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from types import FunctionType
from typing import (TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple, Type,
                    TypeVar, Union, cast, get_args, get_origin,
                    get_type_hints)

from .sizing import _ATOM_SIZES, FLAG_SIZE, LENGTH_PREFIX_SIZE, payload_size

if TYPE_CHECKING:
    from typing_extensions import dataclass_transform as _dataclass_transform
else:
    def _dataclass_transform(**_options: Any) -> Callable[[Any], Any]:
        """Runtime stand-in: the marker only tells type checkers that
        the decorated decorator makes frozen dataclasses."""
        return lambda decorator: decorator

__all__ = [
    "frozen_dataclass",
    "wire_message",
    "WireMessage",
    "Ack",
    "SemelGet",
    "SemelGetReply",
    "SemelGetHistory",
    "SemelGetHistoryReply",
    "SemelPut",
    "SemelPutReply",
    "SemelDelete",
    "SemelDeleteReply",
    "SemelReplicate",
    "WatermarkReport",
    "TxnRecordWire",
    "MilanaGet",
    "MilanaGetReply",
    "MilanaPrepare",
    "MilanaPrepareReply",
    "MilanaDecide",
    "MilanaDecideReply",
    "MilanaTxnStatus",
    "MilanaTxnStatusReply",
    "MilanaFetchLog",
    "MilanaFetchLogReply",
    "MilanaCatchup",
    "MilanaCatchupReply",
    "MilanaReplicateTxn",
    "MilanaRenewLease",
    "MilanaRenewLeaseReply",
    "MasterHeartbeat",
    "MasterHeartbeatReply",
    "MasterLookup",
    "MasterLookupReply",
]

#: Per-message type tag a schema'd encoding would transmit.
_MESSAGE_HEADER = 2

_T = TypeVar("_T")


def _compile(cls: type, name: str, source: str,
             namespace: Dict[str, Any]) -> Callable[..., Any]:
    """Compile the generated method ``name`` of ``cls``.

    The code carries this module's real filename, so a profiler bills
    it to ``wire`` (code compiled from ``<string>``, like the
    ``__init__`` that :mod:`dataclasses` writes, is billed to no
    package), and the qualified name as its code name, so the
    generated methods of different classes stay apart in a profile
    that keys functions by file, line and name. Its lines are numbered
    from this function's, the nearest source a traceback can show.
    """
    exec(compile(source, __file__, "exec"), namespace)
    function: FunctionType = namespace[name]
    qualname = f"{cls.__qualname__}.{name}"
    function.__code__ = function.__code__.replace(
        co_name=qualname, co_firstlineno=_compile.__code__.co_firstlineno)
    function.__qualname__ = qualname
    return function


@_dataclass_transform(frozen_default=True)
def frozen_dataclass(cls: Type[_T]) -> Type[_T]:
    """Make ``cls`` a frozen dataclass whose ``__init__`` writes the
    instance ``__dict__`` directly.

    The ``__init__`` that :mod:`dataclasses` writes for a frozen class
    routes every field through ``object.__setattr__``; this one stores
    them with one dict assignment each, and keeps the same signature
    and defaults. Everything else is the dataclass's own: ``==``,
    ``hash``, ``repr``, ``dataclasses.replace``/``asdict``, and the
    ``FrozenInstanceError`` a later ``setattr`` raises.

    Fields are plain: no ``default_factory``, no ``init=False``, no
    keyword-only fields, no ``__post_init__``, and no leading
    underscore (``_wire_size`` and the generated code's own names live
    beside the fields).
    """
    cls = dataclass(frozen=True)(cls)
    fields = dataclasses.fields(cast(Any, cls))
    namespace: Dict[str, Any] = {}
    params = ["_self"]
    body = ["    _fields = _self.__dict__"]
    for field in fields:
        name = field.name
        if (name.startswith("_") or not field.init
                or field.default_factory is not dataclasses.MISSING
                or getattr(field, "kw_only", False) is True):
            raise TypeError(
                f"{cls.__qualname__}.{name}: frozen_dataclass takes only "
                f"plain public fields")
        if field.default is dataclasses.MISSING:
            params.append(name)
        else:
            namespace[f"_default_{name}"] = field.default
            params.append(f"{name}=_default_{name}")
        body.append(f"    _fields[{name!r}] = {name}")
    if hasattr(cls, "__post_init__"):
        raise TypeError(
            f"{cls.__qualname__}: frozen_dataclass runs no __post_init__")
    source = f"def __init__({', '.join(params)}):\n" + "\n".join(body)
    setattr(cls, "__init__", _compile(cls, "__init__", source, namespace))
    return cls


def _fixed_width(value: str, hint: Any) -> Optional[Tuple[str, int]]:
    """``(guard, size)`` when every ``hint`` value passing ``guard`` (an
    exact-type test of the expression ``value``) has one size: an atom,
    or a fixed-length tuple of such values (a version tuple)."""
    size = _ATOM_SIZES.get(hint)
    if size is not None:
        return f"type({value}) is {hint.__name__}", size
    args = get_args(hint)
    if get_origin(hint) is not tuple or not args or Ellipsis in args:
        return None
    guards = [f"type({value}) is tuple", f"len({value}) == {len(args)}"]
    size = LENGTH_PREFIX_SIZE
    for index, arg in enumerate(args):
        item = _fixed_width(f"{value}[{index}]", arg)
        if item is None:
            return None
        guards.append(item[0])
        size += item[1]
    return " and ".join(guards), size


def _size_source(value: str, hint: Any) -> str:
    """Source of an expression for the modelled size of ``value``, a
    local holding a field annotated ``hint``.

    Whatever the annotation promises is checked by exact type before
    it is trusted: a value that breaks the promise (a flag in an
    ``int`` field, a ``str`` subclass, a list for a tuple) goes to
    :func:`~repro.wire.sizing.payload_size`, which is also what sizes
    ``Any``, variable-length tuples, dicts and nested messages.
    """
    args = get_args(hint)
    if (get_origin(hint) is Union and len(args) == 2
            and type(None) in args):
        inner = args[0] if args[1] is type(None) else args[1]
        return (f"({FLAG_SIZE} if {value} is None "
                f"else {_size_source(value, inner)})")
    if hint is str:
        # UTF-8 encodes ASCII one byte per character.
        return (f"({LENGTH_PREFIX_SIZE} + len({value}) if type({value}) "
                f"is str and {value}.isascii() else _size({value}))")
    fixed = _fixed_width(value, hint)
    if fixed is not None:
        guard, size = fixed
        return f"({size} if {guard} else _size({value}))"
    return f"_size({value})"


def _sizer_source(cls: Any) -> str:
    """Source of ``cls.wire_size``: the type tag plus one expression per
    field, remembered in the instance ``__dict__`` beside the fields."""
    module = sys.modules[cls.__module__]
    hints = get_type_hints(cls, vars(module))
    lines = ["def wire_size(self):",
             "    _fields = self.__dict__",
             "    if '_wire_size' in _fields:",
             "        return _fields['_wire_size']"]
    terms = [str(_MESSAGE_HEADER)]
    for index, field in enumerate(dataclasses.fields(cls)):
        lines.append(f"    v{index} = _fields[{field.name!r}]")
        terms.append(_size_source(f"v{index}", hints[field.name]))
    lines.append(f"    size = {' + '.join(terms)}")
    lines.append("    _fields['_wire_size'] = size")
    lines.append("    return size")
    return "\n".join(lines)


@_dataclass_transform(frozen_default=True)
def wire_message(cls: Type[_T]) -> Type[_T]:
    """Declare a wire message: a :func:`frozen_dataclass` with a
    straight-line ``wire_size`` generated from its field annotations.

    The generated size equals :meth:`WireMessage.wire_size`'s walk for
    every value (``tests/test_wire.py`` holds it so, and
    :func:`~repro.wire.registry.validate_registry` checks each
    registered class's example).
    """
    cls = frozen_dataclass(cls)
    namespace: Dict[str, Any] = {"_size": payload_size,
                                 "NoneType": type(None)}
    setattr(cls, "wire_size",
            _compile(cls, "wire_size", _sizer_source(cls), namespace))
    return cls


@dataclass(frozen=True)
class WireMessage:
    """Base class: a frozen, self-sizing protocol message."""

    def wire_size(self) -> int:
        """Modelled size in bytes: type tag + field payloads.

        This is the model, walked field by field on every call. Each
        class declared with :func:`wire_message` replaces it with a
        generated sizer that gives the same number once per object: a
        message is frozen and its values are treated as immutable once
        it is sent, and the same object is sized again for every backup
        it fans out to, every retry and every envelope it is nested in.
        The remembered size lives in the instance ``__dict__`` beside
        the fields, not among them, so ``==``, ``hash``,
        ``dataclasses.asdict`` and ``dataclasses.replace`` never see it.
        """
        return _MESSAGE_HEADER + sum(
            payload_size(getattr(self, field.name))
            for field in dataclasses.fields(self))


@wire_message
class Ack(WireMessage):
    """Generic positive acknowledgement (replication, decide, watermark)."""

    ack: bool = True


# -- SEMEL single-key operations (§3.3) ------------------------------------


@wire_message
class SemelGet(WireMessage):
    """``semel.get``: youngest version of ``key`` at or below the bound."""

    key: str
    max_timestamp: Optional[float] = None


@wire_message
class SemelGetReply(WireMessage):
    found: bool
    version: Optional[Tuple[float, int]] = None
    value: Any = None


@wire_message
class SemelGetHistory(WireMessage):
    """``semel.get_history``: all retained versions in a time range."""

    key: str
    from_timestamp: float
    to_timestamp: float


@wire_message
class SemelGetHistoryReply(WireMessage):
    #: ((version tuple, value), ...) oldest first.
    versions: Tuple[Tuple[Any, Any], ...] = ()


@wire_message
class SemelPut(WireMessage):
    """``semel.put``: write ``value`` under a client-stamped version."""

    key: str
    value: Any
    version: Tuple[float, int]


@wire_message
class SemelPutReply(WireMessage):
    applied: bool
    duplicate: bool = False


@wire_message
class SemelDelete(WireMessage):
    """``semel.delete``: drop every version of ``key``."""

    key: str


@wire_message
class SemelDeleteReply(WireMessage):
    applied: bool = True


@wire_message
class SemelReplicate(WireMessage):
    """``semel.replicate``: one unordered primary→backup record (§3.2)."""

    op: str  # "put" | "delete"
    key: str
    value: Any = None
    version: Optional[Tuple[float, int]] = None


@wire_message
class WatermarkReport(WireMessage):
    """``semel.watermark`` (one-way): a client's GC low-water mark."""

    client_id: int
    timestamp: float


# -- MILANA transactions (§4) ----------------------------------------------


@wire_message
class TxnRecordWire(WireMessage):
    """Wire form of a transaction record (prepare payloads, backup logs).

    The mutable server-side twin is
    :class:`repro.milana.transaction.TransactionRecord`; this class is
    the immutable value that actually crosses the network, so a backup
    can never alias the primary's record object. Being immutable it is
    shared freely: one instance per state of a transaction serves the
    WAL, the replication fan-out and the backups' logs (see
    :meth:`from_record`), and the records thawed from it share its
    tuples.
    """

    txn_id: str
    client_id: int
    client_name: str
    ts_commit: float
    #: ((key, observed version tuple or None), ...) for this shard.
    reads: Tuple[Tuple[str, Optional[Tuple[float, int]]], ...]
    #: ((key, value), ...) for this shard.
    writes: Tuple[Tuple[str, Any], ...]
    #: Every participant shard name (CTP and recovery need them all).
    participants: Tuple[str, ...]
    status: str
    prepared_at: float = 0.0


    @classmethod
    def from_record(cls, record: Any) -> "TxnRecordWire":
        """Snapshot a server/client-side ``TransactionRecord``.

        One snapshot is built per state change, not per use: while the
        record's ``snapshot`` still describes it (same status and
        prepare time, the very same read/write/participant tuples) that
        object is returned, so the WAL entry, the replication messages
        and the backups' logs of one state share it. A new snapshot
        takes the record's tuples as they are; lists (hand-built
        records) are frozen first and never shared.
        """
        last: Optional[TxnRecordWire] = record.snapshot
        if (last is not None
                and last.status == record.status
                and last.prepared_at == record.prepared_at
                and last.reads is record.reads
                and last.writes is record.writes
                and last.participants is record.participants):
            return last
        reads, writes = record.reads, record.writes
        participants = record.participants
        if type(reads) is not tuple:
            reads = tuple(
                (key, tuple(version) if version is not None else None)
                for key, version in reads)
        if type(writes) is not tuple:
            writes = tuple((key, value) for key, value in writes)
        if type(participants) is not tuple:
            participants = tuple(participants)
        snapshot = record.snapshot = cls(
            txn_id=record.txn_id,
            client_id=record.client_id,
            client_name=record.client_name,
            ts_commit=record.ts_commit,
            reads=reads,
            writes=writes,
            participants=participants,
            status=record.status,
            prepared_at=record.prepared_at,
        )
        return snapshot

    def to_record(self) -> Any:
        """Thaw into a mutable ``TransactionRecord`` for server tables.

        Only ``status`` and ``prepared_at`` ever change on a record, so
        it keeps this message's tuples rather than copying them, and
        remembers this message as its snapshot: logging or forwarding
        the record unchanged reuses the received object itself.
        """
        from ..milana.transaction import TransactionRecord
        record = TransactionRecord(
            txn_id=self.txn_id,
            client_id=self.client_id,
            client_name=self.client_name,
            ts_commit=self.ts_commit,
            reads=self.reads,
            writes=self.writes,
            participants=self.participants,
            status=self.status,
            prepared_at=self.prepared_at,
        )
        record.snapshot = self
        return record


@wire_message
class MilanaGet(WireMessage):
    """``milana.get``: snapshot read at the transaction's ``ts_begin``."""

    key: str
    timestamp: float


@wire_message
class MilanaGetReply(WireMessage):
    found: bool
    #: True iff a prepared version existed at or below the timestamp —
    #: the bit that makes client-local validation possible (§4.3).
    prepared: bool = False
    version: Optional[Tuple[float, int]] = None
    value: Any = None
    snapshot_miss: bool = False


@wire_message
class MilanaPrepare(WireMessage):
    """``milana.prepare``: Algorithm 1 validation request (§4.2)."""

    record: TxnRecordWire


@wire_message
class MilanaPrepareReply(WireMessage):
    vote: str  # "SUCCESS" | "ABORT"
    reason: Optional[str] = None


@wire_message
class MilanaDecide(WireMessage):
    """``milana.decide``: the coordinator's (async) outcome broadcast."""

    txn_id: str
    outcome: str  # COMMITTED | ABORTED


@wire_message
class MilanaDecideReply(WireMessage):
    """Decide acknowledgement: the participant's resulting record status
    (UNKNOWN when it never saw the prepare). Sent only when the decide
    arrived as an acked call — the fast path stays one-way."""

    status: str  # COMMITTED | ABORTED | UNKNOWN


@wire_message
class MilanaTxnStatus(WireMessage):
    """``milana.txn_status``: CTP / recovery status probe (§4.5)."""

    txn_id: str


@wire_message
class MilanaTxnStatusReply(WireMessage):
    status: str  # PREPARED | COMMITTED | ABORTED | UNKNOWN


@wire_message
class MilanaFetchLog(WireMessage):
    """``milana.fetch_log``: pull a replica's full transaction log."""


@wire_message
class MilanaFetchLogReply(WireMessage):
    records: Tuple[TxnRecordWire, ...] = ()


@wire_message
class MilanaCatchup(WireMessage):
    """``milana.catchup``: a restarted backup's pull for everything it
    may have missed while down — decided records plus the newest stored
    version of every key (prepared records travel separately via normal
    ``milana.replicate_txn`` traffic and the recovery merge)."""

    replica: str


@wire_message
class MilanaCatchupReply(WireMessage):
    records: Tuple[TxnRecordWire, ...] = ()
    #: ((key, version tuple, value), ...) — newest version per key.
    versions: Tuple[Tuple[str, Tuple[float, int], Any], ...] = ()


@wire_message
class MilanaReplicateTxn(WireMessage):
    """``milana.replicate_txn``: unordered txn-record replication."""

    record: TxnRecordWire


@wire_message
class MilanaRenewLease(WireMessage):
    """``milana.renew_lease``: primary→backup read-lease renewal (§4.5)."""

    primary: str
    expiry: float


@wire_message
class MilanaRenewLeaseReply(WireMessage):
    granted: bool = True


# -- master service (§3's global master) -----------------------------------


@wire_message
class MasterHeartbeat(WireMessage):
    """``master.heartbeat`` (one-way): server liveness report."""

    server: str
    shard: str


@wire_message
class MasterHeartbeatReply(WireMessage):
    epoch: int = 0


@wire_message
class MasterLookup(WireMessage):
    """``master.lookup``: shard-map query (one key, or the full map)."""

    key: Optional[str] = None


@wire_message
class MasterLookupReply(WireMessage):
    #: Single-key lookups fill these four...
    shard: Optional[str] = None
    primary: Optional[str] = None
    replicas: Optional[Tuple[str, ...]] = None
    epoch: Optional[int] = None
    #: ...full-map lookups fill this: shard name -> info dict.
    shards: Optional[Dict[str, Dict[str, Any]]] = None
