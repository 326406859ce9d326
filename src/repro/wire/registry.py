"""Method ↔ message registry: one :class:`MethodSpec` per RPC method.

The registry is the only table of the protocol surface:

* :class:`repro.net.rpc.RpcNode` type-checks request and response
  payloads of registered methods against it;
* simlint's PRO001 (:mod:`repro.analysis.iprules`) cross-checks it
  against the tree: every dotted ``register``/``call``/``send_oneway``/
  ``replicate_to_backups`` method has a spec, and every spec of a
  handled namespace has exactly one handler;
* :func:`validate_registry` checks every row's example pair: frozen
  dataclasses of the spec's classes with a positive, deterministic
  ``wire_size()``;
* the PROTOCOL.md message catalogue is rendered from it
  (:func:`render_catalogue`, printed by ``repro wire``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from . import messages as m
from .messages import WireMessage

__all__ = [
    "MethodSpec",
    "REGISTRY",
    "spec_for",
    "validate_registry",
    "render_catalogue",
]


@dataclass(frozen=True)
class MethodSpec:
    """Everything the stack knows about one RPC method."""

    method: str
    request: Type[WireMessage]
    response: Type[WireMessage]
    sender: str
    receiver: str
    #: One representative (request, reply) pair: what
    #: :func:`validate_registry` checks and the catalogue sizes.
    example: Tuple[WireMessage, WireMessage]
    #: True when the method is (also) used fire-and-forget.
    oneway: bool = False
    doc: str = ""


#: The transaction record the MILANA examples carry.
_RECORD = m.TxnRecordWire(
    txn_id="t1.1", client_id=1, client_name="client-1", ts_commit=2.5e-3,
    reads=(("key:0", (1e-3, 2)), ("key:1", None)),
    writes=(("key:0", "value"),),
    participants=("shard0", "shard1"), status="PREPARED")

_SPECS: Tuple[MethodSpec, ...] = (
    # SEMEL single-key operations (§3.3)
    MethodSpec("semel.get", m.SemelGet, m.SemelGetReply,
               "client", "shard primary",
               (m.SemelGet(key="key:0", max_timestamp=1e-3),
                m.SemelGetReply(found=True, version=(1e-3, 2), value="v")),
               doc="youngest version at or below the request timestamp"),
    MethodSpec("semel.get_history", m.SemelGetHistory,
               m.SemelGetHistoryReply, "client", "shard primary",
               (m.SemelGetHistory(key="key:0", from_timestamp=0.0,
                                  to_timestamp=1.0),
                m.SemelGetHistoryReply(versions=(((1e-3, 2), "v"),))),
               doc="every retained version of a key in a time range"),
    MethodSpec("semel.put", m.SemelPut, m.SemelPutReply,
               "client", "shard primary",
               (m.SemelPut(key="key:0", value="v", version=(1e-3, 2)),
                m.SemelPutReply(applied=True)),
               doc="versioned write; stale-rejected, duplicate-deduped"),
    MethodSpec("semel.delete", m.SemelDelete, m.SemelDeleteReply,
               "client", "shard primary",
               (m.SemelDelete(key="key:0"), m.SemelDeleteReply()),
               doc="drop every version of a key"),
    MethodSpec("semel.replicate", m.SemelReplicate, m.Ack,
               "shard primary", "backup",
               (m.SemelReplicate(op="put", key="key:0", value="v",
                                 version=(1e-3, 2)),
                m.Ack()),
               doc="unordered put/delete replication record (§3.2)"),
    MethodSpec("semel.watermark", m.WatermarkReport, m.Ack,
               "client", "every server",
               (m.WatermarkReport(client_id=1, timestamp=1e-3), m.Ack()),
               oneway=True,
               doc="client GC low-water broadcast (§3.1/§4.4)"),
    # MILANA transactions (§4)
    MethodSpec("milana.get", m.MilanaGet, m.MilanaGetReply,
               "client", "shard primary",
               (m.MilanaGet(key="key:0", timestamp=1e-3),
                m.MilanaGetReply(found=True, prepared=False,
                                 version=(1e-3, 2), value="v")),
               doc="snapshot read at ts_begin, with the prepared bit"),
    MethodSpec("milana.prepare", m.MilanaPrepare, m.MilanaPrepareReply,
               "client (coordinator)", "participant primary",
               (m.MilanaPrepare(record=_RECORD),
                m.MilanaPrepareReply(vote="SUCCESS")),
               doc="Algorithm 1 validation; replicated before the vote"),
    MethodSpec("milana.decide", m.MilanaDecide, m.MilanaDecideReply,
               "client (coordinator) / CTP peer", "participant primary",
               (m.MilanaDecide(txn_id="t1.1", outcome="COMMITTED"),
                m.MilanaDecideReply(status="COMMITTED")),
               oneway=True,
               doc="commit/abort outcome; one-way fast path, retried as "
                   "an acked call when any vote was unknown"),
    MethodSpec("milana.replicate_txn", m.MilanaReplicateTxn, m.Ack,
               "shard primary", "backup",
               (m.MilanaReplicateTxn(record=_RECORD), m.Ack()),
               oneway=True,
               doc="unordered transaction-record replication"),
    MethodSpec("milana.txn_status", m.MilanaTxnStatus,
               m.MilanaTxnStatusReply, "CTP daemon / recovery",
               "participant primary",
               (m.MilanaTxnStatus(txn_id="t1.1"),
                m.MilanaTxnStatusReply(status="PREPARED")),
               doc="transaction-table status probe (§4.5)"),
    MethodSpec("milana.txn_outcome", m.MilanaTxnStatus,
               m.MilanaTxnStatusReply, "participant primary (CTP)",
               "client (coordinator)",
               (m.MilanaTxnStatus(txn_id="t1.1"),
                m.MilanaTxnStatusReply(status="COMMITTED")),
               doc="termination-query backstop: the coordinator's "
                   "recorded outcome for an in-doubt transaction"),
    MethodSpec("milana.fetch_log", m.MilanaFetchLog,
               m.MilanaFetchLogReply, "recovering primary", "replica",
               (m.MilanaFetchLog(), m.MilanaFetchLogReply(records=(_RECORD,))),
               doc="full transaction log pull for the Algorithm 2 merge"),
    MethodSpec("milana.catchup", m.MilanaCatchup, m.MilanaCatchupReply,
               "restarted backup", "shard primary",
               (m.MilanaCatchup(replica="srv-0-1"),
                m.MilanaCatchupReply(records=(_RECORD,),
                                     versions=(("key:0", (1e-3, 2), "v"),))),
               doc="post-restart pull of decided records and newest "
                   "stored versions"),
    MethodSpec("milana.renew_lease", m.MilanaRenewLease,
               m.MilanaRenewLeaseReply, "shard primary", "backup",
               (m.MilanaRenewLease(primary="srv-0-0", expiry=0.1),
                m.MilanaRenewLeaseReply()),
               doc="read-lease renewal; f grants required (§4.5)"),
    # master service
    MethodSpec("master.heartbeat", m.MasterHeartbeat,
               m.MasterHeartbeatReply, "storage server", "master",
               (m.MasterHeartbeat(server="srv-0-0", shard="shard0"),
                m.MasterHeartbeatReply(epoch=0)),
               oneway=True, doc="liveness report; silence drives failover"),
    MethodSpec("master.lookup", m.MasterLookup, m.MasterLookupReply,
               "client", "master",
               (m.MasterLookup(key="key:0"),
                m.MasterLookupReply(shard="shard0", primary="srv-0-0",
                                    replicas=("srv-0-0", "srv-0-1"),
                                    epoch=0)),
               doc="shard-map query (cold start / cache refresh)"),
)

#: method name -> spec, the lookup the RPC layer uses on every call.
REGISTRY: Dict[str, MethodSpec] = {spec.method: spec for spec in _SPECS}


def spec_for(method: str) -> Optional[MethodSpec]:
    """The spec for ``method``, or None for unregistered (ad-hoc) ones."""
    return REGISTRY.get(method)


def _check_message(method: str, expected: Type[WireMessage],
                   example: WireMessage, problems: List[str]) -> None:
    if not isinstance(example, expected):
        problems.append(
            f"{method}: example is {type(example).__name__}, "
            f"spec says {expected.__name__}")
        return
    if not dataclasses.is_dataclass(expected):
        problems.append(f"{method}: {expected.__name__} is not a dataclass")
        return
    params = getattr(expected, "__dataclass_params__", None)
    if params is None or not params.frozen:
        problems.append(f"{method}: {expected.__name__} is not frozen")
    size = example.wire_size()
    if not isinstance(size, int) or size <= 0:
        problems.append(
            f"{method}: {expected.__name__}.wire_size() returned {size!r}")
    elif example.wire_size() != size:
        problems.append(
            f"{method}: {expected.__name__}.wire_size() is not "
            f"deterministic")


def validate_registry() -> List[str]:
    """Check every row's example pair: frozen dataclasses of the spec's
    request and reply classes, each with a positive deterministic size.
    Returns a list of problems (empty = healthy)."""
    problems: List[str] = []
    for method in sorted(REGISTRY):
        spec = REGISTRY[method]
        request, response = spec.example
        _check_message(method, spec.request, request, problems)
        _check_message(method, spec.response, response, problems)
    return problems


def _field_summary(message_type: Type[WireMessage]) -> str:
    names = [f.name for f in dataclasses.fields(message_type)]
    return ", ".join(names) if names else "(none)"


def render_catalogue() -> str:
    """The PROTOCOL.md message catalogue, straight from the registry."""
    lines = [
        "| method | sender → receiver | request fields | reply fields "
        "| example req/reply bytes |",
        "|---|---|---|---|---|",
    ]
    for method in sorted(REGISTRY):
        spec = REGISTRY[method]
        request, response = spec.example
        arrow = f"{spec.sender} → {spec.receiver}"
        if spec.oneway:
            arrow += " (one-way)"
        lines.append(
            f"| `{method}` | {arrow} "
            f"| `{spec.request.__name__}`: {_field_summary(spec.request)} "
            f"| `{spec.response.__name__}`: "
            f"{_field_summary(spec.response)} "
            f"| {request.wire_size()} / {response.wire_size()} |")
    return "\n".join(lines)
