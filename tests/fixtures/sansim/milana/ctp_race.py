"""Seeded bug: the pre-PR-4 CTP commit-without-lock race, as a fixture.

Before PR 4 hardened the Cooperative Termination Protocol, a CTP
resolution validated a record (``status == PREPARED``), suspended to ask
the coordinator for the outcome, and then applied that outcome without
re-checking the record or taking the in-flight guard — so a decide that
landed inside the suspension window was applied a second time underneath
it. :class:`RacyCtpServer` reintroduces exactly that shape on top of
today's :class:`~repro.milana.server.MilanaServer` (whose own CTP daemon
is disabled), and ``run_scenario`` drives it into the race
deterministically:

* a coordinator stub prepares one transaction and then goes silent, so
  the primary's CTP daemon eventually picks the record up;
* the stub's ``milana.txn_outcome`` handler *spawns a late decide* at the
  primary and only then answers COMMITTED after a delay — landing the
  decide squarely inside the CTP suspension.

With ``racy=True`` the sanitizer must produce SAN001 (the CTP section's
guard on the transaction record went stale across the suspension) and
SAN002 witnesses (the re-apply has no happens-before edge to the decide's
apply; the exclusive ``txn-apply`` location reports the single-apply
invariant violation). With ``racy=False`` the same scenario runs against
the real server, whose CTP re-validates and takes the in-flight guard —
the specificity control that must stay witness-free.

simlint's ATM001/ATM002 flag this file statically (the sansim
reconciliation scope for the ``ctp-race`` workload is
``tests/fixtures/sansim``), so the reconciliation report can classify
those findings as confirmed-by-witness.
"""

from __future__ import annotations

from repro.milana.server import MilanaServer
from repro.milana.transaction import ABORTED, COMMITTED, PREPARED, \
    TransactionRecord
from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.net.rpc import RpcError, RpcNode
from repro.semel.sharding import Directory
from repro.ftl.dram import DRAMBackend
from repro.sim.core import Simulator
from repro.sim.rng import SeededRng
from repro.wire import (MilanaDecide, MilanaPrepare, MilanaTxnStatus,
                        MilanaTxnStatusReply, TxnRecordWire)

__all__ = ["RacyCtpServer", "run_scenario", "TXN_ID"]

TXN_ID = "t-race"

#: The stub coordinator holds its txn_outcome answer this long after
#: spawning the late decide, keeping the decide (and its replication)
#: comfortably inside the racy CTP's suspension window.
REPLY_DELAY = 1.5e-3


class RacyCtpServer(MilanaServer):
    """A MILANA server whose CTP path lost its hardening.

    The base class's own daemon is disabled (``ctp_timeout=None``); this
    subclass runs the pre-PR-4 shape instead: validate, suspend on the
    coordinator query, apply — no re-check, no in-flight guard.
    """

    def __init__(self, sim, network, directory, name, shard_name, backend,
                 ctp_tick=2e-3, ctp_stale_after=3e-3):
        super().__init__(sim, network, directory, name, shard_name,
                         backend, ctp_timeout=None)
        self.ctp_tick = ctp_tick
        self.ctp_stale_after = ctp_stale_after
        sim.process(self.ctp_daemon())

    def ctp_daemon(self):
        """The pre-PR-4 resolution loop (racy on purpose)."""
        while True:
            yield self.sim.timeout(self.ctp_tick)
            if not self.is_primary:
                continue
            stale = [
                record for record in self.txn_table.values()
                if record.status == PREPARED
                and self.sim.now - record.prepared_at > self.ctp_stale_after
            ]
            for record in stale:
                try:
                    yield from self._run_ctp_racy(record)
                except RpcError:
                    continue

    def _run_ctp_racy(self, record):
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.begin_section("ctp", record.txn_id)
        self.txn_table.status(record)
        self.key_states.read(key for key, _value in record.writes)
        if not self._ctp_validate(record):
            return
        outcome = yield from self._ask_coordinator(record)
        if outcome is None:
            return
        # BUG (pre-PR-4): no status re-check and no _inflight_txn_ops
        # guard here — a decide that landed during _ask_coordinator's
        # suspension has already applied this outcome.
        self.ctp_resolutions += 1
        yield from self._apply_outcome(record, outcome)

    def _ctp_validate(self, record):
        return record.status == PREPARED

    def _ask_coordinator(self, record):
        try:
            reply = yield self.node.call(
                record.client_name, "milana.txn_outcome",
                MilanaTxnStatus(txn_id=record.txn_id),
                timeout=self.replication_timeout)
        except RpcError:
            return None
        if reply.status in (COMMITTED, ABORTED):
            return reply.status
        return None

    def _apply_outcome(self, record, outcome):
        if outcome == COMMITTED:
            version = record.commit_version_of
            visibles = []
            puts = []
            for key, value in record.writes:
                if version in self.backend.versions_of(key):
                    continue  # the racing decide already stored it
                visible = self.sim.event()
                visibles.append(visible)
                puts.append(self.backend.put(key, value, version,
                                             visible=visible))
            if visibles:
                yield self.sim.all_of(visibles)
            for key, _value in record.writes:
                self.key_states.mark_committed(key, version)
                self.key_states.clear_prepared(key, record.txn_id)
            if puts:
                yield self.sim.all_of(puts)
        else:
            for key, _value in record.writes:
                self.key_states.clear_prepared(key, record.txn_id)
        record.status = outcome
        self.txn_table[record.txn_id] = record
        tracer = self.sim.tracer
        if tracer is not None:
            # Re-storing the record is how this shape applies an outcome,
            # bypassing ``TxnTable.applied``: claim the single-apply
            # location by hand.
            tracer.on_write(("txn-apply", self.name, record.txn_id),
                            exclusive=True)
        yield from self._replicate_txn_record(record)


def _coordinator(sim, network, primary_name):
    """The silent coordinator: answers outcome probes, never decides
    on its own — except that answering *spawns* a late decide first."""
    node = RpcNode(sim, network, "coord")

    def late_decide():
        try:
            yield node.call(primary_name, "milana.decide",
                            MilanaDecide(txn_id=TXN_ID, outcome=COMMITTED),
                            timeout=5e-3)
        except RpcError:
            pass

    def handle_txn_outcome(request):
        sim.process(late_decide())
        yield sim.timeout(REPLY_DELAY)
        return MilanaTxnStatusReply(status=COMMITTED)

    node.register("milana.txn_outcome", handle_txn_outcome)
    return node


def run_scenario(simulator_factory=None, racy=True, until=0.015):
    """One deterministic run of the race scenario.

    Returns the shard primary so callers can inspect its transaction
    table / counters. ``racy=False`` swaps in the real server (with a
    fast CTP timeout) as the specificity control.
    """
    sim = Simulator() if simulator_factory is None else simulator_factory()
    rng = SeededRng(7, "ctp-race")
    network = Network(sim, rng, latency=FixedLatency(50e-6))
    names = ["srv-0-0", "srv-0-1", "srv-0-2"]
    directory = Directory({"shard0": names})
    if racy:
        primary = RacyCtpServer(sim, network, directory, names[0],
                                "shard0", DRAMBackend(sim))
    else:
        primary = MilanaServer(sim, network, directory, names[0],
                               "shard0", DRAMBackend(sim),
                               ctp_timeout=6e-3)
    for name in names[1:]:
        MilanaServer(sim, network, directory, name, "shard0",
                     DRAMBackend(sim), ctp_timeout=None)
    coord = _coordinator(sim, network, names[0])

    def driver():
        record = TransactionRecord(
            txn_id=TXN_ID, client_id=7, client_name="coord",
            ts_commit=1e-3, reads=[],
            writes=[("alpha", "a-race"), ("beta", "b-race")],
            participants=["shard0"])
        yield coord.call(
            names[0], "milana.prepare",
            MilanaPrepare(record=TxnRecordWire.from_record(record)),
            timeout=5e-3)
        # ... and the coordinator goes silent: no decide is ever sent
        # proactively, so the primary's CTP daemon must resolve it.

    sim.process(driver())
    sim.run(until=until)
    return primary
