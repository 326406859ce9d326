"""The state MILANA and SEMEL work on reports its own sanitizer accesses.

``KeyStateTable``, ``TxnTable`` and ``InflightMap`` call ``sim.tracer``
from their own methods, so the handlers in ``milana/server.py`` read like
Algorithm 1. These tests pin exactly which method reports what (an extra
read is not harmless: it joins the last writer's clock and can hide a
race), that nothing is reported once ``sim.tracer`` is None, that a
witness raised through a table names the table's caller, and that the
server module itself no longer reports table accesses by hand.
"""

import ast
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.milana.server as milana_server
from repro.milana.transaction import COMMITTED, PREPARED, \
    TransactionRecord, TxnTable
from repro.milana.validation import KeyStateTable, validate
from repro.sansim import SanitizerRuntime
from repro.semel.inflight import InflightMap
from repro.versioning import Version

NODE = "srv-0-0"


class Recorder:
    """A stand-in tracer that records the tracked-state calls it gets."""

    def __init__(self):
        self.calls = []

    def on_read(self, location):
        self.calls.append(("read", location, {}))

    def on_write(self, location, **flags):
        self.calls.append(("write", location, flags))

    def on_acquire(self, lock):
        self.calls.append(("acquire", lock, {}))

    def on_release(self, lock):
        self.calls.append(("release", lock, {}))


def _record(txn_id="t1", reads=(), writes=(("k", "v"),), status=PREPARED):
    return TransactionRecord(
        txn_id=txn_id, client_id=1, client_name="c1", ts_commit=10.0,
        reads=list(reads), writes=list(writes), participants=["shard0"],
        status=status)


def _keystate_table(sim):
    table = KeyStateTable(sim, NODE)
    table.mark_prepared("k", "t1", 5.0)
    return table


def _txn_table(sim):
    table = TxnTable(sim, NODE)
    table.restore(_record())
    return table


def _inflight_map(sim):
    inflight = InflightMap(sim, NODE, "inflight")
    dict.__setitem__(inflight, "t1", object())
    return inflight


KEY = ("keystate", NODE, "k")
TXN = ("txn", NODE, "t1")

#: (table factory, operation, the exact calls it makes on the tracer).
REPORTS = {
    "keystate.read": (_keystate_table, lambda t: t.read(["k", "j"]),
                      [("read", KEY, {}),
                       ("read", ("keystate", NODE, "j"), {})]),
    "keystate.observe_read": (_keystate_table,
                              lambda t: t.observe_read("k", 3.0),
                              [("read", KEY, {})]),
    "keystate.mark_prepared": (_keystate_table,
                               lambda t: t.mark_prepared("k", "t2", 6.0),
                               [("write", KEY, {})]),
    "keystate.clear_prepared": (_keystate_table,
                                lambda t: t.clear_prepared("k", "t1"),
                                [("write", KEY, {})]),
    "keystate.get": (_keystate_table, lambda t: t.get("k"), []),
    "keystate.peek": (_keystate_table, lambda t: t.peek("k"), []),
    "keystate.mark_committed": (
        _keystate_table, lambda t: t.mark_committed("k", Version(9.0, 1)),
        []),
    "keystate.restore_prepared": (
        _keystate_table, lambda t: t.restore_prepared(_record("t3")), []),
    "txn.get": (_txn_table, lambda t: t.get("t1"), [("read", TXN, {})]),
    "txn.setitem": (_txn_table, lambda t: t.__setitem__("t1", _record()),
                    [("write", TXN, {})]),
    "txn.status": (_txn_table, lambda t: t.status(t["t1"]),
                   [("read", TXN, {})]),
    "txn.applied": (_txn_table, lambda t: t.applied(t["t1"]),
                    [("write", TXN, {}),
                     ("write", ("txn-apply", NODE, "t1"),
                      {"exclusive": True})]),
    "txn.getitem": (_txn_table, lambda t: t["t1"], []),
    "txn.values": (_txn_table, lambda t: list(t.values()), []),
    "txn.restore": (_txn_table, lambda t: t.restore(_record("t2")), []),
    "txn.merge": (_txn_table,
                  lambda t: t.merge(_record(status=COMMITTED)), []),
    "inflight.setitem": (_inflight_map,
                         lambda t: t.__setitem__("t2", object()),
                         [("acquire", ("inflight", NODE, "t2"), {})]),
    "inflight.pop": (_inflight_map, lambda t: t.pop("t1", None),
                     [("release", ("inflight", NODE, "t1"), {})]),
    "inflight.get": (_inflight_map, lambda t: t.get("t1"), []),
}


class TestEachMethodReportsItsAccess:
    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_exact_tracer_calls(self, name):
        make, operation, expected = REPORTS[name]
        sim = SimpleNamespace(tracer=None)
        table = make(sim)
        sim.tracer = Recorder()
        operation(table)
        assert sim.tracer.calls == expected

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_nothing_reported_without_a_tracer(self, name):
        make, operation, _expected = REPORTS[name]
        recorder = Recorder()
        sim = SimpleNamespace(tracer=recorder)
        table = make(sim)
        recorder.calls.clear()
        sim.tracer = None
        operation(table)
        assert recorder.calls == []

    def test_validation_reads_every_key_even_when_it_fails_early(self):
        sim = SimpleNamespace(tracer=None)
        table = _keystate_table(sim)  # "k" is prepared by t1
        sim.tracer = Recorder()
        record = _record("t2", reads=[("k", None), ("a", None)],
                         writes=[("k", "v"), ("b", "w")])
        assert not validate(record, table).ok
        assert sim.tracer.calls == [
            ("read", ("keystate", NODE, key), {})
            for key in ("k", "a", "k", "b")]


class _Proc:
    """Stand-in process object for driving the runtime hooks directly."""


def _prepare_key(table):
    table.mark_prepared("k", "t1", 5.0)


def _clear_key(table):
    table.clear_prepared("k", "t1")


def _store_record(table):
    table["t1"] = _record()


class TestWitnessSitesNameTheCaller:
    @pytest.mark.parametrize("make, caller", [
        (KeyStateTable, _prepare_key),
        (KeyStateTable, _clear_key),
        (TxnTable, _store_record),
    ], ids=["mark_prepared", "clear_prepared", "txn_store"])
    def test_unordered_writes_name_the_calling_function(self, make, caller):
        runtime = SanitizerRuntime()
        table = make(SimpleNamespace(tracer=runtime), NODE)
        for _ in range(2):  # two causally unrelated contexts
            ctx = runtime.begin_resume(_Proc())
            caller(table)
            runtime.end_resume(ctx, 0, 0)
        [witness] = runtime.witnesses
        assert witness.rule_id == "SAN002"
        for site in (witness.acting, witness.prior):
            assert site.function == caller.__name__
            assert os.path.basename(site.path) == \
                os.path.basename(__file__)


class TestServerReportsNoTableAccessByHand:
    def test_only_the_relaxed_store_write_remains(self):
        source = Path(milana_server.__file__).read_text(encoding="utf-8")
        hooks = ("on_read", "on_write", "on_acquire", "on_release")
        calls = []
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in hooks):
                kind = node.args[0].elts[0].value
                flags = {kw.arg: kw.value.value for kw in node.keywords}
                calls.append((node.func.attr, kind, flags))
        assert calls == [("on_write", "store", {"relaxed": True})]
