"""Tests for the typed wire protocol: registry integrity, byte-model
sizing, end-to-end type enforcement, size-aware transport, and
duplicate-delivery idempotence under the typed messages."""

import dataclasses
import enum
from pathlib import Path

import pytest

from repro.clocks import PerfectClock
from repro.ftl import DRAMBackend
from repro.harness.cluster import Cluster, ClusterConfig
from repro.milana import COMMITTED, MilanaClient, MilanaServer
from repro.net import AppError, FixedLatency, Network, RpcNode
from repro.net.rpc import Request, Response
from repro.semel import Directory, SemelClient, StorageServer
from repro.sim import SeededRng, Simulator
from repro.wire import (
    REGISTRY,
    Ack,
    MasterHeartbeatReply,
    MasterLookupReply,
    MilanaPrepare,
    MilanaReplicateTxn,
    SemelGet,
    SemelGetReply,
    SemelPut,
    TxnRecordWire,
    WireMessage,
    payload_size,
    render_catalogue,
    spec_for,
    validate_registry,
    wire_size_of,
)

REPO = Path(__file__).resolve().parent.parent


class TestRegistry:
    def test_registry_validates_clean(self):
        assert validate_registry() == []

    def test_every_method_is_dotted_and_unique(self):
        assert len(REGISTRY) >= 16
        for method, spec in REGISTRY.items():
            assert "." in method
            assert spec.method == method

    def test_spec_lookup(self):
        spec = spec_for("semel.get")
        assert spec.request is SemelGet
        assert spec.response is SemelGetReply
        assert spec_for("unknown.method") is None

    def test_catalogue_covers_every_method(self):
        catalogue = render_catalogue()
        for method in REGISTRY:
            assert f"`{method}`" in catalogue

    def test_protocol_md_carries_the_catalogue_verbatim(self):
        protocol = (REPO / "PROTOCOL.md").read_text(encoding="utf-8")
        assert render_catalogue() in protocol

    def test_call_sites_agree_with_registry(self):
        """Every registry method is served by some node of a full
        cluster, and no node serves a dotted method the registry lacks
        (RpcNode.register refuses those at run time)."""
        cluster = Cluster(ClusterConfig(num_shards=2, num_clients=2,
                                        backend="dram", populate_keys=10,
                                        with_master=True))
        nodes = ([server.node for server in cluster.servers.values()]
                 + [client.node for client in cluster.clients]
                 + [cluster.master.node])
        handled = set()
        for node in nodes:
            handled |= set(node._handlers)
        assert handled == set(REGISTRY)


class TestSizing:
    def test_sizes_are_deterministic(self):
        a = SemelPut(key="user:1", value="x" * 50, version=(2.0, 1))
        b = SemelPut(key="user:1", value="x" * 50, version=(2.0, 1))
        assert a.wire_size() == b.wire_size()
        assert wire_size_of(a) == a.wire_size()

    def test_size_grows_with_value(self):
        small = SemelPut(key="k", value="x", version=(1.0, 1))
        large = SemelPut(key="k", value="x" * 1000, version=(1.0, 1))
        assert large.wire_size() - small.wire_size() == 999

    def test_scalar_sizes(self):
        assert payload_size(None) == 1
        assert payload_size(True) == 1  # bool checked before int
        assert payload_size(7) == 8
        assert payload_size(1.5) == 8
        assert payload_size("abcd") == 4 + 4

    def test_ack_is_tiny(self):
        assert Ack().wire_size() <= 4


def reference_size(value):
    """The byte model as one plain recursive walk — no exact-type fast
    path, no remembered sizes: the oracle the optimised sizing must
    equal. A message is its 2-byte tag plus its dataclass fields."""
    if isinstance(value, WireMessage):
        return 2 + sum(reference_size(getattr(value, f.name))
                       for f in dataclasses.fields(value))
    if isinstance(value, (Request, Response)):
        envelope = 9 + reference_size(value.payload)
        if isinstance(value, Request):
            envelope += (reference_size(value.src)
                         + reference_size(value.method))
        return envelope
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return 4 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return 4 + len(value)
    if isinstance(value, (tuple, list)):
        return 4 + sum(reference_size(v) for v in value)
    if isinstance(value, dict):
        return 4 + sum(reference_size(k) + reference_size(v)
                       for k, v in value.items())
    return 4 + len(repr(value).encode("utf-8"))


class _Colour(enum.IntEnum):
    RED = 1


class _Label(str):
    pass


class _CountingValue:
    """A field value that counts how often it is asked for its size."""

    def __init__(self):
        self.calls = 0

    def wire_size(self):
        self.calls += 1
        return 5


def _registry_examples():
    return [message for spec in REGISTRY.values() for message in spec.example]


def _awkward_messages():
    record = TxnRecordWire(
        txn_id="t\u00e9.1", client_id=1, client_name="client-\u4e00",
        ts_commit=2.5e-3,
        reads=(("cl\u00e9:0", None), ("key:1", (1e-3, 2)), ("\u043a", None)),
        writes=(("cl\u00e9:0", "valeur \u20ac"), ("key:1", None)),
        participants=("shard0", "shard1"), status="PREPARED")
    return [
        record,
        MilanaPrepare(record=record),
        MasterHeartbeatReply(epoch=True),  # a flag in an int field
        SemelPut(key="k", value=b"\x00\x01\x02", version=(1.0, 1)),
        SemelPut(key="k", value=bytearray(b"abc"), version=(1.0, 1)),
        SemelPut(key="k", value={"a": [1, 2.0, None], "\u00fc": (True,)},
                 version=(1.0, 1)),
        SemelPut(key="k", value=[1, "x", [b"y"]], version=(1.0, 1)),
        SemelPut(key=_Label("k\u00e9"), value=_Colour.RED,
                 version=(1.0, 1)),
        SemelPut(key="k", value=object, version=(1.0, 1)),  # repr-sized
        MasterLookupReply(shards={
            "shard0": {"primary": "srv-0-0", "epoch": 3,
                       "replicas": ["srv-0-0", "srv-0-1"]},
            "shard1": {"primary": None, "epoch": 0, "replicas": []}}),
    ]


class TestSizedOnce:
    """The optimised sizing (exact-type atoms, one walk per message
    object) against the plain recursive model."""

    def test_examples_cover_every_registered_class(self):
        classes = {type(message) for message in _registry_examples()}
        assert classes == {cls for spec in REGISTRY.values()
                           for cls in (spec.request, spec.response)}

    @pytest.mark.parametrize(
        "message", _registry_examples() + _awkward_messages(),
        ids=lambda message: type(message).__name__)
    def test_size_equals_the_reference_walk(self, message):
        expected = reference_size(message)
        assert wire_size_of(message) == expected
        assert message.wire_size() == expected  # remembered, still equal
        request = Request(7, "client-\u00e9", "semel.put", message)
        response = Response(7, True, message)
        assert wire_size_of(request) == reference_size(request)
        assert wire_size_of(response) == reference_size(response)

    def test_ad_hoc_envelope_payloads_are_sized_structurally(self):
        for payload in (None, "text", {"k": [1, 2]}, ("a", 1.5), b"raw"):
            request = Request(1, "a", "ping", payload, oneway=True)
            assert wire_size_of(request) == reference_size(request)
            assert wire_size_of(Response(1, False, payload)) == \
                reference_size(Response(1, False, payload))

    @pytest.mark.parametrize(
        "message", _registry_examples(),
        ids=lambda message: type(message).__name__)
    def test_a_sized_message_is_still_the_same_value(self, message):
        fresh = dataclasses.replace(message)
        message.wire_size()
        names = {f.name for f in dataclasses.fields(message)}
        assert message == fresh and hash(message) == hash(fresh)
        assert dataclasses.replace(message) == fresh
        assert set(dataclasses.asdict(message)) == names
        assert repr(message) == repr(fresh)

    def test_sizing_twice_walks_once(self):
        value = _CountingValue()
        message = SemelPut(key="k", value=value, version=(1.0, 1))
        assert message.wire_size() == message.wire_size()
        assert wire_size_of(Request(1, "a", "semel.put", message)) == \
            wire_size_of(Request(2, "a", "semel.put", message))
        assert value.calls == 1

    def test_a_shared_nested_record_is_walked_once(self):
        value = _CountingValue()
        record = dataclasses.replace(
            REGISTRY["milana.prepare"].example[0].record,
            writes=(("key:0", value),))
        prepare = MilanaPrepare(record=record)
        replicate = MilanaReplicateTxn(record=record)
        assert prepare.wire_size() == replicate.wire_size()
        assert value.calls == 1


def make_net(seed=1, latency=None):
    sim = Simulator()
    network = Network(sim, SeededRng(seed),
                      latency=latency or FixedLatency(50e-6))
    return sim, network


class TestTypedEnforcement:
    def test_call_rejects_raw_dict_payload(self):
        sim, network = make_net()
        node = RpcNode(sim, network, "a")
        network.register("b", lambda message: None)
        with pytest.raises(TypeError, match="SemelGet"):
            node.call("b", "semel.get", {"key": "k"}, timeout=10e-3)

    def test_send_oneway_rejects_wrong_message_type(self):
        sim, network = make_net()
        node = RpcNode(sim, network, "a")
        network.register("b", lambda message: None)
        with pytest.raises(TypeError):
            node.send_oneway("b", "semel.watermark", SemelGet(key="k"))

    def test_register_rejects_unknown_dotted_method(self):
        sim, network = make_net()
        node = RpcNode(sim, network, "a")

        def handler(payload):
            return None
            yield

        with pytest.raises(ValueError, match="registry"):
            node.register("semel.frobnicate", handler)

    def test_bare_method_names_bypass_registry(self):
        sim, network = make_net()
        server = RpcNode(sim, network, "srv")
        client = RpcNode(sim, network, "cli")

        def echo(payload):
            return payload
            yield

        server.register("echo", echo)
        assert sim.run_until_event(
            client.call("srv", "echo", {"free": "form"}, timeout=10e-3)) == \
            {"free": "form"}

    def test_mistyped_handler_result_is_an_error_response(self):
        sim, network = make_net()
        server = RpcNode(sim, network, "srv")
        client = RpcNode(sim, network, "cli")

        def bad_handler(payload):
            return {"found": False}  # should be a SemelGetReply
            yield

        server.register("semel.get", bad_handler)

        def attempt():
            try:
                yield client.call("srv", "semel.get", SemelGet(key="k"),
                                  timeout=10e-3)
            except AppError as exc:
                return str(exc)

        result = sim.run_until_event(sim.process(attempt()))
        assert "SemelGetReply" in result
        assert server.handler_errors == 1


class TestPerNetworkRequestIds:
    def test_fresh_networks_start_at_one(self):
        _, net1 = make_net(seed=1)
        _, net2 = make_net(seed=2)
        assert net1.next_request_id() == 1
        assert net2.next_request_id() == 1
        assert net1.next_request_id() == 2


class TestSizeAwareTransport:
    def _timed_delivery(self, latency, message):
        sim, network = make_net(latency=latency)
        arrivals = []
        network.register("b", lambda received: arrivals.append(sim.now))
        network.register("a", lambda received: None)
        network.send("a", "b", message)
        sim.run()
        (arrival,) = arrivals
        return sim, network, arrival

    def test_arrival_is_send_time_plus_latency_whatever_the_size(self):
        message = SemelPut(key="k", value="x" * 100, version=(1.0, 1))
        _, _, arrival = self._timed_delivery(FixedLatency(1e-3), message)
        assert arrival == 1e-3

    def test_bytes_by_edge_accounts_each_message(self):
        message = SemelGet(key="key:1")
        _, network, _ = self._timed_delivery(FixedLatency(1e-3), message)
        assert network.stats.bytes_by_edge == \
            {("a", "b"): wire_size_of(message)}
        assert network.stats.total_bytes == wire_size_of(message)

    def test_crashed_destination_is_not_charged(self):
        sim, network = make_net()
        network.register("a", lambda message: None)
        network.register("b", lambda message: None)
        network.crash("b")
        network.send("a", "b", SemelGet(key="k"))
        assert network.stats.bytes_by_edge == {}


# -- duplicate-delivery idempotence under the typed protocol ----------------


def run_semel_workload(duplicate):
    """A scripted SEMEL run; returns (acked versions, replica states)."""
    sim = Simulator()
    network = Network(sim, SeededRng(23), latency=FixedLatency(50e-6))
    network.install_faults().set_duplicate(duplicate)
    directory = Directory({"shard0": ["s-0", "s-1", "s-2"]})
    servers = {
        name: StorageServer(sim, network, directory, name, "shard0",
                            DRAMBackend(sim))
        for name in ("s-0", "s-1", "s-2")
    }
    client = SemelClient(sim, network, directory, PerfectClock(sim),
                         client_id=1)
    acked = []

    def work():
        for i in range(20):
            version = yield client.put(f"k{i % 5}", f"v{i}")
            acked.append(version)
            yield sim.timeout(1e-3)

    sim.run_until_event(sim.process(work()))
    sim.run(until=sim.now + 20e-3)  # drain laggard replication
    states = {
        name: {f"k{j}": server.backend.versions_of(f"k{j}")
               for j in range(5)}
        for name, server in servers.items()
    }
    return acked, states


def run_milana_workload(duplicate):
    """A scripted MILANA run; returns (outcomes, txn statuses, states)."""
    sim = Simulator()
    network = Network(sim, SeededRng(29), latency=FixedLatency(50e-6))
    network.install_faults().set_duplicate(duplicate)
    directory = Directory({"shard0": ["m-0", "m-1", "m-2"]})
    servers = {
        name: MilanaServer(sim, network, directory, name, "shard0",
                           DRAMBackend(sim))
        for name in ("m-0", "m-1", "m-2")
    }
    client = MilanaClient(sim, network, directory, PerfectClock(sim),
                          client_id=1)
    outcomes = []

    def work():
        for i in range(15):
            txn = client.begin()
            yield client.txn_get(txn, f"k{i % 4}")
            client.put(txn, f"k{i % 4}", f"v{i}")
            outcomes.append((yield client.commit(txn)))
            yield sim.timeout(1e-3)

    sim.run_until_event(sim.process(work()))
    sim.run(until=sim.now + 20e-3)  # drain decide/replication traffic
    statuses = {
        name: {txn_id: record.status
               for txn_id, record in server.txn_table.items()}
        for name, server in servers.items()
    }
    states = {
        name: {f"k{j}": server.backend.versions_of(f"k{j}")
               for j in range(4)}
        for name, server in servers.items()
    }
    return outcomes, statuses, states


class TestDuplicateDeliveryIdempotence:
    def test_semel_replicate_state_matches_no_duplicate_run(self):
        baseline_acked, baseline_states = run_semel_workload(0.0)
        dup_acked, dup_states = run_semel_workload(0.6)
        assert dup_acked == baseline_acked
        assert dup_states == baseline_states

    def test_milana_prepare_decide_outcomes_match_no_duplicate_run(self):
        baseline = run_milana_workload(0.0)
        duplicated = run_milana_workload(0.6)
        assert duplicated == baseline
        outcomes, statuses, _ = duplicated
        # Uncontended sequential transactions must all commit, and every
        # replica must agree on their statuses.
        assert outcomes == [COMMITTED] * 15
        assert statuses["m-1"] == statuses["m-0"]
        assert statuses["m-2"] == statuses["m-0"]

    def test_duplicates_were_actually_injected(self):
        sim = Simulator()
        network = Network(sim, SeededRng(23),
                          latency=FixedLatency(50e-6))
        network.install_faults().set_duplicate(0.6)
        network.register("a", lambda message: None)
        network.register("b", lambda message: None)
        for _ in range(50):
            network.send("a", "b", SemelGet(key="k"))
        assert network.stats.messages_duplicated > 0
        # Duplicates are charged on the wire like any other message.
        assert network.stats.bytes_by_edge[("a", "b")] == \
            wire_size_of(SemelGet(key="k")) * (
                50 + network.stats.messages_duplicated)
