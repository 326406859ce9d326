"""PRO fixture: seeded protocol-conformance bugs for the golden test.

PRO004 is pinned; registry drift, wrong reply types and unhandled
call failures are left to the run-time checks and tier-1.
"""

from repro.net.rpc import RpcError
from repro.wire import Ack, MasterLookupReply


class QuorumError(Exception):
    pass


class MasterLike:
    def __init__(self, sim, node):
        self.sim = sim
        self.node = node
        self.peers = ["peer-1", "peer-2"]
        # Registry drift, checked by RpcNode.register at run time:
        # master.lookup never gets a handler.
        self.node.register("master.heartbeat", self._handle_heartbeat)
        # A duplicate registration.
        self.node.register("master.heartbeat", self._handle_heartbeat)
        # No such method in the registry.
        self.node.register("master.bogus", self._handle_bogus)

    def _handle_heartbeat(self, request):
        yield from self._fanout(request)  # PRO004: QuorumError can leak
        return Ack()  # wrong reply type: _serve's runtime check rejects it

    def _handle_bogus(self, request):
        yield from ()
        return MasterLookupReply(primary="nobody")

    def _fanout(self, request):
        acks = 0
        for peer in self.peers:
            try:
                yield self.node.call(peer, "master.heartbeat", request,
                                     timeout=0.01)
                acks += 1
            except RpcError:
                continue
        if acks < 1:
            raise QuorumError("no heartbeat quorum")

    def poll_daemon(self):
        while True:
            yield self.sim.timeout(0.1)
            # A call to a method missing from the registry.
            # No RpcError handling anywhere on this chain.
            yield self.node.call("m", "milana.nonexistent", None,
                                 timeout=0.01)
            yield from self._lookup_unprotected()

    def _lookup_unprotected(self):
        # Registered method, reachable only via the unprotected
        # daemon above.
        reply = yield self.node.call("m", "master.lookup", None,
                                     timeout=0.01)
        return reply

    def lookup_protected(self):
        try:
            reply = yield self.node.call("m", "master.lookup", None,
                                         timeout=0.01)
        except RpcError:
            return None
        return reply
