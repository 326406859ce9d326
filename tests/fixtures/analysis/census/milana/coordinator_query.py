"""Census fixture (RPC001): the CTP coordinator query relies on the
RPC layer's default timeout.

Excerpt of ``repro.milana.server``. The default equals the replication
timeout the call used to state, so every run is unchanged; only RPC001
sees that the failure-detection budget left the send-site.
"""

from repro.net.rpc import RpcError


class MilanaServer:
    def __init__(self, node):
        self.node = node

    def _query_coordinator(self, record):
        try:
            reply = yield self.node.call(
                record.client_name, "milana.txn_outcome", record.txn_id)
        except RpcError:
            return None
        return reply.status
