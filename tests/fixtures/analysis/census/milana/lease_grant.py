"""Census fixture (ATM002): the lease-renewal handler checks
``self.granted_leases``, suspends, then writes it without a re-check.

Excerpt of ``repro.milana.server``. No row, scenario or benchmark
workload builds a lease manager, so the handler never runs outside its
unit tests and no gate sees the stale write; only ATM002 does.
"""


class MilanaServer:
    def __init__(self, sim, node):
        self.sim = sim
        self.node = node
        self.granted_leases = {}
        self.node.register("milana.renew_lease", self._handle_renew_lease)

    def _handle_renew_lease(self, request):
        if request.expiry > self.granted_leases.get(request.primary, 0.0):
            yield self.sim.timeout(0)
            self.granted_leases[request.primary] = request.expiry
        return None
