"""ATM fixture: seeded yield-point atomicity races for the golden test.

Not importable code — a miniature MILANA-shaped module whose only job
is to make ATM002 fire at a pinned location (and stay quiet on the
safe variant).
"""


class LeaseTable:
    """Seeds ATM002: check-then-act on shared lease state across a
    yield, next to a safe re-checking variant."""

    def __init__(self, sim):
        self.sim = sim
        self.leases = {}

    def refresh_daemon(self):
        while True:
            yield self.sim.timeout(0.05)
            yield from self._renew_racy()
            yield from self._renew_safe()

    def _renew_racy(self):
        if "lease" not in self.leases:
            return
        yield self.sim.timeout(0.01)
        self.leases["lease"] = self.sim.now  # ATM002: guard went stale

    def _renew_safe(self):
        if "lease" not in self.leases:
            return
        yield self.sim.timeout(0.01)
        if "lease" not in self.leases:
            return  # re-checked after the yield: no race
        self.leases["lease"] = self.sim.now
