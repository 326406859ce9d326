"""Census fixture (DUR003): the prepare handler's ``finally`` cleanup
pops its in-flight entry without a default.

Excerpt of ``repro.milana.server``. The pop raises only when an
amnesia crash replaced the table while the prepare was suspended,
which no test, scenario or benchmark run lines up; only DUR003 sees
the KeyError the crash-kill interrupt would turn into.
"""


class MilanaServer:
    wal = None

    def __init__(self, sim, node):
        self.sim = sim
        self.node = node
        self.txn_table = {}
        self._inflight_txn_ops = {}
        self.node.register("milana.prepare", self._handle_prepare)

    def crash(self):
        self.txn_table = {}
        self._inflight_txn_ops = {}

    def _handle_prepare(self, request):
        record = request.record
        self.txn_table[record.txn_id] = record
        done = self.sim.event()
        self._inflight_txn_ops[record.txn_id] = done
        try:
            if self.wal is not None:
                yield from self.wal.append_txn(record, sync=True)
        finally:
            self._inflight_txn_ops.pop(record.txn_id)
            done.succeed()
        return None
