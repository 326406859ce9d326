"""Census fixture (DUR005): ``replay_wal`` lost its ``SEMEL_DELETE``
arm while deletes are still appended.

Excerpt of ``repro.milana.server``. No workload, scenario or benchmark
deletes a key and then amnesia-crashes its server, so the dropped
records change no run; only DUR005 sees the appended kind that replay
never handles.
"""

#: The record kinds of ``repro.durability.wal``.
SEMEL_PUT = "semel.put"
SEMEL_DELETE = "semel.delete"
TXN_RECORD = "txn"


class MilanaServer:
    wal = None

    def __init__(self, node, backend):
        self.node = node
        self.backend = backend
        self.node.register("semel.delete", self._handle_delete)

    def _handle_delete(self, request):
        yield self.backend.delete(request.key)
        if self.wal is not None:
            yield from self.wal.append_delete(request.key, sync=True)
        return None

    def _handle_put(self, request):
        yield self.backend.put(request.key, request.value, request.version)
        if self.wal is not None:
            yield from self.wal.append_put(
                request.key, request.value, request.version, sync=True)
        return None

    def replay_wal(self):
        puts = {}
        for entry in self.wal.durable_records():
            if entry.kind == SEMEL_PUT:
                key, value, version = entry.payload
                puts[(key, version)] = (key, value, version)
            elif entry.kind == TXN_RECORD:
                pass
        self.backend.bulk_load(puts[kv] for kv in sorted(puts))
        yield from ()
