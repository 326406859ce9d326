"""Census fixture (DUR001): the primary's put appends its WAL record
with ``sync=False`` and then acknowledges.

Excerpt of ``repro.semel.server``. The benchmark and the nemesis
scenarios never crash a primary inside the window between this append
and its background fsync, so every run is unchanged; only DUR001 sees
the acked put an amnesia crash there would lose.
"""

from repro.net.rpc import AppError

from .replication import QuorumError, replicate_to_backups


class StorageServer:
    wal = None
    replication_timeout = 10e-3

    def __init__(self, node, backend, backups):
        self.node = node
        self.backend = backend
        self.backups = backups
        self.node.register("semel.put", self._handle_put)

    def _handle_put(self, request):
        key, value, version = request.key, request.value, request.version
        yield self.backend.put(key, value, version)
        if self.wal is not None:
            yield from self.wal.append_put(key, value, version, sync=False)
        try:
            yield from replicate_to_backups(
                self.node, self.backups, "semel.replicate", request, 1,
                timeout=self.replication_timeout)
        except QuorumError as exc:
            raise AppError(str(exc)) from exc
        return SemelPutReply(applied=True, duplicate=False)


class SemelPutReply:
    def __init__(self, applied, duplicate):
        self.applied = applied
        self.duplicate = duplicate
