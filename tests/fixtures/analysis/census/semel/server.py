"""Census fixture (PRO004): ``StorageServer._replicate`` without its
``QuorumError`` -> ``AppError`` conversion.

Excerpt of ``repro.semel.server``. With the conversion gone a lost
backup quorum escapes ``semel.put`` as an opaque handler error instead
of the rejection the client retries; no tier-1 test, nemesis scenario,
sansim run or benchmark digest notices, only PRO004.
"""

from .replication import replicate_to_backups


class StorageServer:
    replication_timeout = 10e-3

    def __init__(self, node, backend, backups):
        self.node = node
        self.backend = backend
        self.backups = backups
        self.node.register("semel.put", self._handle_put)

    def _handle_put(self, request):
        yield self.backend.put(request.key, request.value, request.version)
        yield from self._replicate(request)
        return None

    def _replicate(self, record):
        need = min(1, len(self.backups))
        if need <= 0:
            return
        yield from replicate_to_backups(
            self.node, self.backups, "semel.replicate", record, need,
            timeout=self.replication_timeout)
