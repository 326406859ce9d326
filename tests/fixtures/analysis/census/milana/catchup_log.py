"""Census fixture (DUR004): a restarted backup logs caught-up puts at
a version stamped from the host clock.

Excerpt of ``repro.milana.server``. The stamped record is only read
back by a replay after a second crash of the same backup, which no
test, scenario or benchmark run reaches; only DUR004 sees that replay
would rebuild a version the crashed run never held.
"""

import time


def _stamp(version):
    return (time.time(), version[1])


class MilanaServer:
    wal = None

    def __init__(self, node, backend):
        self.node = node
        self.backend = backend

    def catch_up_from_primary(self, reply):
        for key, version, value in reply.versions:
            if version not in self.backend.versions_of(key):
                yield self.backend.put(key, value, version)
                if self.wal is not None:
                    yield from self.wal.append_put(
                        key, value, _stamp(version), sync=False)
        return True
