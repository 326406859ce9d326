"""Census fixture (SIM001): ``StorageServer._handle_get`` calls
``time.sleep(0)``.

Excerpt of ``repro.semel.server``. The sleep stalls the host on every
read and never advances simulated time, so every simulated result and
schedule stays the same; only SIM001 sees it.
"""

import time


class StorageServer:
    def __init__(self, node, backend):
        self.node = node
        self.backend = backend
        self.node.register("semel.get", self._handle_get)

    def _handle_get(self, request):
        time.sleep(0)
        result = yield self.backend.get(
            request.key, max_timestamp=request.max_timestamp)
        return result
