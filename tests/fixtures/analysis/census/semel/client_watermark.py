"""Census fixture (DET101): the client clamps its acked watermark by a
host-clock helper.

Excerpt of ``repro.semel.client``. Simulated timestamps stay far below
the host's ``perf_counter``, so the clamp never bites in any run and
every output is unchanged; only DET101 sees a host-clock value flowing
into client state through the helper.
"""

import time


def _host_now():
    return time.perf_counter()


class SemelClient:
    def __init__(self):
        self.last_acked_timestamp = float("-inf")

    def _acked(self, timestamp):
        self.last_acked_timestamp = max(
            self.last_acked_timestamp, min(timestamp, _host_now()))
