"""Census fixture (FLT001): ``Cluster.pause_server`` pokes
``network._crashed`` instead of calling ``network.crash``.

Excerpt of ``repro.harness.cluster``. The poke drops the same traffic
as the fault API, so no run changes; only FLT001 sees that the pause
went around the API the nemesis timeline and audits rely on.
"""


class Cluster:
    def __init__(self, network):
        self.network = network
        self._paused = set()

    def pause_server(self, name):
        self._paused.add(name)
        self.network._crashed.add(name)
