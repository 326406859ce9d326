"""Census fixture (API001): ``__all__`` names a function the module
does not define.

Excerpt of ``repro.histogram``. Nothing star-imports the module, so
no run notices the ghost name; only API001 does.
"""

__all__ = ["LatencyHistogram", "merge_histograms"]


class LatencyHistogram:
    def __init__(self):
        self.counts = {}
