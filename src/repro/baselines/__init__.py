"""Comparison baselines the paper evaluates against.

:class:`CentimanClient` is watermark-based local validation (Figure 9).
The other two baselines are modes of the production classes, selected
where the cluster is built (:mod:`repro.harness.cluster`): the
single-version generic FTL of Figure 6 is the ``sftl`` backend kind
(``MFTLBackend(multi_version=False)``), and Figure 8's "w/o LV" series
is ``ClusterConfig(local_validation=False)``.
"""

from .centiman import (
    CentimanClient,
    DEFAULT_DISSEMINATION_EVERY,
    WatermarkBoard,
)

__all__ = [
    "CentimanClient",
    "WatermarkBoard",
    "DEFAULT_DISSEMINATION_EVERY",
]
