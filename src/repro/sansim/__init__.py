"""repro.sansim: schedule exploration audited against the history.

A :class:`~repro.sansim.kernel.TracedSimulator` runs any workload with
same-timestamp event ties resolved by a seeded tie-break policy
(:mod:`repro.sansim.policies`); ``fifo`` is the production schedule
byte for byte. The explorer (:mod:`repro.sansim.explorer`) runs a
workload once per trial under fifo and then random tie-breaks, and
checks each run with :func:`~repro.harness.audit.run_audit`, the same
oracle every nemesis scenario uses. A failing trial prints its
:class:`~repro.sansim.explorer.TrialSpec`, which replays it exactly.
"""

from .explorer import TrialSpec, explore, run_trial
from .kernel import TracedSimulator
from .policies import FifoTieBreak, RandomTieBreak

__all__ = [
    "FifoTieBreak",
    "RandomTieBreak",
    "TracedSimulator",
    "TrialSpec",
    "explore",
    "run_trial",
]
