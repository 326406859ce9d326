"""repro.sansim: dynamic happens-before race sanitizer for the sim kernel.

The static analyzer (``repro.analysis``, "simlint") approximates
interleavings from the AST; this package observes real ones. A
:class:`~repro.sansim.kernel.TracedSimulator` runs any workload under a
:class:`~repro.sansim.runtime.SanitizerRuntime` that maintains vector
clocks per simulation process, joins them along every event edge
(pushes, condition joins, process relays), and checks the tracked-state
accesses the SEMEL/MILANA servers report:

* **SAN001** — stale-guard write: a section read a tracked location,
  suspended, and wrote it while a concurrent writer changed it in
  between (the dynamic twin of ATM002/TXN001).
* **SAN002** — unordered write-write race: two writes to the same
  tracked location with no happens-before edge and no common lock (the
  dynamic twin of ATM001); "exclusive" locations additionally assert a
  single-apply invariant (e.g. a transaction outcome applied twice).

The schedule explorer (:mod:`repro.sansim.explorer`) permutes
same-timestamp event ties through seeded tie-break policies and replays
any witness from its trial spec; :mod:`repro.sansim.report` reconciles
witnesses against simlint's ATM findings and renders JSON/SARIF via the
existing ``repro.analysis`` machinery. Everything is strictly zero-cost
when disabled: a plain :class:`~repro.sim.core.Simulator` carries
``tracer = None`` as a class attribute and no kernel hot path changes.
"""

from .explorer import TrialSpec, explore, run_trial
from .kernel import TracedProcess, TracedSimulator
from .policies import FifoTieBreak, RandomTieBreak, TargetedTieBreak
from .runtime import SanitizerRuntime
from .witnesses import Site, Witness

__all__ = [
    "FifoTieBreak",
    "RandomTieBreak",
    "SanitizerRuntime",
    "Site",
    "TargetedTieBreak",
    "TracedProcess",
    "TracedSimulator",
    "TrialSpec",
    "Witness",
    "explore",
    "run_trial",
]
