"""Systematic schedule exploration with the history audit as oracle.

A *trial* runs one workload once on the tie-break kernel: trial 0 is
always ``fifo`` (the production schedule — a failure there is a bug on
the default path), and every later trial is ``random`` with a per-trial
derived seed. After the workload the trial runs the
:func:`~repro.harness.audit.sync_replicas` repair pass and
:func:`~repro.harness.audit.run_audit`, the oracle the nemesis rows use:
serializability of the committed history, no lost or acked-but-aborted
writes, no stuck PREPARED, converged replicas, no handler errors.

A failing trial carries its :class:`TrialSpec`; replaying that spec
re-runs the exact schedule — policies are seeded and the kernel is
otherwise deterministic — and fails the same way (``replay_spec``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..harness.audit import AuditReport, run_audit, sync_replicas
from .kernel import TracedSimulator
from .policies import POLICY_NAMES, make_policy
from .workloads import WORKLOADS

__all__ = [
    "ExplorationResult",
    "TrialResult",
    "TrialSpec",
    "default_policy",
    "explore",
    "parse_replay_spec",
    "replay_spec",
    "run_trial",
]


@dataclass(frozen=True)
class TrialSpec:
    """Everything needed to replay one trial deterministically."""

    workload: str
    trial: int
    policy: str
    seed: int

    @property
    def policy_seed(self) -> int:
        """Per-trial seed derived from the exploration seed."""
        return self.seed * 10_000 + self.trial

    def render(self) -> str:
        return f"{self.workload}:{self.trial}:{self.policy}:{self.seed}"


def parse_replay_spec(text: str) -> TrialSpec:
    """Parse ``workload:trial:policy:seed`` (the --replay argument)."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(
            f"bad replay spec {text!r}; expected "
            f"workload:trial:policy:seed")
    workload, trial, policy, seed = parts
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} in replay spec")
    if policy not in POLICY_NAMES:
        raise ValueError(f"unknown policy {policy!r} in replay spec")
    return TrialSpec(workload=workload, trial=int(trial), policy=policy,
                     seed=int(seed))


@dataclass
class TrialResult:
    spec: TrialSpec
    audit: AuditReport

    @property
    def passed(self) -> bool:
        return self.audit.passed


@dataclass
class ExplorationResult:
    """Every trial of one workload, in trial order."""

    workload: str
    seed: int
    results: List[TrialResult] = field(default_factory=list)

    @property
    def failures(self) -> List[TrialResult]:
        return [result for result in self.results if not result.passed]


def default_policy(trial: int) -> str:
    """Trial 0 is the production schedule; the rest draw at random."""
    return "fifo" if trial == 0 else "random"


def run_trial(spec: TrialSpec) -> TrialResult:
    """Run one workload trial under its policy, then audit it."""
    workload = WORKLOADS.get(spec.workload)
    if workload is None:
        raise ValueError(
            f"unknown sansim workload {spec.workload!r}; expected one "
            f"of {sorted(WORKLOADS)}")
    policy = make_policy(spec.policy, spec.policy_seed)
    cluster = workload(lambda: TracedSimulator(tie_break=policy))
    cluster.sim.run_until_event(sync_replicas(cluster))
    return TrialResult(spec=spec, audit=run_audit(cluster))


def explore(workload: str, trials: int = 25, seed: int = 0,
            policy: Optional[str] = None) -> ExplorationResult:
    """Bounded exploration: ``trials`` audited runs of ``workload``.

    ``policy`` forces every trial onto one tie-break policy; the default
    is trial 0 fifo, then random.
    """
    result = ExplorationResult(workload=workload, seed=seed)
    for trial in range(max(trials, 1)):
        spec = TrialSpec(
            workload=workload, trial=trial,
            policy=policy or default_policy(trial),
            seed=seed)
        result.results.append(run_trial(spec))
    return result


def replay_spec(spec: TrialSpec) -> TrialResult:
    """Re-run exactly one trial; the same spec gives the same audit."""
    return run_trial(spec)
