"""Systematic schedule exploration: bounded trials, seeded replay.

A *trial* runs one workload once under a tie-break policy: trial 0 is
always ``fifo`` (the production schedule — any witness there is a bug
on the default path), and subsequent trials alternate ``random`` and
``targeted`` with per-trial derived seeds. Hot locations accumulate
across trials, so the targeted policy explores the neighbourhood of
earlier contention (DPOR-lite rather than full persistent sets: the
kernel's ties are the only reorderable points, which keeps the trial
budget honest).

Every witness is stamped with its :class:`TrialSpec`; replaying that
spec re-runs the exact schedule — policies are seeded and the kernel is
otherwise deterministic — and must reproduce the same witness
fingerprints. That replay loop (``replay_spec``) is what CI and the
golden-snapshot test call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from .kernel import TracedSimulator
from .policies import make_policy
from .runtime import SanitizerRuntime
from .witnesses import Witness
from .workloads import WORKLOADS

__all__ = [
    "ExplorationResult",
    "TrialResult",
    "TrialSpec",
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
    return TrialSpec(workload=workload, trial=int(trial), policy=policy,
                     seed=int(seed))


@dataclass
class TrialResult:
    spec: TrialSpec
    witnesses: List[Witness]
    flagged_locations: Set[str]
    stats: Dict[str, int]


@dataclass
class ExplorationResult:
    """Deduplicated witnesses plus per-trial accounting."""

    workload: str
    trials: int
    seed: int
    witnesses: List[Witness] = field(default_factory=list)
    flagged_locations: Set[str] = field(default_factory=set)
    trial_stats: List[Dict[str, int]] = field(default_factory=list)

    @property
    def fingerprints(self) -> List[str]:
        return [witness.fingerprint for witness in self.witnesses]


def _policy_for_trial(trial: int) -> str:
    if trial == 0:
        return "fifo"
    return "targeted" if trial % 2 == 0 else "random"


def run_trial(spec: TrialSpec,
              hot_locations: FrozenSet[str] = frozenset()) -> TrialResult:
    """Run one workload trial under its policy; witnesses come back
    stamped with the spec so they are replayable as-is."""
    workload = WORKLOADS.get(spec.workload)
    if workload is None:
        raise ValueError(
            f"unknown sansim workload {spec.workload!r}; expected one "
            f"of {sorted(WORKLOADS)}")
    tracer = SanitizerRuntime(hot_locations=hot_locations)
    policy = make_policy(spec.policy, spec.policy_seed, tracer)

    def factory() -> TracedSimulator:
        return TracedSimulator(tracer=tracer, tie_break=policy)

    workload(factory)
    witnesses = [
        witness.stamped(spec.workload, spec.trial, spec.policy, spec.seed)
        for witness in tracer.witnesses
    ]
    if spec.policy == "targeted" and hot_locations:
        # Targeted trials depend on hot-location feedback from earlier
        # trials; record it so such a witness stays replayable via
        # run_trial(spec, hot_locations=...).
        for witness in witnesses:
            witness.extra["hot_locations"] = sorted(hot_locations)
    return TrialResult(spec=spec, witnesses=witnesses,
                       flagged_locations=set(tracer.flagged_locations),
                       stats=tracer.stats())


def explore(workload: str, trials: int = 25, seed: int = 0,
            policy: Optional[str] = None) -> ExplorationResult:
    """Bounded exploration: ``trials`` runs, deduplicated witnesses.

    ``policy`` forces every trial onto one tie-break policy; the default
    rotation is trial 0 fifo, then alternating random/targeted.
    """
    result = ExplorationResult(workload=workload, trials=trials, seed=seed)
    seen: Set[str] = set()
    hot: Set[str] = set()
    for trial in range(max(trials, 1)):
        spec = TrialSpec(workload=workload, trial=trial,
                         policy=policy or _policy_for_trial(trial),
                         seed=seed)
        trial_result = run_trial(spec, hot_locations=frozenset(hot))
        hot |= trial_result.flagged_locations
        result.flagged_locations |= trial_result.flagged_locations
        result.trial_stats.append(trial_result.stats)
        for witness in trial_result.witnesses:
            fingerprint = witness.fingerprint
            if fingerprint not in seen:
                seen.add(fingerprint)
                result.witnesses.append(witness)
    result.witnesses.sort(key=lambda w: (w.rule_id, w.location,
                                         w.acting.path, w.acting.line))
    return result


def replay_spec(spec: TrialSpec) -> TrialResult:
    """Re-run exactly one trial (hot-location feedback excluded: a
    replayed fifo/random trial needs none; a targeted trial replays its
    own discoveries because hot state also accrues *within* a trial)."""
    return run_trial(spec)
