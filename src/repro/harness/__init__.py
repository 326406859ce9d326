"""Experiment harness: cluster construction, metric windows, Retwis
runner, the experiment table (one row per table/figure/ablation), audit
cells (fault scenarios and explored schedules, each audited), and
plain-text reporting."""

from .ablations import ABLATIONS
from .audit import AuditReport, collect_history, run_audit, sync_replicas
from .chaos import (
    NemesisPlan,
    clock_storm,
    dup_storm,
    isolate_master,
    largest_connected_majority,
    loss_storm,
    majority_minority_split,
    partition_primary_from_backups,
    rolling_chaos,
)
from .cluster import BACKEND_KINDS, Cluster, ClusterConfig
from .experiments import FIGURES, Experiment, ExperimentResult
from .metrics import StatsSnapshot, WindowMetrics, snapshot, window_metrics
from .nemesis import (
    SCENARIOS,
    AuditRun,
    AuditSpec,
    Scenario,
    nemesis_config,
    run_spec,
)
from .report import format_table, format_value, series_block
from .runner import RetwisRunResult, run_retwis_on_cluster

#: The eleven paper experiments and ablations, in listing order.
EXPERIMENTS = FIGURES + ABLATIONS

__all__ = [
    "Cluster",
    "ClusterConfig",
    "BACKEND_KINDS",
    "Experiment",
    "ExperimentResult",
    "EXPERIMENTS",
    "StatsSnapshot",
    "WindowMetrics",
    "snapshot",
    "window_metrics",
    "format_table",
    "format_value",
    "series_block",
    "RetwisRunResult",
    "run_retwis_on_cluster",
    "AuditReport",
    "collect_history",
    "run_audit",
    "sync_replicas",
    "NemesisPlan",
    "largest_connected_majority",
    "partition_primary_from_backups",
    "isolate_master",
    "majority_minority_split",
    "clock_storm",
    "loss_storm",
    "dup_storm",
    "rolling_chaos",
    "SCENARIOS",
    "Scenario",
    "AuditRun",
    "AuditSpec",
    "nemesis_config",
    "run_spec",
]
