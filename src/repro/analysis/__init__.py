"""Analysis utilities: minimum fast memory search (Def. 2.6), I/O-vs-budget
sweeps (Fig. 5), fault-tolerant sweep execution, and plain-text reporting."""

from .min_memory import cost_at, minimum_fast_memory, scheduler_min_memory
from .sweep import SweepSeries, log_budget_grid, sweep, sweep_many
from .faults import PROVENANCES, FailureRecord, FaultPolicy, run_probe
from ..core.governor import (AnytimeResult, CancellationToken, current_token,
                             governed, install_rlimit, process_rss_mb)
from .audit import (AuditViolation, Auditor, LEVELS as AUDIT_LEVELS,
                    audit_schedule)
from .engine import (CachedCostFn, ProbeOutcome, SweepEngine, SweepStats,
                     get_default_engine, set_default_engine)
from .fuzz import (FuzzFailure, FuzzReport, fuzz, replay_repro, shrink,
                   write_repro)
from .report import format_series, format_table, percent_reduction
from .dse import (DesignPoint, best_under_power_cap, explore,
                  pareto_frontier, render as render_design_space)
from .realtime import RealtimeReport, StreamingRequirement, analyze as analyze_realtime
from .compare import Comparison, ComparisonCell, compare

__all__ = ["cost_at", "minimum_fast_memory", "scheduler_min_memory",
           "SweepSeries", "log_budget_grid", "sweep", "sweep_many",
           "PROVENANCES", "FailureRecord", "FaultPolicy", "run_probe",
           "AnytimeResult", "CancellationToken", "current_token",
           "governed", "install_rlimit", "process_rss_mb",
           "AuditViolation", "Auditor", "AUDIT_LEVELS", "audit_schedule",
           "FuzzFailure", "FuzzReport", "fuzz", "replay_repro", "shrink",
           "write_repro",
           "CachedCostFn", "ProbeOutcome", "SweepEngine", "SweepStats",
           "get_default_engine", "set_default_engine",
           "format_series", "format_table", "percent_reduction",
           "DesignPoint", "best_under_power_cap", "explore", "pareto_frontier",
           "render_design_space",
           "RealtimeReport", "StreamingRequirement", "analyze_realtime",
           "Comparison", "ComparisonCell", "compare"]
