"""Core model of the Weighted Red-Blue Pebble Game (paper Sec. 2).

Exports the CDAG board, moves/labels, schedules, the checked simulator, the
basic bounds of Sec. 2.2, weight configurations, and schedule composition.
"""

from .cdag import CDAG, Node
from .moves import Label, Move, MoveType, M1, M2, M3, M4
from .schedule import Schedule, concatenate
from .simulator import GameState, SimulationResult, simulate
from .bounds import (algorithmic_lower_bound, compute_footprint,
                     io_breakdown_lower_bound, min_feasible_budget,
                     require_feasible, schedule_exists)
from .weights import (DEFAULT_WORD_BITS, PAPER_CONFIGS, WeightConfig,
                      class_weights, custom, double_accumulator, equal)
from .composition import (namespaced_union, relabel_schedule,
                          schedule_components, stitch)
from .passes import (compact, drop_dead_pairs, drop_redundant_loads,
                     drop_redundant_stores, peak_profile)
from .parallel import (ParallelSchedule, ParallelSimulationResult,
                       simulate_parallel)
from .library import ScheduleLibrary, canonical_form, structural_signatures
from .prefetch import prefetch, stall_cycles
from .exceptions import (AuditFailure, BudgetExceededError,
                         GraphStructureError,
                         InfeasibleBudgetError, InvalidScheduleError,
                         PebbleGameError, ProbeCancelledError,
                         RuleViolationError, StateSpaceTooLargeError,
                         StoppingConditionError)
from .governor import (AnytimeResult, CancellationToken, current_token,
                       governed, process_rss_mb)
from .store import ResultStore, StoreRecord, graph_fingerprint

__all__ = [
    "CDAG", "Node", "Label", "Move", "MoveType", "M1", "M2", "M3", "M4",
    "Schedule", "concatenate", "GameState", "SimulationResult", "simulate",
    "algorithmic_lower_bound", "compute_footprint", "io_breakdown_lower_bound",
    "min_feasible_budget", "require_feasible", "schedule_exists",
    "DEFAULT_WORD_BITS", "PAPER_CONFIGS", "WeightConfig", "class_weights",
    "custom", "double_accumulator", "equal",
    "namespaced_union", "relabel_schedule", "schedule_components", "stitch",
    "compact", "drop_dead_pairs", "drop_redundant_loads",
    "drop_redundant_stores", "peak_profile",
    "ParallelSchedule", "ParallelSimulationResult", "simulate_parallel",
    "ScheduleLibrary", "canonical_form", "structural_signatures",
    "prefetch", "stall_cycles",
    "AuditFailure", "BudgetExceededError", "GraphStructureError",
    "InfeasibleBudgetError",
    "InvalidScheduleError", "PebbleGameError", "ProbeCancelledError",
    "RuleViolationError", "StateSpaceTooLargeError",
    "StoppingConditionError",
    "AnytimeResult", "CancellationToken", "current_token", "governed",
    "process_rss_mb",
    "ResultStore", "StoreRecord", "graph_fingerprint",
]
