"""WRBPG scheduling strategies.

Optimal, dataflow-specific schedulers (the paper's contribution):

* :class:`OptimalDWTScheduler` — Algorithm 1 for DWT graphs.
* :class:`OptimalTreeScheduler` — Eq. (6) for k-ary in-trees.
* :class:`MemoryStateScheduler` — Eq. (8) with initial/reuse states.
* :class:`TilingMVMScheduler` — Sec. 4.3 tiling for MVM graphs.

Baselines and oracles:

* :class:`LayerByLayerScheduler` — the paper's DWT baseline (Sec. 5.1).
* :class:`GreedyTopologicalScheduler` — Prop. 2.3's constructive schedule.
* :class:`ExhaustiveScheduler` — informed-search-certified optima on
  small graphs (A* over game configurations; see :mod:`.search`).
"""

from .base import OptimalityContract, Scheduler
from .families import ANY_FAMILY, FAMILY_TAGS, graph_families
from .registry import REGISTRY, SchedulerSpec, all_specs, schedulers_for, spec
from .greedy import GreedyTopologicalScheduler
from .exhaustive import ExhaustiveScheduler, optimal_cost
from .search import SearchProblem, SearchStats, TranspositionTable, astar
from .dwt_optimal import OptimalDWTScheduler, pebble_dwt, dwt_minimum_cost
from .kary import OptimalTreeScheduler, pebble_tree, tree_minimum_cost
from .memory_states import MemoryStateScheduler
from .layer_by_layer import LayerByLayerScheduler
from .tiling import TilingMVMScheduler, TilePlan
from .kdwt import OptimalKDWTScheduler, pebble_kdwt
from .sparse_tiling import BandedMVMScheduler
from .heuristic import EvictionScheduler, POLICIES, ORDERS
from .conv_sliding import SlidingWindowConvScheduler
from .recompute import RecomputeScheduler
from .parallel import ParallelComponentScheduler, ParallelMVMScheduler
from .auto import auto_schedule, auto_scheduler

__all__ = [
    "Scheduler", "OptimalityContract", "ANY_FAMILY", "FAMILY_TAGS",
    "graph_families", "REGISTRY", "SchedulerSpec", "all_specs",
    "schedulers_for", "spec", "auto_scheduler",
    "GreedyTopologicalScheduler", "ExhaustiveScheduler",
    "optimal_cost", "OptimalDWTScheduler", "pebble_dwt", "dwt_minimum_cost",
    "OptimalTreeScheduler", "pebble_tree", "tree_minimum_cost",
    "MemoryStateScheduler", "LayerByLayerScheduler", "TilingMVMScheduler",
    "TilePlan", "OptimalKDWTScheduler", "pebble_kdwt", "BandedMVMScheduler",
    "EvictionScheduler", "POLICIES", "ORDERS", "SlidingWindowConvScheduler",
    "RecomputeScheduler", "ParallelComponentScheduler",
    "ParallelMVMScheduler", "auto_schedule",
    "SearchProblem", "SearchStats", "TranspositionTable", "astar",
]
