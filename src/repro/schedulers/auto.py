"""Automatic scheduler dispatch.

``auto_schedule(cdag, budget)`` picks the strongest applicable strategy by
inspecting the graph:

1. DWT graphs (by name pattern + layer structure) → Algorithm 1.
2. MVM graphs (by name pattern + structure) with class-uniform weights →
   the tiling scheduler.
3. Rooted in-trees with small fan-in → the k-ary DP (optimal).
4. Everything else → Belady eviction (layer order when the node naming is
   layered, post-order otherwise).

Returns both the schedule and the name of the strategy used, so callers
can report provenance.  Dispatch is purely structural — a graph renamed
``DWT(...)`` that is not actually a DWT falls through to the generic
path rather than mis-scheduling.  The structural checks live in
:mod:`repro.schedulers.families`; a contract test asserts the scheduler
:func:`auto_scheduler` returns always *accepts* the graph it was routed
(its :class:`~repro.schedulers.base.OptimalityContract` covers the
family), so dispatch can never hand a family to a strategy that excludes
it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.cdag import CDAG
from ..core.schedule import Schedule
from .base import Scheduler
from .dwt_optimal import OptimalDWTScheduler
from .families import is_dwt, mvm_params
from .heuristic import EvictionScheduler
from .kary import OptimalTreeScheduler
from .tiling import TilingMVMScheduler


def _is_layered_naming(cdag: CDAG) -> bool:
    return all(isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], int)
               for v in cdag)


def auto_scheduler(cdag: CDAG) -> Scheduler:
    """The strategy :func:`auto_schedule` would route ``cdag`` to."""
    if is_dwt(cdag):
        return OptimalDWTScheduler()
    mvm = mvm_params(cdag)
    if mvm is not None:
        tiler = TilingMVMScheduler(*mvm)
        if tiler.accepts(cdag):  # re-weighted MVMs fall through
            return tiler
    if cdag.num_edges and cdag.is_tree_toward_sink() \
            and cdag.max_in_degree() <= 4:
        # Edge-free graphs are excluded like in families.graph_families:
        # an isolated node's optimum is the empty schedule, which the
        # tree DP (root computed from leaves) cannot express.
        return OptimalTreeScheduler()
    order = "topological" if _is_layered_naming(cdag) else "postorder"
    return EvictionScheduler(policy="belady", order=order)


def auto_schedule(cdag: CDAG, budget: Optional[int] = None
                  ) -> Tuple[Schedule, str]:
    """Best-available schedule plus the name of the strategy that made it."""
    s = auto_scheduler(cdag)
    return s.schedule(cdag, budget), s.name
