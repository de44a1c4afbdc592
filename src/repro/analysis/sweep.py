"""Budget sweeps: weighted I/O as a function of fast memory size (Fig. 5)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .min_memory import cost_at

CostFn = Callable[[int], float]


@dataclass(frozen=True)
class SweepSeries:
    """One labelled curve of a sweep: (budget, cost) pairs.

    ``degraded`` lists the budgets whose cost came from a *fallback*
    scheduler after the primary timed out or tripped a state-space guard
    (see :mod:`repro.analysis.faults`) — those entries are upper bounds,
    not the labelled strategy's true cost.  ``provenance`` refines the
    flag per the governance ladder (:data:`repro.core.store.
    PROVENANCES`): ``(budget, tag)`` pairs for every non-``"exact"``
    budget — ``"anytime"`` entries additionally carry a certified lower
    bound the engine recorded.  Fault-free sweeps leave both empty, so
    equality with directly-computed series is preserved.
    """

    label: str
    budgets: Tuple[int, ...]
    costs: Tuple[float, ...]
    degraded: Tuple[int, ...] = ()
    provenance: Tuple[Tuple[int, str], ...] = ()

    def provenance_of(self, budget: int) -> str:
        """Ladder rung the cost at ``budget`` came from (``"exact"``
        unless listed in :attr:`provenance`)."""
        for b, tag in self.provenance:
            if b == budget:
                return tag
        return "exact"

    def points(self) -> List[Tuple[int, float]]:
        return list(zip(self.budgets, self.costs))

    def finite_points(self) -> List[Tuple[int, float]]:
        return [(b, c) for b, c in zip(self.budgets, self.costs)
                if math.isfinite(c)]


def log_budget_grid(lo: int, hi: int, points: int = 24,
                    step: int = 16) -> List[int]:
    """Log-spaced budgets within ``[max(lo, 1), hi]``, snapped up to ``step``
    multiples where that stays in range and deduplicated — the x-axis of the
    Fig. 5 plots.  Interior points are always step-aligned; the endpoints are
    clamped into the range, so a non-aligned ``hi`` appears verbatim rather
    than rounded past the range.  Returns ``[]`` only for the degenerate
    ``hi == 0`` range (budgets must be positive)."""
    if lo > hi:
        raise ValueError(f"empty budget range [{lo}, {hi}]")
    lo = max(lo, 1)
    if hi < lo:
        return []
    snap = lambda x: -(-x // step) * step
    lo_s = min(max(snap(lo), step), hi)
    if points < 2 or lo_s >= hi:
        return [lo_s]
    grid = []
    # lo_s >= 1 by construction, so the log-ratio base is never zero.
    ratio = (hi / lo_s) ** (1.0 / (points - 1))
    val = float(lo_s)
    for _ in range(points):
        snapped = snap(int(round(val)))
        grid.append(min(max(snapped, lo_s), hi))
        val *= ratio
    out = sorted(set(grid))
    return out


def sweep(cost_fn: CostFn, budgets: Sequence[int], label: str) -> SweepSeries:
    """Evaluate a cost function over a budget grid (∞ where infeasible)."""
    costs = tuple(cost_at(cost_fn, b) for b in budgets)
    return SweepSeries(label=label, budgets=tuple(budgets), costs=costs)


def sweep_many(cost_fns: Dict[str, CostFn],
               budgets: Sequence[int]) -> List[SweepSeries]:
    """Sweep several strategies over the same grid (one Fig. 5 panel)."""
    return [sweep(fn, budgets, label) for label, fn in cost_fns.items()]
