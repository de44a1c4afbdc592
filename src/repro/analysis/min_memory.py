"""Minimum fast memory size search (Def. 2.6).

The minimum fast memory size is the smallest budget whose best schedule
reaches the algorithmic lower bound (Prop. 2.4).  For every scheduler in
this library the achievable cost is non-increasing in the budget (a bigger
fast memory can always emulate a smaller one), so a binary search over
word-granular budgets suffices; the search still verifies the boundary
(cost at ``b*`` equals the bound, cost at ``b* − step`` does not) so a
non-monotone cost function raises instead of silently mis-reporting.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

from ..core.bounds import algorithmic_lower_bound, min_feasible_budget
from ..core.cdag import CDAG
from ..core.exceptions import InfeasibleBudgetError, PebbleGameError

CostFn = Callable[[int], float]


def cost_at(fn: CostFn, budget: int) -> float:
    """Evaluate a cost function, mapping infeasibility to ∞."""
    try:
        return fn(budget)
    except InfeasibleBudgetError:
        return math.inf


def minimum_fast_memory(
    cost_fn: CostFn,
    target: int,
    lo: int,
    hi: int,
    step: int = 1,
    hint: Optional[int] = None,
    *,
    bracket_fn: Optional[Callable[[int], Tuple[float, float]]] = None,
    on_inconclusive: Optional[Callable[[int, float, float], None]] = None,
    high_first: bool = False,
) -> Optional[int]:
    """Smallest budget on the grid ``{lo, lo+step, ...} ∪ {hi}`` clamped
    into ``[lo, hi]`` with ``cost_fn(b) <= target``, or ``None`` when even
    ``hi`` misses it.  The top grid point is clamped to ``hi`` (never
    ``lo + k·step > hi``), so the result always lies in ``[lo, hi]``.

    ``cost_fn`` must be non-increasing in the budget at ``step``
    granularity; the result is verified at both sides of the boundary.

    ``hint`` (optional) is a guess at the answer — e.g. the result for a
    neighbouring problem size in a Fig. 6 sweep.  The search then brackets
    the boundary by galloping outward from the hint instead of bisecting
    the whole range, turning an accurate guess into O(1) probes.  The
    result is identical with or without a hint.

    ``high_first`` probes the top of the range *before* any hint gallop
    (the hint-less path already starts there).  For schedulers whose
    cost is cheapest to prove at large budgets — the exhaustive oracle,
    which turns each solved budget into an ``upper_bound`` seed for the
    next (see ``ExhaustiveScheduler.monotone_budget_probes``) — this
    makes every later probe of the search prunable.  At most one extra
    probe; the result is unchanged (monotonicity: an infeasible top
    means *every* budget is infeasible, which the gallop would have
    concluded anyway).

    Fault-tolerance note: a cost function that *degrades* some probes to
    a fallback scheduler (see :mod:`repro.analysis.faults`) still returns
    upper bounds, so a budget it reports feasible truly is — but mixing
    degraded and exact probes can look non-monotone at the boundary,
    which this search rejects loudly (below) rather than mis-reporting a
    minimum.

    Governance note: with ``bracket_fn`` given, each probed budget's
    ``(lb, ub)`` bracket decides feasibility soundly — ``ub <= target``
    is feasible, ``lb > target`` is infeasible, and a bracket *spanning*
    the target decides nothing: ``on_inconclusive(budget, lb, ub)`` is
    notified and the budget is treated infeasible (pessimistic but
    sound — the returned minimum is always an achievable budget, never
    an unproven one).  With exact probes the bracket degenerates to
    ``(cost, cost)`` and the search is unchanged.
    """
    if lo > hi:
        raise ValueError(f"empty budget range [{lo}, {hi}]")
    top_k = -(-(hi - lo) // step)  # number of steps to reach/overshoot hi

    def grid(k: int) -> int:
        return min(lo + k * step, hi)

    def feasible(k: int) -> bool:
        value = cost_at(cost_fn, grid(k))
        if bracket_fn is None:
            return value <= target
        lb, ub = bracket_fn(grid(k))
        if ub <= target:
            return True
        if lb > target:
            return False
        if on_inconclusive is not None:
            on_inconclusive(grid(k), lb, ub)
        return False

    if top_k == 0:
        return lo if feasible(0) else None

    if high_first and hint is not None and not feasible(top_k):
        return None

    if hint is None:
        if not feasible(top_k):
            return None
        if feasible(0):
            return lo
        lo_k, hi_k = 0, top_k
    else:
        k = min(max(-(-(hint - lo) // step), 0), top_k)
        if feasible(k):
            # Gallop down until an infeasible bracket (or the bottom).
            hi_k, stride = k, 1
            lo_k = None
            while hi_k > 0:
                nxt = max(hi_k - stride, 0)
                if feasible(nxt):
                    hi_k = nxt
                    stride *= 2
                else:
                    lo_k = nxt
                    break
            if lo_k is None:
                return grid(0)
        else:
            # Gallop up until a feasible bracket (or the top).
            lo_k, stride = k, 1
            hi_k = None
            while lo_k < top_k:
                nxt = min(lo_k + stride, top_k)
                if feasible(nxt):
                    hi_k = nxt
                    break
                lo_k = nxt
                stride *= 2
            if hi_k is None:
                return None

    # Invariant: cost at grid(hi_k) <= target, cost at grid(lo_k) misses.
    while hi_k - lo_k > 1:
        mid = (lo_k + hi_k) // 2
        if feasible(mid):
            hi_k = mid
        else:
            lo_k = mid
    best = grid(hi_k)
    final = cost_at(cost_fn, best)
    if final > target:  # pragma: no cover - guarded above
        raise PebbleGameError(
            f"non-monotone cost function in binary search: budget {best} "
            f"was feasible during bracketing but re-probed to {final} > "
            f"target {target} (degraded/flaky probes?)")
    return best


def scheduler_min_memory(scheduler, cdag: CDAG, step: Optional[int] = None,
                         hi: Optional[int] = None) -> Optional[int]:
    """Minimum fast memory size (Def. 2.6) of a scheduler on ``cdag``:
    the smallest budget at which its cost equals the algorithmic lower
    bound.  ``step`` defaults to the GCD of node weights (word granularity);
    ``hi`` defaults to the whole graph resident at once.  The search does
    no I/O; for cached, durable probes use
    :meth:`repro.analysis.engine.SweepEngine.min_memory` with ``store=``."""
    target = algorithmic_lower_bound(cdag)
    lo = min_feasible_budget(cdag)
    if hi is None:
        hi = cdag.total_weight()
    if step is None:
        step = math.gcd(*cdag.weights.values()) if len(cdag) else 1
    # Probe through cost_many with a shared memo so schedulers with
    # budget-independent state (DP memos, the oracle's transposition
    # table) reuse work across adjacent binary-search probes.
    memo: dict = {}

    def probe(b: int) -> float:
        return scheduler.cost_many(cdag, (b,), memo=memo)[0]

    return minimum_fast_memory(probe, target, lo, hi, step)
