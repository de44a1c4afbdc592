"""Basic WRBPG properties: schedule existence and the algorithmic lower bound.

Implements Sec. 2.2 of the paper:

* Proposition 2.3 (schedule existence): a valid schedule exists iff for
  every non-source node ``v``, ``w_v + Σ_{p ∈ H(v)} w_p ≤ B``.
* Proposition 2.4 (algorithmic lower bound): any valid schedule costs at
  least ``Σ_{v ∈ A(G)} w_v + Σ_{v ∈ Z(G)} w_v`` — every input must be
  loaded once and every output stored once.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .cdag import CDAG, Node
from .exceptions import InfeasibleBudgetError


def compute_footprint(cdag: CDAG, node: Node) -> int:
    """Weight needed in fast memory to perform ``M3(node)``:
    the node itself plus all of its immediate predecessors."""
    return cdag.weight(node) + sum(cdag.weight(p) for p in cdag.predecessors(node))


def min_feasible_budget(cdag: CDAG) -> int:
    """Smallest budget for which a valid schedule exists (Prop. 2.3):
    ``max_v (w_v + Σ_{p∈H(v)} w_p)`` over non-source nodes ``v``.

    The graph is immutable, so the first call scans it and caches the
    value on it; :meth:`CDAG.with_budget` clones share the cached value
    and :meth:`CDAG.with_weights` clones scan again."""
    need = cdag._min_budget
    if need is None:
        footprints = [compute_footprint(cdag, v) for v in cdag
                      if cdag.predecessors(v)]
        if footprints:
            need = max(footprints)
        else:
            # Degenerate source-only graph (no edges, so every node is
            # both an input and an output): no M3 ever runs, but
            # materializing a stored output in a memory-state replay still
            # takes an M1/M2 pair, which holds w_v of red weight — so the
            # widest node sets the budget.
            need = max(cdag.weights.values(), default=1)
        cdag._min_budget = need
    return need


def schedule_exists(cdag: CDAG, budget: Optional[int] = None) -> bool:
    """Existence test of Prop. 2.3 for ``budget`` (default: the graph's)."""
    b = cdag.budget if budget is None else budget
    if b is None:
        return True
    return min_feasible_budget(cdag) <= b


def require_feasible(cdag: CDAG, budget: Optional[int] = None) -> int:
    """Return the effective budget, raising :class:`InfeasibleBudgetError`
    when no valid schedule exists under it."""
    b = cdag.budget if budget is None else budget
    if b is None:
        raise InfeasibleBudgetError("no budget set on the graph or the call")
    need = min_feasible_budget(cdag)
    if need > b:
        raise InfeasibleBudgetError(
            f"budget {b} < minimum feasible budget {need} for {cdag.name!r}")
    return b


def algorithmic_lower_bound(cdag: CDAG) -> int:
    """The trivial weighted I/O lower bound of Prop. 2.4:
    ``Σ_{v∈A(G)} w_v + Σ_{v∈Z(G)} w_v``."""
    return cdag.total_weight(cdag.sources) + cdag.total_weight(cdag.sinks)


def io_breakdown_lower_bound(cdag: CDAG) -> Tuple[int, int]:
    """The lower bound split into (input cost, output cost)."""
    return cdag.total_weight(cdag.sources), cdag.total_weight(cdag.sinks)


def residual_io_lower_bound(cdag: CDAG, red=(), blue=None, *,
                            require_blue_sinks: bool = True,
                            final_red=()) -> int:
    """Residual Prop. 2.4 bound from a mid-game configuration.

    Generalizes :func:`algorithmic_lower_bound` to an arbitrary state
    ``(red, blue)``: every goal sink not yet blue still costs its weight in
    stores, and every *source* in the backward closure of nodes that must
    still become red costs its weight in loads (sources cannot be
    recomputed).  The closure seeds with the missing goal nodes — goal
    sinks absent from both memories, plus ``final_red`` nodes not red —
    and adds the non-red parents of every needed node that is absent from
    both memories (such a node can only appear via ``M3``).

    At the start state (``red = ∅``, ``blue = sources``) this refines
    :func:`algorithmic_lower_bound` by not charging nodes that are both
    sources and sinks (they are already blue, so no store is owed).

    This is the reference (node-set) implementation of the bitmask
    heuristic in :meth:`repro.schedulers.search.SearchProblem.heuristic`;
    the two are asserted equal in the test suite.
    """
    red = set(red)
    blue = set(cdag.sources) if blue is None else set(blue)
    goal_blue = set(cdag.sinks) if require_blue_sinks else set()
    out_cost = sum(cdag.weight(v) for v in goal_blue - blue)
    need = (goal_blue - blue - red) | (set(final_red) - red)
    stack = [v for v in need if v not in blue]
    seen = set(stack)
    while stack:
        v = stack.pop()
        for p in cdag.predecessors(v):
            if p not in red and p not in need:
                need.add(p)
                if p not in blue and p not in seen:
                    seen.add(p)
                    stack.append(p)
    in_cost = sum(cdag.weight(v) for v in need if not cdag.predecessors(v))
    return out_cost + in_cost
