"""Optimal WRBPG scheduling for k-ary tree graphs — Eq. (6) / Lemma 3.7.

For an in-tree node ``v`` with parents (operands) ``p_1..p_k``, the DP
enumerates every order ``σ`` of pebbling the parent subtrees and, per
parent, the binary choice ``δ_i`` of *holding* its result red (shrinking
the budget available to later subtrees) or *spilling* it blue and reloading
it later (adding ``2·w_p`` of I/O):

    P_t(v, b) = min_{δ ∈ {0,1}^k, σ ∈ Perm(H(v))}
        Σ_i P_t(σ(i), b − Σ_{j<i} δ_j·w_{σ(j)})
        + 2 Σ_i (1 − δ_i)·w_{σ(i)}

with ``P_t(v,b) = w_v`` at leaves and ``∞`` when ``w_v + Σ_p w_p > b``.
Theorem 3.8 shows the enumeration stays polynomial for
``k = O(log log n)``; in practice ``k`` is a small constant (2 for DWT/MVM).

The last parent in any order is always held (spilling it and reloading
immediately is dominated), which this implementation exploits — mirroring
the paper's reduction of eight strategies to four in the binary case.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Optional, Tuple

from ..core.bounds import min_feasible_budget, require_feasible
from ..core.cdag import CDAG
from ..core.exceptions import GraphStructureError, InfeasibleBudgetError
from ..core.governor import current_token
from ..core.moves import M1, M2, M3, M4
from ..core.schedule import Schedule
from .base import OptimalityContract, Scheduler

_INF = math.inf

#: Guard against accidental super-polynomial blow-up (Thm. 3.8 regime).
DEFAULT_MAX_ARITY = 6


class OptimalTreeScheduler(Scheduler):
    """Minimum-weight WRBPG schedules for any k-ary in-tree (Def. 3.6)."""

    name = "Optimum (k-ary)"

    contract = OptimalityContract(
        accepts=("tree",), optimal_on=("tree",),
        notes="Thm. 3.8 / Eq. (6): optimal on rooted in-trees with "
              "fan-in <= max_arity")

    def accepts(self, cdag: CDAG) -> bool:
        """Refine the tree contract with the instance's arity cap."""
        return super().accepts(cdag) and cdag.max_in_degree() <= self.max_arity

    def claims_optimal(self, cdag: CDAG) -> bool:
        return (super().claims_optimal(cdag)
                and cdag.max_in_degree() <= self.max_arity)

    def fallback_scheduler(self) -> Scheduler:
        """Degrade to greedy (Prop. 2.3): the permutation DP is factorial
        in the arity, so a guarded probe still gets an upper bound."""
        from .greedy import GreedyTopologicalScheduler
        return GreedyTopologicalScheduler()

    def __init__(self, max_arity: int = DEFAULT_MAX_ARITY):
        self.max_arity = max_arity

    # ------------------------------------------------------------------ #

    def schedule(self, cdag: CDAG, budget: Optional[int] = None) -> Schedule:
        """Full-game optimal schedule: pebble the tree so the root ends red,
        store it, and clean up."""
        b = require_feasible(cdag, budget)
        self._check_tree(cdag)
        (root,) = cdag.sinks
        memo: Dict[Tuple, Tuple] = {}
        cost, moves = self._pebble(cdag, root, b, memo)
        if cost is _INF or moves is None:
            raise InfeasibleBudgetError(
                f"budget {b} infeasible for {cdag.name!r}")
        return Schedule(moves + (M2(root), M4(root)))

    def cost(self, cdag: CDAG, budget: Optional[int] = None) -> int:
        """Minimum weighted schedule cost: ``w_r + P_t(r, B)`` (Eq. 7)."""
        b = require_feasible(cdag, budget)
        self._check_tree(cdag)
        (root,) = cdag.sinks
        memo: Dict[Tuple, float] = {}
        c = self._min_cost(cdag, root, b, memo)
        if c is _INF:
            raise InfeasibleBudgetError(f"budget {b} infeasible for {cdag.name!r}")
        return int(c + cdag.weight(root))

    def cost_many(self, cdag: CDAG, budgets, *, memo=None):
        """Batched :meth:`cost` sharing one Eq. 6 memo across all budgets.

        Memo entries are keyed ``(node, residual budget)`` and hold values
        independent of the query budget, so every probe extends a common
        table; pass the same ``memo`` mapping again to reuse it across
        calls (e.g. binary-search probes of a min-memory search)."""
        state = memo if memo is not None else {}
        if state.get("graph") is not cdag:
            self._check_tree(cdag)
            state.clear()
            state["graph"] = cdag
            state["dp"] = {}
        dp = state["dp"]
        (root,) = cdag.sinks
        w_root = cdag.weight(root)
        need = min_feasible_budget(cdag)
        out = []
        for budget in budgets:
            b = cdag.budget if budget is None else budget
            if b is None or b < need:
                out.append(_INF)
                continue
            c = self._min_cost(cdag, root, b, dp)
            out.append(_INF if c is _INF else int(c + w_root))
        return out

    def subtree_cost(self, cdag: CDAG, node, budget: int) -> float:
        """``P_t(node, budget)``: cost of ending with a red pebble on
        ``node`` (∞ if infeasible).  Exposed for composition and tests."""
        return self._min_cost(cdag, node, budget, {})

    # ------------------------------------------------------------------ #

    def _check_tree(self, cdag: CDAG) -> None:
        if not cdag.is_tree_toward_sink():
            raise GraphStructureError(
                f"{cdag.name!r} is not a rooted in-tree (Def. 3.6)")
        k = cdag.max_in_degree()
        if k > self.max_arity:
            raise GraphStructureError(
                f"in-degree {k} exceeds max_arity={self.max_arity}; "
                f"the enumeration is exponential in k (Thm. 3.8)")

    @staticmethod
    def _child_keys(t: CDAG, parents, b: int):
        """Every ``(parent, residual budget)`` subproblem the δ/σ search
        of Eq. 6 can touch from a frame at budget ``b``: parent ``p`` may
        be evaluated after holding any subset of the *other* parents, so
        its residual is ``b`` minus that subset's weight.  At most
        ``k · 2^(k-1)`` keys (4 in the binary case); deduplicated with
        insertion order preserved, so stack traversal stays deterministic.
        """
        ws = [t.weight(p) for p in parents]
        k = len(parents)
        keys: Dict[Tuple, None] = {}
        for i, p in enumerate(parents):
            others = ws[:i] + ws[i + 1:]
            for r in range(k):
                for comb in itertools.combinations(others, r):
                    keys[(p, b - sum(comb))] = None
        return keys

    def _min_cost(self, t: CDAG, v, b: int, memo) -> float:
        # Explicit-stack post-order evaluation of Eq. 6: chains and other
        # deep in-trees must not hit Python's recursion limit.  A frame
        # waits until every (parent, residual) subproblem it can reach is
        # memoized, then runs the σ/δ enumeration against the memo.
        root_key = (v, b)
        if root_key in memo:
            return memo[root_key]
        token = current_token()
        stack = [root_key]
        while stack:
            if token is not None:
                token.raise_if_cancelled("k-ary cost DP")
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            node, bud = key
            parents = t.predecessors(node)
            if not parents:
                memo[key] = t.weight(node)
                stack.pop()
                continue
            if t.weight(node) + sum(t.weight(p) for p in parents) > bud:
                memo[key] = _INF
                stack.pop()
                continue
            missing = [ck for ck in self._child_keys(t, parents, bud)
                       if ck not in memo]
            if missing:
                stack.extend(missing)
                continue
            best: float = _INF
            for order in itertools.permutations(parents):
                best = min(best,
                           self._best_over_holds_cost(t, order, bud, memo))
            memo[key] = best
            stack.pop()
        return memo[root_key]

    def _best_over_holds_cost(self, t, order, b: int, memo) -> float:
        """Min over δ for a fixed parent order.  δ is explored depth-first
        (depth ≤ max_arity): at parent i we either hold (budget shrinks
        for the rest) or spill (+2w).  The final parent is always held
        (dominance).  Reads subtree costs from the memo, which
        :meth:`_min_cost` has fully populated."""
        k = len(order)

        def go(i: int, residual: int) -> float:
            c = memo[(order[i], residual)]
            if c is _INF:
                return _INF
            if i == k - 1:
                return c
            hold = go(i + 1, residual - t.weight(order[i]))
            spill = go(i + 1, residual)
            best_rest = min(hold, spill + 2 * t.weight(order[i]))
            return c + best_rest if best_rest is not _INF else _INF

        return go(0, b)

    # ------------------------------------------------------------------ #

    def _pebble(self, t: CDAG, v, b: int, memo):
        """Schedule-producing twin of :meth:`_min_cost`.

        Invariant: the returned moves start from blue leaves, respect ``b``
        within the subtree, and end with red on ``v`` and nothing else red.
        Uses the same explicit-stack shape as :meth:`_min_cost` so deep
        in-trees never overflow Python's recursion limit.
        """
        root_key = (v, b)
        if root_key in memo:
            return memo[root_key]
        token = current_token()
        stack = [root_key]
        while stack:
            if token is not None:
                token.raise_if_cancelled("k-ary pebble DP")
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            node, bud = key
            parents = t.predecessors(node)
            if not parents:
                memo[key] = (t.weight(node), (M1(node),))
                stack.pop()
                continue
            if t.weight(node) + sum(t.weight(p) for p in parents) > bud:
                memo[key] = (_INF, None)
                stack.pop()
                continue
            missing = [ck for ck in self._child_keys(t, parents, bud)
                       if ck not in memo]
            if missing:
                stack.extend(missing)
                continue
            best_cost: float = _INF
            best_moves = None
            for order in itertools.permutations(parents):
                cost, moves = self._pebble_order(t, order, bud, memo)
                if cost < best_cost:
                    best_cost, best_moves = cost, moves
            if best_moves is None:
                memo[key] = (_INF, None)
            else:
                tail = (M3(node),) + tuple(M4(p) for p in parents)
                memo[key] = (best_cost, best_moves + tail)
            stack.pop()
        return memo[root_key]

    def _pebble_order(self, t, order, b: int, memo):
        """Best hold/spill assignment for a fixed order, returning moves
        that end with *all* parents red (ready for M3).  Depth ≤ max_arity;
        reads subschedules from the memo :meth:`_pebble` has populated."""
        k = len(order)

        def go(i: int, residual: int):
            p = order[i]
            c, s = memo[(p, residual)]
            if c is _INF:
                return _INF, None
            if i == k - 1:
                return c, s
            hc, hs = go(i + 1, residual - t.weight(p))
            sc, ss = go(i + 1, residual)
            spill_total = sc + 2 * t.weight(p) if sc is not _INF else _INF
            if hc <= spill_total:
                if hc is _INF:
                    return _INF, None
                return c + hc, s + hs
            # Spill p after pebbling it; reload it once the rest is done.
            return (c + spill_total,
                    s + (M2(p), M4(p)) + ss + (M1(p),))

        return go(0, b)


def pebble_tree(cdag: CDAG, budget: Optional[int] = None,
                max_arity: int = DEFAULT_MAX_ARITY) -> Schedule:
    """Module-level convenience: optimal schedule for an in-tree."""
    return OptimalTreeScheduler(max_arity=max_arity).schedule(cdag, budget)


def tree_minimum_cost(cdag: CDAG, budget: Optional[int] = None,
                      max_arity: int = DEFAULT_MAX_ARITY) -> int:
    """Minimum weighted schedule cost for an in-tree (Eq. 7)."""
    return OptimalTreeScheduler(max_arity=max_arity).cost(cdag, budget)
