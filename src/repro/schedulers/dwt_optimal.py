"""Optimal WRBPG scheduling for DWT graphs — Algorithm 1 of the paper.

The strategy (Sec. 3.1.2-3.1.3):

1. *Prune* (Lemma 3.2): drop every even-index coefficient node above the
   input layer.  Each weakly connected component of the pruned graph is a
   binary in-tree rooted at an odd-index output.  This requires coefficient
   weights not to exceed their sibling average's weight.  Every node the
   pruned graph keeps has the same parents and weight in the full graph,
   and its roots are the averages among the full graph's sinks, so the
   DPs below walk the input graph from those roots and never build the
   pruned copy (:func:`repro.graphs.dwt.prune` stays as the lemma's
   construction).
2. *Recursive DP* (Lemma 3.3 / Eq. 2): the minimum cost of pebbling the
   subtree rooted at ``v`` under residual budget ``b`` is the best of four
   strategies per internal node — which parent subtree to pebble first, and
   whether the first parent's result is *held red* (shrinking the second
   subtree's budget by ``w_p``) or *spilled blue* and reloaded (adding
   ``2·w_p`` of I/O):

   .. code-block:: text

      P(v,b) = min( P(p1,b) + P(p2,b)      + 2*w_p1,   # spill p1
                    P(p1,b) + P(p2,b-w_p1),            # hold  p1
                    P(p2,b) + P(p1,b)      + 2*w_p2,   # spill p2
                    P(p2,b) + P(p1,b-w_p2) )           # hold  p2

3. *Splice siblings* (Lemma 3.2): immediately before computing an average
   ``v``, its pruned coefficient sibling ``u`` (same parents) is computed,
   stored, and deleted — ``(M3(u), M2(u), M4(u))`` — at no extra cost beyond
   the mandatory output store ``w_u``.

``P(v, b)`` depends only on the weighted pruned in-tree above ``v``, and
the four-strategy minimum is symmetric in ``p1``/``p2``.  So the cost DP
interns each kept node, in topological order, as its *shape*: its weight
and the sorted pair of its parents' shape ids.  The table is keyed
``(shape id, residual budget)`` and the roots are summed by shape with
their multiplicity: O(#distinct weighted shapes · #distinct residual
budgets) entries instead of Thm. 3.5's O(|V| · budgets), and ``d+1``
shapes for ``DWT(n, d)`` under the paper's Equal and Double Accumulator
weights.  The schedule DP (PebbleTree) stays keyed by node, because its
moves name nodes.

The generated schedules replay cleanly through the strict simulator and are
certified optimal against the exhaustive solver on small instances (see
tests).  Runtime is polynomial (Thm. 3.5).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Optional, Tuple

from ..core.bounds import min_feasible_budget, require_feasible
from ..core.cdag import CDAG
from ..core.exceptions import GraphStructureError, InfeasibleBudgetError
from ..core.governor import current_token
from ..core.moves import M1, M2, M3, M4
from ..core.schedule import Schedule
from ..graphs import dwt as dwt_mod
from .base import OptimalityContract, Scheduler

_INF = math.inf


class OptimalDWTScheduler(Scheduler):
    """Minimum-weight WRBPG schedules for ``DWT(n, d)`` graphs (Alg. 1)."""

    name = "Optimum"

    contract = OptimalityContract(
        accepts=("dwt",), optimal_on=("dwt",),
        notes="Thm. 3.5: Alg. 1 is optimal on DWT graphs with prunable "
              "weights")

    def fallback_scheduler(self) -> Scheduler:
        """Degrade to greedy (Prop. 2.3): valid on every DWT instance, so
        a timed-out or quarantined probe still gets an upper bound."""
        from .greedy import GreedyTopologicalScheduler
        return GreedyTopologicalScheduler()

    # ------------------------------------------------------------------ #
    # Public interface

    def schedule(self, cdag: CDAG, budget: Optional[int] = None) -> Schedule:
        """PebbleDWT (Alg. 1): optimal schedule for the full graph."""
        b = require_feasible(cdag, budget)
        dwt_mod.check_prunable_weights(cdag)
        memo: Dict[Tuple, Tuple] = {}
        moves = []
        # Iterate the odd-index outputs (= roots of the pruned graph) in
        # index order, pebbling each independent tree sequentially.
        for root in sorted(dwt_mod.pruned_roots(cdag)):
            cost, tree_moves = self._pebble_tree(cdag, root, b, memo)
            if cost is _INF or tree_moves is None:
                raise InfeasibleBudgetError(
                    f"budget {b} infeasible for tree rooted at {root}")
            moves.extend(tree_moves)
            moves.append(M2(root))
            moves.append(M4(root))
        return Schedule(moves)

    def cost(self, cdag: CDAG, budget: Optional[int] = None) -> int:
        """Minimum weighted schedule cost via Lemma 3.4 (cost-only DP —
        no schedule materialization; used by sweeps and min-memory search):
        :meth:`cost_many` at one budget on a fresh memo."""
        b = require_feasible(cdag, budget)
        total = self.cost_many(cdag, (b,))[0]
        if total is _INF:
            raise InfeasibleBudgetError(
                f"budget {b} infeasible for {cdag.name}")
        return total

    def cost_many(self, cdag: CDAG, budgets, *, memo=None):
        """Batched :meth:`cost` sharing one DP table across all budgets.

        The Eq. 2 table is keyed ``(shape id, residual budget)`` and
        independent of the query budget, so probes from a budget grid and
        a binary search can all reuse each other's subproblems, and
        isomorphic weighted subtrees share them too.  Passing the same
        ``memo`` mapping again extends the reuse across calls.  Besides
        the DP table it keeps the graph, the interned shapes (a list),
        the pruned trees' roots as (shape id, multiplicity) pairs and the
        pruned coefficients' store weight: no copy of the graph and no
        node in a key.
        """
        state = memo if memo is not None else {}
        if state.get("graph") is not cdag:
            dwt_mod.check_prunable_weights(cdag)
            state.clear()
            state["graph"] = cdag
            state["shapes"], state["roots"] = self._intern_shapes(cdag)
            state["pruned_store"] = sum(
                cdag.weight(u) for u in dwt_mod.pruned_nodes(cdag))
            state["dp"] = {}
        shapes, roots, dp = state["shapes"], state["roots"], state["dp"]
        need = min_feasible_budget(cdag)
        out = []
        for budget in budgets:
            b = cdag.budget if budget is None else budget
            if b is None or b < need:
                out.append(_INF)
                continue
            total = state["pruned_store"]
            for shape, count in roots:
                c = self._shape_cost(shapes, shape, b, dp)
                if c is _INF:
                    total = _INF
                    break
                total += count * (c + shapes[shape][0])  # + output stores
            out.append(total if total is _INF else int(total))
        return out

    # ------------------------------------------------------------------ #
    # Cost-only DP (Eq. 2) over weighted subtree shapes, read from the
    # input graph, where a kept node has the same parents and weight.

    @staticmethod
    def _intern_shapes(cdag: CDAG):
        """Shape ids of the nodes Lemma 3.2 keeps, in topological order.

        Returns ``(shapes, roots)``: ``shapes[s]`` is ``(weight,)`` for a
        leaf and ``(weight, s1, s2)`` with ``s1 <= s2`` for an inner node,
        and ``roots`` pairs each root shape with how many roots have it."""
        index: dict = {}
        shapes = []
        shape_of = {}
        for v in cdag.topological_order():
            if dwt_mod.is_coefficient(v):
                continue
            key = (cdag.weight(v),) + tuple(
                sorted(shape_of[p] for p in cdag.predecessors(v)))
            s = index.get(key)
            if s is None:
                s = index[key] = len(shapes)
                shapes.append(key)
            shape_of[v] = s
        roots = Counter(shape_of[r] for r in dwt_mod.pruned_roots(cdag))
        return shapes, tuple(roots.items())

    @staticmethod
    def _shape_cost(shapes, s: int, b: int, dp) -> float:
        # Explicit-stack post-order evaluation: deep trees (e.g. long
        # chains after degenerate pruning) must not hit Python's recursion
        # limit.  A frame stays on the stack until its four subproblems
        # are memoized, then combines them.
        root_key = (s, b)
        if root_key in dp:
            return dp[root_key]
        token = current_token()
        stack = [root_key]
        while stack:
            if token is not None:
                token.raise_if_cancelled("DWT cost DP")
            key = stack[-1]
            if key in dp:
                stack.pop()
                continue
            shape, bud = key
            if len(shapes[shape]) == 1:  # a leaf: load it
                dp[key] = shapes[shape][0]
                stack.pop()
                continue
            w, s1, s2 = shapes[shape]
            w1, w2 = shapes[s1][0], shapes[s2][0]
            if w + w1 + w2 > bud:
                dp[key] = _INF
                stack.pop()
                continue
            child_keys = ((s1, bud), (s2, bud), (s2, bud - w1), (s1, bud - w2))
            missing = [ck for ck in child_keys if ck not in dp]
            if missing:
                stack.extend(missing)
                continue
            c1b, c2b = dp[(s1, bud)], dp[(s2, bud)]
            dp[key] = min(
                c1b + c2b + 2 * w1,              # spill p1
                c1b + dp[(s2, bud - w1)],        # hold  p1
                c2b + c1b + 2 * w2,              # spill p2
                c2b + dp[(s1, bud - w2)],        # hold  p2
            )
            stack.pop()
        return dp[root_key]

    # ------------------------------------------------------------------ #
    # Schedule-producing DP (PebbleTree of Alg. 1).
    #
    # Invariant: the returned move sequence starts from blue pebbles on the
    # leaves, never holds more than ``b`` of red weight *within this
    # subtree*, and ends with a red pebble on ``v`` and nothing else red.
    # Pruned siblings of every average in the subtree are computed, stored,
    # and deleted along the way (their M2 cost is included in the returned
    # cost, a constant offset identical across the four strategies).

    def _pebble_tree(self, cdag: CDAG, v, b: int, memo):
        # Same explicit-stack shape as _shape_cost: deep pruned trees must
        # not recurse.  Frames wait for their four subschedules, then pick
        # the cheapest of the four Lemma 3.3 strategies.
        root_key = (v, b)
        if root_key in memo:
            return memo[root_key]
        token = current_token()
        stack = [root_key]
        while stack:
            if token is not None:
                token.raise_if_cancelled("DWT pebble-tree DP")
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            node, bud = key
            parents = cdag.predecessors(node)
            if not parents:
                memo[key] = (cdag.weight(node), (M1(node),))
                stack.pop()
                continue
            p1, p2 = parents
            w1, w2 = cdag.weight(p1), cdag.weight(p2)
            sib = dwt_mod.sibling(node)
            has_sib = sib in cdag
            wu = cdag.weight(sib) if has_sib else 0
            if max(cdag.weight(node), wu) + w1 + w2 > bud:
                memo[key] = (_INF, None)
                stack.pop()
                continue
            child_keys = ((p1, bud), (p2, bud), (p2, bud - w1), (p1, bud - w2))
            missing = [ck for ck in child_keys if ck not in memo]
            if missing:
                stack.extend(missing)
                continue
            memo[key] = self._combine_tree(
                p1, p2, w1, w2, bud, sib if has_sib else None, wu, node, memo)
            stack.pop()
        return memo[root_key]

    @staticmethod
    def _combine_tree(p1, p2, w1, w2, b, sib, wu, v, memo):
        """Pick the cheapest of the four Lemma 3.3 strategies for ``v``
        from its memoized subschedules."""
        # C: compute the pruned sibling (store + delete), compute v, then
        # release the parents.
        tail = ((M3(sib), M2(sib), M4(sib)) if sib is not None else ())
        tail = tail + (M3(v), M4(p1), M4(p2))
        tail_cost = wu

        c1b, s1b = memo[(p1, b)]
        c2b, s2b = memo[(p2, b)]
        c2r, s2r = memo[(p2, b - w1)]
        c1r, s1r = memo[(p1, b - w2)]

        candidates = []
        if c1b is not _INF and c2b is not _INF:
            # Spill p1: pebble p1, park it blue, pebble p2 at full budget,
            # reload p1.
            candidates.append((
                c1b + c2b + 2 * w1,
                lambda: s1b + (M2(p1), M4(p1)) + s2b + (M1(p1),) + tail))
            # Spill p2 (symmetric).
            candidates.append((
                c2b + c1b + 2 * w2,
                lambda: s2b + (M2(p2), M4(p2)) + s1b + (M1(p2),) + tail))
        if c1b is not _INF and c2r is not _INF:
            # Hold p1 red while pebbling p2 under the reduced budget.
            candidates.append((c1b + c2r, lambda: s1b + s2r + tail))
        if c2b is not _INF and c1r is not _INF:
            # Hold p2 red while pebbling p1 under the reduced budget.
            candidates.append((c2b + c1r, lambda: s2b + s1r + tail))

        if not candidates:
            return (_INF, None)
        best_cost, builder = min(candidates, key=lambda cs: cs[0])
        return (best_cost + tail_cost, builder())


def pebble_dwt(cdag: CDAG, budget: Optional[int] = None) -> Schedule:
    """Module-level convenience: Algorithm 1 on ``cdag``."""
    return OptimalDWTScheduler().schedule(cdag, budget)


def dwt_minimum_cost(cdag: CDAG, budget: Optional[int] = None) -> int:
    """Minimum weighted schedule cost of a DWT graph (Lemma 3.4)."""
    return OptimalDWTScheduler().cost(cdag, budget)
