"""Dataflow-specific tiling for MVM graphs (paper Sec. 4.3).

The tiling scheduler builds the full-graph schedule from per-tile module
schedules with initial/reuse memory states: accumulators carried across a
tile's columns are the *reuse* state; vector elements kept across tiles are
the *initial* state of every later tile.  Two tile orientations cover the
strategy space the paper describes:

* **Height-major** (the paper's "width one, height h" winner): keep ``h``
  row accumulators resident and sweep all columns, optionally pinning the
  first ``v`` vector elements in fast memory for reuse across row-tile
  passes.  Matrix entries stream once; the non-pinned vector tail is
  re-read once per row-tile pass; every output is written exactly once.

      cost(h, v) = w_in·(m·n + v + (n−v)·⌈m/h⌉) + w_acc·m
      peak(h, v) = h·w_acc + v·w_in + [v<n]·w_in + max(w_in+w_acc, 2·w_acc)

* **Width-major**: pin a ``width``-column slice of the vector, run every
  row's partial sum across the slice, spilling/reloading accumulators at
  slice boundaries.  The vector and matrix stream once; accumulators cross
  the memory boundary ``2·(⌈n/width⌉−1)`` extra times each.

      cost(width) = w_in·(m·n + n) + w_acc·m·(2·⌈n/width⌉ − 1)
      peak(width) = width·w_in + w_acc + max(w_in+w_acc, 2·w_acc)

For a given budget the planner enumerates feasible parameters of both
orientations and picks the cheapest.  It is a closed form in
``(budget, w_in, w_acc)`` (:meth:`TilingMVMScheduler.plan_for_weights`);
the graph entry points read the graph's two class weights and ask it, so
no tiling question walks the graph once per budget.  The generator then
emits the explicit move sequence, which the simulator verifies against the
closed forms (the library's tests assert simulated cost == planned cost
and simulated peak == planned peak).

Setting ``h = m`` (all accumulators resident) or ``width = n`` (whole
vector resident) reaches the algorithmic lower bound; the minimum fast
memory size (Def. 2.6) is the smaller of the two peaks — accumulator-
priority when accumulators are cheap relative to ``m``, vector-priority
otherwise, exactly the trade-off of Sec. 4.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.bounds import min_feasible_budget, require_feasible
from ..core.cdag import CDAG
from ..core.exceptions import GraphStructureError, InfeasibleBudgetError
from ..core.moves import M1, M2, M3, M4, Move
from ..core.schedule import Schedule
from ..core.weights import class_weights
from ..graphs import mvm as mvm_mod
from .base import OptimalityContract, Scheduler

_INF = math.inf


@dataclass(frozen=True)
class TilePlan:
    """A chosen tiling strategy with its predicted cost and peak usage."""

    orientation: str  #: "height" or "width"
    height: int  #: resident accumulator rows (height-major) or 1
    pinned_vector: int  #: vector elements pinned across passes
    width: int  #: vector slice width (width-major) or n
    cost: int  #: predicted weighted I/O cost
    peak: int  #: predicted peak weighted red occupancy


class TilingMVMScheduler(Scheduler):
    """Tiled WRBPG schedules for ``MVM(m, n)`` graphs (Sec. 4.3)."""

    name = "Tiling"

    contract = OptimalityContract(
        accepts=("mvm",), optimal_on=(),
        notes="Sec. 4.3: cheapest of the two tile orientations — a strong "
              "upper bound, but optimality over all schedules is not "
              "claimed by the paper")

    def accepts(self, cdag: CDAG) -> bool:
        """Refine the family contract with the instance's (m, n) shape and
        the class-uniform weights the closed form is written in."""
        from .families import mvm_params
        return (mvm_params(cdag) == (self.m, self.n)
                and class_weights(cdag) is not None)

    def fallback_scheduler(self) -> "Scheduler":
        """Degrade to greedy (Prop. 2.3) for guarded probes."""
        from .greedy import GreedyTopologicalScheduler
        return GreedyTopologicalScheduler()

    def __init__(self, m: int, n: int):
        mvm_mod.validate_params(m, n)
        self.m = m
        self.n = n

    @classmethod
    def for_graph(cls, cdag: CDAG) -> "TilingMVMScheduler":
        """Infer (m, n) from an MVM CDAG built by :func:`mvm_graph`."""
        n = max(v[0] for v in cdag) - 1
        m = len(cdag.sinks)
        sched = cls(m, n)
        expected = sum(mvm_mod.layer_sizes(m, n))
        if len(cdag) != expected:
            raise GraphStructureError(
                f"{cdag.name!r} does not look like MVM({m},{n})")
        return sched

    # ------------------------------------------------------------------ #
    # Weight handling: the tiling model needs class-uniform weights.

    def _weights(self, cdag: CDAG) -> Tuple[int, int]:
        weights = class_weights(cdag)
        if weights is None:
            raise GraphStructureError(
                "tiling planner needs uniform input and compute weights")
        return weights

    # ------------------------------------------------------------------ #
    # The closed form over (budget, w_in, w_acc).

    def _transient(self, w_in: int, w_acc: int) -> int:
        """Worst extra occupancy beyond the resident partials while
        multiplying (matrix entry + product) or accumulating (product +
        fresh accumulator).  With a single column the product *is* the
        partial, so only the matrix-entry slot remains."""
        if self.n == 1:
            return w_in
        return max(w_in + w_acc, 2 * w_acc)

    def height_major_cost(self, h: int, v: int, w_in: int, w_acc: int) -> int:
        m, n = self.m, self.n
        passes = -(-m // h)
        return w_in * (m * n + v + (n - v) * passes) + w_acc * m

    def height_major_peak(self, h: int, v: int, w_in: int, w_acc: int) -> int:
        streamed_x = w_in if v < self.n else 0
        return h * w_acc + v * w_in + streamed_x + self._transient(w_in, w_acc)

    def width_major_cost(self, width: int, w_in: int, w_acc: int) -> int:
        m, n = self.m, self.n
        slices = -(-n // width)
        return w_in * (m * n + n) + w_acc * m * (2 * slices - 1)

    def width_major_peak(self, width: int, w_in: int, w_acc: int) -> int:
        return width * w_in + w_acc + self._transient(w_in, w_acc)

    def plan_for_weights(self, b: int, w_in: int, w_acc: int) -> TilePlan:
        """Cheapest feasible tiling under budget ``b`` when every input
        weighs ``w_in`` and every computed node ``w_acc``.  Costs
        O(#distinct tile heights), whatever the graph's size."""
        m, n = self.m, self.n
        best: Optional[TilePlan] = None

        # Height-major: h is only interesting at the distinct values of
        # ceil(m/h); v fills the leftover budget greedily (cost strictly
        # decreases with v at fixed h).
        for h in _distinct_heights(m):
            base = self.height_major_peak(h, 0, w_in, w_acc)
            if base > b:
                continue
            # Pin as much of the vector as fits (cost strictly decreases
            # with v at fixed h).  Pinning the whole vector frees the
            # streamed-element slot, so v = n fits one word earlier.
            v_cap = (b - base) // w_in
            if (v_cap >= n - 1
                    and self.height_major_peak(h, n, w_in, w_acc) <= b):
                v = n
            else:
                v = min(max(v_cap, 0), n - 1)
            cost = self.height_major_cost(h, v, w_in, w_acc)
            peak = self.height_major_peak(h, v, w_in, w_acc)
            cand = TilePlan("height", h, v, n, cost, peak)
            if best is None or cand.cost < best.cost:
                best = cand

        # Width-major: width is only interesting at distinct ceil(n/width).
        for width in _distinct_heights(n):
            peak = self.width_major_peak(width, w_in, w_acc)
            if peak > b:
                continue
            cost = self.width_major_cost(width, w_in, w_acc)
            cand = TilePlan("width", 1, 0, width, cost, peak)
            if best is None or cand.cost < best.cost:
                best = cand

        if best is None:
            raise InfeasibleBudgetError(
                f"budget {b} below the minimum tiling footprint for "
                f"MVM({m},{n})")
        return best

    def min_memory_for_weights(self, w_in: int, w_acc: int) -> int:
        """Smallest budget whose best tiling reaches the algorithmic lower
        bound (Def. 2.6): accumulator-priority vs vector-priority."""
        acc_priority = self.height_major_peak(self.m, 0, w_in, w_acc)
        vec_priority = self.width_major_peak(self.n, w_in, w_acc)
        return min(acc_priority, vec_priority)

    # ------------------------------------------------------------------ #
    # Graph entry points: read the class weights, then ask the closed form.

    def plan(self, cdag: CDAG, budget: Optional[int] = None) -> TilePlan:
        """Cheapest feasible tiling under ``budget``."""
        b = require_feasible(cdag, budget)
        return self.plan_for_weights(b, *self._weights(cdag))

    def cost(self, cdag: CDAG, budget: Optional[int] = None) -> int:
        return self.plan(cdag, budget).cost

    def cost_many(self, cdag: CDAG, budgets, *, memo=None):
        """Batched :meth:`cost`.

        The memo holds the graph's class weights, read once per graph,
        and Prop. 2.3's existence bound is cached on the graph itself;
        every budget is then one closed-form plan, with no pass over the
        graph."""
        state = memo if memo is not None else {}
        if state.get("graph") is not cdag:
            weights = self._weights(cdag)
            state.clear()
            state["graph"] = cdag
            state["weights"] = weights
        w_in, w_acc = state["weights"]
        need = min_feasible_budget(cdag)
        out = []
        for budget in budgets:
            b = cdag.budget if budget is None else budget
            if b is None or b < need:
                out.append(_INF)
                continue
            try:
                out.append(self.plan_for_weights(b, w_in, w_acc).cost)
            except InfeasibleBudgetError:
                out.append(_INF)
        return out

    def min_memory_for_lower_bound(self, cdag: CDAG) -> int:
        """:meth:`min_memory_for_weights` at the graph's class weights."""
        return self.min_memory_for_weights(*self._weights(cdag))

    # ------------------------------------------------------------------ #
    # Schedule generation.

    def schedule(self, cdag: CDAG, budget: Optional[int] = None) -> Schedule:
        plan = self.plan(cdag, budget)
        if plan.orientation == "height":
            moves = self._emit_height_major(plan.height, plan.pinned_vector)
        else:
            moves = self._emit_width_major(plan.width)
        return Schedule(moves)

    def _emit_height_major(self, h: int, v: int) -> List[Move]:
        m, n = self.m, self.n
        moves: List[Move] = []
        x = lambda c: mvm_mod.vector_node(m, c)
        a = lambda r, c: mvm_mod.matrix_node(m, r, c)
        prod = lambda r, c: mvm_mod.product_node(m, r, c)
        acc = lambda r, c: mvm_mod.accumulator_node(m, r, c)

        for c in range(1, v + 1):
            moves.append(M1(x(c)))
        for start in range(1, m + 1, h):
            rows = range(start, min(start + h - 1, m) + 1)
            for c in range(1, n + 1):
                if c > v:
                    moves.append(M1(x(c)))
                for r in rows:
                    moves.append(M1(a(r, c)))
                    moves.append(M3(prod(r, c)))
                    moves.append(M4(a(r, c)))
                    if c > 1:
                        moves.append(M3(acc(r, c)))
                        moves.append(M4(acc(r, c - 1)))
                        moves.append(M4(prod(r, c)))
                if c > v:
                    moves.append(M4(x(c)))
            for r in rows:
                out = mvm_mod.output_node(m, n, r)
                moves.append(M2(out))
                moves.append(M4(out))
        for c in range(1, v + 1):
            moves.append(M4(x(c)))
        return moves

    def _emit_width_major(self, width: int) -> List[Move]:
        m, n = self.m, self.n
        moves: List[Move] = []
        x = lambda c: mvm_mod.vector_node(m, c)
        a = lambda r, c: mvm_mod.matrix_node(m, r, c)
        prod = lambda r, c: mvm_mod.product_node(m, r, c)
        acc = lambda r, c: mvm_mod.accumulator_node(m, r, c)

        n_slices = -(-n // width)
        for s in range(n_slices):
            c_lo = s * width + 1
            c_hi = min((s + 1) * width, n)
            for c in range(c_lo, c_hi + 1):
                moves.append(M1(x(c)))
            for r in range(1, m + 1):
                if s > 0:
                    # Reload the partial sum spilled at the last boundary.
                    moves.append(M1(acc(r, c_lo - 1)))
                for c in range(c_lo, c_hi + 1):
                    moves.append(M1(a(r, c)))
                    moves.append(M3(prod(r, c)))
                    moves.append(M4(a(r, c)))
                    if c > 1:
                        moves.append(M3(acc(r, c)))
                        moves.append(M4(acc(r, c - 1)))
                        moves.append(M4(prod(r, c)))
                last = acc(r, c_hi)
                if c_hi == n:
                    moves.append(M2(last))
                    moves.append(M4(last))
                else:
                    # Spill the partial sum until the next slice.
                    moves.append(M2(last))
                    moves.append(M4(last))
            for c in range(c_lo, c_hi + 1):
                moves.append(M4(x(c)))
        return moves


def _distinct_heights(m: int) -> List[int]:
    """Minimal heights achieving each distinct value of ``ceil(m/h)``:
    enough to cover every cost level without an O(m) scan per budget."""
    out = set()
    h = 1
    while h <= m:
        passes = -(-m // h)
        # smallest h with this pass count:
        lo = -(-m // passes)
        out.add(lo)
        h = max(h, lo) + 1
    out.add(m)
    return sorted(out)
