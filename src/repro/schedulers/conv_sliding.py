"""Sliding-window scheduling for FIR filter graphs.

The convolution analogue of the banded-MVM scheduler: the ``t`` filter
taps are reused by *every* output (pin them), and each signal sample feeds
``t`` consecutive outputs (slide a ``t``-sample window).  Streaming outputs
in order then loads every input exactly once and stores every output
exactly once — the algorithmic lower bound — with a footprint independent
of the signal length:

    peak = t·w_tap + t·w_sample + transient

This is the schedule a DSP engineer writes by hand; here it is derived,
validated against the strict simulator, and compared against the general
eviction heuristics in the benchmarks.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.bounds import algorithmic_lower_bound, require_feasible
from ..core.cdag import CDAG
from ..core.exceptions import GraphStructureError, InfeasibleBudgetError
from ..core.moves import M1, M2, M3, M4, Move
from ..core.schedule import Schedule
from ..core.weights import class_weights
from ..graphs import conv as conv_mod
from .base import OptimalityContract, Scheduler


class SlidingWindowConvScheduler(Scheduler):
    """Tap-stationary, sample-sliding schedules for ``conv_graph(n, t)``."""

    name = "Sliding-Window (FIR)"

    contract = OptimalityContract(
        accepts=("conv",), optimal_on=(),
        notes="Meets the Prop. 2.4 lower bound whenever its fixed window "
              "fits; budgets below its footprint are declared infeasible")

    def accepts(self, cdag: CDAG) -> bool:
        """Refine the family contract with the instance's shape and the
        class-uniform weights its footprint is written in."""
        from .families import conv_params
        return (conv_params(cdag) == (self.n, self.taps)
                and class_weights(cdag) is not None)

    def fallback_scheduler(self) -> Scheduler:
        """Degrade to greedy (Prop. 2.3) for guarded probes."""
        from .greedy import GreedyTopologicalScheduler
        return GreedyTopologicalScheduler()

    def __init__(self, n: int, taps: int):
        conv_mod.validate_params(n, taps)
        self.n = n
        self.taps = taps

    # ------------------------------------------------------------------ #

    def peak(self, cdag: CDAG) -> int:
        """Closed-form footprint of the sliding-window schedule."""
        weights = class_weights(cdag)
        if weights is None:
            raise GraphStructureError(
                "sliding-window scheduler needs uniform class weights")
        w_in, w_acc = weights
        t = self.taps
        if t == 1:
            # tap + sample + product
            return 2 * w_in + w_acc
        # t taps + t-sample window + (old partial, product, new partial)
        return 2 * t * w_in + 3 * w_acc

    def cost(self, cdag: CDAG, budget: Optional[int] = None) -> int:
        b = require_feasible(cdag, budget)
        if self.peak(cdag) > b:
            raise InfeasibleBudgetError(
                f"budget {b} below the sliding window footprint "
                f"{self.peak(cdag)}")
        return algorithmic_lower_bound(cdag)

    def schedule(self, cdag: CDAG, budget: Optional[int] = None) -> Schedule:
        b = require_feasible(cdag, budget)
        if self.peak(cdag) > b:
            raise InfeasibleBudgetError(
                f"budget {b} below the sliding window footprint "
                f"{self.peak(cdag)}")
        n, t = self.n, self.taps
        tap = lambda j: conv_mod.tap_node(t, j)
        x = lambda c: conv_mod.sample_node(t, c)
        prod = lambda i, j: conv_mod.product_node(t, i, j)
        part = lambda i, j: conv_mod.partial_node(t, i, j)

        moves: List[Move] = []
        for j in range(1, t + 1):
            moves.append(M1(tap(j)))
        resident: set = set()
        m_out = conv_mod.n_outputs(n, t)
        for i in range(1, m_out + 1):
            for j in range(1, t + 1):
                c = i + j - 1
                if c not in resident:
                    moves.append(M1(x(c)))
                    resident.add(c)
                moves.append(M3(prod(i, j)))
                if j >= 2:
                    moves.append(M3(part(i, j)))
                    moves.append(M4(part(i, j - 1)))
                    moves.append(M4(prod(i, j)))
            out = part(i, t)
            moves.append(M2(out))
            moves.append(M4(out))
            # sample x_i will never be used again (outputs stream forward)
            moves.append(M4(x(i)))
            resident.discard(i)
        for c in sorted(resident):
            moves.append(M4(x(c)))
        for j in range(1, t + 1):
            moves.append(M4(tap(j)))
        return Schedule(moves)
