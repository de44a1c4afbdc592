"""Sliding-window scheduling for banded (structured-sparse) MVM.

Sec. 4's data-reuse framework "extends to dense and structured sparse
tensor multiplication"; this module realizes that claim for the banded
matrices of :func:`repro.graphs.mvm.banded_mvm_graph`.

The banded product has a sliding reuse pattern: row ``r`` touches vector
elements ``r-bw .. r+bw``, so consecutive rows share all but one of them.
The scheduler streams rows in order, keeping a *sliding window* of vector
elements resident — loading each ``x_c`` exactly once (when it enters the
window) and deleting it when no later row needs it.  Matrix entries stream
once and every output is stored exactly once, so the schedule meets the
algorithmic lower bound (Prop. 2.4) with only

    peak = (2·bw + 1)·w_in + w_in + transient

of fast memory — constant in ``m`` and ``n`` for fixed bandwidth, the
structured-sparse payoff.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.bounds import require_feasible
from ..core.cdag import CDAG
from ..core.exceptions import GraphStructureError, InfeasibleBudgetError
from ..core.moves import M1, M2, M3, M4, Move
from ..core.schedule import Schedule
from ..core.weights import class_weights
from ..graphs import mvm as mvm_mod
from .base import OptimalityContract, Scheduler


class BandedMVMScheduler(Scheduler):
    """Sliding-window schedules for ``banded_mvm_graph(m, n, bw)``."""

    name = "Sliding-Window (banded)"

    contract = OptimalityContract(
        accepts=("banded-mvm",), optimal_on=(),
        notes="Meets the Prop. 2.4 lower bound whenever its fixed window "
              "fits, but declares budgets below that infeasible, so "
              "optimality over all budgets is not claimed")

    def accepts(self, cdag: CDAG) -> bool:
        """Refine the family contract with the instance's shape and the
        class-uniform weights its footprint is written in."""
        from .families import banded_mvm_params
        return (banded_mvm_params(cdag) == (self.m, self.n, self.bandwidth)
                and class_weights(cdag) is not None)

    def fallback_scheduler(self) -> Scheduler:
        """Degrade to greedy (Prop. 2.3) for guarded probes."""
        from .greedy import GreedyTopologicalScheduler
        return GreedyTopologicalScheduler()

    def __init__(self, m: int, n: int, bandwidth: int):
        mvm_mod.validate_params(m, n)
        if bandwidth < 0:
            raise GraphStructureError(f"bandwidth must be >= 0: {bandwidth}")
        self.m = m
        self.n = n
        self.bandwidth = bandwidth

    # ------------------------------------------------------------------ #

    def peak(self, cdag: CDAG) -> int:
        """Closed-form peak occupancy of the sliding-window schedule."""
        weights = class_weights(cdag)
        if weights is None:
            raise GraphStructureError(
                "banded scheduler needs uniform input and compute weights")
        w_in, w_acc = weights
        window = min(2 * self.bandwidth + 1, self.n)
        if self._max_row_len() > 1:
            # running partial + (matrix entry + product | product + new acc)
            transient = w_acc + max(w_in + w_acc, 2 * w_acc)
        else:
            transient = w_in + w_acc  # matrix entry + the lone product
        return window * w_in + transient

    def _max_row_len(self) -> int:
        return max(len(mvm_mod.banded_columns(self.m, self.n, self.bandwidth,
                                              r))
                   for r in range(1, self.m + 1))

    def cost(self, cdag: CDAG, budget: Optional[int] = None) -> int:
        """Sliding-window I/O equals the algorithmic lower bound."""
        b = require_feasible(cdag, budget)
        if self.peak(cdag) > b:
            raise InfeasibleBudgetError(
                f"budget {b} below the sliding window footprint "
                f"{self.peak(cdag)}")
        from ..core.bounds import algorithmic_lower_bound
        return algorithmic_lower_bound(cdag)

    def schedule(self, cdag: CDAG, budget: Optional[int] = None) -> Schedule:
        b = require_feasible(cdag, budget)
        if self.peak(cdag) > b:
            raise InfeasibleBudgetError(
                f"budget {b} below the sliding window footprint "
                f"{self.peak(cdag)}")
        m, n, bw = self.m, self.n, self.bandwidth
        x = lambda c: mvm_mod.vector_node(m, c)
        a = lambda r, c: mvm_mod.matrix_node(m, r, c)
        prod = lambda r, c: mvm_mod.product_node(m, r, c)

        # last row that uses column c: r = c + bw (clamped).
        def last_user(c: int) -> int:
            return min(m, c + bw)

        moves: List[Move] = []
        resident: set = set()
        for r in range(1, m + 1):
            cols = mvm_mod.banded_columns(m, n, bw, r)
            partial = None
            for c in cols:
                if c not in resident:
                    moves.append(M1(x(c)))
                    resident.add(c)
                moves.append(M1(a(r, c)))
                moves.append(M3(prod(r, c)))
                moves.append(M4(a(r, c)))
                if partial is None:
                    partial = prod(r, c)
                else:
                    acc = (c + 1, r)
                    moves.append(M3(acc))
                    moves.append(M4(partial))
                    moves.append(M4(prod(r, c)))
                    partial = acc
            moves.append(M2(partial))
            moves.append(M4(partial))
            # Retire vector elements no later row will touch.
            for c in list(resident):
                if last_user(c) <= r:
                    moves.append(M4(x(c)))
                    resident.discard(c)
        for c in sorted(resident):
            moves.append(M4(x(c)))
        return Schedule(moves)
