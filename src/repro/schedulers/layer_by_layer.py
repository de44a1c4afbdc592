"""Layer-by-layer baseline scheduler (paper Sec. 5.1).

The DWT comparison baseline: traverse the graph layers ``S_2 .. S_{d+1}``
in order, scheduling nodes within a layer by index — alternating ascending
and descending direction per layer to retain recently computed values across
adjacent layers.  Parents are loaded on demand.  When the fast memory budget
is exceeded, red-pebbled nodes not yet fully used by their children are
spilled to slow memory in FIFO order (by placement time).  A node with no
remaining children has its red pebble deleted, or — for output nodes — is
first moved to slow memory.

The paper leaves the *timing* of the consumed-pebble cleanup implicit; its
measured minimum memory sizes for DWT(256, 8) (445 / 636 words) match a
variant that releases consumed pebbles one layer late.  Both variants are
provided:

* ``retention="eager"`` — delete a pebble the moment its last child is
  computed (the most literal reading of the text).
* ``retention="deferred"`` (default) — release pebbles consumed during
  layer ``L`` only when layer ``L+1`` completes.  This reproduces the
  paper's measured minimum-memory constants (Table 1) to within ~1%.

Either way the spiller prefers free victims (already-blue or consumed
nodes, deleted without I/O) before paying to spill a live value, so the
baseline's I/O curve degrades gracefully as the budget shrinks.

The policy lives in one private spill walk, :meth:`_walk`, which
:meth:`schedule` and :meth:`cost_many` both run.  The walk sums the
weights of its M1/M2 moves (Def. 2.2) and builds
:class:`~repro.core.moves.Move` objects only for :meth:`schedule`, so a
sweep probe builds no schedule.  :meth:`cost` still goes through
:meth:`schedule`, so the audit's ``cost_many``-versus-``cost`` check
compares the two.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

from ..core.bounds import min_feasible_budget, require_feasible
from ..core.cdag import CDAG, Node
from ..core.exceptions import GraphStructureError, InfeasibleBudgetError
from ..core.moves import M1, M2, M3, M4, Move
from ..core.schedule import Schedule
from .base import OptimalityContract, Scheduler

RETENTION_MODES = ("eager", "deferred")


class LayerByLayerScheduler(Scheduler):
    """FIFO-spilling layer traversal for layered CDAGs.

    Works on any CDAG whose nodes are ``(layer, index)`` tuples with layer-1
    sources and edges that never skip backwards (DWT and MVM graphs qualify).
    """

    name = "Layer-by-Layer"

    contract = OptimalityContract(
        accepts=("layered",), optimal_on=(),
        notes="Sec. 5.1 baseline: FIFO spilling over layers, an upper "
              "bound only")

    def __init__(self, retention: str = "deferred"):
        if retention not in RETENTION_MODES:
            raise ValueError(f"retention must be one of {RETENTION_MODES}")
        self.retention = retention

    def fallback_scheduler(self) -> Scheduler:
        """Degrade to greedy (Prop. 2.3): the spill simulation is linear
        in moves and runs to completion under a deadline, but a probe
        whose audit fails still needs a cheaper upper bound that accepts
        any CDAG."""
        from .greedy import GreedyTopologicalScheduler
        return GreedyTopologicalScheduler()

    # ------------------------------------------------------------------ #

    def schedule(self, cdag: CDAG, budget: Optional[int] = None) -> Schedule:
        b = require_feasible(cdag, budget)
        moves: List[Move] = []
        self._walk(cdag, _passes(cdag), b, moves)
        return Schedule(moves)

    def cost_many(self, cdag: CDAG, budgets, *, memo=None):
        """Batched :meth:`cost`: one spill walk per budget, counting I/O
        without building moves.

        The memo keeps the graph's pass order, so later probes on the
        same graph skip the layer sort.  Budgets below Prop. 2.3's bound
        (cached on the graph) answer ``math.inf`` without a walk, before
        the graph's naming is checked, as :meth:`schedule` orders the
        two errors.
        """
        state = memo if memo is not None else {}
        need = min_feasible_budget(cdag)
        out: List[float] = []
        for budget in budgets:
            b = cdag.budget if budget is None else budget
            if b is None or b < need:
                out.append(math.inf)
                continue
            if state.get("graph") is not cdag:
                passes = _passes(cdag)
                state.clear()
                state["graph"] = cdag
                state["passes"] = passes
            try:
                out.append(self._walk(cdag, state["passes"], b))
            except InfeasibleBudgetError:
                out.append(math.inf)
        return out

    def _walk(self, cdag: CDAG, passes: tuple, b: int,
              moves: Optional[List[Move]] = None) -> int:
        """Play the FIFO-spill traversal over ``passes`` at budget ``b``.

        Returns the weighted I/O of the schedule (Def. 2.2), summed in
        move order, and appends the moves to ``moves`` when one is given.
        Raises :class:`InfeasibleBudgetError` when pinned nodes alone
        overflow ``b`` or a needed value was never computed.
        """
        weight = cdag.weights
        emit = moves.append if moves is not None else None
        eager = self.retention == "eager"
        cost = 0
        remaining: Dict[Node, int] = {v: cdag.out_degree(v) for v in cdag}
        # Red set as insertion-ordered dict => FIFO by placement time.
        red: Dict[Node, None] = {}
        blue: Set[Node] = set(cdag.sources)
        red_weight = 0
        sinks = set(cdag.sinks)
        # Nodes fully consumed, awaiting deferred release: (node, pass#).
        pending_release: List[tuple] = []

        def load(v: Node) -> None:
            nonlocal cost, red_weight
            cost += weight[v]
            if emit:
                emit(M1(v))
            red[v] = None
            red_weight += weight[v]

        def store(v: Node) -> None:
            nonlocal cost
            cost += weight[v]
            if emit:
                emit(M2(v))

        def delete(v: Node) -> None:
            nonlocal red_weight
            if emit:
                emit(M4(v))
            del red[v]
            red_weight -= weight[v]

        def release(v: Node) -> None:
            """Free a consumed (or output) pebble without losing data."""
            if v in sinks and v not in blue:
                store(v)
                blue.add(v)
            delete(v)

        def make_room(extra: int, pinned: Set[Node]) -> None:
            """Evict until ``extra`` more weight fits.

            ``eager`` prefers free victims (blue-backed or consumed nodes,
            deleted without I/O) before paying to spill a live value.
            ``deferred`` mirrors a write-back implementation that does not
            consult liveness at spill time: every FIFO victim is stored to
            slow memory and deleted, dead or alive — the behaviour implied
            by the paper's measured minimum memory sizes.
            """
            if red_weight + extra <= b:
                return
            if eager:
                # Pass 1: free victims (no I/O beyond mandatory stores).
                for v in list(red):
                    if red_weight + extra <= b:
                        return
                    if v in pinned:
                        continue
                    if remaining[v] == 0 or v in blue:
                        release(v)
            # FIFO spill (write-back) of remaining victims.
            for v in list(red):
                if red_weight + extra <= b:
                    return
                if v in pinned:
                    continue
                if v not in blue:
                    store(v)
                    blue.add(v)
                elif not eager:
                    # Redundant write-back: the value is already in slow
                    # memory, but the implementation stores it anyway.
                    store(v)
                delete(v)
            if red_weight + extra > b:
                raise InfeasibleBudgetError(
                    f"budget {b} too small for layer-by-layer on "
                    f"{cdag.name!r} (needs {red_weight + extra} with pinned "
                    f"nodes only)")

        for pass_no, nodes in enumerate(passes, start=1):
            for v in nodes:
                parents = cdag.predecessors(v)
                pinned = set(parents) | {v}
                for p in parents:
                    if p not in red:
                        if p not in blue:
                            raise InfeasibleBudgetError(
                                f"value of {p} lost before computing {v}")
                        make_room(weight[p], pinned)
                        load(p)
                make_room(weight[v], pinned)
                if emit:
                    emit(M3(v))
                red[v] = None
                red_weight += weight[v]
                for p in parents:
                    remaining[p] -= 1
                    if remaining[p] == 0 and p in red:
                        if eager:
                            release(p)
                        else:
                            pending_release.append((p, pass_no))
                if v in sinks:
                    # Outputs are stored and released immediately.
                    release(v)
            if not eager:
                # Release pebbles consumed during *earlier* passes only;
                # values consumed this pass survive one more layer.
                keep: List[tuple] = []
                for u, consumed_pass in pending_release:
                    if consumed_pass < pass_no and u in red:
                        release(u)
                    elif u in red:
                        keep.append((u, consumed_pass))
                pending_release = keep

        # Final cleanup: drop any leftover red pebbles.
        for v in list(red):
            release(v)
        return cost


def _passes(cdag: CDAG) -> tuple:
    """The walk's visit order: every layer after the first, in layer
    order, its nodes by index, ascending and descending in turn."""
    layers = _layers(cdag)
    passes = []
    for i, layer in enumerate(sorted(layers)[1:]):
        nodes = sorted(layers[layer])
        passes.append(tuple(nodes if i % 2 == 0 else reversed(nodes)))
    return tuple(passes)


def _layers(cdag: CDAG) -> Dict[int, List[Node]]:
    layers: Dict[int, List[Node]] = {}
    for v in cdag:
        if not (isinstance(v, tuple) and len(v) == 2
                and isinstance(v[0], int)):
            raise GraphStructureError(
                "layer-by-layer needs (layer, index) node naming")
        layers.setdefault(v[0], []).append(v)
    return layers
