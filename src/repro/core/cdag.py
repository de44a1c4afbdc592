"""Node-weighted computational DAGs (CDAGs), the board of the WRBPG.

A CDAG ``G = (V, E, w, B)`` (paper Sec. 2.1) has

* nodes ``V`` (any hashable objects; the graph builders in
  :mod:`repro.graphs` use ``(layer, index)`` tuples),
* directed edges ``E`` pointing from an operation's operands to the
  operation,
* positive node weights ``w_v`` (here: integers, interpreted as bits), and
* a weighted red-pebble budget ``B``.

Source nodes (in-degree 0) are the inputs ``A(G)``; sink nodes (out-degree 0)
are the outputs ``Z(G)``.  The paper assumes ``A(G) ∩ Z(G) = ∅``; the
constructor enforces this for every graph with at least one edge.  Degenerate
edge-free graphs (isolated weighted nodes — pure load/store workloads) are
permitted so bounds and memory-state replays stay well-defined on them.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Hashable, Iterable, Iterator,
                    Mapping, Sequence, Tuple)

from .exceptions import GraphStructureError

if TYPE_CHECKING:  # networkx loads only when a graph is converted
    import networkx as nx

Node = Hashable


class CDAG:
    """An immutable node-weighted computational DAG with a pebble budget.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` pairs meaning *u is an operand of v*.
    weights:
        Mapping from node to positive weight.  Every node that appears in
        ``edges`` (or in ``nodes``) must have a weight.
    budget:
        The weighted red-pebble budget ``B``; may be ``None`` for graphs
        whose budget is supplied later via :meth:`with_budget`.
    nodes:
        Optional extra nodes (lets callers add isolated nodes; the WRBPG
        itself has no use for isolated nodes, so they are rejected unless
        they carry a weight and the graph is otherwise empty).
    name:
        Optional human-readable identifier (used in reports).
    """

    __slots__ = ("_preds", "_succs", "_weights", "_budget", "name",
                 "_sources", "_sinks", "_topo", "_min_budget")

    def __init__(
        self,
        edges: Iterable[Tuple[Node, Node]],
        weights: Mapping[Node, int],
        budget: int | None = None,
        nodes: Iterable[Node] = (),
        name: str = "cdag",
    ) -> None:
        preds: Dict[Node, tuple] = {}
        succs: Dict[Node, tuple] = {}
        pred_lists: Dict[Node, list] = {}
        succ_lists: Dict[Node, list] = {}
        for node in nodes:
            pred_lists.setdefault(node, [])
            succ_lists.setdefault(node, [])
        for u, v in edges:
            if u == v:
                raise GraphStructureError(f"self-loop on node {u!r}")
            pred_lists.setdefault(u, [])
            succ_lists.setdefault(u, []).append(v)
            pred_lists.setdefault(v, []).append(u)
            succ_lists.setdefault(v, [])
        for node, plist in pred_lists.items():
            if len(set(plist)) != len(plist):
                raise GraphStructureError(f"parallel edges into node {node!r}")
            preds[node] = tuple(plist)
            succs[node] = tuple(succ_lists[node])

        for node in preds:
            w = weights.get(node)
            if w is None:
                raise GraphStructureError(f"node {node!r} has no weight")
            if not w > 0:
                raise GraphStructureError(
                    f"node {node!r} has non-positive weight {w!r}")
        self._preds = preds
        self._succs = succs
        self._weights = {node: weights[node] for node in preds}
        if budget is not None and not budget > 0:
            raise GraphStructureError(f"budget must be positive, got {budget!r}")
        self._budget = budget
        self.name = name

        self._topo = self._toposort()
        # Prop. 2.3's bound, filled in by core.bounds.min_feasible_budget
        # on first use: it depends on the edges and weights only.
        self._min_budget = None
        self._sources = tuple(v for v in self._topo if not preds[v])
        self._sinks = tuple(v for v in self._topo if not succs[v])
        overlap = set(self._sources) & set(self._sinks)
        if overlap and any(preds.values()):
            # Isolated nodes are only meaningful in a degenerate edge-free
            # graph (a pure load/store workload); mixed with real compute
            # nodes they violate the paper's A(G) ∩ Z(G) = ∅ assumption.
            raise GraphStructureError(
                f"sources and sinks overlap (isolated nodes?): {sorted(map(repr, overlap))[:4]}")

    # ------------------------------------------------------------------ #
    # Construction helpers

    def _toposort(self) -> tuple:
        indeg = {v: len(ps) for v, ps in self._preds.items()}
        ready = [v for v, d in indeg.items() if d == 0]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for s in self._succs[v]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != len(self._preds):
            raise GraphStructureError("graph contains a cycle")
        return tuple(order)

    @classmethod
    def from_networkx(cls, graph: nx.DiGraph, budget: int | None = None,
                      weight_attr: str = "weight", name: str = "cdag") -> "CDAG":
        """Build a CDAG from a :class:`networkx.DiGraph` with node weights."""
        weights = {v: data.get(weight_attr, 1) for v, data in graph.nodes(data=True)}
        return cls(graph.edges(), weights, budget=budget, nodes=graph.nodes(), name=name)

    def to_networkx(self) -> nx.DiGraph:
        """Export to a :class:`networkx.DiGraph` (weights as node attrs)."""
        import networkx as nx
        g = nx.DiGraph(name=self.name)
        for v, w in self._weights.items():
            g.add_node(v, weight=w)
        for v, ps in self._preds.items():
            for p in ps:
                g.add_edge(p, v)
        return g

    def with_budget(self, budget: int) -> "CDAG":
        """Return a CDAG sharing this structure but with a new budget."""
        clone = object.__new__(CDAG)
        clone._preds = self._preds
        clone._succs = self._succs
        clone._weights = self._weights
        if not budget > 0:
            raise GraphStructureError(f"budget must be positive, got {budget!r}")
        clone._budget = budget
        clone.name = self.name
        clone._sources = self._sources
        clone._sinks = self._sinks
        clone._topo = self._topo
        clone._min_budget = self._min_budget
        return clone

    def with_weights(self, weights: Mapping[Node, int]) -> "CDAG":
        """Return a CDAG sharing this structure but with new node weights."""
        clone = object.__new__(CDAG)
        clone._preds = self._preds
        clone._succs = self._succs
        for v in self._preds:
            if v not in weights:
                raise GraphStructureError(f"node {v!r} has no weight")
            if not weights[v] > 0:
                raise GraphStructureError(
                    f"node {v!r} has non-positive weight {weights[v]!r}")
        clone._weights = {v: weights[v] for v in self._preds}
        clone._budget = self._budget
        clone.name = self.name
        clone._sources = self._sources
        clone._sinks = self._sinks
        clone._topo = self._topo
        clone._min_budget = None  # new weights, new footprints
        return clone

    # ------------------------------------------------------------------ #
    # Queries

    @property
    def budget(self) -> int | None:
        """The weighted red pebble budget ``B`` (Def. 2.1), if set."""
        return self._budget

    @property
    def weights(self) -> Mapping[Node, int]:
        """Read-only node-weight mapping ``w``."""
        return self._weights

    def weight(self, node: Node) -> int:
        return self._weights[node]

    def predecessors(self, node: Node) -> tuple:
        """Immediate predecessors ``H(v)`` (operands of ``v``)."""
        return self._preds[node]

    def successors(self, node: Node) -> tuple:
        return self._succs[node]

    @property
    def sources(self) -> tuple:
        """Input nodes ``A(G)`` (in-degree zero)."""
        return self._sources

    @property
    def sinks(self) -> tuple:
        """Output nodes ``Z(G)`` (out-degree zero)."""
        return self._sinks

    def topological_order(self) -> tuple:
        return self._topo

    def __contains__(self, node: Node) -> bool:
        return node in self._preds

    def __iter__(self) -> Iterator[Node]:
        return iter(self._preds)

    def __len__(self) -> int:
        return len(self._preds)

    @property
    def num_edges(self) -> int:
        return sum(len(ps) for ps in self._preds.values())

    def in_degree(self, node: Node) -> int:
        return len(self._preds[node])

    def out_degree(self, node: Node) -> int:
        return len(self._succs[node])

    def max_in_degree(self) -> int:
        return max((len(ps) for ps in self._preds.values()), default=0)

    def total_weight(self, nodes: Iterable[Node] | None = None) -> int:
        """Sum of weights over ``nodes`` (default: all nodes)."""
        if nodes is None:
            return sum(self._weights.values())
        return sum(self._weights[v] for v in nodes)

    def descendants(self, node: Node) -> set:
        """All nodes reachable from ``node`` (excluding ``node``)."""
        seen: set = set()
        stack = list(self._succs[node])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(self._succs[v])
        return seen

    def ancestors(self, node: Node) -> set:
        """All nodes with a path to ``node`` (excluding ``node``)."""
        seen: set = set()
        stack = list(self._preds[node])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(self._preds[v])
        return seen

    def subgraph(self, nodes: Iterable[Node], budget: int | None = None,
                 name: str | None = None) -> "CDAG":
        """Induced subgraph on ``nodes`` (edges with both endpoints inside)."""
        keep = set(nodes)
        edges = [(p, v) for v in keep for p in self._preds[v] if p in keep]
        return CDAG(edges, self._weights,
                    budget=self._budget if budget is None else budget,
                    nodes=keep, name=name or f"{self.name}[sub]")

    def weakly_connected_components(self) -> list:
        """Node sets of weakly connected components, in topological order of
        their first node (so DWT subtrees come out left-to-right)."""
        return [sorted_nodes for sorted_nodes in _components(self._preds, self._succs, self._topo)]

    def is_tree_toward_sink(self) -> bool:
        """True when the graph is a rooted in-tree: a unique sink and every
        node has out-degree <= 1 (Def. 3.6 with the path condition)."""
        return len(self._sinks) == 1 and all(
            len(self._succs[v]) <= 1 for v in self._preds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CDAG({self.name!r}, |V|={len(self)}, |E|={self.num_edges}, "
                f"B={self._budget})")


def _components(preds, succs, topo):
    seen: set = set()
    comps = []
    for start in topo:
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(p for p in preds[v] if p not in comp)
            stack.extend(s for s in succs[v] if s not in comp)
        seen |= comp
        comps.append([v for v in topo if v in comp])
    return comps
