"""Discrete Wavelet Transform graphs (paper Def. 3.1, Figs. 2-3).

``DWT(n, d)`` is the CDAG of the ``d``-level Haar wavelet transform of an
``n``-sample signal (``n`` must be a positive multiple of ``2^d``).  It has
``d+1`` layers ``S_1 .. S_{d+1}``:

* ``S_1`` — the ``n`` input samples.
* ``S_2`` — ``n`` nodes: the level-1 averages (odd index) interleaved with
  the level-1 coefficients (even index).  Node ``v^2_{2t-1}`` (average) and
  ``v^2_{2t}`` (coefficient) both depend on inputs ``v^1_{2t-1}, v^1_{2t}``.
* ``S_i`` for ``i > 2`` — ``|S_{i-1}|/2`` nodes; only the *averages* (odd
  index) of the previous layer feed forward, in consecutive odd pairs.

Coefficients (even index, layer > 1) are sink nodes at every level; the last
layer's averages and coefficients are all sinks.  Nodes are ``(i, j)`` pairs
with 1-based layer ``i`` and index ``j``, matching the paper's ``v^i_j``.

The *pruned* graph of Lemma 3.2 removes every even-index node above the
input layer; each weakly connected component of the result is a binary
in-tree rooted at an odd-index output.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..core.cdag import CDAG, Node
from ..core.exceptions import GraphStructureError
from ..core.weights import WeightConfig

#: DWT node type: (layer, index), both 1-based.
DWTNode = Tuple[int, int]


def validate_params(n: int, d: int) -> None:
    """Check ``d >= 1`` and ``n = k * 2^d`` for a positive integer ``k``."""
    if d < 1:
        raise GraphStructureError(f"DWT level d must be >= 1, got {d}")
    if n < 1 or n % (1 << d) != 0:
        raise GraphStructureError(
            f"DWT inputs n must be a positive multiple of 2^d = {1 << d}, got {n}")


def max_level(n: int) -> int:
    """Largest level ``d*`` such that ``DWT(n, d*)`` is defined: the number
    of times 2 divides ``n`` (used for the Fig. 6 sweep)."""
    if n < 2 or n % 2:
        raise GraphStructureError(f"n must be even and >= 2, got {n}")
    d = 0
    while n % 2 == 0:
        n //= 2
        d += 1
    return d


def layer_sizes(n: int, d: int) -> List[int]:
    """Sizes of ``S_1 .. S_{d+1}``: ``[n, n, n/2, n/4, ...]``."""
    validate_params(n, d)
    sizes = [n, n]
    for _ in range(3, d + 2):
        sizes.append(sizes[-1] // 2)
    return sizes


def dwt_edges(n: int, d: int) -> Iterable[Tuple[DWTNode, DWTNode]]:
    """Directed edges of ``DWT(n, d)`` exactly as in Def. 3.1."""
    validate_params(n, d)
    sizes = layer_sizes(n, d)
    # Rule (1): inputs feed their own index and their pair's index in S_2.
    for j in range(1, n + 1):
        yield (1, j), (2, j)
        if j % 2 == 1:
            yield (1, j), (2, j + 1)
        else:
            yield (1, j), (2, j - 1)
    # Rules (2) and (3): consecutive odd averages of S_i feed an
    # average/coefficient pair in S_{i+1}, for 2 <= i <= d.
    for i in range(2, d + 1):
        for j in range(1, sizes[i - 1] + 1):
            if j % 4 == 1:
                yield (i, j), (i + 1, (j + 1) // 2)
                yield (i, j), (i + 1, (j + 3) // 2)
            elif j % 4 == 3:
                yield (i, j), (i + 1, (j - 1) // 2)
                yield (i, j), (i + 1, (j + 1) // 2)


def dwt_graph(n: int, d: int, weights: Optional[WeightConfig] = None,
              budget: Optional[int] = None) -> CDAG:
    """Build the node-weighted ``DWT(n, d)`` CDAG.

    Parameters
    ----------
    weights:
        A :class:`~repro.core.weights.WeightConfig`; default all-ones
        (useful for purely structural work — apply a config later with
        ``config.apply(g)``).
    budget:
        Optional weighted red budget ``B``.
    """
    edges = list(dwt_edges(n, d))
    ones = {node: 1 for e in edges for node in e}
    g = CDAG(edges, ones, budget=budget, name=f"DWT({n},{d})")
    if weights is not None:
        g = weights.apply(g)
        if budget is not None:
            g = g.with_budget(budget)
    return g


def matches_structure(cdag: CDAG, n: int, d: int) -> bool:
    """True when ``cdag`` has exactly the node and edge structure of
    ``DWT(n, d)`` (weights and budget are not compared).  Used by the
    auto-dispatcher to confirm a graph named like a DWT really is one."""
    try:
        validate_params(n, d)
    except GraphStructureError:
        return False
    sizes = layer_sizes(n, d)
    expected_nodes = {(i + 1, j + 1)
                      for i, size in enumerate(sizes) for j in range(size)}
    if set(cdag) != expected_nodes:
        return False
    preds: dict = {v: set() for v in expected_nodes}
    for p, v in dwt_edges(n, d):
        preds[v].add(p)
    return all(set(cdag.predecessors(v)) == preds[v] for v in expected_nodes)


def is_input(node: DWTNode) -> bool:
    return node[0] == 1


def is_coefficient(node: DWTNode) -> bool:
    """Even-index nodes above the input layer are coefficients (sinks at
    every level i >= 2)."""
    return node[0] > 1 and node[1] % 2 == 0


def is_average(node: DWTNode) -> bool:
    return node[0] > 1 and node[1] % 2 == 1


def sibling(node: DWTNode) -> DWTNode:
    """The coefficient sharing parents with average ``node`` (or vice
    versa): ``v^i_{j+1}`` for odd ``j``, ``v^i_{j-1}`` for even ``j``."""
    i, j = node
    if i == 1:
        raise GraphStructureError(f"input node {node} has no sibling")
    return (i, j + 1) if j % 2 == 1 else (i, j - 1)


def pruned_nodes(cdag: CDAG) -> List[DWTNode]:
    """The nodes Lemma 3.2 removes: every coefficient ``v^i_j`` with
    ``j`` even and ``i > 1``, *except* those that are the only sink of
    their parents — for DWT graphs this is exactly all even-index nodes
    above layer 1."""
    return [v for v in cdag if is_coefficient(v)]


def pruned_roots(cdag: CDAG) -> Tuple[DWTNode, ...]:
    """The roots (sinks) of :func:`prune`'s in-trees, read off ``cdag``
    without building the pruned graph: the averages among the sinks, in
    ``cdag``'s topological order.  Every average below the last layer
    feeds the next layer's average, and every input feeds a layer-2
    average, so pruning leaves exactly these nodes without successors."""
    return tuple(v for v in cdag.sinks if is_average(v))


def prune(cdag: CDAG) -> CDAG:
    """The pruned graph ``G'`` of Lemma 3.2 (even-index nodes and their
    incident edges removed).  Each weakly connected component of the result
    is a binary in-tree."""
    keep = [v for v in cdag if not is_coefficient(v)]
    return cdag.subgraph(keep, name=f"{cdag.name}-pruned")


def check_prunable_weights(cdag: CDAG) -> None:
    """Lemma 3.2 requires coefficient weights not to exceed their sibling
    average's weight (``w_{v^i_j} <= w_{v^i_k}`` for even ``j``, odd ``k``).
    Raises :class:`GraphStructureError` otherwise."""
    for v in cdag:
        if is_coefficient(v):
            s = sibling(v)
            if s in cdag and cdag.weight(v) > cdag.weight(s):
                raise GraphStructureError(
                    f"coefficient {v} weighs {cdag.weight(v)} > sibling {s} "
                    f"weight {cdag.weight(s)}; Lemma 3.2 does not apply")


def output_trees(cdag: CDAG) -> Dict[DWTNode, CDAG]:
    """Map each odd-index sink of the *pruned* graph to the binary in-tree
    (as a CDAG) rooted at it.  ``cdag`` must already be pruned."""
    trees: Dict[DWTNode, CDAG] = {}
    for root in cdag.sinks:
        nodes = cdag.ancestors(root) | {root}
        trees[root] = cdag.subgraph(nodes, name=f"{cdag.name}-tree{root}")
    return trees
