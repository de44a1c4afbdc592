"""Reusable informed-search core for optimal WRBPG solving.

The exhaustive oracle treats the game as a shortest-path problem over
configurations ``(red set, blue set)``.  This module packages everything that
makes that search *informed* instead of blind Dijkstra:

Normalized move space
    Standalone ``M4`` deletes generate the full subset lattice below every
    red set — for free — which explodes the state count.  The core
    therefore folds deletes into the loads/computes that need the room: a
    successor of ``(red, blue)`` is either a store ``M2(v)``, or an
    *acquire* of a node ``y`` (``M1`` if ``y`` is blue, ``M3`` if its
    parents are red) preceded by a **minimal eviction set** — an
    inclusion-minimal ``D ⊆ red`` whose removal brings the post-move red
    weight back under the budget.  Every valid schedule can be rewritten
    into this form at equal or lower cost (deletes commute forward past
    stores and past acquires that fit, merge into the eviction set of the
    first acquire that does not, and vanish at the end of the schedule),
    so the optimum over normalized paths equals the game optimum.

Admissible heuristic (residual Prop. 2.4 bound)
    From a configuration ``(red, blue)`` every goal sink not yet blue still
    costs its weight in ``M2`` stores; and every *source* in the backward
    closure of "nodes that must become red" still costs its weight in ``M1``
    loads (a source can only turn red by loading — recomputation is not
    available).  The closure seeds with missing goal nodes and walks to the
    non-red parents of every needed node that is neither red nor blue.  The
    bound is consistent (see DESIGN.md), so A* settles each state at most
    once and the first goal pop is optimal.

Deepest-first tie order
    Among open configurations of equal ``f = g + h`` the search pops the
    one with the largest ``g`` first.  When the optimum equals the
    Prop. 2.4 bound, every state on an optimal path shares one ``f``; a
    first-in, first-out tie order sweeps that plateau breadth-first, while
    preferring larger ``g`` (less residual I/O to prove) walks it depth
    first toward a goal.  Under a consistent heuristic any tie order
    returns the same optimal cost; only the schedule chosen among
    equal-cost optima depends on it.

Transposition across budgets
    The compiled :class:`SearchProblem` (bitmask/weight/move tables) and
    finished budget→cost results live in a :class:`TranspositionTable`.
    Because the optimal cost is non-increasing in the budget, previous
    results bracket new probes: exact hits and closed lower/upper brackets
    answer without searching, and otherwise the best known upper bound
    prunes every node whose ``f = g + h`` exceeds it.
    ``ExhaustiveScheduler.cost_many`` threads the table through the sweep
    engine's per-(scheduler, graph) memo, so ``minimum_fast_memory``'s
    binary search reuses work between probes.  Heuristic values are
    memoized per probe only.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.cdag import CDAG
from ..core.exceptions import (GraphStructureError, ProbeCancelledError,
                               StateSpaceTooLargeError)
from ..core.governor import AnytimeResult, CancellationToken, current_token
from ..core.moves import M1, M2, M3, M4, Move
from ..core.schedule import Schedule

__all__ = ["SearchProblem", "SearchStats", "TranspositionTable", "astar"]

_INF = float("inf")

#: Bits per precomputed popcount-weight table chunk (≤ 16 KiB of ints each).
_CHUNK_BITS = 14
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1

#: Eviction-set enumerations larger than this are not memoized (they are
#: rare, and caching them would let adversarial weights balloon the table).
_EVICT_CACHE_SETS = 4096
_EVICT_CACHE_KEYS = 65536


@dataclass
class SearchStats:
    """Counters for one or more informed-search runs (cumulative)."""

    expanded: int = 0          # settled (expanded) configurations
    generated: int = 0         # successor pushes that improved a label
    stale_pops: int = 0        # pops superseded by a better label
    bound_pruned: int = 0      # successors discarded by the upper bound
    heuristic_evals: int = 0   # heuristic closures actually computed
    result_hits: int = 0       # whole probes answered by the transposition

    def as_dict(self) -> Dict[str, int]:
        return {
            "expanded": self.expanded,
            "generated": self.generated,
            "stale_pops": self.stale_pops,
            "bound_pruned": self.bound_pruned,
            "heuristic_evals": self.heuristic_evals,
            "result_hits": self.result_hits,
        }


class SearchProblem:
    """A CDAG compiled into bitmask form for the informed search.

    Everything here is budget-independent and built once per
    (graph, goal-condition) pair: node order, weights, per-node predecessor
    masks, per-node ``Move`` objects for all four rules, chunked
    popcount-weight tables, and the goal masks.
    """

    __slots__ = ("cdag", "nodes", "index", "n", "w", "parents_mask",
                 "source_mask", "nonsource_mask", "full_mask", "goal_blue",
                 "goal_red", "require_blue_sinks", "final_red",
                 "m1", "m2", "m3", "m4", "_tables", "_evict_cache")

    def __init__(self, cdag: CDAG, require_blue_sinks: bool = True,
                 final_red: Optional[tuple] = None):
        self.cdag = cdag
        self.require_blue_sinks = require_blue_sinks
        self.final_red = tuple(final_red) if final_red else ()
        nodes = list(cdag.topological_order())
        self.nodes = nodes
        index = {v: i for i, v in enumerate(nodes)}
        self.index = index
        n = len(nodes)
        self.n = n
        self.w = [cdag.weight(v) for v in nodes]
        self.parents_mask = [0] * n
        for v in nodes:
            m = 0
            for p in cdag.predecessors(v):
                m |= 1 << index[p]
            self.parents_mask[index[v]] = m
        self.full_mask = (1 << n) - 1 if n else 0
        source_mask = 0
        for v in cdag.sources:
            source_mask |= 1 << index[v]
        self.source_mask = source_mask
        self.nonsource_mask = self.full_mask & ~source_mask
        goal_blue = 0
        if require_blue_sinks:
            for v in cdag.sinks:
                goal_blue |= 1 << index[v]
        self.goal_blue = goal_blue
        goal_red = 0
        for v in self.final_red:
            goal_red |= 1 << index[v]
        self.goal_red = goal_red
        # Per-node Move objects, so expansion never rebuilds them.
        self.m1 = [M1(v) for v in nodes]
        self.m2 = [M2(v) for v in nodes]
        self.m3 = [M3(v) for v in nodes]
        self.m4 = [M4(v) for v in nodes]
        # Chunked weight-of-mask tables: mask_weight() is two or three
        # table lookups instead of a popcount loop.
        tables = []
        for base in range(0, n, _CHUNK_BITS):
            k = min(_CHUNK_BITS, n - base)
            tab = [0] * (1 << k)
            for j in range(k):
                wj = self.w[base + j]
                bit = 1 << j
                for m in range(bit):
                    tab[bit | m] = tab[m] + wj
            tables.append(tab)
        self._tables = tables
        self._evict_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    # ------------------------------------------------------------------ #

    def mask_weight(self, mask: int) -> int:
        """Total weight of the nodes in ``mask``."""
        total = 0
        for tab in self._tables:
            total += tab[mask & _CHUNK_MASK]
            mask >>= _CHUNK_BITS
        return total

    def heuristic(self, red: int, blue: int) -> int:
        """Residual weighted I/O lower bound from ``(red, blue)``.

        Admissible and consistent: unstored goal sinks each still need a
        distinct ``M2`` (their weight), and every source in the backward
        must-become-red closure still needs a distinct ``M1``.
        """
        missing_out = self.goal_blue & ~blue
        h = self.mask_weight(missing_out)
        need = (missing_out | self.goal_red) & ~red
        todo = need & ~blue          # needed and absent from both memories
        done = 0
        pm = self.parents_mask
        while todo:
            low = todo & -todo
            todo ^= low
            done |= low
            add = pm[low.bit_length() - 1] & ~red & ~need
            if add:
                need |= add
                todo |= add & ~blue & ~done
        return h + self.mask_weight(need & self.source_mask)

    def is_goal(self, red: int, blue: int) -> bool:
        return ((blue & self.goal_blue) == self.goal_blue
                and (red & self.goal_red) == self.goal_red)

    def minimal_evictions(self, cand_mask: int, deficit: int
                          ) -> Tuple[int, ...]:
        """All inclusion-minimal ``D ⊆ cand_mask`` with weight ≥ ``deficit``.

        Enumerated in node-index order (deterministic).  A subset is
        minimal iff dropping its lightest member breaks the deficit, which
        the DFS checks in O(1) per emitted set.
        """
        key = (cand_mask, deficit)
        cached = self._evict_cache.get(key)
        if cached is not None:
            return cached
        bits: List[int] = []
        weights: List[int] = []
        m = cand_mask
        while m:
            low = m & -m
            m ^= low
            bits.append(low)
            weights.append(self.w[low.bit_length() - 1])
        k = len(bits)
        suffix = [0] * (k + 1)
        for j in range(k - 1, -1, -1):
            suffix[j] = suffix[j + 1] + weights[j]
        out: List[int] = []
        token = current_token()

        def rec(start: int, mask: int, wsum: int, minw: int) -> None:
            if token is not None:
                token.raise_if_cancelled("eviction enumeration")
            for t in range(start, k):
                if wsum + suffix[t] < deficit:
                    return      # even taking every remaining node falls short
                wt = weights[t]
                ns = wsum + wt
                nminw = wt if wt < minw else minw
                if ns >= deficit:
                    if nminw > ns - deficit:
                        out.append(mask | bits[t])
                else:
                    rec(t + 1, mask | bits[t], ns, nminw)

        rec(0, 0, 0, 1 << 62)
        result = tuple(out)
        if (len(result) <= _EVICT_CACHE_SETS
                and len(self._evict_cache) < _EVICT_CACHE_KEYS):
            self._evict_cache[key] = result
        return result


class TranspositionTable:
    """Search state shared across budget probes of one (graph, goal) pair.

    Holds the compiled :class:`SearchProblem`, cumulative
    :class:`SearchStats`, and the finished budget → optimal-cost results
    that bracket future probes.

    :meth:`lower_bound` / :meth:`upper_bound` are called inside the
    ``minimum_fast_memory`` binary search and every sweep probe, so the
    results are mirrored into a budget-sorted array with prefix-min /
    suffix-max overlays: each bound query is two :mod:`bisect` lookups
    instead of a scan over every solved budget.  The overlays are rebuilt
    on :meth:`record` — recording happens once per *solved* budget, which
    is orders of magnitude rarer than bound probes — and return exactly
    what the full scan would, even for (impossible, but unverified)
    non-monotone result sets.
    """

    __slots__ = ("problem", "results", "stats", "probes",
                 "_budgets", "_costs", "_prefix_min", "_suffix_max")

    def __init__(self, problem: SearchProblem):
        self.problem = problem
        self.results: Dict[int, int] = {}
        self.stats = SearchStats()
        self.probes = 0
        self._budgets: List[int] = []   # sorted solved budgets
        self._costs: List[int] = []     # aligned with _budgets
        self._prefix_min: List[float] = [_INF]  # min cost over budgets < i
        self._suffix_max: List[int] = [0]       # max cost over budgets >= i

    def __len__(self) -> int:
        """Sized for memo instrumentation (engine peak_memo_entries)."""
        return len(self.results)

    def lookup(self, budget: int) -> Optional[int]:
        """Exact transposition hit, if this budget was already solved."""
        return self.results.get(budget)

    def lower_bound(self, budget: int) -> int:
        """Optimal cost is non-increasing in the budget, so any solved
        budget ≥ this one bounds the optimum from below."""
        return self._suffix_max[bisect.bisect_left(self._budgets, budget)]

    def upper_bound(self, budget: int) -> float:
        """Any solved budget ≤ this one bounds the optimum from above."""
        return self._prefix_min[bisect.bisect_right(self._budgets, budget)]

    def record(self, budget: int, cost: int) -> None:
        known = self.results.get(budget)
        self.results[budget] = cost
        if known == cost:
            return
        if known is None:
            i = bisect.bisect_left(self._budgets, budget)
            self._budgets.insert(i, budget)
            self._costs.insert(i, cost)
        else:  # pragma: no cover - re-recording a solved budget
            self._costs[self._budgets.index(budget)] = cost
        n = len(self._costs)
        pmin: List[float] = [_INF] * (n + 1)
        for i in range(n):
            c = self._costs[i]
            pmin[i + 1] = c if c < pmin[i] else pmin[i]
        smax = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            c = self._costs[i]
            smax[i] = c if c > smax[i + 1] else smax[i + 1]
        self._prefix_min = pmin
        self._suffix_max = smax


def _expand_moves(problem: SearchProblem, evict_mask: int,
                  final_move: Move) -> Tuple[Move, ...]:
    """Expand a normalized (evictions, acquire/store) step into game moves."""
    moves: List[Move] = []
    m = evict_mask
    while m:
        low = m & -m
        m ^= low
        moves.append(problem.m4[low.bit_length() - 1])
    moves.append(final_move)
    return tuple(moves)


def astar(problem: SearchProblem, budget: int, *,
          want_schedule: bool = False,
          use_heuristic: bool = True,
          max_states: Optional[int] = None,
          upper_bound: Optional[int] = None,
          stats: Optional[SearchStats] = None,
          token: Optional[CancellationToken] = None,
          anytime: bool = False,
          ):
    """A* over normalized WRBPG configurations.

    Returns ``(cost, schedule)`` by default, or an
    :class:`~repro.core.governor.AnytimeResult` when ``anytime=True``.

    Open configurations pop by ``f`` and, among equal ``f``, deepest
    (largest ``g``) first; every tie order returns the same optimal cost
    under the consistent heuristic (see the module docstring).  With
    ``use_heuristic=False`` the search degenerates to Dijkstra, an escape
    hatch that preserves exact optimality so the equivalence suite can
    compare both.  Heuristic values are memoized for this probe only.

    ``budget`` must already be feasible (callers run
    :func:`repro.core.bounds.require_feasible` first).  ``max_states``
    caps *settled* configurations; tripping it raises
    :class:`StateSpaceTooLargeError` carrying the search statistics.

    Governance: the search polls ``token`` (default: the thread's
    :func:`~repro.core.governor.current_token`) once per pop, *before*
    removing the frontier minimum, so on cancellation the heap top is
    still the admissible frontier bound.  In strict mode cancellation
    raises :class:`ProbeCancelledError`; in anytime mode the search
    returns a bracket instead: ``lower_bound = min f`` over the intact
    open frontier (every goal path must cross an open configuration
    ``s`` and costs at least ``f(s)`` by consistency), and
    ``upper_bound``/``schedule`` come from the best incumbent goal
    *generated* so far (goal tests run at push time under ``anytime`` —
    an admissible extra that also tightens pruning but never changes the
    returned optimum).  In anytime mode a tripped
    ``max_states`` cap likewise returns a bracket (reason ``"states"``)
    instead of raising.
    """
    p = problem
    b = budget
    st = stats if stats is not None else SearchStats()
    hc: Dict[Tuple[int, int], int] = {}
    ub = upper_bound if upper_bound is not None else _INF
    tok = token if token is not None else current_token()

    w = p.w
    pm = p.parents_mask
    mask_weight = p.mask_weight

    def hval(red: int, blue: int) -> int:
        if not use_heuristic:
            return 0
        key = (red, blue)
        v = hc.get(key)
        if v is None:
            v = p.heuristic(red, blue)
            hc[key] = v
            st.heuristic_evals += 1
        return v

    start = (0, p.source_mask)
    dist: Dict[Tuple[int, int], int] = {start: 0}
    prev: Dict[Tuple[int, int], Tuple[Tuple[int, int], Tuple[Move, ...]]] = {}
    seq = 0
    # Key (f, -g, seq, ...): lowest f first, deepest first among equal f,
    # then first in, first out.
    heap: List[Tuple[int, int, int, int, int, int]] = [
        (hval(*start), 0, 0, 0, start[0], start[1])]
    settled = 0
    inf = _INF
    keep_prev = want_schedule or anytime
    best_g = inf                # best incumbent goal label (anytime only)
    best_state: Optional[Tuple[int, int]] = None

    def _finish(reason: str) -> AnytimeResult:
        # The heap is intact (polls run before the pop), so its top f is
        # an admissible lower bound on the optimum; the incumbent's
        # reconstructed schedule backs the upper bound.
        if best_state is not None:
            sched = _reconstruct(best_state, prev)
            ubv = sched.cost(p.cdag)    # prev rewrites only improve paths
        else:
            sched, ubv = None, inf
        lbv = heap[0][0] if heap else ubv
        if lbv > ubv:
            lbv = ubv
        return AnytimeResult(lower_bound=lbv, upper_bound=ubv,
                             schedule=sched, reason=reason,
                             source="search", stats=st.as_dict())

    def push(nred: int, nblue: int, ng: int, state: Tuple[int, int],
             evict_mask: int, final_move: Move) -> None:
        nonlocal seq, ub, best_g, best_state
        nxt = (nred, nblue)
        old = dist.get(nxt, inf)
        if ng >= old:
            return
        nf = ng + hval(nred, nblue)
        if nf > ub:
            st.bound_pruned += 1
            # Remember the pruned label: f depends only on (g, state), so
            # a re-push at the same or worse g would re-derive the same
            # doomed f.  Recording g suppresses those repeats (the heap
            # never sees pruned labels either way).
            dist[nxt] = ng
            return
        dist[nxt] = ng
        if keep_prev:
            prev[nxt] = (state, _expand_moves(p, evict_mask, final_move))
        if anytime and ng < best_g and p.is_goal(nred, nblue):
            best_g = ng
            best_state = nxt
            if ng < ub:
                ub = ng     # incumbent tightens pruning (strict >, so the
                            # incumbent's own f = g entry still pops)
        seq += 1
        heapq.heappush(heap, (nf, -ng, seq, ng, nred, nblue))
        st.generated += 1

    while heap:
        if tok is not None:
            r = tok.poll()
            if r is not None:
                if anytime:
                    return _finish(r)
                raise ProbeCancelledError(
                    f"informed search on {p.cdag.name!r} cancelled ({r})",
                    reason=r, stats=st.as_dict())
        _, _, _, g, red, blue = heapq.heappop(heap)
        state = (red, blue)
        if g > dist.get(state, inf):
            st.stale_pops += 1
            continue
        if p.is_goal(red, blue):
            if anytime:
                return AnytimeResult(
                    lower_bound=g, upper_bound=g,
                    schedule=_reconstruct(state, prev),
                    reason="exact", source="search", stats=st.as_dict())
            if not want_schedule:
                return g, None
            return g, _reconstruct(state, prev)
        settled += 1
        st.expanded += 1
        if max_states is not None and settled > max_states:
            if anytime:
                # Put the capped state back so the frontier bound stays
                # admissible (it was already removed from the heap).
                seq += 1
                heapq.heappush(heap,
                               (g + hval(red, blue), -g, seq, g, red, blue))
                return _finish("states")
            raise StateSpaceTooLargeError(
                f"informed search on {p.cdag.name!r} settled {settled} "
                f"configurations > state cap {max_states}; tighten the "
                f"budget or use a dataflow-specific scheduler",
                size=settled, limit=max_states, stats=st.as_dict())
        try:
            rw = mask_weight(red)
            # Stores: M2 for every red, not-yet-blue node.
            m = red & ~blue
            while m:
                low = m & -m
                m ^= low
                i = low.bit_length() - 1
                push(red, blue | low, g + w[i], state, 0, p.m2[i])
            # Acquires: M1 (blue, not red) and M3 (parents red, not red),
            # each with every minimal eviction set that makes it fit.
            for cand, is_load in ((blue & ~red, True),
                                  (p.nonsource_mask & ~red, False)):
                while cand:
                    low = cand & -cand
                    cand ^= low
                    i = low.bit_length() - 1
                    if is_load:
                        protected = 0
                        cost = w[i]
                        move = p.m1[i]
                    else:
                        protected = pm[i]
                        if protected & ~red:
                            continue    # some parent not red: M3 illegal
                        cost = 0
                        move = p.m3[i]
                    deficit = rw + w[i] - b
                    if deficit <= 0:
                        push(red | low, blue, g + cost, state, 0, move)
                        continue
                    evictable = red & ~protected
                    for d_mask in p.minimal_evictions(evictable, deficit):
                        push((red & ~d_mask) | low, blue, g + cost,
                             state, d_mask, move)
        except ProbeCancelledError as exc:
            # Cancelled mid-expansion (inside the eviction enumeration).
            exc.stats.update(st.as_dict())
            if not anytime:
                raise
            # Re-open the half-expanded state: goal paths through its
            # ungenerated successors must still cross the frontier for
            # the lower bound to stay admissible.
            seq += 1
            heapq.heappush(heap,
                           (g + hval(red, blue), -g, seq, g, red, blue))
            return _finish(exc.reason or "cancelled")
    if anytime and best_state is not None:
        # Frontier exhausted: every open label was pruned by the
        # incumbent bound, so the incumbent is optimal.
        sched = _reconstruct(best_state, prev)
        cost = sched.cost(p.cdag)
        return AnytimeResult(lower_bound=cost, upper_bound=cost,
                             schedule=sched, reason="exact",
                             source="search", stats=st.as_dict())
    raise GraphStructureError(
        f"no valid schedule found for {p.cdag.name!r} under budget {b}")


def _reconstruct(state: Tuple[int, int],
                 prev: Dict[Tuple[int, int],
                            Tuple[Tuple[int, int], Tuple[Move, ...]]]
                 ) -> Schedule:
    chunks: List[Tuple[Move, ...]] = []
    while state in prev:
        state, moves = prev[state]
        chunks.append(moves)
    chunks.reverse()
    flat: List[Move] = []
    for chunk in chunks:
        flat.extend(chunk)
    return Schedule(flat)
