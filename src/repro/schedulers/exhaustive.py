"""Exhaustive optimal WRBPG solver (ground truth for small graphs).

Optimal red-blue pebbling is PSPACE-complete in general [Demaine & Liu '18],
so no polynomial algorithm exists for arbitrary CDAGs.  For *small* graphs,
however, the game is a shortest-path problem over configurations: a state is
the pair (red set, blue set), moves are edges weighted by their I/O cost
(``w_v`` for M1/M2, zero for M3/M4), and the optimum is a shortest path from
the starting configuration to any configuration whose blue set covers the
sinks.

This module is the *oracle* the test suite uses to certify that the
dataflow-specific DP schedulers (Alg. 1, Eq. 6, Eq. 8) are truly optimal on
their graph families — the central claim of the paper.

Since PR 4 the default solver is the informed-search core in
:mod:`repro.schedulers.search`: A* under the admissible residual-I/O
heuristic of Prop. 2.4, with superset-dominance pruning and a transposition
table shared across budget probes (``cost_many`` / ``minimum_fast_memory``).
The original uninformed Dijkstra survives as ``core="legacy"`` and is the
comparison baseline for the equivalence suite and ``bench_oracle.py`` —
both paths return byte-identical optimal costs wherever both complete.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..core.bounds import algorithmic_lower_bound, require_feasible
from ..core.cdag import CDAG
from ..core.exceptions import (GraphStructureError, ProbeCancelledError,
                               StateSpaceTooLargeError)
from ..core.governor import (AnytimeResult, CancellationToken, current_token,
                             governed)
from ..core.moves import M1, M2, M3, M4, Move
from ..core.schedule import Schedule
from .base import OptimalityContract, Scheduler
from .search import SearchProblem, SearchStats, TranspositionTable, astar

#: Soft cap on graph size; beyond this the search space is hopeless.  The
#: informed core pushed this up from the uninformed-Dijkstra era's 22, and
#: the vectorized expansion kernels from 26 to 32.
DEFAULT_MAX_NODES = 32

#: Cap on settled (expanded) configurations; loose budgets on mid-size
#: graphs can blow past 4^n reachable states even when the node count
#: looks safe.
DEFAULT_MAX_STATES = 5_000_000


class ExhaustiveScheduler(Scheduler):
    """Provably optimal schedules via informed search over configurations.

    Parameters
    ----------
    max_nodes:
        Refuse graphs larger than this (protects callers from accidental
        exponential blow-ups) with a typed
        :class:`~repro.core.exceptions.StateSpaceTooLargeError`.
    max_states:
        Abort (same typed error) once the search has *settled* this many
        distinct configurations — the runtime guard for graphs that pass
        the node-count check but explode anyway.  ``None`` disables the
        guard.
    final_red:
        Optional stopping-condition override: instead of blue pebbles on the
        sinks, require red pebbles on these nodes (used to certify subtree
        schedules whose stopping condition is "red on root", Lemma 3.3).
    use_heuristic / use_dominance:
        Escape hatches for the informed core: ``use_heuristic=False``
        degrades A* to Dijkstra and ``use_dominance=False`` disables
        settled-state pruning.  Both preserve exact optimality; the
        equivalence suite runs every combination.
    core:
        ``"search"`` (default) for the informed core, ``"legacy"`` for the
        original uninformed Dijkstra with explicit M4 moves.
    vectorized:
        Route the informed core's expansion through the numpy kernels
        (incremental store heuristics, batched must-become-red closures).
        The search trajectory — every cost and schedule — is
        byte-identical to the scalar core; ``False`` forces the scalar
        kernels (the automatic fallback when numpy is missing or the
        weights would overflow int64).
    anytime:
        Degrade gracefully instead of raising: when a probe is cancelled
        (deadline, memory watchdog, external cancel) or trips the
        node/state caps, return a certified ``[lb, ub]`` bracket and the
        best schedule found — see :meth:`solve` and the degradation
        ladder exact → anytime incumbent → greedy fallback.  Anytime mode
        also engages when the thread's active
        :class:`~repro.core.governor.CancellationToken` carries
        ``anytime=True``, so a governed sweep can flip it without
        rebuilding schedulers.
    """

    name = "Exhaustive Optimal"

    #: Class-level defaults so ``vars(self)`` — and therefore
    #: ``cache_key()`` — only sees ``anytime`` when it is enabled: default
    #: instances keep their historical probe-cache keys, while anytime
    #: instances (whose degraded probes may return upper bounds, not
    #: optima) key differently.  ``last_anytime`` likewise stays out of
    #: the key (``None`` would fold in; an ``AnytimeResult`` does not).
    #: ``vectorized`` works the same way and additionally *may* stay out
    #: of the key entirely — the vector kernels are trajectory-identical,
    #: so probe caches are interchangeable either way.
    anytime = False
    vectorized = True
    last_anytime: Optional[AnytimeResult] = None

    #: Exact probes of the same graph are cheapest high-budget-first:
    #: the optimum is non-increasing in the budget, so every solved high
    #: budget seeds ``upper_bound`` pruning for the lower-budget probes
    #: that follow.  Batch callers (``CachedCostFn.prime``,
    #: ``minimum_fast_memory``) consult this advisory class attribute to
    #: reorder *evaluation* (never results).  Class-level for the same
    #: cache-key reason as ``vectorized`` above.
    monotone_budget_probes = True

    contract = OptimalityContract(
        accepts=("*",), optimal_on=("*",),
        notes="Informed search over game configurations — optimal on every "
              "CDAG it accepts (node/state caps aside)")

    def accepts(self, cdag: CDAG) -> bool:
        """Refine the wildcard contract with the instance's node cap."""
        return len(cdag) <= self.max_nodes

    def __init__(self, max_nodes: int = DEFAULT_MAX_NODES,
                 final_red: Optional[tuple] = None,
                 require_blue_sinks: bool = True,
                 max_states: Optional[int] = DEFAULT_MAX_STATES,
                 use_heuristic: bool = True,
                 use_dominance: bool = True,
                 core: str = "search",
                 anytime: bool = False,
                 vectorized: bool = True):
        if core not in ("search", "legacy"):
            raise ValueError(f"core must be 'search' or 'legacy', got {core!r}")
        if anytime:
            self.anytime = True     # see the class-attribute note above
        if not vectorized:
            self.vectorized = False
        self.max_nodes = max_nodes
        self.final_red = final_red
        self.require_blue_sinks = require_blue_sinks
        self.max_states = max_states
        self.use_heuristic = use_heuristic
        self.use_dominance = use_dominance
        self.core = core
        #: Statistics of the most recent search (all-zero before the
        #: first).  Deliberately a SearchStats object, never a plain
        #: value: ``cache_key()`` only folds in plain-data attributes, so
        #: mutating counters can't destabilize persisted probe caches.
        self.last_stats: SearchStats = SearchStats()

    def fallback_scheduler(self) -> Scheduler:
        """Degrade to the universal greedy schedule (Prop. 2.3): valid on
        every CDAG and budget the game admits, so a fault-tolerant sweep
        can always bound an oversized instance from above."""
        from .greedy import GreedyTopologicalScheduler
        return GreedyTopologicalScheduler()

    # ------------------------------------------------------------------ #

    def _anytime_mode(self) -> bool:
        """Anytime degradation is on when configured on the scheduler or
        requested by the thread's active cancellation token."""
        if self.anytime:
            return True
        tok = current_token()
        return tok is not None and tok.anytime

    def min_cost(self, cdag: CDAG, budget: Optional[int] = None, *,
                 table: Optional[TranspositionTable] = None) -> int:
        """Optimal weighted I/O cost (no schedule reconstruction).

        ``table`` threads a :class:`TranspositionTable` through repeated
        probes of the same graph: exact hits and closed monotonicity
        brackets answer without searching, and the heuristic memo carries
        over between adjacent budgets.

        In anytime mode a degraded probe returns the bracket's *upper*
        bound (achievable, hence sound for feasibility decisions); the
        full bracket is kept on :attr:`last_anytime`.
        """
        if self._anytime_mode():
            res = self.solve(cdag, budget, want_schedule=False, table=table)
            return res.upper_bound
        cost, _ = self._search(cdag, budget, want_schedule=False, table=table)
        return cost

    def schedule(self, cdag: CDAG, budget: Optional[int] = None) -> Schedule:
        if self._anytime_mode():
            res = self.solve(cdag, budget, want_schedule=True)
            assert res.schedule is not None
            return res.schedule
        _, schedule = self._search(cdag, budget, want_schedule=True)
        assert schedule is not None
        return schedule

    def cost(self, cdag: CDAG, budget: Optional[int] = None) -> int:
        return self.min_cost(cdag, budget)

    def solve(self, cdag: CDAG, budget: Optional[int] = None, *,
              want_schedule: bool = True,
              table: Optional[TranspositionTable] = None,
              token: Optional[CancellationToken] = None) -> AnytimeResult:
        """Governed best-effort solve: always an :class:`AnytimeResult`.

        The degradation ladder, top rung first:

        1. **exact** — the search finishes (or a transposition hit
           answers): ``lb == ub``, ``reason == "exact"``.
        2. **anytime incumbent** — the search is stopped (deadline,
           memory watchdog, external cancel, state cap) after generating
           at least one goal configuration: ``ub``/``schedule`` are the
           best incumbent, ``lb`` the frontier bound tightened by
           transposition monotonicity.
        3. **greedy fallback** — stopped before any incumbent, or the
           graph exceeds ``max_nodes``: ``ub``/``schedule`` come from
           :meth:`fallback_scheduler` (valid on every feasible budget,
           Prop. 2.3), run *ungoverned* so the last rung cannot itself be
           cancelled; ``lb`` falls back to the Prop. 2.4 bound.

        ``token`` (default: the thread's current token) governs the probe;
        :class:`~repro.core.exceptions.InfeasibleBudgetError` still raises
        — infeasibility is a property of the instance, not a resource
        limit.  The result is also stored on :attr:`last_anytime`.
        """
        if token is not None:
            with governed(token):
                res = self._solve(cdag, budget, want_schedule, table)
        else:
            res = self._solve(cdag, budget, want_schedule, table)
        self.last_anytime = res
        return res

    def cost_many(self, cdag: CDAG, budgets, *, memo=None) -> List[float]:
        """Batched oracle probes sharing one transposition table.

        The sweep engine passes a persistent per-(scheduler, graph) memo
        dict here, so ``minimum_fast_memory``'s binary search and repeated
        sweep probes reuse settled-search by-products (heuristic values,
        solved-budget brackets) instead of restarting from scratch.  Each
        distinct budget is solved once, even if the caller repeats it.

        In anytime mode, degraded probes report their upper bound in the
        returned list and park the full bracket in the memo under
        ``"anytime_results"`` (budget → :class:`AnytimeResult`), where the
        sweep engine's provenance ladder picks it up.

        The oracle only computes and does no I/O: the engine that
        evaluates a probe audits, labels and commits it.
        """
        from ..core.exceptions import InfeasibleBudgetError
        anytime = self._anytime_mode()
        state = self._memo_state(memo, cdag)
        table = None
        if self.core == "search" and len(cdag) <= self.max_nodes:
            table = state.get("table")
            if table is None:
                table = state["table"] = self._make_table(cdag)
        resolved: Dict = {}
        for b in dict.fromkeys(budgets):
            try:
                if not anytime:
                    resolved[b] = self.min_cost(cdag, b, table=table)
                    continue
                res = self.solve(cdag, b, want_schedule=False, table=table)
            except InfeasibleBudgetError:
                resolved[b] = float("inf")
                continue
            bag = state.setdefault("anytime_results", {})
            if res.exact:
                bag.pop(b, None)
            else:
                bag[b] = res
            resolved[b] = res.upper_bound
        return [resolved[b] for b in budgets]

    def _memo_state(self, memo, cdag: CDAG) -> dict:
        """The ``cost_many`` memo, reset when the graph or search mode
        changed since its last use."""
        state = memo if memo is not None else {}
        mode = (self.require_blue_sinks, self.final_red,
                self.use_heuristic, self.use_dominance)
        if state.get("graph") is not cdag or state.get("mode") != mode:
            state.clear()
            state["graph"] = cdag
            state["mode"] = mode
        return state

    # ------------------------------------------------------------------ #

    def _check_size(self, cdag: CDAG) -> None:
        if len(cdag) > self.max_nodes:
            raise StateSpaceTooLargeError(
                f"graph has {len(cdag)} nodes > exhaustive cap "
                f"{self.max_nodes}; use a dataflow-specific scheduler",
                size=len(cdag), limit=self.max_nodes)

    def _make_table(self, cdag: CDAG) -> TranspositionTable:
        return TranspositionTable(SearchProblem(
            cdag, require_blue_sinks=self.require_blue_sinks,
            final_red=self.final_red))

    def _greedy_bracket(self, cdag: CDAG, b: int, lb, reason: str,
                        stats) -> AnytimeResult:
        """Last rung of the degradation ladder: bound the optimum from
        above with the universal greedy schedule (Prop. 2.3), run
        *ungoverned* — the fallback that answers a cancellation must not
        itself be cancellable."""
        with governed(None):
            fb = self.fallback_scheduler()
            sched = fb.schedule(cdag, b)
            ub = sched.cost(cdag)
        if lb > ub:
            lb = ub
        return AnytimeResult(lower_bound=lb, upper_bound=ub, schedule=sched,
                             reason=reason, source="greedy",
                             stats=dict(stats) if stats else {})

    def _solve(self, cdag: CDAG, budget: Optional[int], want_schedule: bool,
               table: Optional[TranspositionTable]) -> AnytimeResult:
        b = require_feasible(cdag, budget)
        if len(cdag) > self.max_nodes:
            # Hopeless to even compile the search problem: straight to the
            # greedy rung, bounded below by Prop. 2.4.
            return self._greedy_bracket(cdag, b, algorithmic_lower_bound(cdag),
                                        "too-large", None)
        if self.core == "legacy":
            # The legacy core has no incumbent machinery: exact or ladder.
            try:
                cost, sched = self._search_legacy(cdag, b, want_schedule)
            except ProbeCancelledError as exc:
                return self._greedy_bracket(
                    cdag, b, algorithmic_lower_bound(cdag),
                    exc.reason or "cancelled", exc.stats)
            except StateSpaceTooLargeError as exc:
                return self._greedy_bracket(
                    cdag, b, algorithmic_lower_bound(cdag), "states",
                    exc.stats)
            return AnytimeResult(lower_bound=cost, upper_bound=cost,
                                 schedule=sched, reason="exact",
                                 source="search",
                                 stats=self.last_stats.as_dict())

        if table is None or table.problem.cdag is not cdag:
            table = self._make_table(cdag)
        problem = table.problem
        stats = table.stats
        self.last_stats = stats
        table.probes += 1
        if not want_schedule:
            hit = table.lookup(b)
            if hit is not None:
                stats.result_hits += 1
                return AnytimeResult(lower_bound=hit, upper_bound=hit,
                                     schedule=None, reason="exact",
                                     source="search", stats=stats.as_dict())
            lbT = table.lower_bound(b)
            ubT = table.upper_bound(b)
            if lbT == ubT and ubT != float("inf"):
                stats.result_hits += 1
                table.record(b, lbT)
                return AnytimeResult(lower_bound=lbT, upper_bound=lbT,
                                     schedule=None, reason="exact",
                                     source="search", stats=stats.as_dict())
        ubT = table.upper_bound(b)
        res = astar(
            problem, b,
            want_schedule=want_schedule,
            use_heuristic=self.use_heuristic,
            use_dominance=self.use_dominance,
            max_states=self.max_states,
            upper_bound=None if ubT == float("inf") else int(ubT),
            h_cache=table.h_cache if self.use_heuristic else None,
            stats=stats, anytime=True, vectorized=self.vectorized)
        if res.exact:
            table.record(b, int(res.upper_bound))
            return res
        # Inexact: monotonicity brackets from solved budgets may tighten
        # the frontier bound.  Never record inexact values in the table —
        # they would poison future exact probes.
        lb = max(res.lower_bound, table.lower_bound(b))
        if res.schedule is None:
            return self._greedy_bracket(cdag, b, lb, res.reason, res.stats)
        if lb > res.lower_bound:
            res = AnytimeResult(lower_bound=min(lb, res.upper_bound),
                                upper_bound=res.upper_bound,
                                schedule=res.schedule, reason=res.reason,
                                source=res.source, stats=res.stats)
        return res

    def _search(self, cdag: CDAG, budget: Optional[int], want_schedule: bool,
                table: Optional[TranspositionTable] = None,
                ) -> Tuple[int, Optional[Schedule]]:
        self._check_size(cdag)
        b = require_feasible(cdag, budget)
        if self.core == "legacy":
            return self._search_legacy(cdag, b, want_schedule)

        if table is None or table.problem.cdag is not cdag:
            table = self._make_table(cdag)
        problem = table.problem
        stats = table.stats
        self.last_stats = stats
        table.probes += 1

        if not want_schedule:
            hit = table.lookup(b)
            if hit is not None:
                stats.result_hits += 1
                return hit, None
            lb = table.lower_bound(b)
            ub = table.upper_bound(b)
            if lb == ub and ub != float("inf"):
                # Monotonicity closed the bracket: opt(b) ∈ [lb, ub].
                stats.result_hits += 1
                table.record(b, lb)
                return lb, None
        ub = table.upper_bound(b)
        cost, schedule = astar(
            problem, b,
            want_schedule=want_schedule,
            use_heuristic=self.use_heuristic,
            use_dominance=self.use_dominance,
            max_states=self.max_states,
            upper_bound=None if ub == float("inf") else int(ub),
            h_cache=table.h_cache if self.use_heuristic else None,
            stats=stats, vectorized=self.vectorized)
        table.record(b, cost)
        return cost, schedule

    # ------------------------------------------------------------------ #
    # Legacy uninformed Dijkstra (comparison baseline).

    def _search_legacy(self, cdag: CDAG, b: int,
                       want_schedule: bool) -> Tuple[int, Optional[Schedule]]:
        nodes = list(cdag.topological_order())
        index = {v: i for i, v in enumerate(nodes)}
        n = len(nodes)
        w = [cdag.weight(v) for v in nodes]
        parents_mask = [0] * n
        for v in nodes:
            m = 0
            for p in cdag.predecessors(v):
                m |= 1 << index[p]
            parents_mask[index[v]] = m
        is_source = [not cdag.predecessors(v) for v in nodes]

        source_mask = 0
        for v in cdag.sources:
            source_mask |= 1 << index[v]
        goal_blue = 0
        if self.require_blue_sinks:
            for v in cdag.sinks:
                goal_blue |= 1 << index[v]
        goal_red = 0
        if self.final_red:
            for v in self.final_red:
                goal_red |= 1 << index[v]

        stats = SearchStats()
        self.last_stats = stats
        start = (0, source_mask)
        dist: Dict[Tuple[int, int], int] = {start: 0}
        prev: Dict[Tuple[int, int], Tuple[Tuple[int, int], Move]] = {}
        # Monotone sequence number: equal-cost pops are byte-stable across
        # Python versions and heap implementations.
        seq = 0
        heap: List[Tuple[int, int, int, int]] = [(0, 0, 0, source_mask)]
        settled = 0

        def red_weight(mask: int) -> int:
            total = 0
            while mask:
                low = mask & -mask
                total += w[low.bit_length() - 1]
                mask ^= low
            return total

        token = current_token()
        while heap:
            if token is not None:
                r = token.poll()
                if r is not None:
                    raise ProbeCancelledError(
                        f"legacy search on {cdag.name!r} cancelled ({r})",
                        reason=r, stats=stats.as_dict())
            d, _, red, blue = heapq.heappop(heap)
            state = (red, blue)
            if d > dist.get(state, float("inf")):
                stats.stale_pops += 1
                continue
            if (blue & goal_blue) == goal_blue and (red & goal_red) == goal_red:
                if not want_schedule:
                    return d, None
                return d, self._reconstruct(state, prev)
            settled += 1
            stats.expanded += 1
            if self.max_states is not None and settled > self.max_states:
                raise StateSpaceTooLargeError(
                    f"exhaustive search on {cdag.name!r} settled "
                    f"{settled} configurations > state cap "
                    f"{self.max_states}; tighten the budget or use a "
                    f"dataflow-specific scheduler",
                    size=settled, limit=self.max_states,
                    stats=stats.as_dict())
            rw = red_weight(red)
            # Enumerate successor moves.
            for i in range(n):
                bit = 1 << i
                if (blue & bit) and not (red & bit):
                    # M1: load i.
                    if rw + w[i] <= b:
                        seq = self._relax((red | bit, blue), d + w[i],
                                          M1(nodes[i]), state, dist, prev,
                                          heap, seq, stats)
                if (red & bit) and not (blue & bit):
                    # M2: store i.
                    seq = self._relax((red, blue | bit), d + w[i],
                                      M2(nodes[i]), state, dist, prev,
                                      heap, seq, stats)
                if (not (red & bit) and not is_source[i]
                        and (red & parents_mask[i]) == parents_mask[i]):
                    # M3: compute i.
                    if rw + w[i] <= b:
                        seq = self._relax((red | bit, blue), d, M3(nodes[i]),
                                          state, dist, prev, heap, seq, stats)
                if red & bit:
                    # M4: delete i.
                    seq = self._relax((red ^ bit, blue), d, M4(nodes[i]),
                                      state, dist, prev, heap, seq, stats)
        raise GraphStructureError(
            f"no valid schedule found for {cdag.name!r} under budget {b}")

    @staticmethod
    def _relax(nxt, nd, move, state, dist, prev, heap, seq, stats):
        if nd < dist.get(nxt, float("inf")):
            dist[nxt] = nd
            prev[nxt] = (state, move)
            seq += 1
            heapq.heappush(heap, (nd, seq, nxt[0], nxt[1]))
            stats.generated += 1
        return seq

    @staticmethod
    def _reconstruct(state, prev) -> Schedule:
        moves: List[Move] = []
        while state in prev:
            state, move = prev[state]
            moves.append(move)
        moves.reverse()
        return Schedule(moves)


def optimal_cost(cdag: CDAG, budget: Optional[int] = None,
                 max_nodes: int = DEFAULT_MAX_NODES) -> int:
    """Convenience wrapper: optimal weighted I/O cost of a small graph."""
    return ExhaustiveScheduler(max_nodes=max_nodes).min_cost(cdag, budget)
