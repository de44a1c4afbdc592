"""Tests for the informed-search oracle core (:mod:`repro.schedulers.search`).

The load-bearing property is *equivalence*: A* with the residual-I/O
heuristic, its deepest-first tie order, and the shared transposition
table must report byte-identical optimal costs to the legacy uninformed
Dijkstra core everywhere both can run.  Everything else (determinism,
settled-state accounting, the heuristic's agreement with its set-based
reference, the plateau walk's state count) keeps the optimizations
honest.
"""

import math

import pytest

from repro.analysis.fuzz import budgets_for, corpus
from repro.core import CDAG, InfeasibleBudgetError, equal, simulate
from repro.core.bounds import residual_io_lower_bound
from repro.core.exceptions import StateSpaceTooLargeError
from repro.graphs import complete_kary_tree, dwt_graph, mvm_graph
from repro.schedulers import (ExhaustiveScheduler, OptimalDWTScheduler,
                              OptimalTreeScheduler, SearchProblem,
                              TranspositionTable)


def _cost(scheduler, graph, budget):
    try:
        return scheduler.cost(graph, budget)
    except InfeasibleBudgetError:
        return math.inf


# --------------------------------------------------------------------- #
# Equivalence: A* == legacy Dijkstra


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_equivalence_on_fuzz_corpus(seed):
    """Cost identity across the corpus wherever legacy stays tractable.

    Both cores get a modest settled-state cap; a probe either core cannot
    finish under it is skipped (the benchmark covers the big ones)."""
    compared = 0
    for name, graph in corpus(seed):
        if len(graph) > 11:
            continue  # uninformed Dijkstra blows up; covered by bench
        astar = ExhaustiveScheduler(max_states=50_000)
        legacy = ExhaustiveScheduler(max_states=50_000, core="legacy")
        memo: dict = {}
        for budget in budgets_for(graph):
            try:
                l_cost = _cost(legacy, graph, budget)
            except StateSpaceTooLargeError:
                continue
            try:
                a_cost = astar.cost_many(graph, (budget,), memo=memo)[0]
            except StateSpaceTooLargeError:
                continue
            assert a_cost == l_cost, (name, budget)
            compared += 1
    assert compared >= 20  # the skip guards must not hollow out the test


@pytest.mark.parametrize("use_heuristic", [True, False])
def test_escape_hatch_combos_agree(use_heuristic):
    """The informed core reports the same optimum as the legacy core with
    its heuristic on and with the Dijkstra escape hatch."""
    graphs = [dwt_graph(4, 1, weights=equal()),
              mvm_graph(2, 2, weights=equal()),
              complete_kary_tree(2, 2, weights=equal())]
    for graph in graphs:
        ref = ExhaustiveScheduler(core="legacy")
        tuned = ExhaustiveScheduler(use_heuristic=use_heuristic)
        for budget in budgets_for(graph):
            assert _cost(tuned, graph, budget) == \
                _cost(ref, graph, budget), (graph.name, budget)


def test_matches_optimal_family_schedulers():
    """A* agrees with the polynomial DPs on their contract families."""
    g = dwt_graph(4, 2, weights=equal())
    ex = ExhaustiveScheduler()
    for budget in budgets_for(g):
        dp = _cost(OptimalDWTScheduler(), g, budget)
        assert _cost(ex, g, budget) == dp, budget
    t = complete_kary_tree(2, 3, weights=equal())
    for budget in budgets_for(t):
        dp = _cost(OptimalTreeScheduler(), t, budget)
        assert _cost(ex, t, budget) == dp, budget


def test_schedules_replay_to_reported_cost():
    g = mvm_graph(2, 2, weights=equal())
    ex = ExhaustiveScheduler()
    for budget in budgets_for(g):
        try:
            sched = ex.schedule(g, budget)
        except InfeasibleBudgetError:
            continue
        assert simulate(g, sched, budget=budget).cost == ex.min_cost(g, budget)


# --------------------------------------------------------------------- #
# Heuristic: bitmask closure == set-based reference, and admissible


def _states_of(problem, graph, budget):
    """A spread of reachable-ish states: empty, all-red, all-blue, and a
    few mixed masks derived from the node order."""
    n = problem.n
    full = problem.full_mask
    yield 0, problem.source_mask
    yield full, 0
    yield 0, full
    for k in range(1, n, max(1, n // 4)):
        red = (1 << k) - 1
        blue = full & ~red
        yield red, blue
        yield blue & full, red


@pytest.mark.parametrize("graph_fn", [
    lambda: dwt_graph(4, 2, weights=equal()),
    lambda: mvm_graph(3, 3, weights=equal()),
    lambda: complete_kary_tree(2, 3, weights=equal()),
])
def test_heuristic_matches_reference(graph_fn):
    g = graph_fn()
    problem = SearchProblem(g)
    for red, blue in _states_of(problem, g, None):
        red_nodes = [problem.nodes[i] for i in range(problem.n)
                     if red >> i & 1]
        blue_nodes = [problem.nodes[i] for i in range(problem.n)
                      if blue >> i & 1]
        ref = residual_io_lower_bound(g, red_nodes, blue_nodes)
        assert problem.heuristic(red, blue) == ref, (red, blue)


def test_heuristic_at_start_is_classic_lower_bound():
    """From the initial configuration the residual bound must be at most
    the optimum (admissibility at the root)."""
    for g in (dwt_graph(4, 1, weights=equal()),
              mvm_graph(2, 2, weights=equal())):
        problem = SearchProblem(g)
        h0 = problem.heuristic(0, problem.source_mask)
        opt = ExhaustiveScheduler().min_cost(g, g.total_weight())
        assert h0 <= opt


# --------------------------------------------------------------------- #
# Tie order: the lower-bound plateau is walked deepest first


def test_plateau_at_the_lower_bound_settles_few_states():
    """On DWT(8,1) the optimum equals the Prop. 2.4 bound (16) at every
    feasible budget, so every state on an optimal path shares one f.  A
    first-in, first-out tie order sweeps that plateau breadth-first and
    trips the 1000-state cap; deepest-first settles under a hundred
    states at each budget from a fresh scheduler."""
    g = dwt_graph(8, 1)
    for budget in range(3, 17):
        ex = ExhaustiveScheduler(max_states=1000)
        assert ex.min_cost(g, budget) == 16, budget
        assert ex.last_stats.expanded <= 100, (budget,
                                               ex.last_stats.expanded)
    sched = ExhaustiveScheduler(max_states=1000).schedule(g, 9)
    assert simulate(g, sched, budget=9).cost == 16


# --------------------------------------------------------------------- #
# Transposition table


def test_transposition_reuse_across_budgets():
    g = mvm_graph(2, 2, weights=equal())
    ex = ExhaustiveScheduler()
    memo: dict = {}
    budgets = budgets_for(g)
    first = ex.cost_many(g, budgets, memo=memo)
    table = memo["table"]
    assert isinstance(table, TranspositionTable)
    expanded_once = table.stats.expanded
    again = ex.cost_many(g, budgets, memo=memo)
    assert again == first
    # Every repeat probe is answered from the table: no new expansions.
    assert table.stats.expanded == expanded_once
    assert table.stats.result_hits >= sum(1 for c in first
                                          if math.isfinite(c))


def test_transposition_bracket_close():
    """lb(b) == ub(b) from neighbouring budgets answers without a search."""
    g = mvm_graph(2, 2, weights=equal())
    ex = ExhaustiveScheduler()
    memo: dict = {}
    total = g.total_weight()
    lo_cost = ex.cost_many(g, (total - 1,), memo=memo)[0]
    hi_cost = ex.cost_many(g, (total + 1,), memo=memo)[0]
    if lo_cost == hi_cost:
        table = memo["table"]
        expanded = table.stats.expanded
        mid = ex.cost_many(g, (total,), memo=memo)[0]
        assert mid == lo_cost
        assert table.stats.expanded == expanded  # bracket closed, no search


def test_min_cost_single_budget_matches_cost_many():
    g = dwt_graph(4, 1, weights=equal())
    ex = ExhaustiveScheduler()
    for budget in budgets_for(g):
        assert _cost(ex, g, budget) == ex.cost_many(g, (budget,))[0]


# --------------------------------------------------------------------- #
# Determinism (satellite: monotone heap sequence numbers)


@pytest.mark.parametrize("core", ["search", "legacy"])
def test_schedules_are_deterministic(core):
    g = mvm_graph(2, 2, weights=equal())
    b = budgets_for(g)[1]
    runs = [ExhaustiveScheduler(core=core).schedule(g, b) for _ in range(3)]
    first = list(runs[0])
    for other in runs[1:]:
        assert list(other) == first


# --------------------------------------------------------------------- #
# Settled-state accounting + stats surfacing


@pytest.mark.parametrize("core", ["search", "legacy"])
def test_max_states_counts_settled_and_carries_stats(core):
    g = mvm_graph(2, 2, weights=equal())
    ex = ExhaustiveScheduler(max_states=5, core=core)
    with pytest.raises(StateSpaceTooLargeError) as ei:
        ex.min_cost(g, g.total_weight())
    ctx = ei.value.context()
    assert ctx["limit"] == 5
    assert ctx["size"] > 5
    assert ctx["expanded"] >= 5  # settled-state accounting, both cores


def test_last_stats_populated():
    g = dwt_graph(4, 1, weights=equal())
    ex = ExhaustiveScheduler()
    ex.min_cost(g, g.total_weight())
    assert ex.last_stats.expanded > 0
    assert ex.last_stats.heuristic_evals > 0


def test_stats_do_not_change_cache_key():
    ex = ExhaustiveScheduler()
    key = ex.cache_key()
    ex.min_cost(dwt_graph(4, 1, weights=equal()), 64)
    assert ex.cache_key() == key


# --------------------------------------------------------------------- #
# Transposition bound overlays == naive full scans


def test_transposition_bounds_match_naive_reference():
    import random

    problem = SearchProblem(dwt_graph(4, 1, weights=equal()))
    rng = random.Random(20260808)
    for _ in range(60):
        table = TranspositionTable(problem)
        solved = {}
        for _ in range(rng.randint(1, 25)):
            b = rng.randint(0, 120)
            c = rng.randint(0, 80)  # deliberately non-monotone data
            table.record(b, c)
            solved[b] = c
            for q in range(0, 130, 7):
                want_lb = max((cc for bb, cc in solved.items() if bb >= q),
                              default=0)
                want_ub = min((cc for bb, cc in solved.items() if bb <= q),
                              default=math.inf)
                assert table.lower_bound(q) == want_lb, (solved, q)
                assert table.upper_bound(q) == want_ub, (solved, q)
                assert table.lookup(q) == solved.get(q)
