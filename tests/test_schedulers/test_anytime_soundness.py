"""Anytime-mode frontier soundness for the informed-search oracle.

Whenever the search stops early -- settled-state cap, governed deadline,
external cancellation -- its :class:`AnytimeResult` must bracket the true
optimum: ``lower_bound <= opt <= upper_bound``, with a finite upper bound
backed by a real reconstructed schedule.  Those properties have to hold
at *every* stopping point, not just convenient ones, so these tests sweep
the stopping point across the whole search trajectory (state caps 1, 2,
4, ... and a counter-driven deadline that fires on the N-th poll for
every N).
"""

import itertools
import math

from repro.analysis.fuzz import budgets_for, corpus
from repro.core import CancellationToken, GraphStructureError
from repro.schedulers import SearchProblem, astar


def _small_cases(seed=0, max_nodes=9, per_graph=None):
    """(name, graph, problem, budget, optimum) over feasible fuzz probes."""
    for name, graph in corpus(seed):
        if len(graph) > max_nodes:
            continue
        problem = SearchProblem(graph)
        budgets = budgets_for(graph)
        if per_graph is not None:
            budgets = budgets[:per_graph]
        for budget in budgets:
            try:
                opt, _ = astar(problem, budget)
            except GraphStructureError:
                continue    # infeasible budget: no bracket to certify
            yield name, graph, problem, budget, opt


def _assert_sound(res, opt, graph, key):
    assert res.lower_bound <= opt <= res.upper_bound, (key, res)
    assert res.lower_bound <= res.upper_bound, (key, res)
    if res.reason == "exact":
        assert res.lower_bound == opt == res.upper_bound, (key, res)
    if res.schedule is not None:
        assert math.isfinite(res.upper_bound), (key, res)
        assert res.schedule.cost(graph) == res.upper_bound, (key, res)
    else:
        assert math.isinf(res.upper_bound), (key, res)


# --------------------------------------------------------------------- #
# Settled-state caps


def test_state_cap_brackets_contain_optimum():
    """lb <= opt <= ub at every truncation depth, and the bracket closes
    (reason "exact") once the cap stops binding."""
    checked = 0
    for name, graph, problem, budget, opt in _small_cases(per_graph=3):
        closed = False
        for cap in (1, 2, 4, 8, 16, 64, 256, 100_000):
            res = astar(problem, budget, anytime=True, max_states=cap,
                        want_schedule=True)
            _assert_sound(res, opt, graph, (name, budget, cap))
            closed = closed or res.reason == "exact"
            checked += 1
        assert closed, (name, budget)   # uncapped run must certify exactly
    assert checked >= 80    # the corpus filter still yields real coverage


# --------------------------------------------------------------------- #
# Mid-expansion cancellation


def _counter_token(n):
    """Token whose clock is a poll counter: cancels on the N-th full
    check, deterministically, wherever in the search that check lands."""
    ticks = itertools.count()
    return CancellationToken(poll_interval=1, budget=n,
                             clock=lambda: next(ticks),
                             rss_fn=lambda: None)


def test_cancellation_brackets_contain_optimum():
    """Sweeping the cancellation point over the whole trajectory never
    produces an unsound bracket, and a late-enough deadline completes."""
    cases = [c for c in _small_cases(max_nodes=8, per_graph=2)][:6]
    assert len(cases) >= 3
    sweep = list(range(1, 33)) + [48, 64, 96, 128, 256, 512, 1024, 4096,
                                  16384, 65536]
    for name, graph, problem, budget, opt in cases:
        completed = False
        for n in sweep:
            res = astar(problem, budget, anytime=True, want_schedule=True,
                        token=_counter_token(n))
            _assert_sound(res, opt, graph, (name, budget, n))
            if res.reason == "exact":
                completed = True
                break
        assert completed, (name, budget)    # sweep must outlast the search


def test_early_cancellation_keeps_admissible_lower_bound():
    """A probe cancelled on its very first poll still answers with the
    root heuristic as lb and an infinite (no incumbent) ub."""
    for name, graph, problem, budget, opt in [c for c in _small_cases()][:4]:
        res = astar(problem, budget, anytime=True, want_schedule=True,
                    token=_counter_token(1))
        assert res.reason == "deadline"
        assert res.schedule is None and math.isinf(res.upper_bound)
        assert 0 <= res.lower_bound <= opt, (name, budget, res)
