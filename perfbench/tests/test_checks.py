"""Every correctness check of the benchmark rejects a perturbed answer.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import copy
import math

import pytest

import oracle
import reproduce
import serve


# --------------------------------------------------------------------- #
# reproduce


@pytest.fixture(scope="module")
def table1_rows():
    from repro.experiments import run_table1
    from repro.analysis.engine import SweepEngine
    with SweepEngine() as eng:
        return run_table1(engine=eng)


def test_table1_matches_the_paper(table1_rows):
    assert reproduce.check_table1(table1_rows) == []


@pytest.mark.parametrize("row", [0, 4])
def test_table1_rejects_a_moved_minimum(table1_rows, row):
    rows = list(table1_rows)
    r = rows[row]
    # one word (the weight gcd of these graphs is one 16-bit word)
    rows[row] = type(r)(**{**r.__dict__, "min_words": r.min_words + 1,
                          "min_capacity_bits": r.min_capacity_bits + 16})
    assert reproduce.check_table1(rows)


def test_table1_rejects_a_missing_row(table1_rows):
    assert reproduce.check_table1(list(table1_rows)[:-1])


@pytest.fixture(scope="module")
def fig5a():
    from repro.analysis.engine import SweepEngine
    from repro.experiments import dwt_workload, fig5
    with SweepEngine() as eng:
        return fig5.dwt_panel(dwt_workload(False), 20, engine=eng)


def test_fig5_panel_passes(fig5a):
    assert reproduce.check_fig5_panel("a", fig5a) == []


def _with_costs(series, costs):
    return type(series)(**{**series.__dict__, "costs": tuple(costs)})


def test_fig5_rejects_an_optimum_above_the_baseline(fig5a):
    lb, base, ours = fig5a
    i = next(i for i, (o, x) in enumerate(zip(ours.costs, base.costs))
             if o == x and not math.isinf(o))
    costs = list(ours.costs)
    costs[i] += 16
    assert reproduce.check_fig5_panel(
        "a", [lb, base, _with_costs(ours, costs)])


def test_fig5_rejects_a_cost_below_the_bound(fig5a):
    lb, base, ours = fig5a
    costs = list(ours.costs)
    costs[-1] = lb.costs[-1] - 16
    assert reproduce.check_fig5_panel(
        "a", [lb, base, _with_costs(ours, costs)])


def test_fig5_rejects_a_missing_panel():
    assert reproduce.check_fig5_panel("a", None)


def test_fig6_point_checks_def_2_6():
    fn, target, step = reproduce.fig6_fresh_costs("a", "Optimum (Ours)", 64)
    from repro.analysis.min_memory import minimum_fast_memory
    from repro.core import min_feasible_budget
    from repro.graphs import dwt_graph, max_level
    g = dwt_graph(64, max_level(64))
    m = minimum_fast_memory(fn, target, min_feasible_budget(g),
                            g.total_weight(), step)
    ok = reproduce.check_fig6_point("a", "Optimum", 64, m, fn, target, step)
    assert ok == []
    assert reproduce.check_fig6_point("a", "Optimum", 64, m + step, fn,
                                      target, step)
    assert reproduce.check_fig6_point("a", "Optimum", 64, m - step, fn,
                                      target, step)


# --------------------------------------------------------------------- #
# oracle


@pytest.fixture(scope="module")
def solved():
    from repro.analysis.engine import SweepEngine
    from repro.graphs import fft_graph
    g = fft_graph(4)
    with SweepEngine() as eng:
        res = oracle.solve(eng, g, "fft(4)")
    return g, res, list(res["costs"]), oracle.others_for(g)


def test_oracle_answers_pass(solved):
    g, res, fresh, others = solved
    assert oracle.check_answers("fft(4)", g, res, fresh, others) == []


def test_whole_graph_check_passes(solved):
    import random
    g, res, _, _ = solved
    assert oracle.check_graph("fft(4)", g, res, random.Random(0)) == []


@pytest.mark.parametrize("delta", [-1, 1])  # the weight gcd of fft(4) is 1
def test_oracle_rejects_a_cost_one_step_off(solved, delta):
    g, res, fresh, others = solved
    for i, c in enumerate(res["costs"]):
        if math.isinf(c):
            continue
        bad = copy.deepcopy(res)
        bad["costs"][i] += delta
        assert oracle.check_answers("fft(4)", g, bad, fresh, others)


def test_oracle_rejects_a_missing_answer(solved):
    g, res, fresh, others = solved
    bad = copy.deepcopy(res)
    bad["costs"].pop()
    assert oracle.check_answers("fft(4)", g, bad, fresh, others)


def test_oracle_rejects_a_degraded_answer(solved):
    g, res, fresh, others = solved
    bad = copy.deepcopy(res)
    bad["degraded"] = [bad["budgets"][-1]]
    assert oracle.check_answers("fft(4)", g, bad, fresh, others)


def test_property_checks_alone_reject_impossible_answers(solved):
    """Without the fresh oracle's costs to compare against, the
    property checks still catch answers no optimum can have."""
    g, res, fresh, others = solved
    for i, c in ((0, 5), (len(res["costs"]) - 1, 1)):  # feasible / below LB
        bad = copy.deepcopy(res)
        bad["costs"][i] = c
        assert oracle.check_answers("fft(4)", g, bad, bad["costs"], others)


def test_oracle_rejects_a_moved_minimum(solved):
    from repro.schedulers import ExhaustiveScheduler
    g, res, _, _ = solved
    fresh = ExhaustiveScheduler()
    memo = {}
    cost = lambda bs: fresh.cost_many(g, bs, memo=memo)  # noqa: E731
    m = res["min_memory"]
    assert oracle.check_minimum("fft(4)", g, m, cost) == []
    assert oracle.check_minimum("fft(4)", g, m + 1, cost)
    assert oracle.check_minimum("fft(4)", g, m - 1, cost)
    assert oracle.check_minimum("fft(4)", g, None, cost)


def test_oracle_replay_rejects_a_wrong_cost(solved):
    g, res, _, _ = solved
    b, c = next((b, c) for b, c in zip(res["budgets"], res["costs"])
                if not math.isinf(c))
    assert oracle.check_replay("fft(4)", g, b, c) == []
    assert oracle.check_replay("fft(4)", g, b, c + 1)


# --------------------------------------------------------------------- #
# serve


def _frame(cost, **kw):
    res = {"cost": cost, "exact": True, "provenance": "exact",
           "degraded": False, "cached": False}
    res.update(kw)
    return {"ok": True, "final": True, "result": res}


def test_served_answer_passes():
    assert serve.check_answer(_frame(160), 160, False) is None


@pytest.mark.parametrize("frame", [
    _frame(176),                                   # one 16-bit step above
    _frame(144),                                   # one step below
    None,                                          # missing answer
    _frame(160, exact=False),                      # flagged non-exact
    _frame(160, provenance="anytime"),
    _frame(160, degraded=True),
    _frame(160, cached=True),                      # write path served cache
    {"ok": False, "final": True, "error": {"code": "internal"}},
])
def test_served_answer_rejected(frame):
    assert serve.check_answer(frame, 160, False) is not None


def test_read_path_requires_cached_answers():
    assert serve.check_answer(_frame(160, cached=True), 160, True) is None
    assert serve.check_answer(_frame(160), 160, True) is not None
