"""Tests for the MVM tiling scheduler (Sec. 4.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (InfeasibleBudgetError, algorithmic_lower_bound,
                        double_accumulator, equal, simulate)
from repro.core.exceptions import GraphStructureError
from repro.graphs import mvm_graph
from repro.schedulers import ExhaustiveScheduler, TilingMVMScheduler


class TestPlanning:
    def test_plan_prefers_lower_cost(self):
        g = mvm_graph(4, 6, weights=equal())
        t = TilingMVMScheduler(4, 6)
        bmin = t.min_memory_for_lower_bound(g)
        plan = t.plan(g, bmin)
        assert plan.cost == algorithmic_lower_bound(g)

    def test_cost_monotone_in_budget(self):
        g = mvm_graph(6, 9, weights=double_accumulator())
        t = TilingMVMScheduler(6, 9)
        lo = t.plan(g, 10_000).peak  # any feasible start
        budgets = range(96, 2000, 16)
        costs = []
        for b in budgets:
            try:
                costs.append(t.cost(g, b))
            except InfeasibleBudgetError:
                continue
        assert costs == sorted(costs, reverse=True)

    def test_infeasible_below_footprint(self):
        g = mvm_graph(4, 4, weights=equal())
        t = TilingMVMScheduler(4, 4)
        with pytest.raises(InfeasibleBudgetError):
            t.plan(g, 3 * 16)  # needs 4 words (acc + x + a/product slot)

    def test_for_graph_inference(self):
        g = mvm_graph(5, 7, weights=equal())
        t = TilingMVMScheduler.for_graph(g)
        assert (t.m, t.n) == (5, 7)

    def test_for_graph_rejects_non_mvm(self):
        from repro.graphs import dwt_graph
        with pytest.raises(GraphStructureError):
            TilingMVMScheduler.for_graph(dwt_graph(8, 3))

    def test_nonuniform_weights_rejected(self):
        g = mvm_graph(3, 3, weights=equal())
        w = dict(g.weights)
        w[(2, 1)] = 48
        with pytest.raises(GraphStructureError, match="uniform"):
            TilingMVMScheduler(3, 3).plan(g.with_weights(w), 10_000)


class TestClosedFormMatchesSimulation:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 4), (4, 3), (5, 5)])
    @pytest.mark.parametrize("da", [False, True])
    def test_plan_equals_strict_replay(self, m, n, da):
        cfg = double_accumulator() if da else equal()
        g = mvm_graph(m, n, weights=cfg)
        t = TilingMVMScheduler(m, n)
        bmin = t.min_memory_for_lower_bound(g)
        for b in range(bmin - 64, bmin + 64, 16):
            try:
                plan = t.plan(g, b)
            except InfeasibleBudgetError:
                continue
            res = simulate(g, t.schedule(g, b), budget=b, strict=True)
            assert res.cost == plan.cost
            assert res.peak_red_weight == plan.peak

    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(2, 6), n=st.integers(1, 6),
           extra_words=st.integers(0, 30), da=st.booleans())
    def test_property_closed_form(self, m, n, extra_words, da):
        cfg = double_accumulator() if da else equal()
        g = mvm_graph(m, n, weights=cfg)
        t = TilingMVMScheduler(m, n)
        b = 4 * 16 + extra_words * 16
        try:
            plan = t.plan(g, b)
        except InfeasibleBudgetError:
            return
        res = simulate(g, t.schedule(g, b), budget=b, strict=True)
        assert res.cost == plan.cost
        assert res.peak_red_weight == plan.peak


class TestPaperNumbers:
    def test_table1_equal(self):
        g = mvm_graph(96, 120, weights=equal())
        t = TilingMVMScheduler(96, 120)
        assert t.min_memory_for_lower_bound(g) == 99 * 16
        assert t.cost(g, 99 * 16) == algorithmic_lower_bound(g)

    def test_table1_double_accumulator(self):
        g = mvm_graph(96, 120, weights=double_accumulator())
        t = TilingMVMScheduler(96, 120)
        assert t.min_memory_for_lower_bound(g) == 126 * 16
        assert t.cost(g, 126 * 16) == algorithmic_lower_bound(g)

    def test_da_strategy_switches_to_vector_priority(self):
        """Sec. 4.3's trade-off: accumulators are cheap under Equal (keep
        all m of them) but expensive under DA (keep the vector instead)."""
        t = TilingMVMScheduler(96, 120)
        eq_plan = t.plan(mvm_graph(96, 120, weights=equal()), 99 * 16)
        assert eq_plan.height == 96 and eq_plan.cost == eq_plan.cost
        da_plan = t.plan(mvm_graph(96, 120, weights=double_accumulator()),
                         126 * 16)
        assert da_plan.pinned_vector == 120 or da_plan.width == 120

    def test_outputs_written_exactly_once(self):
        """The advantage over IOOpt: every output crosses the boundary
        once (Sec. 5.2)."""
        g = mvm_graph(5, 6, weights=equal())
        t = TilingMVMScheduler(5, 6)
        res = simulate(g, t.schedule(g, 1000), budget=1000)
        assert res.write_cost == g.total_weight(g.sinks)


class TestWeightLevelClosedForm:
    """Fig. 6c/6d ask the closed form with a configuration's class weights
    and build no graph; the answer must be the graph's Def. 2.6 minimum.
    The sizes cover the n = 1 transient and the m/n crossover."""

    @pytest.mark.parametrize("n", [1, 2, 95, 96, 97, 120])
    @pytest.mark.parametrize("cfg", [equal(), double_accumulator()],
                             ids=["equal", "da"])
    def test_min_memory_matches_graph(self, n, cfg):
        t = TilingMVMScheduler(96, n)
        g = mvm_graph(96, n, weights=cfg)
        bits = t.min_memory_for_weights(cfg.input_bits, cfg.compute_bits)
        assert bits == t.min_memory_for_lower_bound(g)
        lb = algorithmic_lower_bound(g)
        assert t.cost(g, bits) == lb
        assert t.cost_many(g, [bits - cfg.input_bits])[0] > lb


class TestNearOptimality:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
    def test_close_to_exhaustive_at_generous_budget(self, m, n):
        """At budgets meeting the tiling footprint, tiling reaches the
        algorithmic LB — which *is* optimal."""
        g = mvm_graph(m, n, weights=equal())
        t = TilingMVMScheduler(m, n)
        b = t.min_memory_for_lower_bound(g)
        assert t.cost(g, b) == algorithmic_lower_bound(g)
        oracle = ExhaustiveScheduler().min_cost(g, b)
        assert t.cost(g, b) == oracle
