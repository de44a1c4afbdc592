"""Tests for the layer-by-layer baseline (paper Sec. 5.1)."""

import math

import pytest

from repro.core import (CDAG, InfeasibleBudgetError, MoveType,
                        algorithmic_lower_bound, double_accumulator, equal,
                        min_feasible_budget, require_feasible, simulate)
from repro.core.exceptions import GraphStructureError
from repro.graphs import (dwt_graph, mvm_graph, random_layered_dag,
                          random_weighted)
from repro.schedulers import LayerByLayerScheduler
from repro.analysis import log_budget_grid, scheduler_min_memory

EAGER = LayerByLayerScheduler(retention="eager")
DEFERRED = LayerByLayerScheduler(retention="deferred")


class TestValidity:
    @pytest.mark.parametrize("scheduler", [EAGER, DEFERRED])
    @pytest.mark.parametrize("n,d", [(4, 1), (8, 3), (16, 2), (32, 5)])
    def test_valid_across_budgets(self, scheduler, n, d):
        g = dwt_graph(n, d, weights=equal())
        lo = min_feasible_budget(g)
        for b in (lo, lo + 32, lo + 512):
            sched = scheduler.schedule(g, b)
            res = simulate(g, sched, budget=b)
            assert res.cost >= algorithmic_lower_bound(g)

    def test_works_on_mvm(self):
        g = mvm_graph(3, 4, weights=equal())
        b = min_feasible_budget(g) + 64
        res = simulate(g, EAGER.schedule(g, b), budget=b)
        assert res.cost >= algorithmic_lower_bound(g)

    def test_rejects_non_layered_names(self, diamond):
        with pytest.raises(GraphStructureError, match="layer"):
            EAGER.schedule(diamond, 3)

    def test_rejects_bad_retention(self):
        with pytest.raises(ValueError):
            LayerByLayerScheduler(retention="nope")

    def test_infeasible_budget(self):
        g = dwt_graph(8, 3, weights=equal())
        with pytest.raises(InfeasibleBudgetError):
            EAGER.schedule(g, 32)


class TestBehaviour:
    def test_alternating_direction(self):
        """Computes ascend in S2 and descend in S3 (Sec. 5.1)."""
        g = dwt_graph(16, 2, weights=equal())
        sched = DEFERRED.schedule(g, 10_000)
        s2 = [m.node[1] for m in sched
              if m.kind == MoveType.COMPUTE and m.node[0] == 2]
        s3 = [m.node[1] for m in sched
              if m.kind == MoveType.COMPUTE and m.node[0] == 3]
        assert s2 == sorted(s2)
        assert s3 == sorted(s3, reverse=True)

    def test_eager_needs_less_memory_than_deferred(self):
        g = dwt_graph(64, 6, weights=equal())
        assert (scheduler_min_memory(EAGER, g)
                < scheduler_min_memory(DEFERRED, g))

    def test_reaches_lower_bound_with_ample_memory(self):
        g = dwt_graph(32, 5, weights=equal())
        b = g.total_weight()
        for s in (EAGER, DEFERRED):
            assert s.cost(g, b) == algorithmic_lower_bound(g)

    def test_cost_degrades_as_budget_shrinks(self):
        g = dwt_graph(32, 5, weights=equal())
        lo = min_feasible_budget(g)
        tight = EAGER.cost(g, lo)
        roomy = EAGER.cost(g, g.total_weight())
        assert tight > roomy

    def test_paper_minimum_memory_constants(self):
        """Deferred retention reproduces the paper's Table 1 baseline
        within 1%: 448 vs 445 words (Equal), 640 vs 636 (DA)."""
        g = dwt_graph(256, 8, weights=equal())
        assert scheduler_min_memory(DEFERRED, g) == 448 * 16
        g = dwt_graph(256, 8, weights=double_accumulator())
        assert scheduler_min_memory(DEFERRED, g) == 640 * 16

    def test_eager_minimum_memory(self):
        """The literal-text (eager) variant needs ~131/260 words — recorded
        for the EXPERIMENTS.md sensitivity note."""
        g = dwt_graph(256, 8, weights=equal())
        assert scheduler_min_memory(EAGER, g) == 131 * 16
        g = dwt_graph(256, 8, weights=double_accumulator())
        assert scheduler_min_memory(EAGER, g) == 260 * 16

    def test_outputs_stored_exactly_once_at_lb(self):
        g = dwt_graph(16, 4, weights=equal())
        sched = DEFERRED.schedule(g, g.total_weight())
        res = simulate(g, sched, budget=g.total_weight())
        assert res.write_cost == g.total_weight(g.sinks)


class TestCountingWalk:
    """``cost_many`` runs the spill walk without building moves: it must
    equal ``schedule(g, b).cost(g)`` in value and type, and answer
    ``math.inf`` exactly where ``schedule`` raises."""

    @staticmethod
    def _agree(scheduler, g, budgets):
        got = scheduler.cost_many(g, budgets, memo={})
        assert len(got) == len(budgets)
        for b, cost in zip(budgets, got):
            try:
                want = scheduler.schedule(g, b).cost(g)
            except InfeasibleBudgetError:
                assert cost == math.inf, b
            else:
                assert cost == want and type(cost) is type(want), b
        return got

    @pytest.mark.parametrize("scheduler", [EAGER, DEFERRED],
                             ids=["eager", "deferred"])
    @pytest.mark.parametrize("da,words", [(False, 448), (True, 640)])
    def test_fig5_grid_on_dwt_256_8(self, scheduler, da, words):
        # fig5.dwt_panel's grid: Prop. 2.3's bound up to 1.3x the deferred
        # baseline's minimum memory (Table 1: 448 / 640 words).
        g = dwt_graph(256, 8, weights=double_accumulator(16) if da
                      else equal(16))
        lo = min_feasible_budget(g)
        grid = log_budget_grid(lo, int(words * 16 * 1.3), 20)
        assert len(grid) == 20
        got = self._agree(scheduler, g, [lo - 1] + grid)
        assert got[0] == math.inf
        assert all(math.isfinite(c) for c in got[1:])

    @pytest.mark.parametrize("scheduler", [EAGER, DEFERRED],
                             ids=["eager", "deferred"])
    def test_random_layered_and_mvm(self, scheduler):
        graphs = [mvm_graph(4, 5, weights=double_accumulator(16))]
        for seed in range(3):
            g = random_layered_dag(5, 6, seed=seed)
            graphs += [g, random_weighted(g, 1, 9, seed=seed)]
        for g in graphs:
            lo = min_feasible_budget(g)
            self._agree(scheduler, g,
                        [lo - 1] + log_budget_grid(lo, g.total_weight(), 12))

    @pytest.mark.parametrize("scheduler", [EAGER, DEFERRED],
                             ids=["eager", "deferred"])
    def test_lost_value_is_infeasible_on_both_paths(self, scheduler):
        # An edge inside a layer, against the ascending pass: (2, 0) needs
        # (2, 1) before the walk has computed it.
        g = CDAG([((1, 0), (2, 0)), ((1, 1), (2, 1)), ((2, 1), (2, 0))],
                 {(1, 0): 1, (1, 1): 1, (2, 0): 1, (2, 1): 1}, name="back")
        with pytest.raises(InfeasibleBudgetError, match="lost"):
            scheduler.schedule(g, 8)
        assert self._agree(scheduler, g, [2, 3, 8]) == [math.inf] * 3

    def test_non_layered_names_still_rejected(self, diamond):
        assert DEFERRED.cost_many(diamond, [2]) == [math.inf]
        with pytest.raises(GraphStructureError, match="layer"):
            DEFERRED.cost_many(diamond, [3])

    def test_one_bound_scan_per_graph(self, monkeypatch):
        import repro.core.bounds as bounds
        scanned = []
        real = bounds.compute_footprint
        monkeypatch.setattr(bounds, "compute_footprint",
                            lambda cdag, v: scanned.append(v)
                            or real(cdag, v))
        g = dwt_graph(16, 4, weights=equal())
        budgets = [16, 64, 256, 1024]
        memo = {}
        first = DEFERRED.cost_many(g, budgets, memo=memo)
        assert len(scanned) == sum(1 for v in g if g.predecessors(v))
        assert DEFERRED.cost_many(g, budgets, memo=memo) == first
        EAGER.cost_many(g, budgets)
        require_feasible(g, 1024)
        DEFERRED.schedule(g, 1024)
        assert len(scanned) == sum(1 for v in g if g.predecessors(v))
