"""Tests for the cached/parallel/instrumented sweep engine.

The engine's contract is "same answers, fewer evaluations": every test
here compares an engine-produced result against the direct serial path
(`scheduler.cost`, `sweep`, `scheduler_min_memory`) and requires them to
be identical — then checks the instrumentation actually recorded the
saved work.
"""

import math

import pytest

from repro.analysis import (CachedCostFn, SweepEngine, SweepStats,
                            get_default_engine, scheduler_min_memory,
                            set_default_engine, sweep)
from repro.analysis.engine import _pool_task
from repro.analysis import log_budget_grid
from repro.core import (InfeasibleBudgetError, double_accumulator, equal,
                        min_feasible_budget)
from repro.core.governor import CancellationToken
from repro.experiments import mvm_workload
from repro.graphs import complete_kary_tree, dwt_graph, mvm_graph
from repro.schedulers import (ExhaustiveScheduler,
                              GreedyTopologicalScheduler,
                              LayerByLayerScheduler, OptimalDWTScheduler,
                              OptimalTreeScheduler, Scheduler,
                              TilingMVMScheduler)


@pytest.fixture
def dwt16():
    return dwt_graph(16, 4, weights=equal())


class TestCostMany:
    """scheduler.cost_many must agree with per-budget cost everywhere."""

    BUDGETS = [16, 64, 96, 160, 256, 512, 1024]

    @staticmethod
    def _direct(scheduler, g, b):
        try:
            return scheduler.cost(g, b)
        except InfeasibleBudgetError:
            return math.inf

    def _check(self, scheduler, g):
        memo = {}
        batched = scheduler.cost_many(g, self.BUDGETS, memo=memo)
        for b, got in zip(self.BUDGETS, batched):
            want = self._direct(scheduler, g, b)
            assert got == want
            if math.isfinite(want):
                assert type(got) is type(want)  # bit-identical sweeps
        # re-running on the shared memo must not change answers
        assert scheduler.cost_many(g, self.BUDGETS, memo=memo) == batched

    def test_dwt_optimal(self, dwt16):
        self._check(OptimalDWTScheduler(), dwt16)

    def test_kary_tree(self):
        g = complete_kary_tree(3, 3, weights=equal())
        self._check(OptimalTreeScheduler(), g)

    def test_tiling_mvm(self, monkeypatch):
        g = mvm_graph(8, 10, weights=double_accumulator())
        self._check(TilingMVMScheduler(8, 10), g)
        # Fig. 5c's grid on MVM(96,120): the class weights are read once
        # per graph (the memo) and Prop. 2.3's bound is scanned once per
        # graph (cached on it), never once per budget.
        import repro.core.bounds as bounds
        import repro.schedulers.tiling as tiling_mod
        calls = {"class_weights": 0}
        real_weights = tiling_mod.class_weights

        def counted(cdag):
            calls["class_weights"] += 1
            return real_weights(cdag)
        monkeypatch.setattr(tiling_mod, "class_weights", counted)
        scanned = []
        real_footprint = bounds.compute_footprint
        monkeypatch.setattr(bounds, "compute_footprint",
                            lambda cdag, v: scanned.append(v)
                            or real_footprint(cdag, v))
        w = mvm_workload(False)
        # A with_weights clone scans afresh, whatever earlier tests asked
        # of the shared workload graph.
        graph = w.graph.with_weights(w.graph.weights)
        computed = sum(1 for v in graph if graph.predecessors(v))
        grid = log_budget_grid(min_feasible_budget(graph),
                               int(w.ioopt.min_memory() * 1.3), 20)
        assert len(grid) == 20
        assert len(scanned) == computed
        memo = {}
        first = w.tiling.cost_many(graph, grid, memo=memo)
        assert calls == {"class_weights": 1}
        assert w.tiling.cost_many(graph, grid, memo=memo) == first
        assert calls == {"class_weights": 1}
        assert len(scanned) == computed
        # The grid starts at Prop. 2.3's bound, below the tiling footprint.
        assert first[0] == math.inf and math.isfinite(first[1])
        assert first == [self._direct(w.tiling, graph, b) for b in grid]

    @pytest.mark.parametrize("retention", ["eager", "deferred"])
    def test_layer_by_layer(self, dwt16, retention):
        # The counting walk against the schedule-building cost().
        self._check(LayerByLayerScheduler(retention=retention), dwt16)

    def test_default_cost_many(self, dwt16):
        # base-class fallback: loop over cost(), ∞ on infeasibility
        sched = GreedyTopologicalScheduler()
        assert type(sched).cost_many is Scheduler.cost_many
        self._check(sched, dwt16)


class TestCachedCostFn:
    def test_counts_hits_and_evals(self):
        calls = []
        fn = CachedCostFn(lambda b: calls.append(b) or 100 - b)
        assert fn(40) == 60
        assert fn(40) == 60
        assert fn(60) == 40
        assert calls == [40, 60]
        assert fn.stats.probes == 3
        assert fn.stats.cache_hits == 1
        assert fn.stats.evals == 2
        assert fn.stats.cache_hit_rate == pytest.approx(1 / 3)

    def test_infeasibility_cached_as_inf(self):
        def raw(b):
            raise InfeasibleBudgetError("never")
        fn = CachedCostFn(raw)
        assert fn(8) == math.inf
        assert fn(8) == math.inf
        assert fn.stats.evals == 1

    def test_prime_dedupes(self):
        calls = []
        fn = CachedCostFn(lambda b: calls.append(b) or b)
        fn.prime([16, 32, 16, 32, 48])
        assert calls == [16, 32, 48]
        assert fn.stats.probes == 3  # deduped
        fn.prime([16, 64])
        assert calls == [16, 32, 48, 64]
        assert fn.stats.cache_hits == 1
        assert fn.value(64) == 64

    def test_scheduler_path_matches_cost(self, dwt16):
        sched = OptimalDWTScheduler()
        fn = CachedCostFn(scheduler=sched, cdag=dwt16)
        for b in (64, 128, 1024):
            assert fn(b) == sched.cost(dwt16, b)
        assert fn.memo_entries() > 0
        assert fn.stats.peak_memo_entries >= fn.memo_entries()

    def test_constructor_validation(self, dwt16):
        with pytest.raises(ValueError):
            CachedCostFn()
        with pytest.raises(ValueError):
            CachedCostFn(lambda b: b, scheduler=OptimalDWTScheduler(),
                         cdag=dwt16)
        with pytest.raises(ValueError):
            CachedCostFn(scheduler=OptimalDWTScheduler())


class TestEngineSweep:
    def test_bit_identical_to_direct_sweep_dwt(self, dwt16):
        sched = OptimalDWTScheduler()
        budgets = [64, 96, 128, 256, 512]
        direct = sweep(lambda b: sched.cost(dwt16, b), budgets, "opt")
        eng = SweepEngine()
        cached = eng.sweep(sched, dwt16, budgets, "opt")
        again = eng.sweep(sched, dwt16, budgets, "opt")
        assert cached == direct
        assert again == direct
        assert eng.stats.cache_hits >= len(budgets)  # 2nd sweep was free
        assert eng.stats.sweeps == 2

    def test_bit_identical_to_direct_sweep_mvm(self):
        g = mvm_graph(8, 10, weights=equal())
        sched = TilingMVMScheduler(8, 10)
        budgets = [160, 320, 640, 1280]
        direct = sweep(lambda b: sched.cost(g, b), budgets, "tile")
        eng = SweepEngine()
        assert eng.sweep(sched, g, budgets, "tile") == direct

    def test_sweep_fn_keyed_cache(self):
        calls = []
        model_key = ("model", 1)

        def make_fn():
            return lambda b: calls.append(b) or 7

        eng = SweepEngine()
        s1 = eng.sweep_fn(make_fn(), [16, 32], "ub", key=model_key)
        s2 = eng.sweep_fn(make_fn(), [16, 32], "ub", key=model_key)
        assert s1 == s2
        assert calls == [16, 32]  # second callable never ran


class TestServiceProbe:
    """``SweepEngine.probe``, the daemon's single-budget entry point."""

    def test_cancelled_anytime_token_gives_a_bracket(self):
        g = dwt_graph(8, 2, weights=equal())
        eng = SweepEngine(anytime=True)
        token = CancellationToken(anytime=True)
        token.cancel("test")
        outcome = eng.probe(ExhaustiveScheduler(), g, 64, token=token)
        assert not outcome.exact  # certified bracket, not a wrong answer
        assert outcome.lb <= outcome.ub

    def test_store_refused_record_is_never_served(self, tmp_path):
        # The store refuses budget 0; the probe must fail every time,
        # never answer a later call from a cache the refusal left behind.
        g = dwt_graph(8, 2)
        with SweepEngine(store=str(tmp_path / "store"), anytime=True) as eng:
            for _ in range(2):
                with pytest.raises(ValueError, match="refusing to stage"):
                    eng.probe(OptimalDWTScheduler(), g, 0)
            assert eng._seed == {}


class TestEngineMinMemory:
    def test_matches_scheduler_min_memory(self, dwt16):
        for sched in (OptimalDWTScheduler(),
                      LayerByLayerScheduler(retention="deferred")):
            eng = SweepEngine()
            assert (eng.min_memory(sched, dwt16)
                    == scheduler_min_memory(sched, dwt16))
            assert eng.stats.searches == 1
            assert eng.stats.probes > 0

    def test_hint_does_not_change_result(self, dwt16):
        sched = OptimalDWTScheduler()
        want = scheduler_min_memory(sched, dwt16)
        for hint in (None, 16, want - 16, want, want + 16,
                     dwt16.total_weight()):
            eng = SweepEngine()
            assert eng.min_memory(sched, dwt16, hint=hint) == want

    def test_search_then_sweep_shares_cache(self, dwt16):
        sched = OptimalDWTScheduler()
        eng = SweepEngine()
        best = eng.min_memory(sched, dwt16)
        evals_after_search = eng.stats.evals
        series = eng.sweep(sched, dwt16, [best], "opt")
        assert eng.stats.evals == evals_after_search  # pure cache hit
        assert series.costs[0] == sched.cost(dwt16, best)


class TestEngineMap:
    @staticmethod
    def _task(x, engine=None):
        assert engine is not None
        return x * x

    def test_serial_map_shares_engine(self):
        eng = SweepEngine(jobs=1)
        seen = []

        def task(x, engine=None):
            seen.append(engine)
            return x + 1

        assert eng.map([(task, (1,)), (task, (2,))]) == [2, 3]
        assert all(e is eng for e in seen)
        assert eng.stats.tasks == 2

    def test_parallel_map_is_deterministic(self):
        eng = SweepEngine(jobs=2)
        tasks = [(TestEngineMap._task, (x,)) for x in range(6)]
        assert eng.map(tasks) == [x * x for x in range(6)]
        assert eng.stats.tasks == 6

    def test_parallel_results_match_serial_on_curves(self):
        from repro.experiments.fig6 import dwt_panel, mvm_panel
        ser = dwt_panel(False, n_max=32, stride=4, engine=SweepEngine(jobs=1))
        par = dwt_panel(False, n_max=32, stride=4, engine=SweepEngine(jobs=2))
        assert ser == par
        ser_m = mvm_panel(True, n_max=10, engine=SweepEngine(jobs=1))
        par_m = mvm_panel(True, n_max=10, engine=SweepEngine(jobs=2))
        assert ser_m == par_m

    def test_pool_task_reports_worker_stats(self, dwt16):
        def probe(n, engine=None):
            g = dwt_graph(n, 2, weights=equal())
            return engine.min_memory(OptimalDWTScheduler(), g)

        result, stats, probes = _pool_task(probe, (4,), {})
        assert result == scheduler_min_memory(OptimalDWTScheduler(),
                                              dwt_graph(4, 2, weights=equal()))
        assert stats.searches == 1 and stats.probes > 0
        # the worker exports its evaluated probes for the parent to merge
        # (7 fields since the governance layer: + provenance, lb)
        assert probes and all(len(p) == 7 for p in probes)
        assert all(p[5] == "exact" and p[6] is None for p in probes)

    def test_chunks_cover_in_order(self):
        eng = SweepEngine(jobs=3)
        chunks = eng.chunks(range(7))
        assert [x for c in chunks for x in c] == list(range(7))
        assert len(chunks) <= 3
        assert SweepEngine(jobs=1).chunks([1, 2]) == [(1, 2)]
        assert SweepEngine(jobs=4).chunks([]) == []


class TestStats:
    def test_merge(self):
        a = SweepStats(probes=10, cache_hits=4, evals=6, eval_time=1.0,
                       wall_time=2.0, peak_memo_entries=100, searches=1,
                       sweeps=2, tasks=3)
        b = SweepStats(probes=5, cache_hits=1, evals=4, eval_time=0.5,
                       wall_time=0.25, peak_memo_entries=70, searches=2,
                       sweeps=0, tasks=1)
        a.merge(b)
        assert (a.probes, a.cache_hits, a.evals) == (15, 5, 10)
        assert a.peak_memo_entries == 100  # max, not sum
        assert (a.searches, a.sweeps, a.tasks) == (3, 2, 4)

    def test_report_renders(self):
        s = SweepStats(probes=4, cache_hits=1, evals=3)
        text = s.report()
        assert "cache hits" in text and "25.0%" in text

    def test_empty_hit_rate(self):
        assert SweepStats().cache_hit_rate == 0.0


class TestDefaultEngine:
    def test_default_engine_is_shared_and_resettable(self):
        set_default_engine(None)
        eng = get_default_engine()
        assert get_default_engine() is eng
        mine = SweepEngine(jobs=1)
        set_default_engine(mine)
        try:
            assert get_default_engine() is mine
        finally:
            set_default_engine(None)


class TestCloseHardening:
    """Satellite: ``close()`` must be safe from atexit/signal handlers,
    including on engines whose ``__init__`` never finished."""

    def test_close_on_uninitialized_engine_is_a_noop(self):
        eng = SweepEngine.__new__(SweepEngine)  # __init__ never ran
        eng.close()  # must not raise on missing attributes

    def test_close_is_idempotent(self, tmp_path):
        eng = SweepEngine(store=tmp_path / "st")
        eng.close()
        eng.close()

    def test_failing_store_close_warns_not_raises(self):
        eng = SweepEngine()

        class BadStore:
            def close(self):
                raise OSError("fs died")

        eng.store = BadStore()
        with pytest.warns(RuntimeWarning, match="result-store"):
            eng.close()
        assert eng.store is None

    def test_engine_usable_after_close_minus_write_through(self, dwt16):
        eng = SweepEngine()
        eng.close()
        sched = OptimalDWTScheduler()
        assert eng.cost_fn(sched, dwt16)(256) == sched.cost(dwt16, 256)
