"""Benchmark the sweep engine against the direct pre-engine path.

The headline measurement reruns the Fig. 6 DWT(n, d*) panel at
``n_max=256`` two ways:

* **direct** — one :func:`scheduler_min_memory` bisection per (size,
  scheduler) pair, exactly how the panel was produced before the engine
  existed: each search bisects the whole budget range from scratch,
  sharing one ``cost_many`` memo across its own probes only (2,219
  evaluations over the panel's 256 searches).
* **engine** — :meth:`SweepEngine.min_memory` with the curve drivers'
  warm-start hints, which bracket each boundary in a few probes, and
  one per-budget cost cache per (scheduler, graph), which answers a
  search's repeated probes (the boundary re-check after bisection)
  without evaluating them again (723 probes, 532 evaluations).

The series must be byte-identical (the engine is an optimisation, not an
approximation), and the engine must evaluate at most a third as many
budgets as the direct path: the gate counts evaluations, the direct
path's ``cost_many`` budgets against ``SweepStats.evals``.  Wall time is
recorded, not gated.  Both paths run the same cost functions and build
and bound the same 128 graphs, and only the engine fingerprints them, so
their time ratio is the evaluations saved diluted by that per-graph
work: the cheaper the cost functions, the lower it reads, and on a
shared host it moves from run to run.  End-to-end speed is perfbench's
to measure.  A second test reruns Fig. 5 + Fig. 6 on one shared engine
and checks the cross-experiment cache actually hits.
"""

import time

import pytest

from repro.analysis import scheduler_min_memory
from repro.analysis.engine import SweepEngine
from repro.core import double_accumulator, equal
from repro.experiments.common import WORD_BITS, dwt_workload, mvm_workload
from repro.experiments.fig5 import dwt_panel as fig5_dwt_panel
from repro.experiments.fig6 import MinMemorySeries, _dwt_sizes, dwt_panel
from repro.graphs import dwt_graph, max_level
from repro.schedulers import LayerByLayerScheduler, OptimalDWTScheduler

N_MAX = 256
STRIDE = 2  # the panel's default x-axis: every even n up to 256
SPEEDUP_FLOOR = 3.0


class _Counted:
    """A scheduler whose ``cost_many`` counts the budgets it evaluates:
    the direct path's ``SweepStats.evals``."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.evals = 0

    def cost_many(self, cdag, budgets, *, memo=None):
        self.evals += len(budgets)
        return self.scheduler.cost_many(cdag, budgets, memo=memo)


def _direct_dwt_panel(da: bool, n_max: int, stride: int):
    """The Fig. 6 DWT panel exactly as computed before the engine:
    independent bisections, every probe a full scheduler evaluation.
    Returns the series and the number of budgets evaluated."""
    cfg = double_accumulator(WORD_BITS) if da else equal(WORD_BITS)
    sizes = _dwt_sizes(n_max, stride)
    lbl = _Counted(LayerByLayerScheduler(retention="deferred"))
    opt = _Counted(OptimalDWTScheduler())
    lbl_mem, opt_mem = [], []
    for n in sizes:
        g = dwt_graph(n, max_level(n), weights=cfg)
        lbl_mem.append(scheduler_min_memory(lbl, g))
        opt_mem.append(scheduler_min_memory(opt, g))
    return [
        MinMemorySeries("Layer-by-Layer", tuple(sizes), tuple(lbl_mem)),
        MinMemorySeries("Optimum (Ours)", tuple(sizes), tuple(opt_mem)),
    ], lbl.evals + opt.evals


def test_engine_speedup_fig6_dwt(record_artifact):
    t0 = time.perf_counter()
    direct, direct_evals = _direct_dwt_panel(False, N_MAX, STRIDE)
    t_direct = time.perf_counter() - t0

    eng = SweepEngine(jobs=1)
    t0 = time.perf_counter()
    cached = dwt_panel(False, n_max=N_MAX, stride=STRIDE, engine=eng)
    t_engine = time.perf_counter() - t0

    assert cached == direct  # byte-identical MinMemorySeries
    saved = direct_evals / eng.stats.evals
    record_artifact("bench_engine", "\n".join([
        f"Fig. 6 DWT panel (n_max={N_MAX}, stride={STRIDE}), serial:",
        f"  direct bisections   {direct_evals:5d} evaluations "
        f"{t_direct:6.2f}s",
        f"  sweep engine        {eng.stats.evals:5d} evaluations "
        f"{t_engine:6.2f}s",
        f"  evaluations saved   {saved:.2f}x (floor {SPEEDUP_FLOOR}x); "
        f"wall time {t_direct / t_engine:.2f}x, not gated",
        eng.stats.report(),
    ]))
    assert saved >= SPEEDUP_FLOOR, (
        f"engine evaluates {eng.stats.evals} budgets against the direct "
        f"path's {direct_evals}: only {saved:.2f}x fewer "
        f"(floor {SPEEDUP_FLOOR}x)")


def test_engine_cross_experiment_cache_hits():
    """A combined Fig. 5 + Fig. 6 run on one engine re-probes budgets
    already paid for (grid points revisited by searches, search
    boundaries re-verified, Table 1 endpoints re-searched) — the shared
    cache must actually hit."""
    eng = SweepEngine(jobs=1)
    fig5_dwt_panel(dwt_workload(False), points=8, engine=eng)
    dwt_panel(False, n_max=16, stride=2, engine=eng)  # Fig. 6, small
    w = dwt_workload(False)
    eng.min_memory(w.baseline, w.graph)  # Table 1 search, now warm
    eng.min_memory(w.optimum, w.graph)
    assert eng.stats.cache_hits > 0
    assert 0.0 < eng.stats.cache_hit_rate <= 1.0


def test_engine_smoke_cached_matches_uncached():
    """Fast CI smoke check: cached/engine results == direct results on a
    small DWT and the closed-form MVM searches."""
    eng = SweepEngine(jobs=1)
    cfg = equal(WORD_BITS)
    for n in (16, 32):
        g = dwt_graph(n, max_level(n), weights=cfg)
        for sched in (OptimalDWTScheduler(),
                      LayerByLayerScheduler(retention="deferred")):
            assert eng.min_memory(sched, g) == scheduler_min_memory(sched, g)
    w = mvm_workload(False)
    assert w.tiling.min_memory_for_lower_bound(w.graph) == 99 * 16
