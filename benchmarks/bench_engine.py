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

Both paths run the same cost functions (the Eq. 2 DP and the
layer-by-layer spill walk) with a memo shared across each search's
probes.  Both also build and bound the same 128 graphs, and only the
engine fingerprints them.  The ratio is therefore the evaluations
the engine saves, diluted by that per-graph work: the cheaper the cost
functions, the larger the share of the engine's time the per-graph
work takes, and the lower the ratio.

The series must be byte-identical (the engine is an optimisation, not an
approximation) and the serial engine must be at least 3x faster.  A
second test reruns Fig. 5 + Fig. 6 on one shared engine and checks the
cross-experiment cache actually hits.
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


def _direct_dwt_panel(da: bool, n_max: int, stride: int):
    """The Fig. 6 DWT panel exactly as computed before the engine:
    independent bisections, every probe a full scheduler evaluation."""
    cfg = double_accumulator(WORD_BITS) if da else equal(WORD_BITS)
    sizes = _dwt_sizes(n_max, stride)
    lbl = LayerByLayerScheduler(retention="deferred")
    opt = OptimalDWTScheduler()
    lbl_mem, opt_mem = [], []
    for n in sizes:
        g = dwt_graph(n, max_level(n), weights=cfg)
        lbl_mem.append(scheduler_min_memory(lbl, g))
        opt_mem.append(scheduler_min_memory(opt, g))
    return [
        MinMemorySeries("Layer-by-Layer", tuple(sizes), tuple(lbl_mem)),
        MinMemorySeries("Optimum (Ours)", tuple(sizes), tuple(opt_mem)),
    ]


def test_engine_speedup_fig6_dwt(record_artifact):
    t0 = time.perf_counter()
    direct = _direct_dwt_panel(False, N_MAX, STRIDE)
    t_direct = time.perf_counter() - t0

    eng = SweepEngine(jobs=1)
    t0 = time.perf_counter()
    cached = dwt_panel(False, n_max=N_MAX, stride=STRIDE, engine=eng)
    t_engine = time.perf_counter() - t0

    assert cached == direct  # byte-identical MinMemorySeries
    speedup = t_direct / t_engine
    record_artifact("bench_engine", "\n".join([
        f"Fig. 6 DWT panel (n_max={N_MAX}, stride={STRIDE}), serial:",
        f"  direct bisections   {t_direct:8.2f}s",
        f"  sweep engine        {t_engine:8.2f}s   ({speedup:.1f}x)",
        eng.stats.report(),
    ]))
    assert speedup >= SPEEDUP_FLOOR, (
        f"engine only {speedup:.2f}x faster than the direct path "
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
