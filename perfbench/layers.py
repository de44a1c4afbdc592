"""Which public functions the traced mode wraps, and the per-layer
metrics computed from the spans and the program's own counters.

Layers, by span name:

* ``graphs.build`` -- ``repro.core.cdag.CDAG`` construction
  (``__init__``, ``with_weights``) and the family builders of
  ``repro.graphs``;
* ``dp.cost`` -- ``cost``/``cost_many`` of the DP schedulers
  (``dwt_optimal``, ``kary``, ``tiling``, ``layer_by_layer``) and the
  ``ioopt`` baseline's bound;
* ``tiling.closed_form`` -- ``TilingMVMScheduler.min_memory_for_lower_bound``;
* ``engine`` -- the ``SweepEngine`` front doors (``min_memory``,
  ``sweep``, ``sweep_fn``, ``probe``);
* ``astar.solve`` -- ``repro.schedulers.search.astar``.
"""

from __future__ import annotations

from typing import Dict

GRAPH_BUILDERS = ("dwt_graph", "kdwt_graph", "mvm_graph", "banded_mvm_graph",
                  "fft_graph", "conv_graph", "complete_kary_tree",
                  "caterpillar_tree", "random_kary_tree", "tree_from_nested",
                  "random_layered_dag", "random_series_parallel",
                  "random_weighted", "long_chain", "wide_fan_dag",
                  "skewed_weights", "disconnected_union")

ASTAR_COUNTERS = ("expanded", "generated", "stale_pops", "dominated",
                  "bound_pruned", "heuristic_evals", "heuristic_hits",
                  "result_hits")


def install(tracer) -> None:
    import repro.graphs
    from repro.analysis.engine import SweepEngine
    from repro.baselines import IOOptModel
    from repro.core.cdag import CDAG
    from repro.schedulers import (ExhaustiveScheduler, LayerByLayerScheduler,
                                  OptimalDWTScheduler, OptimalTreeScheduler,
                                  TilingMVMScheduler)
    from repro.schedulers import search

    def built(args, result):
        g = args[0] if result is None else result
        tracer.count("graphs.builds")
        tracer.count("graphs.nodes", len(g))

    def evaluated(args, result):
        if tracer.current() != "dp.cost":  # count outermost calls only
            tracer.count("dp.evals",
                         len(result) if isinstance(result, list) else 1)

    tracer.wrap_method(CDAG, "__init__", "graphs.build", built)
    tracer.wrap_method(CDAG, "with_weights", "graphs.build", built)
    for name in GRAPH_BUILDERS:
        tracer.wrap_function(getattr(repro.graphs, name), "graphs.build")
    for cls in (OptimalDWTScheduler, OptimalTreeScheduler,
                TilingMVMScheduler, LayerByLayerScheduler):
        tracer.wrap_method(cls, "cost_many", "dp.cost", evaluated)
        tracer.wrap_method(cls, "cost", "dp.cost", evaluated)
    tracer.wrap_method(IOOptModel, "upper_bound", "dp.cost", evaluated)
    tracer.wrap_method(IOOptModel, "min_memory", "dp.cost", evaluated)
    tracer.wrap_method(TilingMVMScheduler, "min_memory_for_lower_bound",
                       "tiling.closed_form")
    for attr in ("min_memory", "sweep", "sweep_fn", "probe"):
        tracer.wrap_method(SweepEngine, attr, "engine")
    tracer.wrap_method(ExhaustiveScheduler, "min_cost", "astar.probe",
                       lambda args, result: tracer.count("astar.probes"))
    tracer.wrap_function(search.astar, "astar.solve")


def span_metrics(tracer, scale) -> Dict[str, float]:
    """Layer times from the spans, normalised by ``scale`` (clock.py)."""
    self_s = tracer.self_times(scale)
    c = tracer.counts
    build_s = self_s.get("graphs.build", 0.0)
    return {
        "graphs.build_s": build_s,
        "graphs.builds": c.get("graphs.builds", 0),
        "graphs.nodes_per_s": (c.get("graphs.nodes", 0) / build_s
                               if build_s else 0.0),
        "dp.cost_s": self_s.get("dp.cost", 0.0),
        "dp.evals": c.get("dp.evals", 0),
        "tiling.closed_form_s": self_s.get("tiling.closed_form", 0.0),
        "astar.solve_s": self_s.get("astar.solve", 0.0),
    }


def engine_metrics(stats, norm_per_raw: float) -> Dict[str, float]:
    """From the round's ``SweepStats``; its raw overhead seconds are
    scaled by the round's normalised-over-raw time."""
    return {
        "engine.probes": stats.probes,
        "engine.cache_hits": stats.cache_hits,
        "engine.hit_ratio": stats.cache_hit_rate,
        "engine.evals": stats.evals,
        "engine.peak_memo_entries": stats.peak_memo_entries,
        "engine.overhead_s": (stats.wall_time - stats.eval_time)
        * norm_per_raw,
    }


def astar_metrics(totals: Dict[str, int], probes: int, solve_s: float
                  ) -> Dict[str, float]:
    """Summed ``SearchStats`` counters and their ratios (each with its
    base in the README)."""
    out = {f"astar.{k}": totals.get(k, 0) for k in ASTAR_COUNTERS}
    gen = totals.get("generated", 0)
    hh, he = totals.get("heuristic_hits", 0), totals.get("heuristic_evals", 0)
    out["astar.expanded_per_s"] = (totals.get("expanded", 0) / solve_s
                                   if solve_s else 0.0)
    out["astar.dominance_ratio"] = totals.get("dominated", 0) / gen \
        if gen else 0.0
    out["astar.heuristic_hit_ratio"] = hh / (hh + he) if hh + he else 0.0
    out["astar.transposition_hit_ratio"] = (
        totals.get("result_hits", 0) / probes if probes else 0.0)
    out["astar.table_probes"] = probes
    return out
