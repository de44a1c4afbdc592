"""Figure 5 — bits transferred vs fast memory size (log x-axis).

Four panels:

* (a) Equal DWT(256,8): Algorithmic LB / Layer-by-Layer / Optimum (ours)
* (b) DA DWT(256,8): same series
* (c) Equal MVM(96,120): IOOpt LB / IOOpt UB / Tiling (ours)
* (d) DA MVM(96,120): same series

Every point is a real scheduler run (DWT/LBL) or the strategy's closed
form (tiling/IOOpt; both cross-checked against full schedule simulation in
the test suite).  The paper's headline shape: both of our methods converge
to the lower bound at far smaller memories than their baselines.  The
DWT optimum is at or below layer-by-layer at every budget.  The tiling is
below IOOpt's upper bound from 64 bits (Equal) and 192 bits (DA) on.  At
the smallest grid budget (48 bits Equal, 96 bits DA) it is infeasible
where IOOpt's bound is finite, and under DA it is above that bound at 128
and 160 bits.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis import SweepSeries, log_budget_grid
from ..analysis.engine import SweepEngine, get_default_engine
from ..analysis.report import format_series
from ..core import min_feasible_budget
from .common import DWTWorkload, MVMWorkload, dwt_workload, mvm_workload


def dwt_panel(workload: DWTWorkload, points: int = 20,
              engine: Optional[SweepEngine] = None) -> List[SweepSeries]:
    """One DWT panel: LB, layer-by-layer, optimum over a log budget grid."""
    eng = engine if engine is not None else get_default_engine()
    g = workload.graph
    lo = min_feasible_budget(g)
    baseline_min = eng.min_memory(workload.baseline, g)
    hi = int(baseline_min * 1.3)
    grid = log_budget_grid(lo, hi, points)
    lb = workload.lower_bound
    return [
        SweepSeries("Algorithmic LB", tuple(grid),
                    tuple(float(lb) for _ in grid)),
        eng.sweep(workload.baseline, g, grid, "Layer-by-Layer"),
        eng.sweep(workload.optimum, g, grid, "Optimum (Ours)"),
    ]


def mvm_panel(workload: MVMWorkload, points: int = 20,
              engine: Optional[SweepEngine] = None) -> List[SweepSeries]:
    """One MVM panel: IOOpt LB/UB and our tiling over a log budget grid."""
    eng = engine if engine is not None else get_default_engine()
    g = workload.graph
    lo = min_feasible_budget(g)
    hi = int(workload.ioopt.min_memory() * 1.3)
    grid = log_budget_grid(lo, hi, points)
    lb = workload.ioopt.lower_bound()
    return [
        SweepSeries("IOOpt Lower Bound", tuple(grid),
                    tuple(float(lb) for _ in grid)),
        eng.sweep_fn(workload.ioopt_cost_fn(), grid, "IOOpt Upper Bound",
                     key=(id(workload.ioopt), "upper_bound")),
        eng.sweep(workload.tiling, g, grid, "Tiling (Ours)"),
    ]


def run_fig5(points: int = 20, engine: Optional[SweepEngine] = None
             ) -> Dict[str, List[SweepSeries]]:
    """All four panels, keyed 'a'..'d' as in the paper.  With an engine
    built for ``jobs > 1`` the panels evaluate in parallel workers."""
    eng = engine if engine is not None else get_default_engine()
    with eng.probe_context("fig5"):  # label failure records / profiles
        panels = eng.map([
            (dwt_panel, (dwt_workload(False), points)),
            (dwt_panel, (dwt_workload(True), points)),
            (mvm_panel, (mvm_workload(False), points)),
            (mvm_panel, (mvm_workload(True), points)),
        ])
    return dict(zip("abcd", panels))


def render_fig5(panels: Dict[str, List[SweepSeries]]) -> str:
    titles = {
        "a": "Fig. 5a — Equal DWT(256,8): bits transferred vs fast memory (bits)",
        "b": "Fig. 5b — DA DWT(256,8)",
        "c": "Fig. 5c — Equal MVM(96,120)",
        "d": "Fig. 5d — DA MVM(96,120)",
    }
    blocks = [format_series(series, title=titles[key])
              for key, series in sorted(panels.items())]
    return "\n\n".join(blocks)


def main() -> None:  # pragma: no cover - CLI entry
    print(render_fig5(run_fig5()))


if __name__ == "__main__":  # pragma: no cover
    main()
