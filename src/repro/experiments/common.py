"""Shared workload definitions for the Sec. 5 evaluation.

The paper evaluates two benchmark graphs — ``DWT(256, 8)`` and
``MVM(96, 120)`` — under two weight configurations (*Equal* and *Double
Accumulator*), each against a dedicated baseline (layer-by-layer for DWT,
IOOpt for MVM).  This module builds those workloads once and exposes the
graphs and strategies every figure/table driver uses.

The two weightings of a graph are one structure: each family builder
runs once, for the Equal workload, and the Double Accumulator workload
re-weights that graph (:meth:`~repro.core.cdag.CDAG.with_weights`
shares adjacency, topological order, sources and sinks).  Clearing a
workload function's cache drops the structure with it, so the next call
builds it afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

from ..baselines import IOOptModel
from ..core import CDAG, WeightConfig, algorithmic_lower_bound, equal, \
    double_accumulator
from ..graphs import dwt_graph, mvm_graph
from ..schedulers import (LayerByLayerScheduler, OptimalDWTScheduler,
                          TilingMVMScheduler)

#: The paper's benchmark parameters (Sec. 5.1).
DWT_N, DWT_D = 256, 8
MVM_M, MVM_N = 96, 120
WORD_BITS = 16


@dataclass(frozen=True)
class DWTWorkload:
    """One DWT evaluation column: graph + strategies."""

    config: WeightConfig
    graph: CDAG
    optimum: OptimalDWTScheduler
    baseline: LayerByLayerScheduler

    @property
    def label(self) -> str:
        short = "DA" if "Double" in self.config.name else "Equal"
        return f"{short} DWT({DWT_N},{DWT_D})"

    @property
    def lower_bound(self) -> int:
        return algorithmic_lower_bound(self.graph)


@dataclass(frozen=True)
class MVMWorkload:
    """One MVM evaluation column: graph + tiling + IOOpt model."""

    config: WeightConfig
    graph: CDAG
    tiling: TilingMVMScheduler
    ioopt: IOOptModel

    @property
    def label(self) -> str:
        short = "DA" if "Double" in self.config.name else "Equal"
        return f"{short} MVM({MVM_M},{MVM_N})"

    @property
    def lower_bound(self) -> int:
        return algorithmic_lower_bound(self.graph)

    def ioopt_cost_fn(self) -> Callable[[int], float]:
        return lambda b: self.ioopt.upper_bound(b)


@lru_cache(maxsize=None)
def dwt_workload(da: bool) -> DWTWorkload:
    cfg = double_accumulator(WORD_BITS) if da else equal(WORD_BITS)
    g = (cfg.apply(dwt_workload(False).graph) if da
         else dwt_graph(DWT_N, DWT_D, weights=cfg))
    return DWTWorkload(config=cfg, graph=g, optimum=OptimalDWTScheduler(),
                       baseline=LayerByLayerScheduler(retention="deferred"))


@lru_cache(maxsize=None)
def mvm_workload(da: bool) -> MVMWorkload:
    cfg = double_accumulator(WORD_BITS) if da else equal(WORD_BITS)
    g = (cfg.apply(mvm_workload(False).graph) if da
         else mvm_graph(MVM_M, MVM_N, weights=cfg))
    return MVMWorkload(config=cfg, graph=g,
                       tiling=TilingMVMScheduler(MVM_M, MVM_N),
                       ioopt=IOOptModel.for_config(MVM_M, MVM_N, cfg))


def all_workloads() -> Tuple:
    """The four evaluation columns in the paper's presentation order."""
    return (dwt_workload(False), dwt_workload(True),
            mvm_workload(False), mvm_workload(True))
