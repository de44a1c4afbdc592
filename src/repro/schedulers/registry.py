"""Registry of concrete scheduling strategies.

One authoritative table mapping a stable string key to (a) the scheduler
class and (b) a *factory* that instantiates it for a given graph — or
returns ``None`` when the strategy simply has no instantiation for that
graph (e.g. the tiling scheduler on a non-MVM CDAG).  Three consumers:

* the differential fuzzer (:mod:`repro.analysis.fuzz`) iterates every
  applicable strategy on each generated graph;
* audit repro files reference schedulers by registry key, so a violation
  replays deterministically from JSON alone;
* the contract test suite parametrizes over the registry to assert every
  strategy declares an :class:`~repro.schedulers.base.OptimalityContract`.

Parameterized strategies derive their parameters structurally from the
graph (shape inference via :mod:`repro.schedulers.families`), never from
the graph's display name alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.cdag import CDAG
from .base import Scheduler
from . import families as fam


@dataclass(frozen=True)
class SchedulerSpec:
    """One registered strategy: key, class, and per-graph factory."""

    key: str
    cls: type
    factory: Callable[[CDAG], Optional[Scheduler]]

    def for_graph(self, cdag: CDAG) -> Optional[Scheduler]:
        """Instance applicable to ``cdag``, or ``None``.

        ``None`` means "this strategy does not cover that graph" — either
        the factory could not infer its parameters or the instance's
        declared contract excludes the family.
        """
        inst = self.factory(cdag)
        if inst is None or not inst.accepts(cdag):
            return None
        return inst


def _greedy(cdag: CDAG) -> Scheduler:
    from .greedy import GreedyTopologicalScheduler
    return GreedyTopologicalScheduler()


def _exhaustive(cdag: CDAG) -> Scheduler:
    from .exhaustive import ExhaustiveScheduler
    # The registry's consumers (fuzzer, audit replays) probe many graphs
    # in a row, so the oracle gets tighter caps than the class defaults —
    # informed search over pebbling states is still exponential in the
    # worst case, and a fuzz corpus must stay minutes, not hours.  The
    # settled-state cap, not the node count, is the real budget: 25k
    # settled states keeps the slowest corpus probe under ~3 s while the
    # A* heuristic and its deepest-first tie order let most 20+-node
    # graphs finish well inside it.
    return ExhaustiveScheduler(max_nodes=32, max_states=25_000)


def _dwt(cdag: CDAG) -> Scheduler:
    from .dwt_optimal import OptimalDWTScheduler
    return OptimalDWTScheduler()


def _kary(cdag: CDAG) -> Scheduler:
    from .kary import OptimalTreeScheduler
    return OptimalTreeScheduler()


def _kdwt(cdag: CDAG) -> Optional[Scheduler]:
    params = fam.kdwt_params(cdag)
    if params is None:
        return None
    from .kdwt import OptimalKDWTScheduler
    return OptimalKDWTScheduler(params[2])


def _layer(cdag: CDAG) -> Scheduler:
    from .layer_by_layer import LayerByLayerScheduler
    return LayerByLayerScheduler()


def _tiling(cdag: CDAG) -> Optional[Scheduler]:
    params = fam.mvm_params(cdag)
    if params is None:
        return None
    from .tiling import TilingMVMScheduler
    return TilingMVMScheduler(*params)


def _banded(cdag: CDAG) -> Optional[Scheduler]:
    params = fam.banded_mvm_params(cdag)
    if params is None:
        return None
    from .sparse_tiling import BandedMVMScheduler
    return BandedMVMScheduler(*params)


def _conv(cdag: CDAG) -> Optional[Scheduler]:
    params = fam.conv_params(cdag)
    if params is None:
        return None
    from .conv_sliding import SlidingWindowConvScheduler
    return SlidingWindowConvScheduler(*params)


def _belady(cdag: CDAG) -> Scheduler:
    from .heuristic import EvictionScheduler
    return EvictionScheduler(policy="belady")


def _lru(cdag: CDAG) -> Scheduler:
    from .heuristic import EvictionScheduler
    return EvictionScheduler(policy="lru")


def _recompute(cdag: CDAG) -> Scheduler:
    from .recompute import RecomputeScheduler
    return RecomputeScheduler()


def _build_registry() -> Dict[str, SchedulerSpec]:
    from .conv_sliding import SlidingWindowConvScheduler
    from .dwt_optimal import OptimalDWTScheduler
    from .exhaustive import ExhaustiveScheduler
    from .greedy import GreedyTopologicalScheduler
    from .heuristic import EvictionScheduler
    from .kary import OptimalTreeScheduler
    from .kdwt import OptimalKDWTScheduler
    from .layer_by_layer import LayerByLayerScheduler
    from .recompute import RecomputeScheduler
    from .sparse_tiling import BandedMVMScheduler
    from .tiling import TilingMVMScheduler

    specs = [
        SchedulerSpec("greedy", GreedyTopologicalScheduler, _greedy),
        SchedulerSpec("exhaustive", ExhaustiveScheduler, _exhaustive),
        SchedulerSpec("dwt-optimal", OptimalDWTScheduler, _dwt),
        SchedulerSpec("kary-optimal", OptimalTreeScheduler, _kary),
        SchedulerSpec("kdwt-optimal", OptimalKDWTScheduler, _kdwt),
        SchedulerSpec("layer-by-layer", LayerByLayerScheduler, _layer),
        SchedulerSpec("tiling", TilingMVMScheduler, _tiling),
        SchedulerSpec("banded-mvm", BandedMVMScheduler, _banded),
        SchedulerSpec("sliding-conv", SlidingWindowConvScheduler, _conv),
        SchedulerSpec("belady", EvictionScheduler, _belady),
        SchedulerSpec("lru", EvictionScheduler, _lru),
        SchedulerSpec("recompute", RecomputeScheduler, _recompute),
    ]
    return {s.key: s for s in specs}


REGISTRY: Dict[str, SchedulerSpec] = _build_registry()


def all_specs() -> Tuple[SchedulerSpec, ...]:
    """Every registered strategy, in registration order."""
    return tuple(REGISTRY.values())


def spec(key: str) -> SchedulerSpec:
    """Look up a strategy by its registry key (raises ``KeyError``)."""
    return REGISTRY[key]


def schedulers_for(cdag: CDAG, exclude: Tuple[str, ...] = ()
                   ) -> List[Tuple[str, Scheduler]]:
    """All ``(key, instance)`` pairs whose contract covers ``cdag``."""
    out: List[Tuple[str, Scheduler]] = []
    for s in REGISTRY.values():
        if s.key in exclude:
            continue
        inst = s.for_graph(cdag)
        if inst is not None:
            out.append((s.key, inst))
    return out
