"""Optimality-contract tests over the scheduler registry.

Every registered strategy must declare its own
:class:`~repro.schedulers.base.OptimalityContract` (claiming optimality
only inside what it accepts), the structural family classifier must back
those claims, and :func:`repro.schedulers.auto.auto_scheduler` must never
route a graph to a strategy whose contract excludes it.  Includes
regression tests for the two classifier bugs the fuzzer found: DWT
classification ignoring Lemma 3.2 weight admissibility, and a single
isolated node tagged as a "tree".
"""

from __future__ import annotations

import math

import pytest

from repro.core import CDAG, GraphStructureError, min_feasible_budget, \
    simulate
from repro.graphs import (banded_mvm_graph, complete_kary_tree, conv_graph,
                          dwt_graph, long_chain, mvm_graph,
                          random_layered_dag, random_weighted, wide_fan_dag)
from repro.schedulers import (BandedMVMScheduler, ExhaustiveScheduler,
                              OptimalTreeScheduler,
                              SlidingWindowConvScheduler,
                              TilingMVMScheduler, auto_schedule,
                              auto_scheduler)
from repro.schedulers.families import (ANY_FAMILY, FAMILY_TAGS,
                                       graph_families, is_dwt)
from repro.schedulers.registry import REGISTRY, all_specs, schedulers_for, \
    spec


def sample_graphs():
    return [
        dwt_graph(8, 2),
        mvm_graph(2, 2),
        complete_kary_tree(2, 2),
        random_layered_dag(3, 2, seed=0),
        long_chain(4, seed=0, max_weight=3),
        wide_fan_dag(3, 2, seed=0),
        long_chain(1, seed=0, max_weight=7),          # isolated node
        random_weighted(dwt_graph(4, 1), 1, 4, seed=0),  # inadmissible DWT
    ]


# --------------------------------------------------------------------- #
# Every strategy declares a sound contract


@pytest.mark.parametrize("sp", all_specs(), ids=lambda sp: sp.key)
class TestContractDeclarations:
    def test_class_declares_its_own_contract(self, sp):
        # Inheriting the abstract default would silently claim "accepts
        # everything, optimal nowhere" — each class must speak for itself.
        assert any("contract" in vars(cls) for cls in sp.cls.__mro__[:-1]
                   if cls.__name__ != "Scheduler"), \
            f"{sp.cls.__name__} never declares an OptimalityContract"

    def test_optimality_is_claimed_only_where_accepted(self, sp):
        c = sp.cls.contract
        assert set(c.accepts) <= set(FAMILY_TAGS) | {ANY_FAMILY}
        assert set(c.optimal_on) <= set(FAMILY_TAGS) | {ANY_FAMILY}
        if ANY_FAMILY not in c.accepts:
            assert set(c.optimal_on) <= set(c.accepts)
        if c.optimal_on:
            assert c.notes, "an optimality claim needs its theorem cited"

    def test_factory_output_accepts_its_graph(self, sp):
        for g in sample_graphs():
            inst = sp.for_graph(g)
            if inst is not None:
                assert inst.accepts(g), (sp.key, g.name)


class TestRegistry:
    def test_keys_are_unique_and_stable(self):
        assert len({s.key for s in all_specs()}) == len(all_specs())
        for key in ("greedy", "exhaustive", "dwt-optimal", "kary-optimal"):
            assert spec(key).key == key

    def test_schedulers_for_routes_families(self):
        keys = dict(schedulers_for(mvm_graph(2, 2)))
        assert "tiling" in keys and "greedy" in keys
        chain_keys = dict(schedulers_for(long_chain(4, seed=0)))
        assert "tiling" not in chain_keys  # no MVM structure on a chain
        assert spec("tiling").for_graph(long_chain(4, seed=0)) is None

    def test_exclude_filters_strategies(self):
        g = long_chain(3, seed=0)
        keys = [k for k, _ in schedulers_for(g, exclude=("greedy",))]
        assert "greedy" not in keys and keys


# --------------------------------------------------------------------- #
# Auto dispatch never misroutes


class TestAutoDispatch:
    @pytest.mark.parametrize("g", sample_graphs(), ids=lambda g: g.name)
    def test_routed_scheduler_accepts_the_graph(self, g):
        s = auto_scheduler(g)
        assert s.accepts(g), (type(s).__name__, g.name)

    @pytest.mark.parametrize("g", sample_graphs(), ids=lambda g: g.name)
    def test_routed_schedule_replays_cleanly(self, g):
        # A generous budget: the tiling planner legitimately declares
        # budgets below its fixed window infeasible (see its contract).
        budget = max(g.total_weight(), 1)
        sched, strategy = auto_schedule(g, budget)
        result = simulate(g, sched, budget=budget)
        assert result.cost >= 0 and strategy


# --------------------------------------------------------------------- #
# Regression: fuzzer-found classifier bugs


class TestWeightAdmissibilityRegression:
    def test_inadmissible_weights_leave_the_dwt_family(self):
        # seed 0 re-weights DWT(4,1) so a coefficient outweighs its
        # sibling average — Lemma 3.2 (and Algorithm 1) no longer apply.
        bad = random_weighted(dwt_graph(4, 1), 1, 4, seed=0)
        assert not is_dwt(bad)
        assert "dwt" not in graph_families(bad)
        # The canonical unit-weight instance still classifies.
        assert is_dwt(dwt_graph(4, 1))
        assert "dwt" in graph_families(dwt_graph(4, 1))

    def test_auto_never_routes_inadmissible_dwt_to_algorithm_1(self):
        bad = random_weighted(dwt_graph(4, 1), 1, 4, seed=0)
        s = auto_scheduler(bad)
        assert type(s).__name__ != "OptimalDWTScheduler"
        budget = min_feasible_budget(bad)
        sched, _ = auto_schedule(bad, budget)  # must not raise
        simulate(bad, sched, budget=budget)

    def test_dwt_optimal_factory_rejects_inadmissible_weights(self):
        bad = random_weighted(dwt_graph(4, 1), 1, 4, seed=0)
        assert spec("dwt-optimal").for_graph(bad) is None


class TestIsolatedNodeRegression:
    def test_single_node_is_not_a_tree(self):
        g = long_chain(1, seed=0, max_weight=7)
        assert "tree" not in graph_families(g)
        assert not OptimalTreeScheduler().accepts(g)
        assert spec("kary-optimal").for_graph(g) is None

    def test_edge_free_optimum_is_the_empty_schedule(self):
        # The node is simultaneously input and output — nothing to do.
        g = long_chain(1, seed=0, max_weight=7)
        assert ExhaustiveScheduler(max_nodes=10).cost(
            g, g.total_weight()) == 0

    def test_multi_node_edge_free_graph(self):
        g = CDAG((), {"a": 1, "b": 2}, nodes=("a", "b"), name="Isolated(2)")
        assert "tree" not in graph_families(g)
        assert ExhaustiveScheduler(max_nodes=10).cost(
            g, g.total_weight()) == 0

    def test_real_trees_still_classify_and_solve(self):
        g = complete_kary_tree(2, 2)
        assert "tree" in graph_families(g)
        inst = spec("kary-optimal").for_graph(g)
        assert inst is not None
        opt = ExhaustiveScheduler(max_nodes=10).cost(g, g.total_weight())
        assert inst.cost(g, g.total_weight()) == opt


# --------------------------------------------------------------------- #
# Regression: closed-form tilers offered for re-weighted graphs


class TestReweightedTilerRegression:
    """The sliding-conv, tiling and banded-mvm footprints are closed forms
    in class-uniform weights.  A re-weighted graph keeps its family tag,
    so their ``accepts()`` must check the weights: the registry offered
    all three for such graphs, and each ``cost()`` then raised."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("base", [conv_graph(3, 2), mvm_graph(3, 2),
                                      banded_mvm_graph(3, 2, 1)],
                             ids=lambda g: g.name)
    def test_every_offered_scheduler_answers(self, base, seed):
        g = random_weighted(base, 1, 2, seed=seed)
        budget = g.total_weight()
        for key, sched in schedulers_for(g):
            assert math.isfinite(sched.cost(g, budget)), key
        assert auto_scheduler(g).accepts(g)
        sched, _ = auto_schedule(g, budget)
        simulate(g, sched, budget=budget)

    @pytest.mark.parametrize("base,tiler", [
        (conv_graph(3, 2), SlidingWindowConvScheduler(3, 2)),
        (mvm_graph(3, 2), TilingMVMScheduler(3, 2)),
        (banded_mvm_graph(3, 2, 1), BandedMVMScheduler(3, 2, 1)),
    ], ids=lambda x: getattr(x, "name", None))
    def test_direct_calls_still_refuse(self, base, tiler):
        assert tiler.accepts(base)
        g = random_weighted(base, 1, 2, seed=1)
        assert not tiler.accepts(g)
        with pytest.raises(GraphStructureError, match="uniform"):
            tiler.cost(g, g.total_weight())
