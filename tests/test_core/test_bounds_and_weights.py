"""Tests for Sec. 2.2 bounds and the weight configurations."""

import pytest

from repro.core import (CDAG, InfeasibleBudgetError, algorithmic_lower_bound,
                        class_weights, compute_footprint, custom,
                        double_accumulator, equal,
                        io_breakdown_lower_bound, min_feasible_budget,
                        require_feasible, schedule_exists, PAPER_CONFIGS)
from repro.graphs import dwt_graph, mvm_graph
from repro.schedulers import GreedyTopologicalScheduler
from repro.core import simulate


class TestBounds:
    def test_footprint(self, diamond):
        assert compute_footprint(diamond, "c") == 3
        assert compute_footprint(diamond, "e") == 3

    def test_min_feasible_budget(self, diamond):
        assert min_feasible_budget(diamond) == 3

    def test_existence_iff(self, diamond):
        assert schedule_exists(diamond, 3)
        assert not schedule_exists(diamond, 2)

    def test_existence_constructive(self, diamond):
        """Prop. 2.3 is tight: the greedy schedule is valid at exactly the
        minimum feasible budget."""
        b = min_feasible_budget(diamond)
        sched = GreedyTopologicalScheduler().schedule(diamond, b)
        res = simulate(diamond, sched, budget=b)
        assert res.peak_red_weight <= b

    def test_require_feasible(self, diamond):
        assert require_feasible(diamond, 5) == 5
        assert require_feasible(diamond) == diamond.budget
        with pytest.raises(InfeasibleBudgetError):
            require_feasible(diamond, 2)

    def test_require_feasible_needs_some_budget(self):
        g = CDAG([("a", "b")], {"a": 1, "b": 1})  # no budget anywhere
        with pytest.raises(InfeasibleBudgetError, match="no budget"):
            require_feasible(g)

    def test_algorithmic_lower_bound(self, diamond):
        assert algorithmic_lower_bound(diamond) == 2 + 1
        ins, outs = io_breakdown_lower_bound(diamond)
        assert (ins, outs) == (2, 1)

    def test_lower_bound_weighted(self):
        g = CDAG([("a", "b")], {"a": 16, "b": 32})
        assert algorithmic_lower_bound(g) == 48

    def test_lb_is_actually_a_lower_bound(self, diamond):
        """Any valid schedule costs at least the bound (Prop. 2.4)."""
        sched = GreedyTopologicalScheduler().schedule(diamond, 3)
        assert sched.cost(diamond) >= algorithmic_lower_bound(diamond)

    def test_min_feasible_budget_source_only_graph(self):
        # Regression: the edge-free fallback was unreachable because the
        # CDAG constructor rejected graphs whose every node is both a
        # source and a sink.  A lone weighted node now constructs, and its
        # minimum budget is its own weight (an M1/M2 replay holds w_v red).
        g = CDAG([], {"x": 7}, nodes=["x"])
        assert min_feasible_budget(g) == 7
        assert schedule_exists(g, 7)
        assert not schedule_exists(g, 6)
        assert algorithmic_lower_bound(g) == 14  # loaded once + stored once

    def test_min_feasible_budget_source_only_takes_widest(self):
        g = CDAG([], {"x": 3, "y": 11}, nodes=["x", "y"])
        assert min_feasible_budget(g) == 11

    def test_min_feasible_budget_scans_each_graph_once(self, monkeypatch,
                                                       diamond):
        """Prop. 2.3's bound is cached on the immutable graph:
        require_feasible and with_budget clones reuse it; a with_weights
        clone has new footprints and scans again."""
        import repro.core.bounds as bounds
        scanned = []
        real = bounds.compute_footprint
        monkeypatch.setattr(bounds, "compute_footprint",
                            lambda cdag, v: scanned.append(v)
                            or real(cdag, v))
        assert min_feasible_budget(diamond) == 3
        assert sorted(scanned) == ["c", "d", "e"]
        assert require_feasible(diamond, 5) == 5
        with pytest.raises(InfeasibleBudgetError):
            require_feasible(diamond, 2)
        assert schedule_exists(diamond, 3)
        tighter = diamond.with_budget(4)
        assert min_feasible_budget(tighter) == 3
        assert require_feasible(tighter) == 4
        assert len(scanned) == 3
        heavy = diamond.with_weights({"a": 1, "b": 5, "c": 1, "d": 1,
                                      "e": 1})
        assert min_feasible_budget(heavy) == 7
        assert len(scanned) == 6
        assert min_feasible_budget(diamond) == 3  # the original keeps its own
        assert len(scanned) == 6


class TestWeightConfigs:
    def test_equal(self):
        g = dwt_graph(4, 1, weights=equal())
        assert all(g.weight(v) == 16 for v in g)

    def test_double_accumulator(self):
        g = mvm_graph(2, 2, weights=double_accumulator())
        for v in g:
            expected = 16 if not g.predecessors(v) else 32
            assert g.weight(v) == expected

    def test_word_bits_param(self):
        cfg = equal(word_bits=8)
        assert cfg.input_bits == 8 and cfg.compute_bits == 8
        cfg = double_accumulator(word_bits=8)
        assert cfg.compute_bits == 16

    def test_weight_of(self, diamond):
        cfg = double_accumulator()
        assert cfg.weight_of(diamond, "a") == 16
        assert cfg.weight_of(diamond, "c") == 32

    def test_custom(self, diamond):
        cfg = custom("tiered", lambda g, v: 8 if v in ("a", "b") else 24)
        g = cfg.apply(diamond)
        assert g.weight("a") == 8 and g.weight("e") == 24
        assert cfg.name == "tiered"

    def test_paper_configs(self):
        names = [c.name for c in PAPER_CONFIGS]
        assert names == ["Equal", "Double Accumulator"]

    def test_apply_preserves_structure(self, diamond):
        g = equal().apply(diamond)
        assert g.predecessors("e") == diamond.predecessors("e")

    def test_class_weights_inverts_apply(self, diamond):
        for cfg in PAPER_CONFIGS:
            for g in (diamond, mvm_graph(3, 2)):
                assert class_weights(cfg.apply(g)) == (cfg.input_bits,
                                                       cfg.compute_bits)

    def test_class_weights_none_when_not_uniform(self, diamond):
        w = dict(double_accumulator().apply(diamond).weights)
        w["d"] = 48  # one computed node off its class weight
        assert class_weights(diamond.with_weights(w)) is None
        w = dict(equal().apply(diamond).weights)
        w["a"] = 8  # one input off its class weight
        assert class_weights(diamond.with_weights(w)) is None
        # An edge-free graph has no computed class at all.
        assert class_weights(CDAG((), {"a": 16}, nodes=("a",))) is None
