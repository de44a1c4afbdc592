"""Tests for the CDAG board (repro.core.cdag)."""

import os
import pathlib
import subprocess
import sys

import networkx as nx
import pytest

import repro
from repro.core import CDAG, GraphStructureError


class TestConstruction:
    def test_basic_shape(self, diamond):
        assert len(diamond) == 5
        assert diamond.num_edges == 6
        assert set(diamond.sources) == {"a", "b"}
        assert set(diamond.sinks) == {"e"}

    def test_predecessors_order_is_edge_order(self, diamond):
        assert diamond.predecessors("c") == ("a", "b")
        assert diamond.predecessors("e") == ("c", "d")

    def test_successors(self, diamond):
        assert set(diamond.successors("a")) == {"c", "d"}
        assert diamond.successors("e") == ()

    def test_cycle_rejected(self):
        with pytest.raises(GraphStructureError, match="cycle"):
            CDAG([("a", "b"), ("b", "c"), ("c", "a")],
                 {"a": 1, "b": 1, "c": 1})

    def test_self_loop_rejected(self):
        with pytest.raises(GraphStructureError, match="self-loop"):
            CDAG([("a", "a")], {"a": 1})

    def test_parallel_edges_rejected(self):
        with pytest.raises(GraphStructureError, match="parallel"):
            CDAG([("a", "b"), ("a", "b")], {"a": 1, "b": 1})

    def test_missing_weight_rejected(self):
        with pytest.raises(GraphStructureError, match="no weight"):
            CDAG([("a", "b")], {"a": 1})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphStructureError, match="non-positive"):
            CDAG([("a", "b")], {"a": 1, "b": 0})

    def test_isolated_node_rejected(self):
        # An isolated node is both source and sink, violating A ∩ Z = ∅.
        with pytest.raises(GraphStructureError, match="overlap"):
            CDAG([("a", "b")], {"a": 1, "b": 1, "z": 1}, nodes=["z"])

    def test_edge_free_graph_allowed(self):
        # The degenerate all-sources case the constructor docstring admits:
        # weighted nodes, no edges at all.  Each node is its own input and
        # output (Prop. 2.3 trivially holds; see min_feasible_budget).
        g = CDAG([], {"x": 7}, nodes=["x"])
        assert set(g.sources) == {"x"} and set(g.sinks) == {"x"}
        g2 = CDAG([], {"x": 1, "y": 2}, nodes=["x", "y"])
        assert len(g2) == 2 and g2.num_edges == 0

    def test_bad_budget_rejected(self):
        with pytest.raises(GraphStructureError, match="budget"):
            CDAG([("a", "b")], {"a": 1, "b": 1}, budget=0)


class TestQueries:
    def test_topological_order(self, diamond):
        order = diamond.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for v in diamond:
            for p in diamond.predecessors(v):
                assert pos[p] < pos[v]

    def test_weights_and_total(self, diamond):
        assert diamond.weight("a") == 1
        assert diamond.total_weight() == 5
        assert diamond.total_weight(["a", "e"]) == 2

    def test_degrees(self, diamond):
        assert diamond.in_degree("e") == 2
        assert diamond.out_degree("a") == 2
        assert diamond.max_in_degree() == 2

    def test_ancestors_descendants(self, diamond):
        assert diamond.ancestors("e") == {"a", "b", "c", "d"}
        assert diamond.descendants("a") == {"c", "d", "e"}
        assert diamond.ancestors("a") == set()

    def test_contains_and_iter(self, diamond):
        assert "a" in diamond
        assert "zz" not in diamond
        assert set(diamond) == {"a", "b", "c", "d", "e"}

    def test_is_tree_toward_sink(self, chain, diamond):
        assert chain.is_tree_toward_sink()
        assert not diamond.is_tree_toward_sink()  # out-degree 2 at sources


class TestDerivedGraphs:
    def test_with_budget_shares_structure(self, diamond):
        g2 = diamond.with_budget(7)
        assert g2.budget == 7
        assert diamond.budget == 3
        assert g2.predecessors("e") == diamond.predecessors("e")

    def test_with_weights(self, diamond):
        g2 = diamond.with_weights({v: 2 for v in diamond})
        assert g2.weight("a") == 2
        assert diamond.weight("a") == 1

    def test_with_weights_validates(self, diamond):
        with pytest.raises(GraphStructureError):
            diamond.with_weights({v: 1 for v in "abcd"})  # missing 'e'

    def test_subgraph(self, diamond):
        sub = diamond.subgraph(["a", "b", "c"])
        assert len(sub) == 3
        assert sub.num_edges == 2
        assert set(sub.sinks) == {"c"}

    def test_components_single(self, diamond):
        comps = diamond.weakly_connected_components()
        assert len(comps) == 1
        assert set(comps[0]) == set(diamond)

    def test_components_multiple(self):
        g = CDAG([("a", "b"), ("c", "d")], {v: 1 for v in "abcd"})
        comps = g.weakly_connected_components()
        assert sorted(map(sorted, comps)) == [["a", "b"], ["c", "d"]]


class TestNetworkxInterop:
    def test_roundtrip(self, diamond):
        nxg = diamond.to_networkx()
        assert isinstance(nxg, nx.DiGraph)
        back = CDAG.from_networkx(nxg, budget=3)
        assert set(back) == set(diamond)
        assert back.num_edges == diamond.num_edges
        assert back.weight("a") == diamond.weight("a")

    def test_from_networkx_default_weight(self):
        nxg = nx.DiGraph()
        nxg.add_edge("a", "b")
        g = CDAG.from_networkx(nxg)
        assert g.weight("a") == 1

    def test_cli_import_leaves_networkx_unloaded(self):
        # networkx is only needed to convert a graph; every CLI call and
        # daemon start would otherwise pay for importing it.
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print('networkx' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "False"
