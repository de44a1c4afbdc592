"""End-to-end reproduction tests: the paper's tables and figures.

These are the claims EXPERIMENTS.md records.  Exact cells (Table 1 minimum
memory sizes, power-of-two capacities, Sec. 5.3 reduction percentages) are
asserted exactly; hardware-model quantities are asserted by shape (who
wins, monotonicity, near-constant throughput).
"""

import math

import pytest

from repro.core import double_accumulator, graph_fingerprint
from repro.experiments import (DWT_D, DWT_N, MVM_M, MVM_N, WORD_BITS,
                               all_workloads, dwt_workload, mvm_workload,
                               run_fig5, run_fig7, run_fig8, render_fig5,
                               render_fig7, render_fig8, render_table1,
                               run_table1, table1_reductions)
from repro.experiments.fig6 import (average_reduction, dwt_panel, mvm_panel)
from repro.experiments.fig7 import average_reduction as fig7_avg
from repro.graphs import dwt_graph, mvm_graph


@pytest.fixture(scope="module")
def table1():
    return run_table1()


class TestTable1:
    def test_our_cells_match_paper_exactly(self, table1):
        by_key = {(r.workload, r.node_weights, r.approach): r for r in table1}
        assert by_key[("DWT(256, 8)", "Equal", "Optimum*")].min_words == 10
        assert by_key[("DWT(256, 8)", "Double Accumulator",
                       "Optimum*")].min_words == 18
        assert by_key[("MVM(96, 120)", "Equal", "Tiling*")].min_words == 99
        assert by_key[("MVM(96, 120)", "Double Accumulator",
                       "Tiling*")].min_words == 126
        assert by_key[("MVM(96, 120)", "Equal", "IOOpt UB")].min_words == 193
        assert by_key[("MVM(96, 120)", "Double Accumulator",
                       "IOOpt UB")].min_words == 289

    def test_baseline_cells_within_one_percent(self, table1):
        """The paper's LBL implementation detail is under-specified; our
        deferred-retention variant lands within 1% (448 vs 445, 640 vs
        636 words)."""
        by_key = {(r.node_weights, r.approach): r for r in table1
                  if r.workload.startswith("DWT")}
        eq = by_key[("Equal", "Layer-by-Layer")].min_words
        da = by_key[("Double Accumulator", "Layer-by-Layer")].min_words
        assert abs(eq - 445) / 445 < 0.01
        assert abs(da - 636) / 636 < 0.01

    def test_pow2_capacities_match_paper(self, table1):
        assert [r.pow2_capacity_bits for r in table1] == [
            256, 8192, 512, 16384, 2048, 4096, 2048, 8192]

    def test_sec53_reduction_percentages(self, table1):
        """Sec. 5.3: 97.8% / 97.2% (DWT), 48.7% / 56.4% (MVM)."""
        red = table1_reductions(table1)
        assert red[0] == pytest.approx(97.8, abs=0.05)
        assert red[1] == pytest.approx(97.2, abs=0.05)
        assert red[2] == pytest.approx(48.7, abs=0.05)
        assert red[3] == pytest.approx(56.4, abs=0.05)

    def test_render(self, table1):
        out = render_table1(table1)
        assert "Optimum*" in out and "IOOpt UB" in out
        assert "97.8" in out


class TestFig5:
    @pytest.fixture(scope="class")
    def panels(self):
        return run_fig5(points=12)

    def test_all_panels_present(self, panels):
        assert set(panels) == {"a", "b", "c", "d"}

    @pytest.mark.parametrize("key", ["a", "b"])
    def test_dwt_optimum_dominates_baseline(self, panels, key):
        lb, lbl, opt = panels[key]
        for b_lbl, b_opt, bound in zip(lbl.costs, opt.costs, lb.costs):
            if math.isfinite(b_lbl) and math.isfinite(b_opt):
                assert b_opt <= b_lbl
                assert b_opt >= bound

    @pytest.mark.parametrize("key", ["c", "d"])
    def test_mvm_tiling_dominates_ioopt(self, panels, key):
        """Tiling beats the IOOpt UB at every budget from 512 bits up; at
        smaller budgets the IOOpt model's footprint accounting (array
        tiles only, no operand slots) can dip below our transient-honest
        schedules on the DA config — recorded in EXPERIMENTS.md."""
        lb, ioopt, tiling = panels[key]
        for b, ub, ours, bound in zip(ioopt.budgets, ioopt.costs,
                                      tiling.costs, lb.costs):
            if math.isfinite(ub) and math.isfinite(ours):
                assert ours >= bound
                if b >= 512:
                    assert ours <= ub
                else:
                    assert ours <= 1.5 * ub

    def test_curves_converge_to_lower_bound(self, panels):
        for key in "abcd":
            series = panels[key]
            ours = series[-1]
            bound = series[0].costs[0]
            assert ours.costs[-1] == bound

    def test_curves_monotone(self, panels):
        for key in "abcd":
            for s in panels[key][1:]:
                finite = [c for c in s.costs if math.isfinite(c)]
                assert finite == sorted(finite, reverse=True)

    def test_render(self, panels):
        out = render_fig5(panels)
        assert "Fig. 5a" in out and "Tiling (Ours)" in out


class TestFig6:
    def test_dwt_optimum_never_worse(self):
        panel = dwt_panel(False, n_max=64, stride=6)
        lbl, opt = panel
        for a, b in zip(opt.min_memory_bits, lbl.min_memory_bits):
            assert a <= b

    def test_dwt_optimum_tracks_tree_depth(self):
        """Optimum min-memory depends on d* (sawtooth in n), with the
        known endpoints: 3 words at d*=1, 10 words at n=256."""
        panel = dwt_panel(False, n_max=256, stride=254)
        opt = panel[1]
        assert opt.min_memory_bits[0] == 3 * 16  # n=2, d*=1
        assert opt.min_memory_bits[-1] == 10 * 16  # n=256, d*=8

    def test_mvm_tiling_below_ioopt(self):
        panel = mvm_panel(False, n_max=120, stride=17)
        ioopt, tiling = panel
        for ours, theirs in zip(tiling.min_memory_bits,
                                ioopt.min_memory_bits):
            assert ours <= theirs

    def test_mvm_equal_plateau(self):
        """Equal weighting: tiling min-memory rises as n+3 words then
        plateaus at 99 words once accumulator-priority wins."""
        panel = mvm_panel(False, n_max=120, stride=1)
        tiling = dict(panel[1].points())
        assert tiling[10] == 13 * 16
        assert tiling[120] == 99 * 16
        assert tiling[119] == 99 * 16

    def test_average_reductions_positive(self):
        assert average_reduction(mvm_panel(True, n_max=120, stride=20)) > 0


class TestFig7And8:
    @pytest.fixture(scope="class")
    def columns(self, ):
        return run_fig7()

    def test_area_and_leakage_reductions(self, columns):
        for col in columns:
            assert col.ours.area <= col.baseline.area
            assert col.ours.leakage_mw <= col.baseline.leakage_mw

    def test_average_area_reduction_near_paper(self, columns):
        """Paper: 63% average area reduction; the calibrated model lands
        within 10 points."""
        assert abs(fig7_avg(columns, "area") - 63.0) < 10.0

    def test_throughput_nearly_constant(self, columns):
        for col in columns:
            ratio = (col.ours.read_bandwidth_gbps
                     / col.baseline.read_bandwidth_gbps)
            assert 0.85 < ratio < 1.2

    def test_render_fig7(self, columns):
        out = render_fig7(columns)
        for key in "abcdef":
            assert f"Fig. 7{key}" in out

    def test_fig8_layouts(self, columns):
        panels = run_fig8(columns)
        assert len(panels) == 4
        for p in panels:
            assert p.ours.total_area <= p.baseline.total_area
        out = render_fig8(panels)
        assert "Fig. 8a" in out and "legend" in out


class TestWorkloadDefinitions:
    def test_four_columns(self):
        ws = all_workloads()
        assert len(ws) == 4
        assert ws[0].label == "Equal DWT(256,8)"
        assert ws[3].label == "DA MVM(96,120)"

    def test_caching(self):
        assert dwt_workload(False) is dwt_workload(False)
        assert mvm_workload(True) is mvm_workload(True)

    #: CDAG slots that hold the structure: adjacency, order, ends.
    STRUCTURE = ("_preds", "_succs", "_topo", "_sources", "_sinks")

    @pytest.mark.parametrize("workload,build,params", [
        (dwt_workload, dwt_graph, (DWT_N, DWT_D)),
        (mvm_workload, mvm_graph, (MVM_M, MVM_N)),
    ], ids=["dwt", "mvm"])
    def test_da_graph_reweights_the_equal_structure(self, workload, build,
                                                    params):
        equal_g, da_g = workload(False).graph, workload(True).graph
        for attr in self.STRUCTURE:
            assert getattr(da_g, attr) is getattr(equal_g, attr), attr
        # Same content as building the family again, so store keys stay.
        fresh = build(*params, weights=double_accumulator(WORD_BITS))
        assert graph_fingerprint(da_g) == graph_fingerprint(fresh)
        assert da_g.weights == fresh.weights

    def test_cache_clear_drops_the_structure(self):
        """perfbench repeats round 0's work in every round by clearing the
        workload caches; no structure may outlive the clear."""
        def graphs():
            return [w(da).graph for w in (dwt_workload, mvm_workload)
                    for da in (False, True)]
        before = graphs()
        dwt_workload.cache_clear()
        mvm_workload.cache_clear()
        after = graphs()
        for old in before:
            for new in after:
                for attr in self.STRUCTURE:
                    assert getattr(old, attr) is not getattr(new, attr), attr
