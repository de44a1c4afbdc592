"""The oracle perf gate (``benchmarks/check_oracle_regression.py``) must
check every probe A* completed, including those the legacy core could
not finish: those are the probes where the oracle does the most work."""

import importlib.util
import pathlib

_PATH = (pathlib.Path(__file__).parent.parent / "benchmarks"
         / "check_oracle_regression.py")
_spec = importlib.util.spec_from_file_location("check_oracle_regression",
                                               _PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _row(graph, budget, astar_cost, legacy_cost, astar_wall, legacy_wall):
    return {"graph": graph, "budget": budget,
            "astar_cost": astar_cost, "legacy_cost": legacy_cost,
            "astar_wall_s": astar_wall, "legacy_wall_s": legacy_wall}


def _report(*rows):
    return {"probe_details": list(rows)}


def _baseline():
    # One probe both cores finish, one only A* finishes (legacy capped).
    return _report(_row("dwt@seed0", 6, 12, 12, 0.01, 1.0),
                   _row("banded@seed0", 4, 15, None, 0.30, 0.5))


def test_identical_reports_pass():
    failures, _ = gate.compare(_baseline(), _baseline(), tolerance=0.2,
                               min_legacy_wall=0.2)
    assert failures == []


def test_cost_drift_on_probe_only_astar_completed_fails():
    fresh = _report(_row("dwt@seed0", 6, 12, 12, 0.01, 1.0),
                    _row("banded@seed0", 4, 14, None, 0.30, 0.5))
    failures, _ = gate.compare(fresh, _baseline(), tolerance=0.2,
                               min_legacy_wall=0.2)
    assert any("cost mismatch on banded@seed0 at B=4" in f
               for f in failures), failures


def test_ratio_counts_astar_time_on_probes_legacy_did_not_finish():
    # A* got 3x slower on the legacy-capped probe only.  The ratio sums
    # A* over both probes (0.31 -> 0.91 s) against legacy over the one
    # it finished (1.0 s), so the gate sees it.
    fresh = _report(_row("dwt@seed0", 6, 12, 12, 0.01, 1.0),
                    _row("banded@seed0", 4, 15, None, 0.90, 0.5))
    failures, lines = gate.compare(fresh, _baseline(), tolerance=0.2,
                                   min_legacy_wall=0.2)
    assert any("wall-time regression" in f for f in failures), lines
