"""Oracle perf-regression gate: fresh quick-bench vs committed baseline.

Compares a freshly generated ``BENCH_oracle.json`` against the committed
``benchmarks/results/BENCH_oracle.json`` and fails when

* the A* core's optimal *cost* differs between the two reports on any
  (graph, budget) probe that A* completed in both (a correctness
  regression dressed up as a perf report), or
* the legacy-normalized wall-time ratio regresses by more than the
  tolerance (default 20%).

Raw wall seconds are not comparable across machines (a CI runner is not
the workstation the baseline was recorded on), so the gate compares
``sum(astar_wall) / sum(legacy_wall)``: the A* sum runs over the probes
A* completed in both reports, the legacy sum over the probes the legacy
core completed in both.  The legacy core runs in both reports on the
same machine as the A* probes, so its time normalizes away the machine.

Usage::

    PYTHONPATH=src python benchmarks/check_oracle_regression.py \
        FRESH.json BASELINE.json [--tolerance 0.2] [--min-legacy-wall 0.2]
"""

from __future__ import annotations

import argparse
import json
import sys


def _completed_rows(report, core):
    """(graph, budget) -> row for probes where ``core`` completed."""
    return {(row["graph"], row["budget"]): row
            for row in report.get("probe_details", [])
            if row.get(f"{core}_cost") is not None}


def compare(fresh: dict, baseline: dict, tolerance: float,
            min_legacy_wall: float):
    """Returns (failures, summary lines)."""
    f_rows = _completed_rows(fresh, "astar")
    b_rows = _completed_rows(baseline, "astar")
    common = sorted(set(f_rows) & set(b_rows))
    f_legacy_rows = _completed_rows(fresh, "legacy")
    b_legacy_rows = _completed_rows(baseline, "legacy")
    paired = sorted(set(f_legacy_rows) & set(b_legacy_rows))
    failures = []
    lines = [f"probes A* completed in both: {len(common)} "
             f"(fresh {len(f_rows)}, baseline {len(b_rows)}); "
             f"legacy completed in both: {len(paired)}"]
    if not common:
        failures.append("no common completed probes — reports do not "
                        "overlap (corpus or budget drift?)")
        return failures, lines

    for key in common:
        fc, bc = f_rows[key]["astar_cost"], b_rows[key]["astar_cost"]
        if fc != bc:
            failures.append(f"cost mismatch on {key[0]} at B={key[1]}: "
                            f"fresh {fc} vs baseline {bc}")

    f_astar = sum(f_rows[k]["astar_wall_s"] for k in common)
    b_astar = sum(b_rows[k]["astar_wall_s"] for k in common)
    f_legacy = sum(f_legacy_rows[k]["legacy_wall_s"] for k in paired)
    b_legacy = sum(b_legacy_rows[k]["legacy_wall_s"] for k in paired)
    lines.append(f"fresh:    A* {f_astar:.2f}s / legacy {f_legacy:.2f}s")
    lines.append(f"baseline: A* {b_astar:.2f}s / legacy {b_legacy:.2f}s")
    if f_legacy < min_legacy_wall or b_legacy < min_legacy_wall:
        # Too little paired legacy work for a stable ratio: the common
        # probes are all trivial.  Gate on costs only.
        lines.append(f"legacy wall below {min_legacy_wall}s — ratio gate "
                     f"skipped (insufficient signal)")
        return failures, lines
    fresh_ratio = f_astar / f_legacy
    base_ratio = b_astar / b_legacy
    lines.append(f"legacy-normalized ratio: fresh {fresh_ratio:.4f} vs "
                 f"baseline {base_ratio:.4f} "
                 f"(limit {base_ratio * (1 + tolerance):.4f})")
    if fresh_ratio > base_ratio * (1 + tolerance):
        failures.append(
            f"wall-time regression: fresh A*/legacy ratio {fresh_ratio:.4f} "
            f"exceeds baseline {base_ratio:.4f} by more than "
            f"{tolerance:.0%}")
    return failures, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", help="freshly generated BENCH_oracle.json")
    ap.add_argument("baseline", help="committed baseline BENCH_oracle.json")
    ap.add_argument("--tolerance", type=float, default=0.2,
                    help="allowed relative ratio regression (default 0.2)")
    ap.add_argument("--min-legacy-wall", type=float, default=0.2,
                    help="skip the ratio gate when either report's paired "
                         "legacy wall time is below this (seconds)")
    args = ap.parse_args(argv)
    with open(args.fresh) as fh:
        fresh = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    failures, lines = compare(fresh, baseline, args.tolerance,
                              args.min_legacy_wall)
    for line in lines:
        print(line)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
