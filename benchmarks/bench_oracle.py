"""Oracle-core benchmark: A* + transposition table vs legacy Dijkstra.

Runs both exhaustive-oracle cores over the deterministic fuzz corpus
(:func:`repro.analysis.fuzz.corpus`) at the boundary-heavy budget set of
:func:`repro.analysis.fuzz.budgets_for`, asserts cost identity wherever
both cores complete, and writes a machine-readable ``BENCH_oracle.json``
with wall times, search statistics, and the transposition-table hit rate.

Usage::

    PYTHONPATH=src python benchmarks/bench_oracle.py            # full (seeds 0 1 2)
    PYTHONPATH=src python benchmarks/bench_oracle.py --quick    # CI smoke (seed 0)

Exit status is non-zero on any cost mismatch, or when the measured
speedup over probes both cores completed falls below ``--min-speedup``
(set ``--min-speedup 0`` to record without asserting).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time

from repro.analysis.fuzz import budgets_for, corpus
from repro.core.exceptions import InfeasibleBudgetError, StateSpaceTooLargeError
from repro.schedulers.exhaustive import ExhaustiveScheduler


def _probe_legacy(scheduler, graph, budget):
    """One legacy-core probe: (wall seconds, cost | inf | None if capped)."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        cost = scheduler.cost(graph, budget)
    except InfeasibleBudgetError:
        cost = math.inf
    except StateSpaceTooLargeError:
        cost = None
    return time.perf_counter() - t0, cost


def run(seeds, max_states, min_speedup, out_path, quick):
    probes = []
    astar_wall = legacy_wall = 0.0
    paired_astar = paired_legacy = 0.0  # probes where legacy completed
    mismatches = []
    legacy_capped = astar_capped = 0

    for seed in seeds:
        for name, graph in corpus(seed):
            astar = ExhaustiveScheduler(max_states=max_states)
            legacy = ExhaustiveScheduler(max_states=max_states, core="legacy")
            if not (astar.accepts(graph) and len(graph) <= astar.max_nodes):
                continue
            memo: dict = {}
            for budget in budgets_for(graph):
                # Per-probe stats are *deltas* of the cumulative
                # transposition-table counters, snapshotted around each
                # probe (the table materializes in the memo on the first
                # cost_many call, so the first snapshot may be empty).
                tbl = memo.get("table")
                stats_before = tbl.stats.as_dict() if tbl is not None else {}
                tt_before = tbl.probes if tbl is not None else 0
                # Collect the previous probe's garbage outside the timed
                # region, so a cycle collection it triggers is not
                # charged to the next probe (of either core).
                gc.collect()
                t0 = time.perf_counter()
                try:
                    a_cost = astar.cost_many(graph, (budget,), memo=memo)[0]
                except StateSpaceTooLargeError:
                    a_cost = None
                a_wall = time.perf_counter() - t0
                l_wall, l_cost = _probe_legacy(legacy, graph, budget)

                astar_wall += a_wall
                legacy_wall += l_wall
                if a_cost is None:
                    astar_capped += 1
                if l_cost is None:
                    legacy_capped += 1
                else:
                    paired_astar += a_wall
                    paired_legacy += l_wall
                    if a_cost is not None and a_cost != l_cost:
                        mismatches.append(
                            {"graph": name, "budget": budget,
                             "astar": a_cost, "legacy": l_cost})
                row = {
                    "graph": name, "budget": budget,
                    "astar_wall_s": round(a_wall, 6),
                    "legacy_wall_s": round(l_wall, 6),
                    "astar_cost": (None if a_cost is None else
                                   ("inf" if math.isinf(a_cost)
                                    else int(a_cost))),
                    "legacy_cost": (None if l_cost is None else
                                    ("inf" if math.isinf(l_cost)
                                     else int(l_cost))),
                }
                tbl = memo.get("table")
                if tbl is not None:
                    after = tbl.stats.as_dict()
                    row["stats"] = {k: v - stats_before.get(k, 0)
                                    for k, v in after.items()}
                    row["transposition_probes"] = tbl.probes - tt_before
                probes.append(row)

    # Aggregate search statistics across the A* runs of the whole corpus.
    agg = {"expanded": 0, "generated": 0, "bound_pruned": 0,
           "heuristic_evals": 0, "result_hits": 0, "stale_pops": 0}
    tt_probes = 0
    for p in probes:
        for key, val in p.get("stats", {}).items():
            agg[key] = agg.get(key, 0) + val
        tt_probes += p.get("transposition_probes", 0)
    hit_rate = (agg["result_hits"] / tt_probes) if tt_probes else 0.0
    speedup = (paired_legacy / paired_astar) if paired_astar else None

    report = {
        "seeds": list(seeds),
        "quick": quick,
        "max_states": max_states,
        "probes": len(probes),
        "astar_wall_s": round(astar_wall, 3),
        "legacy_wall_s": round(legacy_wall, 3),
        "speedup_where_legacy_completed":
            None if speedup is None else round(speedup, 2),
        "legacy_capped_probes": legacy_capped,
        "astar_capped_probes": astar_capped,
        "cost_mismatches": mismatches,
        "states_expanded": agg["expanded"],
        "states_generated": agg["generated"],
        "states_pruned_bound": agg["bound_pruned"],
        "heuristic_evals": agg["heuristic_evals"],
        "transposition_result_hits": agg["result_hits"],
        "transposition_probes": tt_probes,
        "transposition_hit_rate": round(hit_rate, 4),
        "probe_details": probes,
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)

    print(f"wrote {out_path}: {len(probes)} probes, "
          f"A* {astar_wall:.2f}s vs legacy {legacy_wall:.2f}s "
          f"(speedup where legacy completed: "
          f"{'n/a' if speedup is None else f'{speedup:.1f}x'}, "
          f"legacy capped {legacy_capped}, A* capped {astar_capped})")
    print(f"  expanded {agg['expanded']}, bound-pruned "
          f"{agg['bound_pruned']}, transposition hit rate {hit_rate:.1%}")

    if mismatches:
        print(f"FAIL: {len(mismatches)} cost mismatches", file=sys.stderr)
        return 1
    if min_speedup > 0 and speedup is not None and speedup < min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x < required {min_speedup}x",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2])
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke mode: seed 0 only, tighter state cap")
    ap.add_argument("--max-states", type=int, default=None,
                    help="settled-state cap for both cores "
                         "(default 200000, quick 25000)")
    ap.add_argument("--min-speedup", type=float, default=5.0,
                    help="fail below this A*-vs-legacy speedup (0 = record "
                         "only)")
    ap.add_argument("-o", "--output", default="BENCH_oracle.json")
    args = ap.parse_args(argv)
    seeds = [0] if args.quick else args.seeds
    max_states = args.max_states if args.max_states is not None else \
        (25_000 if args.quick else 200_000)
    return run(seeds, max_states, args.min_speedup, args.output, args.quick)


if __name__ == "__main__":
    sys.exit(main())
