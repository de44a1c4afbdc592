"""The ``oracle`` workload: exact A* searches on a seeded corpus.

Every graph of the corpus gets one ``SweepEngine.min_memory`` search with
a fresh ``ExhaustiveScheduler``, then probes at
``repro.analysis.fuzz.budgets_for(g)``; that pair is one operation (the
probes after the search are mostly transposition-table hits, so a
per-probe median would time table hits).  Every round uses a fresh
engine and repeats the first round's work exactly, so the A* counters of
every round must equal the first round's.

The corpus (see :func:`corpus`) mixes seed-independent shapes, which
carry most of the work, with seeded random shapes whose effort stays
small, so the amount of work barely moves with the seed.
"""

from __future__ import annotations

import gc
import math
import random
import sys
import time
from typing import Dict, List, Tuple

from clock import Sampler
from result import Run, peak_rss_mb
import layers


def _layered(rng: random.Random):
    """A random layered DAG of five layers of two nodes in which every
    node feeds the next layer (the shape keeps the search effort small
    next to the fixed graphs at every seed)."""
    from repro.graphs import random_layered_dag
    while True:
        g = random_layered_dag(5, 2, seed=rng.randrange(1 << 30))
        if len(g) == 10 and len(g.sources) == 2 and len(g.sinks) == 2:
            return g


def corpus(seed: int) -> List[Tuple[str, object]]:
    """Seven graphs.  The three seeded ones stay well below FFT(4) in
    effort and the three larger fixed ones above it, so the median
    operation is FFT(4) at every seed and the seed moves the total work
    by only a few per cent."""
    from repro.graphs import (banded_mvm_graph, complete_kary_tree,
                              conv_graph, dwt_graph, fft_graph,
                              random_series_parallel, random_weighted)
    rng = random.Random(seed)
    return [
        ("sp(5)", random_series_parallel(5, seed=rng.randrange(1 << 30))),
        ("layered(5x2)", _layered(rng)),
        ("conv(3,2)/w", random_weighted(conv_graph(3, 2), 1, 2,
                                        seed=rng.randrange(1 << 30))),
        ("fft(4)", fft_graph(4)),
        ("dwt(8,1)", dwt_graph(8, 1)),
        ("kary(2,3)", complete_kary_tree(2, 3)),
        ("banded(3,2,1)", banded_mvm_graph(3, 2, 1)),
    ]


def solve(eng, g, label: str) -> dict:
    """One operation: the min-memory search, then the boundary probes."""
    from repro.analysis.fuzz import budgets_for
    from repro.schedulers import ExhaustiveScheduler
    sched = ExhaustiveScheduler()
    minimum = eng.min_memory(sched, g)
    budgets = budgets_for(g)
    series = eng.sweep(sched, g, budgets, label)
    return {"min_memory": minimum, "budgets": list(budgets),
            "costs": list(series.costs), "degraded": list(series.degraded),
            "counters": sched.last_stats.as_dict()}


def run(run: Run, seed: int, sampler: Sampler, setup_mark) -> None:
    t0 = time.perf_counter()
    from repro.analysis.engine import SweepEngine
    import repro.analysis.fuzz  # noqa: F401  (budgets_for)
    import repro.schedulers  # noqa: F401
    import_s = time.perf_counter() - t0
    graphs = corpus(seed)
    eng = SweepEngine()
    run.setup_s, _, run.raw_setup_s = sampler.close(setup_mark)
    run.start()
    first: Dict[str, dict] = {}
    for round_no, traced in run.rounds(min_rounds=2):
        if round_no > 0:
            eng = SweepEngine()
        if traced:
            layers.install(run.tracer)
        results: Dict[str, dict] = {}
        times: List[float] = []
        raws: List[float] = []
        for label, g in graphs:
            run.attempted += 1
            if traced:
                run.tracer.op_id = f"{round_no}:{label}"
            mark = sampler.mark()
            try:
                results[label] = solve(eng, g, label)
            except Exception as exc:  # counted, reported, run goes on
                run.failed += 1
                run.errors.append(f"{label}: {exc!r}")
                continue
            norm, _, raw = sampler.close(mark)
            times.append(norm)
            raws.append(raw)
            print(f"op {label} {norm:.4f} s", file=sys.stderr)
        if traced:
            run.tracer.uninstall()
            run.layer.update(layers.span_metrics(run.tracer,
                                                 sampler.factor_at))
            run.layer.update(layers.engine_metrics(
                eng.stats, sum(times) / sum(raws)))
            totals: Dict[str, int] = {}
            for res in results.values():
                for k, v in res["counters"].items():
                    totals[k] = totals.get(k, 0) + v
            run.layer.update(layers.astar_metrics(
                totals, int(run.tracer.counts.get("astar.probes", 0)),
                run.layer["astar.solve_s"]))
            run.layer["import_s"] = import_s
        run.peak_rss.append(peak_rss_mb())
        run.add_round(sum(times), times, traced, sum(raws), raws)
        eng.close()
        eng = None
        gc.collect()  # the next round starts from the same heap
        if round_no == 0:
            first = results
        else:
            for label, res in results.items():
                if res != first.get(label):
                    run.problems.append(
                        f"{label}: round {round_no} differs from round 0 "
                        f"(answers or A* counters)")
    # Checked after the last round, so their memory stays out of the
    # reported peak.
    rng = random.Random(seed)
    for label, g in graphs:
        if label in first:
            run.problems.extend(check_graph(label, g, first[label], rng))


# --------------------------------------------------------------------- #
# Checks


def others_for(g) -> Dict[str, Tuple[List[float], bool]]:
    """Costs at ``budgets_for(g)`` of every other scheduler that
    ``schedulers_for`` offers and that answers, with whether it claims
    the optimum on ``g``.  A scheduler refusing the graph with
    ``GraphStructureError`` (the documented refusal) is left out; the
    sliding-window conv scheduler does so on re-weighted conv graphs
    although the registry offers it (see CHANGES.md)."""
    from repro.analysis.fuzz import budgets_for
    from repro.core.exceptions import GraphStructureError
    from repro.schedulers.registry import schedulers_for
    budgets = budgets_for(g)
    out = {}
    for key, inst in schedulers_for(g, exclude=("exhaustive",)):
        try:
            out[key] = (inst.cost_many(g, budgets), inst.claims_optimal(g))
        except GraphStructureError:
            continue
    return out


def check_answers(label: str, g, res: dict, fresh: List[float],
                  others: Dict[str, Tuple[List[float], bool]]) -> List[str]:
    """Each answer equals the cost a fresh ``ExhaustiveScheduler`` finds
    outside the engine (``fresh``, at the same budgets), and has the
    properties every optimum has: Props. 2.3 and 2.4, non-increasing in
    the budget, no worse than any other scheduler, equal to the DP
    optimum wherever that scheduler claims it."""
    from repro.core import algorithmic_lower_bound, min_feasible_budget
    out = []
    lb = algorithmic_lower_bound(g)
    need = min_feasible_budget(g)
    budgets, costs = res["budgets"], res["costs"]
    if len(costs) != len(budgets) or res["degraded"]:
        return [f"{label}: missing or degraded answers {res}"]
    for b, c, f in zip(budgets, costs, fresh):
        if c != f:
            out.append(f"{label} budget {b}: engine answered {c}, a fresh "
                       f"oracle {f}")
    for b, c in zip(budgets, costs):
        if (b < need) != math.isinf(c):
            out.append(f"{label} budget {b}: cost {c} contradicts the "
                       f"existence bound {need} (Prop. 2.3)")
        if not math.isinf(c) and c < lb:
            out.append(f"{label} budget {b}: cost {c} below the lower "
                       f"bound {lb} (Prop. 2.4)")
    for (b0, c0), (b1, c1) in zip(zip(budgets, costs),
                                  zip(budgets[1:], costs[1:])):
        if c1 > c0:
            out.append(f"{label}: cost rises from {c0} at {b0} to {c1} "
                       f"at {b1}")
    for key, (theirs, optimal) in others.items():
        for b, c, t in zip(budgets, costs, theirs):
            if c > t:
                out.append(f"{label} budget {b}: oracle {c} above "
                           f"{key} {t}")
            elif optimal and c != t:
                out.append(f"{label} budget {b}: oracle {c} != {key} "
                           f"optimum {t}")
    return out


def check_minimum(label: str, g, minimum, fresh_costs) -> List[str]:
    """Def. 2.6: the lower bound is reached at the minimum and missed one
    weight-gcd step below it.  ``fresh_costs(budgets)`` comes from a
    scheduler outside the engine."""
    from repro.core import algorithmic_lower_bound
    lb = algorithmic_lower_bound(g)
    step = math.gcd(*g.weights.values())
    if minimum is None:
        return [f"{label}: no minimum reported"]
    below = minimum - step
    if below > 0:
        at, under = fresh_costs([minimum, below])
    else:
        at, under = fresh_costs([minimum])[0], math.inf
    out = []
    if at != lb:
        out.append(f"{label}: cost {at} at the reported minimum {minimum}, "
                   f"lower bound {lb}")
    if not under > lb:
        out.append(f"{label}: lower bound already reached one step below "
                   f"the reported minimum {minimum}")
    return out


def check_replay(label: str, g, budget: int, cost) -> List[str]:
    """The oracle's schedule at ``budget``, from a fresh scheduler and
    replayed through the simulator, reproduces the reported cost."""
    from repro.core.simulator import simulate
    from repro.schedulers import ExhaustiveScheduler
    schedule = ExhaustiveScheduler().schedule(g, budget)
    replayed = simulate(g, schedule, budget).cost
    if replayed != cost:
        return [f"{label} budget {budget}: replayed schedule costs "
                f"{replayed}, reported {cost}"]
    return []


def check_graph(label: str, g, res: dict, rng: random.Random) -> List[str]:
    """Every check of one graph's answers.  The fresh scheduler probes
    the reported minimum and one step below it first, then the boundary
    probes high-first: probed from an empty table in another order, some
    budgets cost this oracle minutes (see CHANGES.md).  The replayed
    probe is drawn from the two boundary budgets (the existence bound and
    one step above), where the budget binds."""
    from repro.core import min_feasible_budget
    from repro.schedulers import ExhaustiveScheduler
    fresh = ExhaustiveScheduler()
    memo: dict = {}
    out = check_minimum(label, g, res["min_memory"],
                        lambda bs: fresh.cost_many(g, bs, memo=memo))
    budgets = res["budgets"]
    high_first = sorted(budgets, reverse=True)
    by_budget = dict(zip(high_first,
                         fresh.cost_many(g, high_first, memo=memo)))
    out += check_answers(label, g, res, [by_budget[b] for b in budgets],
                         others_for(g))
    need = min_feasible_budget(g)
    step = math.gcd(*g.weights.values())
    boundary = [(b, c) for b, c in zip(budgets, res["costs"])
                if b in (need, need + step)]
    if boundary:
        b, c = rng.choice(boundary)
        out += check_replay(label, g, b, c)
    return out
