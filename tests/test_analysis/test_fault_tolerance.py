"""Fault-injection tests for the sweep engine's fault-tolerance layer.

Covers the failure modes a multi-hour sweep actually hits: runaway
probes (deadline → degradation to the fallback scheduler), dying pool
workers (``BrokenProcessPool`` → re-dispatch → serial fallback), and
process kills (durable store → resume with identical results).  The
happy path is also pinned: with every knob at its default, the guarded
engine must behave exactly like the unguarded one.
"""

from __future__ import annotations

import copy
import json
import math
import os
import time

import pytest

import repro.analysis.engine as engine_mod
from repro import serialize
from repro.analysis import (CancellationToken, FailureRecord, FaultPolicy,
                            SweepEngine, SweepStats, current_token, governed,
                            log_budget_grid, run_probe, sweep)
from repro.core import (GraphStructureError, InvalidScheduleError,
                        ProbeCancelledError, StateSpaceTooLargeError,
                        min_feasible_budget)
from repro.graphs import dwt_graph
from repro.schedulers import (ExhaustiveScheduler, GreedyTopologicalScheduler,
                              LayerByLayerScheduler, OptimalDWTScheduler)

# --------------------------------------------------------------------- #
# Fault-injection helpers (module level so they pickle into pool workers)


def _sleep_polling(delay: float, step: float = 0.005) -> None:
    """Sleep ``delay`` seconds in ``step`` slices, checking the ambient
    token after each (a full check: the strided poll would outlast it)."""
    end = time.monotonic() + delay
    while time.monotonic() < end:
        token = current_token()
        if token is not None and token.check() is not None:
            raise ProbeCancelledError(f"sleep cancelled ({token.reason})",
                                      reason=token.reason)
        time.sleep(step)


class SleepyScheduler(GreedyTopologicalScheduler):
    """Greedy costs behind an injected wall-clock hang per probe that
    polls the probe's cancellation token every 5 ms step."""

    name = "sleepy"

    def __init__(self, delay: float):
        self.delay = delay

    def cost(self, cdag, budget=None):
        _sleep_polling(self.delay)
        return super().cost(cdag, budget)

    def fallback_scheduler(self):
        return GreedyTopologicalScheduler()


def _echo_task(x, engine=None):
    return ("ok", x)


def _policy_task(x, engine=None):
    return x, engine.policy


def _crash_once_task(flag_path, parent_pid, x, engine=None):
    """Dies abruptly (os._exit) the first time it runs in a pool worker;
    the flag file makes the re-dispatched attempt succeed."""
    if os.getpid() != parent_pid and not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("crashed")
            fh.flush()
            os.fsync(fh.fileno())
        os._exit(13)
    return ("ok", x)


def _always_crash_task(parent_pid, x, engine=None):
    """Dies in every pool worker; only succeeds serially in the parent."""
    if os.getpid() != parent_pid:
        os._exit(13)
    return ("serial", x)


# --------------------------------------------------------------------- #
# FaultPolicy / run_probe units


def test_fault_policy_inert_by_default():
    assert not FaultPolicy().governed
    assert FaultPolicy().make_token() is None
    assert FaultPolicy(deadline=1.0).governed
    assert FaultPolicy(mem_limit_mb=512.0).governed
    assert FaultPolicy(anytime=True).governed


def test_run_probe_clean_path_records_nothing():
    failures = []
    value, degraded = run_probe(lambda: 7, key="k", policy=FaultPolicy(),
                                failures=failures)
    assert (value, degraded) == (7, False)
    assert failures == []


def test_run_probe_does_not_retry_deterministic_errors():
    calls, failures = [], []

    def boom():
        calls.append(1)
        raise ValueError("deterministic")
    with pytest.raises(ValueError):
        run_probe(boom, key="det", policy=FaultPolicy(), failures=failures)
    assert len(calls) == 1  # no retry: re-running cannot change the outcome
    assert failures[-1].resolution == "failed" and failures[-1].attempts == 1


def test_run_probe_degrades_on_timeout_with_fallback():
    # The deadline is the per-probe time bound: the evaluation polls its
    # token, stops itself, and the fallback answers.
    failures = []
    value, degraded = run_probe(
        lambda: _sleep_polling(2.0), key="hang",
        policy=FaultPolicy(deadline=0.05),
        failures=failures, fallback=lambda: 99)
    assert (value, degraded) == (99, True)
    (rec,) = failures
    assert rec.resolution == "degraded"
    assert rec.exception == "ProbeCancelledError"
    assert rec.context["reason"] == "deadline"
    assert rec.elapsed < 1.0


def test_run_probe_timeout_without_fallback_raises():
    failures = []
    with pytest.raises(ProbeCancelledError):
        run_probe(lambda: _sleep_polling(2.0), key="hang",
                  policy=FaultPolicy(deadline=0.05), failures=failures)
    assert failures[-1].resolution == "failed"


def test_ungoverned_run_probe_runs_under_the_ambient_token():
    # No deadline of its own: a service request's token still governs.
    request = CancellationToken()
    seen = []
    with governed(request):
        run_probe(lambda: seen.append(current_token()), key="k",
                  policy=FaultPolicy())
        run_probe(lambda: seen.append(current_token()), key="k",
                  policy=FaultPolicy(deadline=60.0))
    assert seen[0] is request
    assert seen[1] is not request and seen[1].parent is request


# --------------------------------------------------------------------- #
# State-space guards (exhaustive scheduler)


def test_exhaustive_node_guard_raises_typed_error():
    g = dwt_graph(8, 3)
    with pytest.raises(StateSpaceTooLargeError) as err:
        ExhaustiveScheduler(max_nodes=4).cost(g, g.total_weight())
    assert isinstance(err.value, GraphStructureError)  # old handlers work
    assert err.value.size == len(g) and err.value.limit == 4


def test_exhaustive_state_guard_bounds_the_search():
    g = dwt_graph(4, 1)
    with pytest.raises(StateSpaceTooLargeError) as err:
        ExhaustiveScheduler(max_states=2).cost(g, g.total_weight())
    assert err.value.limit == 2 and err.value.size > 2
    # A generous cap must not change the answer.
    capped = ExhaustiveScheduler(max_states=10 ** 6).cost(g, g.total_weight())
    uncapped = ExhaustiveScheduler(max_states=None).cost(g, g.total_weight())
    assert capped == uncapped


def test_engine_degrades_exhaustive_to_designated_fallback():
    g = dwt_graph(8, 3)
    budgets = [g.total_weight() // 2, g.total_weight()]
    eng = SweepEngine()  # fallback="auto" -> exhaustive designates greedy
    series = eng.sweep(ExhaustiveScheduler(max_nodes=4), g, budgets, "exh")
    greedy = GreedyTopologicalScheduler().cost_many(g, budgets)
    assert list(series.costs) == greedy
    assert series.degraded == tuple(budgets)
    assert eng.stats.degraded_probes == len(budgets)
    assert all(f.exception == "StateSpaceTooLargeError"
               for f in eng.stats.failures)


def test_engine_without_fallback_propagates_guard_error():
    g = dwt_graph(8, 3)
    # Every probe runs through the guard layer, which records the
    # failure; without a fallback the guard error still propagates.
    eng = SweepEngine(fallback=None)
    with eng.probe_context("figX"):
        with pytest.raises(StateSpaceTooLargeError):
            eng.sweep(ExhaustiveScheduler(max_nodes=4), g,
                      [g.total_weight()], "exh")
    (rec,) = eng.stats.failures
    assert rec.resolution == "failed"
    assert rec.key.startswith("figX:")  # probe_context labels the record


# --------------------------------------------------------------------- #
# Engine-level deadlines and degradation


def test_engine_timeout_degrades_to_fallback_costs():
    g = dwt_graph(8, 3)
    budgets = [g.total_weight()]
    eng = SweepEngine(deadline=0.05)
    series = eng.sweep(SleepyScheduler(delay=1.0), g, budgets, "sleepy")
    assert list(series.costs) == GreedyTopologicalScheduler().cost_many(
        g, budgets)
    assert series.degraded == tuple(budgets)
    assert eng.stats.failures[0].exception == "ProbeCancelledError"
    assert eng.stats.failures[0].resolution == "degraded"


def test_engine_timeout_without_fallback_raises():
    g = dwt_graph(8, 3)
    eng = SweepEngine(deadline=0.05, fallback=None)
    with pytest.raises(ProbeCancelledError):
        eng.sweep(SleepyScheduler(delay=1.0), g, [g.total_weight()], "sleepy")


def test_stats_report_includes_failures():
    stats = SweepStats()
    stats.failures.append(FailureRecord(
        key="fig6:Sleepy#B=64", exception="ProbeCancelledError",
        message="probe cancelled (deadline)", attempts=1, elapsed=0.06,
        resolution="degraded"))
    stats.pool_restarts = 1
    text = stats.report()
    assert "failures" in text and "degraded 1" in text
    assert "fig6:Sleepy#B=64" in text
    assert "pool restarts" in text


# --------------------------------------------------------------------- #
# Happy path stays identical with the guards wired in


def test_default_engine_policy_is_inert():
    eng = SweepEngine()
    assert not eng.policy.governed
    assert eng.store is None


def test_guarded_engine_matches_direct_sweep_bit_for_bit():
    g = dwt_graph(16, 4)
    grid = log_budget_grid(min_feasible_budget(g), g.total_weight(), 8)
    direct = sweep(lambda b: OptimalDWTScheduler().cost(g, b), grid, "opt")
    for eng in (SweepEngine(),
                SweepEngine(deadline=60.0),  # governed but untripped
                SweepEngine(fallback=None)):
        got = eng.sweep(OptimalDWTScheduler(), g, grid, "opt")
        assert got == direct  # includes degraded == ()
        assert eng.stats.failures == []


def test_map_of_no_tasks_returns_empty_list():
    assert SweepEngine(jobs=4).map([]) == []  # must not build a 0-worker pool


def test_pool_workers_inherit_the_probe_guard():
    eng = SweepEngine(jobs=2, deadline=30.0, mem_limit_mb=8192.0,
                      anytime=True)
    results = eng.map([(_policy_task, (i,)) for i in range(2)])
    assert [x for x, _ in results] == [0, 1]
    assert all(policy == eng.policy for _, policy in results)


# --------------------------------------------------------------------- #
# Worker-crash recovery


def test_broken_pool_redispatches_lost_tasks(tmp_path):
    flag = str(tmp_path / "crashed.flag")
    eng = SweepEngine(jobs=2)
    results = eng.map([(_crash_once_task, (flag, os.getpid(), i))
                       for i in range(3)])
    assert results == [("ok", i) for i in range(3)]
    assert eng.stats.pool_restarts == 1
    assert eng.stats.failure_counts().get("redispatched", 0) >= 1
    assert all(f.exception == "BrokenProcessPool"
               for f in eng.stats.failures)


def test_repeated_pool_deaths_fall_back_to_serial(tmp_path, monkeypatch):
    monkeypatch.setattr(engine_mod, "MAX_POOL_RESTARTS", 0)
    eng = SweepEngine(jobs=2)
    results = eng.map([(_always_crash_task, (os.getpid(), i))
                       for i in range(2)])
    assert results == [("serial", 0), ("serial", 1)]
    assert eng.stats.pool_restarts == 1
    assert eng.stats.failure_counts().get("serial-fallback") == 2


# --------------------------------------------------------------------- #
# serialize hardening


def test_cdag_decoder_names_the_offending_field():
    base = serialize.cdag_to_dict(dwt_graph(4, 1))

    def corrupt(mutate):
        doc = copy.deepcopy(base)
        mutate(doc)
        return doc

    cases = [
        (lambda d: d["nodes"][0].pop("id"), "missing 'id'"),
        (lambda d: d["nodes"][0].update(weight=-16), r"nodes\[0\].weight"),
        (lambda d: d["nodes"][0].update(weight=0), r"nodes\[0\].weight"),
        (lambda d: d["nodes"][0].update(weight=True), r"nodes\[0\].weight"),
        (lambda d: d["nodes"][0].update(weight="16"), r"nodes\[0\].weight"),
        (lambda d: d["nodes"].append(dict(d["nodes"][0])),
         "duplicate node id"),
        (lambda d: d["edges"][0].__setitem__(0, "ghost"),
         r"edges\[0\]\[0\]: unknown source"),
        (lambda d: d["edges"][0].__setitem__(1, "ghost"),
         r"edges\[0\]\[1\]: unknown destination"),
        (lambda d: d["edges"].__setitem__(0, ["lonely"]),
         r"edges\[0\]: expected a \[src, dst\] pair"),
    ]
    for mutate, pattern in cases:
        with pytest.raises(InvalidScheduleError, match=pattern):
            serialize.cdag_from_dict(corrupt(mutate))


# --------------------------------------------------------------------- #
# Durable result store: resume


def test_store_resume_after_partial_run(tmp_path):
    store_dir = str(tmp_path / "store")
    g = dwt_graph(16, 4)
    grid = log_budget_grid(min_feasible_budget(g), g.total_weight(), 8)
    fresh = SweepEngine().sweep(LayerByLayerScheduler(), g, grid, "lbl")

    # A run that dies after covering only the first three budgets ...
    with SweepEngine(store=store_dir) as partial:
        partial.sweep(LayerByLayerScheduler(), g, grid[:3], "lbl")

    # ... resumes: only the remaining budgets are evaluated.
    with SweepEngine(store=store_dir) as eng:
        resumed = eng.sweep(LayerByLayerScheduler(), dwt_graph(16, 4), grid,
                            "lbl")
    assert resumed == fresh
    assert eng.stats.evals == len(grid) - 3


def test_store_keys_separate_scheduler_configurations(tmp_path):
    store_dir = str(tmp_path / "store")
    g = dwt_graph(16, 4)
    budgets = [g.total_weight()]
    with SweepEngine(store=store_dir) as eng1:
        deferred = eng1.sweep(LayerByLayerScheduler(retention="deferred"),
                              g, budgets, "lbl")
    # A differently-configured instance of the same class must not be
    # answered by the deferred probes on resume.
    with SweepEngine(store=store_dir) as eng2:
        eager = eng2.sweep(LayerByLayerScheduler(retention="eager"),
                           dwt_graph(16, 4), budgets, "lbl")
    assert eng2.stats.evals == 1  # cache miss: distinct cache_key
    direct = LayerByLayerScheduler(retention="eager").cost_many(g, budgets)
    assert list(eager.costs) == direct
    assert deferred.label == eager.label == "lbl"


def test_store_preserves_degraded_flags_across_resume(tmp_path):
    store_dir = str(tmp_path / "store")
    g = dwt_graph(8, 3)
    budgets = [g.total_weight()]
    with SweepEngine(store=store_dir) as eng1:
        first = eng1.sweep(ExhaustiveScheduler(max_nodes=4), g, budgets,
                           "exh")
    assert first.degraded == tuple(budgets)

    with SweepEngine(store=store_dir) as eng2:
        resumed = eng2.sweep(ExhaustiveScheduler(max_nodes=4),
                             dwt_graph(8, 3), budgets, "exh")
    assert resumed == first  # degraded marks survive the round-trip
    assert eng2.stats.evals == 0
    assert eng2.stats.degraded_probes == 0  # no fault re-occurred


def test_min_memory_resumes_from_store(tmp_path):
    store_dir = str(tmp_path / "store")
    g = dwt_graph(16, 4)
    fresh = SweepEngine().min_memory(OptimalDWTScheduler(), g)

    with SweepEngine(store=store_dir) as eng1:
        assert eng1.min_memory(OptimalDWTScheduler(), g) == fresh
    with SweepEngine(store=store_dir) as eng2:
        assert eng2.min_memory(OptimalDWTScheduler(),
                               dwt_graph(16, 4)) == fresh
    assert eng2.stats.evals == 0  # the search replays entirely from cache


def test_store_write_through_and_zero_eval_resume(tmp_path):
    store_dir = str(tmp_path / "store")
    g = dwt_graph(16, 4)
    grid = log_budget_grid(min_feasible_budget(g), g.total_weight(), 8)
    fresh = SweepEngine().sweep(OptimalDWTScheduler(), g, grid, "opt")

    with SweepEngine(store=store_dir) as eng1:
        assert eng1.sweep(OptimalDWTScheduler(), g, grid, "opt") == fresh

    # Resume with brand-new engine/scheduler/graph objects against the
    # store alone: byte-identical series, zero re-evaluations.
    with SweepEngine(store=store_dir) as eng2:
        resumed = eng2.sweep(OptimalDWTScheduler(), dwt_graph(16, 4),
                             grid, "opt")
    assert resumed == fresh
    assert eng2.stats.evals == 0
    assert eng2.stats.cache_hits == eng2.stats.probes == len(grid)


def _write_journal(path, entries):
    """An old-format probe journal, as earlier releases wrote it."""
    with open(path, "w") as fh:
        json.dump({"format": "wrbpg-sweep-checkpoint", "version": 1,
                   "entries": entries}, fh)


def test_checkpoint_journal_migrates_into_store(tmp_path):
    ckpt = str(tmp_path / "ckpt.json")
    store_dir = str(tmp_path / "store")
    g = dwt_graph(16, 4)
    grid = log_budget_grid(min_feasible_budget(g), g.total_weight(), 6)
    fresh = SweepEngine().sweep(OptimalDWTScheduler(), g, grid, "opt")
    sched_key = OptimalDWTScheduler().cache_key()
    gkey = SweepEngine().graph_key(g)
    _write_journal(ckpt, [{"scheduler": sched_key, "graph": gkey,
                           "budget": b, "degraded": False,
                           "cost": "inf" if math.isinf(c) else c}
                          for b, c in zip(grid, fresh.costs)])

    # Opening journal + store imports every journaled probe durably:
    # a later store-only engine resumes without the journal file.
    with SweepEngine(checkpoint=ckpt, store=store_dir) as eng2:
        assert eng2.sweep(OptimalDWTScheduler(), g, grid, "opt") == fresh
        assert eng2.stats.evals == 0
    os.remove(ckpt)
    with SweepEngine(store=store_dir) as eng3:
        assert eng3.sweep(OptimalDWTScheduler(), g, grid, "opt") == fresh
    assert eng3.stats.evals == 0


def test_store_degraded_record_does_not_shadow_checkpoint_exact(tmp_path):
    """Importing a journal into a store must seed the run from the
    *merged* view: a store-side anytime bracket never replaces a
    journal's exact value for the same key, in memory or on disk."""
    from repro.core.store import ResultStore
    ckpt = str(tmp_path / "ckpt.json")
    store_dir = str(tmp_path / "store")
    with ResultStore(store_dir) as st:  # degraded bracket in the store
        st.put_probe("S", "G", 8, 25, degraded=True,
                     provenance="anytime", lb=10)
    _write_journal(ckpt, [{"scheduler": "S", "graph": "G", "budget": 8,
                           "cost": 20, "degraded": False}])

    with SweepEngine(checkpoint=ckpt, store=store_dir) as eng:
        assert eng._seed[("S", "G", 8)] == (20, False, "exact", None)
        assert eng.store.get_probe("S", "G", 8) == (20, False, "exact",
                                                    None)


def test_absent_checkpoint_is_never_written(tmp_path):
    ckpt = tmp_path / "ckpt.json"
    g = dwt_graph(8, 3)
    with SweepEngine(checkpoint=str(ckpt), store=str(tmp_path / "st"),
                     anytime=True) as eng:
        out = eng.probe(OptimalDWTScheduler(), g, g.total_weight())
    assert out.exact and not out.cached
    assert not ckpt.exists()


def _journal_of_store(store_dir, path):
    """Write a store's probe records out as an old-format journal."""
    from repro.core.store import ResultStore

    def num(v):
        return "inf" if math.isinf(v) else v
    with ResultStore(store_dir) as st:
        entries = [{"scheduler": s, "graph": g, "budget": b, "cost": num(c),
                    "degraded": d, "provenance": p,
                    "lb": None if lb is None else num(lb)}
                   for (s, g, b), (c, d, p, lb)
                   in sorted(st.probe_entries().items())]
    _write_journal(path, entries)
    return len(entries)


def test_checkpoint_resume_reproduces_series_without_reevaluating(tmp_path):
    path = str(tmp_path / "sweep.json")
    g = dwt_graph(16, 4)
    grid = log_budget_grid(min_feasible_budget(g), g.total_weight(), 8)
    fresh = SweepEngine().sweep(OptimalDWTScheduler(), g, grid, "opt")

    with SweepEngine(store=str(tmp_path / "first")) as eng1:
        assert eng1.sweep(OptimalDWTScheduler(), g, grid, "opt") == fresh
    assert _journal_of_store(str(tmp_path / "first"), path) == len(grid)
    journal = open(path, "rb").read()

    # Resume from the journal alone, into an empty store, with brand-new
    # scheduler/graph objects: identity must come from the stable content
    # keys, not object ids.
    with SweepEngine(checkpoint=path, store=str(tmp_path / "second")) as eng2:
        resumed = eng2.sweep(OptimalDWTScheduler(), dwt_graph(16, 4), grid,
                             "opt")
    assert resumed == fresh
    assert eng2.stats.evals == 0
    assert eng2.stats.cache_hits == eng2.stats.probes == len(grid)
    assert open(path, "rb").read() == journal  # read, never written


def test_fig6_mini_panel_resumes_identically(tmp_path):
    from repro.experiments.fig6 import dwt_panel
    path = str(tmp_path / "fig6.json")
    fresh = dwt_panel(False, n_max=16, stride=2, engine=SweepEngine())

    with SweepEngine(jobs=2, store=str(tmp_path / "first")) as eng1:
        assert dwt_panel(False, n_max=16, stride=2, engine=eng1) == fresh
    assert _journal_of_store(str(tmp_path / "first"), path) > 0

    # A rerun with the same fan-out resumes from the imported journal
    # alone: the workers replay their searches entirely from seeded
    # probes.  (A differently-chunked rerun would still match `fresh` but
    # may probe a few budgets the first run's warm-start hints skipped.)
    with SweepEngine(jobs=2, checkpoint=path,
                     store=str(tmp_path / "second")) as eng2:
        assert dwt_panel(False, n_max=16, stride=2, engine=eng2) == fresh
    assert eng2.stats.evals == 0


def test_pooled_sweep_writes_through_one_store(tmp_path):
    from repro.experiments.fig6 import dwt_panel
    store_dir = str(tmp_path / "store")
    fresh = dwt_panel(False, n_max=16, stride=2, engine=SweepEngine())

    with SweepEngine(jobs=2, store=store_dir) as eng1:
        assert dwt_panel(False, n_max=16, stride=2, engine=eng1) == fresh

    with SweepEngine(jobs=2, store=store_dir) as eng2:
        assert dwt_panel(False, n_max=16, stride=2, engine=eng2) == fresh
    assert eng2.stats.evals == 0


def test_oracle_serves_and_persists_exact_records_via_memo(tmp_path):
    from repro.core.store import ResultStore
    store_dir = str(tmp_path / "store")
    g = dwt_graph(4, 2)
    budgets = (4, 6, 8)
    plain = ExhaustiveScheduler().cost_many(g, budgets, memo={})

    store = ResultStore(store_dir)
    sched = ExhaustiveScheduler()
    memo = {"result_store": store}
    assert sched.cost_many(g, budgets, memo=memo) == plain
    assert store.appends == len(budgets)  # write-through, one per budget
    store.close()

    # A fresh scheduler with a path reference is served from disk: the
    # probes are store hits, and the values are byte-identical.
    memo2: dict = {"result_store": store_dir}
    assert ExhaustiveScheduler().cost_many(dwt_graph(4, 2), budgets,
                                           memo=memo2) == plain
    served = memo2["_result_store"]
    assert served.hits >= len(budgets)
    assert served.appends == 0  # nothing re-evaluated, nothing rewritten


def test_oracle_memo_store_survives_graph_change(tmp_path):
    from repro.core.store import ResultStore
    from repro.graphs import mvm_graph
    store = ResultStore(str(tmp_path / "store"))
    sched = ExhaustiveScheduler()
    memo = {"result_store": store}
    sched.cost_many(dwt_graph(4, 2), (6,), memo=memo)
    sched.cost_many(mvm_graph(2, 2), (6,), memo=memo)  # clears the memo
    assert memo["result_store"] is store
    assert store.appends == 2


def test_anytime_oracle_records_exact_when_it_finishes(tmp_path):
    from repro.core.store import ResultStore
    store = ResultStore(str(tmp_path / "store"))
    sched = ExhaustiveScheduler(anytime=True)
    g = dwt_graph(4, 2)
    costs = sched.cost_many(g, (6, 8), memo={"result_store": store})
    from repro.core.store import graph_fingerprint
    for b, cost in zip((6, 8), costs):
        assert store.get_probe(sched.cache_key(), graph_fingerprint(g),
                               b) == (cost, False, "exact", None)


def test_min_memory_search_reuses_the_store(tmp_path):
    from repro.analysis.min_memory import scheduler_min_memory
    from repro.core.store import ResultStore
    g = dwt_graph(4, 2)
    fresh = scheduler_min_memory(ExhaustiveScheduler(), g)

    store = ResultStore(str(tmp_path / "store"))
    assert scheduler_min_memory(ExhaustiveScheduler(), g,
                                store=store) == fresh
    assert store.appends > 0
    first_appends = store.appends
    assert scheduler_min_memory(ExhaustiveScheduler(), dwt_graph(4, 2),
                                store=store) == fresh
    assert store.appends == first_appends  # second search: pure reads
    assert store.hits > 0


def test_engine_close_is_idempotent_with_store(tmp_path):
    eng = SweepEngine(store=str(tmp_path / "store"))
    eng.sweep(GreedyTopologicalScheduler(), dwt_graph(8, 3), [32, 64], "g")
    eng.close()
    eng.close()
    assert eng.store is None
