"""Resource-governance tests: cooperative cancellation, anytime brackets,
the degradation ladder, and bracket-sound consumers.

The invariants under test:

* a governed search stops *itself* — within its deadline plus a small
  grace — and answers with a certified ``[lb, ub]`` bracket whose upper
  bound is an actually-replayable schedule, never an exception;
* bracket consumers (sweep provenance, min-memory feasibility, the
  differential auditor, the fuzz driver) stay *sound* under governance:
  an undecidable comparison becomes ``inconclusive``, never a wrong
  answer or a false violation;
* with every governance knob off, behaviour is byte-identical to the
  ungoverned engine.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.analysis import (AnytimeResult, CancellationToken, SweepEngine,
                            current_token, fuzz, governed, install_rlimit,
                            process_rss_mb)
from repro.core import ProbeCancelledError, simulate
from repro.graphs import dwt_graph
from repro.schedulers import ExhaustiveScheduler

# --------------------------------------------------------------------- #
# CancellationToken mechanics (injected clock / RSS so nothing sleeps)


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


def test_token_deadline_fires_on_injected_clock():
    clk = FakeClock(100.0)
    tok = CancellationToken(budget=5.0, clock=clk, poll_interval=1)
    assert tok.poll() is None
    assert tok.remaining() == pytest.approx(5.0)
    clk.t = 105.0
    assert tok.poll() == "deadline"
    assert tok.cancelled
    # The first reason sticks: a later external cancel cannot rewrite it.
    tok.cancel("cancelled")
    assert tok.reason == "deadline"


def test_token_memory_watchdog_fires_on_injected_rss():
    rss = [10.0]
    tok = CancellationToken(mem_limit_mb=100.0, rss_fn=lambda: rss[0],
                            poll_interval=1)
    assert tok.poll() is None
    rss[0] = 250.0
    assert tok.poll() == "memory"
    with pytest.raises(ProbeCancelledError) as exc_info:
        tok.raise_if_cancelled("unit test")
    assert exc_info.value.reason == "memory"


def test_token_rss_probe_failure_disables_watchdog():
    # When RSS cannot be measured the watchdog is a no-op, not a cancel.
    tok = CancellationToken(mem_limit_mb=1.0, rss_fn=lambda: None,
                            poll_interval=1)
    assert tok.poll() is None


def test_token_strided_poll_defers_full_checks():
    calls = []

    def rss():
        calls.append(1)
        return 1.0

    tok = CancellationToken(mem_limit_mb=100.0, rss_fn=rss, poll_interval=10)
    for _ in range(30):
        tok.poll()
    # First poll always does a full check, then one per stride.
    assert len(calls) == 3


def test_token_parent_cancellation_propagates():
    parent = CancellationToken()
    child = CancellationToken(parent=parent, poll_interval=1)
    assert child.poll() is None
    parent.cancel("deadline")
    assert child.poll() == "deadline"


def test_governed_context_installs_and_restores_token():
    assert current_token() is None
    tok = CancellationToken()
    with governed(tok):
        assert current_token() is tok
        with governed(None):  # ladder rung: fallback must be ungovernable
            assert current_token() is None
        assert current_token() is tok
    assert current_token() is None


def test_process_rss_is_measurable_here():
    rss = process_rss_mb()
    assert rss is not None and rss > 1.0


def test_install_rlimit_is_a_noop_without_a_limit():
    assert install_rlimit(None) is False


def test_anytime_result_decides_soundly():
    res = AnytimeResult(lower_bound=10.0, upper_bound=20.0, schedule=None,
                        reason="deadline", source="greedy")
    assert res.decides(25.0) is True      # ub proves feasibility
    assert res.decides(5.0) is False      # lb proves infeasibility
    assert res.decides(15.0) is None      # spanning: inconclusive
    assert not res.exact and res.gap == pytest.approx(10.0)


# --------------------------------------------------------------------- #
# Tentpole: governed oracle returns simulator-verified anytime brackets


def _governed_solve(budget_s: float):
    # 40 nodes; at budget 16 an ungoverned search runs far past the
    # deadline (budget 8 solves exactly in about the deadline itself).
    cdag = dwt_graph(16, 2)
    sched = ExhaustiveScheduler(max_nodes=64, anytime=True)
    tok = CancellationToken(budget=budget_s, anytime=True)
    t0 = time.perf_counter()
    res = sched.solve(cdag, 16, token=tok)
    return cdag, res, time.perf_counter() - t0


def test_deadline_mid_search_yields_replayable_bracket():
    deadline = 0.2
    cdag, res, elapsed = _governed_solve(deadline)
    assert isinstance(res, AnytimeResult)
    assert not res.exact and res.reason == "deadline"
    assert res.source in ("search", "greedy")
    assert res.lower_bound <= res.upper_bound
    assert res.lower_bound > 0
    # The probe obeyed its deadline (generous slack for CI jitter — the
    # point is "stopped itself", not "stopped the same millisecond").
    assert elapsed <= deadline + max(0.1 * deadline, 0.5)
    # The upper bound is achievable: its schedule replays on the game
    # simulator at exactly the claimed cost.
    assert res.schedule is not None
    replay = simulate(cdag, res.schedule, budget=16)
    assert replay.cost == res.upper_bound
    # SearchStats propagated into the result (satellite 3).
    if res.source == "search":
        assert res.stats.get("expanded", 0) > 0


def test_states_cap_bracket_is_deterministic():
    cdag = dwt_graph(8, 2)
    results = []
    for _ in range(2):
        sched = ExhaustiveScheduler(max_nodes=64, max_states=50,
                                    anytime=True)
        res = sched.solve(cdag, 6)
        results.append((res.lower_bound, res.upper_bound, res.reason,
                        res.source))
    assert results[0] == results[1]
    lb, ub, reason, _ = results[0]
    assert reason == "states" and lb <= ub
    # No StateSpaceTooLargeError escaped: anytime mode degrades instead.


def test_anytime_flag_keeps_default_cache_key():
    # Governance must not silently re-key historical probe caches.
    plain = ExhaustiveScheduler()
    gov = ExhaustiveScheduler(anytime=True)
    assert "anytime" not in plain.cache_key()
    assert plain.cache_key() != gov.cache_key()


# --------------------------------------------------------------------- #
# Engine integration: degradation ladder, provenance, profile counters


def test_governed_sweep_degrades_with_provenance_and_brackets():
    cdag = dwt_graph(16, 2)
    eng = SweepEngine(deadline=0.1, anytime=True)
    sched = ExhaustiveScheduler(max_nodes=64)
    series = eng.sweep(sched, cdag, [8, 16], "governed")
    assert all(math.isfinite(c) for c in series.costs)
    fn = eng.cost_fn(sched, cdag)
    for b in (8, 16):
        lb, ub = fn.bracket(b)
        assert lb <= ub == series.costs[series.budgets.index(b)]
    # Degraded budgets carry a ladder rung, surfaced on the series.
    for b in series.degraded:
        assert series.provenance_of(b) in ("anytime", "fallback")
    resolutions = {f.resolution for f in eng.stats.failures}
    assert resolutions <= {"anytime", "degraded"}
    assert (eng.stats.anytime_probes + sum(
        1 for f in eng.stats.failures if f.resolution == "degraded")
        == len(eng.stats.failures))
    # Satellite 3: degraded probes still report search effort for
    # --profile via FailureRecord.context.
    for f in eng.stats.failures:
        assert f.context is not None
        assert f.context.get("reason") in ("deadline", "states", "memory",
                                           "cancelled", "too-large")
        assert f.context.get("lb") is not None
        assert f.context.get("ub") is not None


def test_ungoverned_sweep_is_byte_identical_to_pr4_shape():
    cdag = dwt_graph(4, 2)
    eng = SweepEngine()
    series = eng.sweep(ExhaustiveScheduler(), cdag, [4, 8], "plain")
    assert series.degraded == () and series.provenance == ()
    assert series.provenance_of(4) == "exact"
    assert not eng.stats.failures
    # Exact probes answer closed brackets.
    fn = next(iter(eng._fns.values()))
    lb, ub = fn.bracket(4)
    assert lb == ub


def test_governed_min_memory_is_sound_or_inconclusive():
    cdag = dwt_graph(4, 2)
    exact = SweepEngine().min_memory(ExhaustiveScheduler(), cdag)
    eng = SweepEngine(deadline=0.05, anytime=True)
    governed_result = eng.min_memory(ExhaustiveScheduler(max_nodes=64), cdag)
    # Sound degradation: the governed answer may be pessimistic (higher
    # minimum, or None) but never claims a smaller memory than the truth.
    assert governed_result is None or governed_result >= exact
    for f in eng.stats.failures:
        assert f.resolution in ("anytime", "degraded", "inconclusive")
    if governed_result != exact:
        assert eng.stats.failures  # degradation is always accounted for


# --------------------------------------------------------------------- #
# Store resume: anytime probes keep their provenance and bracket


def test_store_resume_skips_anytime_probes(tmp_path):
    from repro.core.store import ResultStore
    store_dir = str(tmp_path / "store")
    cdag = dwt_graph(4, 2)
    first = SweepEngine(deadline=5.0, anytime=True)
    s1 = first.sweep(ExhaustiveScheduler(), cdag, [4, 8], "run1")
    # Persist the run with one probe forced to look anytime-degraded, so
    # the resume path carries the full (cost, degraded, provenance, lb)
    # record end to end.
    entries = dict(first._seed)
    key = next(iter(entries))
    cost = entries[key][0]
    entries[key] = (cost, True, "anytime", cost - 1.0)
    with ResultStore(store_dir) as st:
        for (s, g, b), value in entries.items():
            st.put_probe(s, g, b, *value)

    with SweepEngine(store=store_dir, deadline=5.0, anytime=True) as resumed:
        s2 = resumed.sweep(ExhaustiveScheduler(), cdag, [4, 8], "run2")
    assert resumed.stats.evals == 0  # every probe answered by the store
    assert s2.costs == s1.costs
    assert s2.degraded == (key[2],)
    assert s2.provenance_of(key[2]) == "anytime"
    # The resumed cost fn carries the stored bracket.
    fn = next(iter(resumed._fns.values()))
    assert fn.bracket(key[2]) == (cost - 1.0, cost)


# --------------------------------------------------------------------- #
# Fuzz + audit under governance: degraded, never wrong


def test_fuzz_under_tight_deadline_reports_no_false_violations():
    report = fuzz(seeds=(0,), level="differential", deadline=0.05,
                  shrink_failures=False)
    assert report.ok, "governance manufactured violations:\n" + \
        "\n".join(f.describe() for f in report.failures)
    assert report.cancelled >= 0 and report.inconclusive >= 0
    assert report.probes + report.cancelled + report.skipped > 0
    if report.cancelled or report.inconclusive:
        assert "cancelled=" in report.summary() or \
            "inconclusive=" in report.summary()


def test_ungoverned_fuzz_summary_is_unchanged():
    report = fuzz(seeds=(0,), level="bounds", shrink_failures=False)
    assert report.cancelled == 0 and report.inconclusive == 0
    assert "cancelled" not in report.summary()
    assert "inconclusive" not in report.summary()
