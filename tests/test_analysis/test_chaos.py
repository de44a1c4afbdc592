"""Crash-injection tests (:mod:`repro.analysis.chaos`).

Runs the real harness — subprocesses dying via ``os._exit`` at every
named commit/compaction crash point, plus a short randomized SIGKILL
soak of a governed sweep — and the store-backed resume invariant.  The
CI crash-soak job runs the same module at full strength (20 kills); this
suite keeps the kill count small so tier-1 stays fast while every code
path is still exercised.
"""

from __future__ import annotations

from repro.analysis.chaos import (_reference, _soak_workload,
                                  run_crash_points, run_service_soak,
                                  run_sigkill_soak)
from repro.core.store import CRASH_POINTS


def test_every_crash_point_recovers(tmp_path):
    crashes = run_crash_points(str(tmp_path), log=lambda *a: None)
    assert crashes == len(CRASH_POINTS)


def test_sigkill_soak_and_zero_eval_resume(tmp_path):
    # Asserts, per kill: no committed record lost, no corrupt record
    # served; and at the end: a fresh engine resumes the finished sweep
    # byte-identically with zero scheduler evaluations.
    lines = []
    landed = run_sigkill_soak(str(tmp_path), kills=3, seed=1, dawdle=0.02,
                              log=lines.append)
    # Only the rounds whose victim outran its kill carry the label.
    missed = sum("(victim finished first)" in line for line in lines)
    assert missed == 3 - landed


def test_soak_reference_is_deterministic():
    first, second = _reference(), _reference()
    assert first == second
    assert len(first) == sum(len(b) for _, b in _soak_workload())


def test_service_soak_survives_sigkill_and_drains(tmp_path):
    # Tentpole acceptance: a real daemon subprocess under concurrent
    # multi-tenant load, SIGKILLed twice mid-flight, restarted — zero
    # committed records lost, restart answers byte-identical to the
    # store-less reference, final SIGTERM drains with exit code 0.
    run_service_soak(str(tmp_path), kills=2, seed=2, clients=2,
                     log=lambda *a: None)


def test_partition_soak_fleet_survives_faults(tmp_path):
    # Fleet resilience acceptance: 2 replicas over one shared store,
    # each behind a deterministic fault proxy, partitioned + SIGKILLed
    # under concurrent ResilientClient load — zero hangs, zero wrong
    # answers vs the store-less reference, retry amplification bounded
    # by the daemons' duplicate-dispatch counters, final pass
    # byte-identical, clean SIGTERM drain.
    from repro.analysis.chaos import run_partition_soak
    run_partition_soak(str(tmp_path), replicas=2, kills=1, seed=3,
                       clients=2, log=lambda *a: None)
