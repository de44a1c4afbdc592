"""Crash-injection harness for the durable result store.

Durability claims are worthless untested: this module *kills real
processes* inside the store's commit and compaction protocols and then
asserts the three recovery invariants of
:mod:`repro.core.store`:

1. **no committed record is ever lost** — once :meth:`ResultStore.flush`
   returns (the batch is fsync'd), every later reader serves the batch;
2. **no corrupt record is ever served** — torn tails are ignored,
   checksum/schema failures are quarantined, and every record a reader
   *does* serve carries exactly the value the reference computation
   produces;
3. **a resumed sweep is free** — re-running a completed sweep against
   the store is byte-identical and performs zero scheduler evaluations.

Two attack modes:

* **deterministic crash points** (:func:`run_crash_points`): for every
  named point in :data:`repro.core.store.CRASH_POINTS` a fresh victim
  subprocess installs :func:`repro.core.store.crash_at` and dies via
  ``os._exit`` exactly there — mid-append, between fsyncs, between
  compaction's rename and its deletes — and the parent checks what a
  recovering store serves.  ``os._exit`` preserves the page cache, so a
  pre-fsync crash typically *keeps* the written bytes: assertions before
  the commit point are therefore one-directional (present records must
  be correct; presence itself is not required).

* **randomized SIGKILL soak** (:func:`run_sigkill_soak`): a victim
  subprocess runs a real governed sweep (the exhaustive oracle through
  :class:`~repro.analysis.engine.SweepEngine`, which commits every probe
  it evaluates) and the parent ``SIGKILL``s it at a random offset inside
  its probe phase, ``--kills`` times, asserting after every kill that the
  committed key set only grows and every served record matches the
  reference; at least one kill must leave records uncommitted.  A final
  unkilled run plus a fresh-engine resume closes with invariant 3.

* **service soak** (:func:`run_service_soak`): the scheduling daemon
  (``python -m repro.cli serve``) under concurrent mixed-tenant client
  load is SIGKILLed mid-request and restarted; after every kill the
  committed record set must only grow and match a store-less reference,
  after the final restart every answer must be served byte-identical
  (previously-committed records without re-evaluation), and a SIGTERM
  must drain in-flight work and exit 0.

* **partition soak** (:func:`run_partition_soak`): a 2–3 replica fleet
  over ONE shared store, each replica behind a deterministic
  :class:`~repro.service.faultproxy.FaultProxy`, is killed and
  partitioned mid-flight under concurrent multi-tenant
  :class:`~repro.service.resilience.ResilientClient` load — zero
  client-visible hangs, zero wrong answers vs the store-less reference,
  and retry amplification bounded by the daemons' own
  ``duplicate_dispatches`` counters (total dispatch ≤ 2× unique
  requests).

CLI (the CI crash-soak + service-soak + partition-soak jobs)::

    python -m repro.analysis.chaos --store DIR --kills 20 --seed 0
    python -m repro.analysis.chaos --store DIR --skip-points --skip-soak \
        --service-kills 3
    python -m repro.analysis.chaos --store DIR --skip-points --skip-soak \
        --partition-soak --replicas 2 --partition-kills 3
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import select
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from typing import Dict, List, Optional, Tuple

from ..core.store import CRASH_POINTS, ResultStore, crash_at, \
    graph_fingerprint

CRASH_EXIT = 7  #: exit code the injected crash hooks die with

#: (scheduler, graph, budget) triples for the synthetic protocol victims.
_SKEY, _GKEY = "chaos-sched", "chaos-graph"
_BATCH_A = tuple((_SKEY, _GKEY, b, 100 + b) for b in (1, 2, 3, 4))
_BATCH_B = tuple((_SKEY, _GKEY, b, 100 + b) for b in (5, 6, 7, 8))


def _soak_workload():
    """The sweep the SIGKILL victims run: small graphs the oracle solves
    exactly in milliseconds (determinism is the point — every committed
    record must equal the reference, kill or no kill)."""
    from ..graphs import dwt_graph, mvm_graph
    return [(dwt_graph(4, 2), (3, 4, 5, 6, 7, 8)),
            (mvm_graph(2, 2), (4, 5, 6, 7, 8))]


def _reference() -> Dict[Tuple[str, str, int], float]:
    """Ground truth for every soak probe, computed store-less in this
    process."""
    from ..schedulers import ExhaustiveScheduler
    sched = ExhaustiveScheduler()
    skey = sched.cache_key()
    expected: Dict[Tuple[str, str, int], float] = {}
    for cdag, budgets in _soak_workload():
        gkey = graph_fingerprint(cdag)
        memo: dict = {}
        for b, cost in zip(budgets,
                           sched.cost_many(cdag, budgets, memo=memo)):
            expected[(skey, gkey, b)] = cost
    return expected


# --------------------------------------------------------------------- #
# Victim entry points (run in the subprocess that gets crashed)


def _victim_commit(store_dir: str, point: str) -> None:
    """Commit batch A durably, then die at ``point`` committing batch B."""
    store = ResultStore(store_dir, every=10 ** 9)
    for s, g, b, cost in _BATCH_A:
        store.put_probe(s, g, b, cost)
    store.flush()  # batch A is now committed: it must survive anything
    store.crash_hook = crash_at(point, CRASH_EXIT)
    for s, g, b, cost in _BATCH_B:
        store.put_probe(s, g, b, cost)
    store.flush()  # dies inside (or the point was never reached: exit 0)


def _victim_compact(store_dir: str, point: str) -> None:
    """Create dead records (anytime brackets upgraded to exact), then die
    at ``point`` inside compaction."""
    store = ResultStore(store_dir, every=10 ** 9)
    for s, g, b, cost in _BATCH_A:
        store.put_probe(s, g, b, cost + 5, degraded=True,
                        provenance="anytime", lb=cost - 5)
    store.flush()
    for s, g, b, cost in _BATCH_A:  # upgrade: the brackets become dead
        store.put_probe(s, g, b, cost)
    store.flush()
    store.crash_hook = crash_at(point, CRASH_EXIT)
    store.compact()


def _victim_sweep(store_dir: str, dawdle: float) -> None:
    """Run the governed soak sweep with write-through durability,
    dawdling between probes so the parent's SIGKILL lands mid-run.
    Prints ``probing`` once start-up is over: the parent times its kill
    from that line."""
    from ..schedulers import ExhaustiveScheduler
    from .engine import SweepEngine
    sched = ExhaustiveScheduler()
    with SweepEngine(store=store_dir, deadline=30.0) as eng:
        print("probing", flush=True)
        for cdag, budgets in _soak_workload():
            for b in budgets:
                eng.sweep(sched, cdag, [b], "chaos")
                if dawdle:
                    time.sleep(dawdle)


# --------------------------------------------------------------------- #
# Parent-side orchestration


def _spawn(args: List[str], stdout=subprocess.DEVNULL) -> subprocess.Popen:
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.analysis.chaos"] + args,
        env=env, stdout=stdout, stderr=subprocess.PIPE)


def _start_sweep_victim(store_dir: str, dawdle: float) -> subprocess.Popen:
    """Spawn a sweep victim and return once it has started probing."""
    proc = _spawn(["--victim", "sweep", "--store", store_dir,
                   "--dawdle", str(dawdle)], stdout=subprocess.PIPE)
    ready, _, _ = select.select([proc.stdout], [], [], 120.0)
    line = proc.stdout.readline() if ready else b""
    if line.strip() != b"probing":
        proc.kill()
        _, err = proc.communicate(timeout=60)
        raise AssertionError(f"sweep victim never started probing (got "
                             f"{line!r})\n{err.decode(errors='replace')}")
    return proc


def _load_clean(store_dir: str) -> ResultStore:
    """Open the store asserting invariant 2's first half: recovery never
    quarantines anything our own crashes wrote (torn tails are dropped
    silently; only external corruption quarantines)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        store = ResultStore(store_dir)
    assert store.quarantined == 0, (
        f"recovery quarantined {store.quarantined} record(s) after a "
        f"crash: the commit protocol wrote something unparseable "
        f"({[str(w.message) for w in caught]})")
    return store


def _served_probes(store: ResultStore) -> Dict[Tuple[str, str, int], tuple]:
    return store.probe_entries()


def run_crash_points(root: str, log=print) -> int:
    """Deterministic phase: one victim per named crash point, for both
    the commit and the compaction protocol.  Returns the number of
    injected crashes."""
    commit_expect_b = {"commit-post-fsync", "commit-end"}
    crashes = 0
    for point in CRASH_POINTS:
        is_compact = point.startswith("compact-")
        store_dir = os.path.join(root, f"point-{point}")
        shutil.rmtree(store_dir, ignore_errors=True)
        proc = _spawn(["--victim", "compact" if is_compact else "commit",
                       "--store", store_dir, "--point", point])
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == CRASH_EXIT, (
            f"victim for {point} exited {proc.returncode}, expected "
            f"{CRASH_EXIT} (the crash point never fired?)\n"
            f"{err.decode(errors='replace')}")
        crashes += 1
        store = _load_clean(store_dir)
        served = _served_probes(store)
        exact_a = {(s, g, b): cost for s, g, b, cost in _BATCH_A}
        if is_compact:
            # Setup committed exact batch A before the crash: compaction
            # must never lose it, at any point, and the merged view must
            # hold exactly one (exact) record per key.
            for key, cost in exact_a.items():
                assert key in served, f"{point}: lost committed {key}"
                assert served[key] == (cost, False, "exact", None), (
                    f"{point}: served {served[key]} for {key}, "
                    f"expected exact {cost}")
            assert len(served) == len(exact_a), (
                f"{point}: duplicate/phantom records {sorted(served)}")
        else:
            for key, cost in exact_a.items():
                assert key in served, (
                    f"{point}: lost committed batch-A record {key}")
                assert served[key] == (cost, False, "exact", None)
            batch_b = {(s, g, b): cost for s, g, b, cost in _BATCH_B}
            for key, value in served.items():
                expect = exact_a.get(key, batch_b.get(key))
                assert expect is not None, f"{point}: phantom record {key}"
                assert value == (expect, False, "exact", None), (
                    f"{point}: served {value} for {key}")
            if point in commit_expect_b:
                # At/after the commit point the whole batch is durable.
                missing = [k for k in batch_b if k not in served]
                assert not missing, (
                    f"{point}: lost committed batch-B records {missing}")
        # The store must stay fully writable after recovery: truncate
        # any torn tail, commit one more record, read it back fresh.
        writer = ResultStore(store_dir)
        writer.recover_tail()
        writer.put_probe(_SKEY, _GKEY, 99, 1)
        writer.close()
        assert ResultStore(store_dir).get_probe(_SKEY, _GKEY, 99) == \
            (1, False, "exact", None), f"{point}: store not writable"
        log(f"crash point {point:<22} recovered "
            f"({len(served)} records served)")
    return crashes


def run_sigkill_soak(root: str, kills: int = 20, seed: int = 0,
                     dawdle: float = 0.02, log=print) -> Tuple[int, int]:
    """Randomized phase: ``kills`` SIGKILLs of a live governed sweep,
    then a clean finish and a zero-eval resume.

    Kill offsets are drawn inside the probe phase of one clean victim,
    timed first from its ``probing`` line to its exit, so kills land
    while records are still being committed; a round that finds the
    store complete starts the next one on a fresh store.  Fails when no
    kill left records uncommitted.  Returns ``(landed, cut)``: the kills
    that landed while the victim ran, and those that left records
    uncommitted."""
    from ..schedulers import ExhaustiveScheduler
    from .engine import SweepEngine
    store_dir = os.path.join(root, "soak")
    expected = _reference()
    timing_dir = os.path.join(root, "soak-timing")
    shutil.rmtree(timing_dir, ignore_errors=True)
    proc = _start_sweep_victim(timing_dir, dawdle)
    t0 = time.monotonic()
    _, err = proc.communicate(timeout=600)
    phase = time.monotonic() - t0
    assert proc.returncode == 0, err.decode(errors="replace")
    shutil.rmtree(timing_dir, ignore_errors=True)

    shutil.rmtree(store_dir, ignore_errors=True)
    rng = random.Random(seed)
    committed: set = set()
    landed = cut = 0
    for i in range(max(0, int(kills))):
        proc = _start_sweep_victim(store_dir, dawdle)
        time.sleep(rng.uniform(0.0, phase))
        killed = proc.poll() is None
        if killed:
            proc.send_signal(signal.SIGKILL)
            landed += 1
        proc.communicate(timeout=120)
        store = _load_clean(store_dir)
        served = _served_probes(store)
        lost = [k for k in committed if k not in served]
        assert not lost, f"kill #{i}: lost committed records {lost}"
        for key, value in served.items():
            assert key in expected, f"kill #{i}: phantom record {key}"
            assert value == (expected[key], False, "exact", None), (
                f"kill #{i}: served {value} for {key}, expected exact "
                f"{expected[key]}")
        missing = len(expected) - len(served)
        if killed and missing:
            cut += 1
        log(f"kill #{i + 1:>3}: {len(served)}/{len(expected)} records "
            f"durable{'' if killed else ' (victim finished first)'}")
        if missing:
            committed = set(served)
        else:  # nothing left to cut short: start the next round afresh
            shutil.rmtree(store_dir)
            committed = set()
    assert kills <= 0 or cut, (
        f"none of {kills} kills left records uncommitted (probe phase "
        f"{phase:.3f} s): the soak never attacked the commit path")
    # Clean finish: an unkilled victim completes the sweep.
    proc = _spawn(["--victim", "sweep", "--store", store_dir,
                   "--dawdle", "0"])
    _, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err.decode(errors="replace")
    served = _served_probes(_load_clean(store_dir))
    assert set(served) == set(expected), (
        f"completed sweep missing {sorted(set(expected) - set(served))}")
    # Invariant 3: resuming against the store re-evaluates nothing and
    # reproduces every cost byte-identically.
    sched = ExhaustiveScheduler()
    with SweepEngine(store=store_dir) as eng:
        resumed = [tuple(eng.sweep(sched, cdag, list(budgets), "resume")
                         .costs)
                   for cdag, budgets in _soak_workload()]
        assert eng.stats.evals == 0, (
            f"resume re-evaluated {eng.stats.evals} probes:\n"
            f"{eng.stats.report()}")
    fresh = [tuple(expected[(sched.cache_key(), graph_fingerprint(cdag), b)]
                   for b in budgets)
             for cdag, budgets in _soak_workload()]
    assert resumed == fresh, f"resume drifted: {resumed} != {fresh}"
    log(f"soak: {landed}/{kills} kills landed mid-run, {cut} left records "
        f"uncommitted (probe phase {phase:.2f} s), {len(served)} records "
        f"durable, resume byte-identical with 0 re-evaluations")
    return landed, cut


# --------------------------------------------------------------------- #
# Service soak (the scheduling daemon under kills)

#: (graph spec, strategy, budgets) triples the service soak requests.
#: Specs resolve through :func:`repro.service.protocol.resolve_graph`,
#: so the reference below is consistent with the daemon by construction.
_SERVICE_WORKLOAD = (
    ({"family": "dwt", "n": 4, "d": 2, "weights": "equal"},
     "exhaustive", (48, 64, 80, 96, 112, 128)),
    ({"family": "mvm", "m": 2, "n": 2, "weights": "equal"},
     "exhaustive", (64, 80, 96, 112, 128)),
)


def _service_reference() -> Dict[Tuple[str, str, int], float]:
    """Store-less ground truth for every service-soak probe."""
    from ..schedulers import ExhaustiveScheduler
    from ..service.protocol import resolve_graph
    sched = ExhaustiveScheduler()
    skey = sched.cache_key()
    expected: Dict[Tuple[str, str, int], float] = {}
    for spec, _strategy, budgets in _SERVICE_WORKLOAD:
        cdag = resolve_graph(spec)
        gkey = graph_fingerprint(cdag)
        memo: dict = {}
        for b, cost in zip(budgets,
                           sched.cost_many(cdag, budgets, memo=memo)):
            expected[(skey, gkey, b)] = cost
    return expected


def _spawn_serve(store_dir: str, *extra: str,
                 ready_timeout: float = 60.0):
    """Launch ``repro.cli serve`` on an ephemeral port; parse the ready
    line.  Returns ``(proc, host, port)``."""
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--store", store_dir,
         "--port", "0", "--max-inflight", "2", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = time.monotonic() + ready_timeout
    line = b""
    while time.monotonic() < deadline:
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, remaining))
        if not ready:
            break
        line = proc.stdout.readline()
        break
    m = re.match(rb"repro-serve listening on ([\d.]+):(\d+)", line)
    if not m:
        proc.kill()
        _, err = proc.communicate(timeout=30)
        raise AssertionError(
            f"daemon never announced readiness (got {line!r})\n"
            f"{err.decode(errors='replace')}")
    return proc, m.group(1).decode(), int(m.group(2))


def run_service_soak(root: str, kills: int = 2, seed: int = 0,
                     clients: int = 3, log=print) -> int:
    """SIGKILL the serving daemon under concurrent client load, restart,
    and assert the service-level durability invariants:

    1. after every kill, the committed record set only grows and every
       committed record matches the store-less reference;
    2. after the final restart, every workload answer is served exact
       and byte-identical to the reference, and previously-committed
       records are served without re-evaluation;
    3. clients never hang — every receive is timeout-bounded — and a
       SIGTERM drains in-flight work and exits 0.

    Returns the number of kills delivered.
    """
    from ..service.protocol import ProtocolError, ServiceClient
    store_dir = os.path.join(root, "service")
    shutil.rmtree(store_dir, ignore_errors=True)
    expected = _service_reference()
    rng = random.Random(seed)
    tenants = ("alpha", "beta", "gamma")
    committed: set = set()
    kills = max(2, int(kills))

    def hammer(idx: int, host: str, port: int, stop: threading.Event,
               mismatches: List[str]) -> None:
        """One client thread: mixed-tenant probes in a loop until the
        daemon dies under it (expected) or ``stop`` is set.  Successful
        exact answers are checked against the reference immediately."""
        try:
            from ..schedulers import ExhaustiveScheduler
            from ..service.protocol import resolve_graph
            skey = ExhaustiveScheduler().cache_key()
            with ServiceClient(host, port, timeout=15.0) as c:
                j = idx
                while not stop.is_set():
                    spec, strategy, budgets = \
                        _SERVICE_WORKLOAD[j % len(_SERVICE_WORKLOAD)]
                    gkey = graph_fingerprint(resolve_graph(spec))
                    tenant = tenants[idx % len(tenants)]
                    b = budgets[j % len(budgets)]
                    frame = c.request({
                        "verb": "probe", "graph": spec,
                        "strategy": strategy, "budget": b,
                        "tenant": tenant, "id": j})[-1]
                    payload = frame["result"] if frame.get("ok") else {}
                    if payload.get("exact"):
                        key = (skey, gkey, b)
                        if payload["cost"] != expected[key]:
                            mismatches.append(
                                f"served {payload['cost']} for "
                                f"{key}, expected {expected[key]}")
                    j += 1
        except (ConnectionError, OSError, socket.timeout,
                json.JSONDecodeError, ProtocolError):
            pass  # the daemon was SIGKILLed mid-exchange — expected

    landed = 0
    for i in range(kills):
        proc, host, port = _spawn_serve(store_dir)
        stop = threading.Event()
        mismatches: List[str] = []
        threads = [threading.Thread(target=hammer,
                                    args=(k, host, port, stop, mismatches),
                                    daemon=True)
                   for k in range(max(1, clients))]
        for t in threads:
            t.start()
        time.sleep(rng.uniform(0.3, 1.2))
        proc.kill()
        landed += 1
        stop.set()
        for t in threads:
            t.join(timeout=30)
        hung = [t for t in threads if t.is_alive()]
        assert not hung, (f"kill #{i}: {len(hung)} client(s) hung past "
                          f"their bounded timeouts — protocol wedge")
        proc.communicate(timeout=60)
        assert not mismatches, f"kill #{i}: wrong answers: {mismatches}"
        store = _load_clean(store_dir)
        served = _served_probes(store)
        lost = [k for k in committed if k not in served]
        assert not lost, f"kill #{i}: lost committed records {lost}"
        for key, value in served.items():
            assert key in expected, f"kill #{i}: phantom record {key}"
            assert value == (expected[key], False, "exact", None), (
                f"kill #{i}: served {value} for {key}, expected exact "
                f"{expected[key]}")
        committed = set(served)
        log(f"service kill #{i + 1:>2}: {len(served)}/{len(expected)} "
            f"records durable")
    # Restart: every answer byte-identical; committed records are served
    # from the store (no re-evaluation of what survived the kills).
    proc, host, port = _spawn_serve(store_dir)
    from ..schedulers import ExhaustiveScheduler
    from ..service.protocol import resolve_graph
    skey = ExhaustiveScheduler().cache_key()
    with ServiceClient(host, port, timeout=60.0) as c:
        for spec, strategy, budgets in _SERVICE_WORKLOAD:
            gkey = graph_fingerprint(resolve_graph(spec))
            for b in budgets:
                frame = c.probe(spec, strategy, b, tenant="restart")
                assert frame["ok"], f"restart probe failed: {frame}"
                res = frame["result"]
                assert res["exact"], f"restart served non-exact: {res}"
                assert res["cost"] == expected[(skey, gkey, b)], (
                    f"restart served {res['cost']} for ({spec}, {b}), "
                    f"expected {expected[(skey, gkey, b)]}")
        stats = c.stats()["result"]
        evals = stats["engine"]["evals"]
        fresh = len(expected) - len(committed)
        assert evals <= fresh, (
            f"restart re-evaluated {evals} probes; only {fresh} were "
            f"uncommitted — committed records must serve from the store")
    # Graceful exit: SIGTERM drains and exits 0; everything is durable.
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == 0, "SIGTERM drain exited non-zero"
    served = _served_probes(_load_clean(store_dir))
    missing = sorted(set(expected) - set(served))
    assert not missing, f"after drain, store is missing {missing}"
    log(f"service soak: {landed} kills, restart byte-identical "
        f"({len(served)} records durable), SIGTERM drained cleanly")
    return landed


# --------------------------------------------------------------------- #
# Partition soak (a replica fleet behind fault proxies)


def run_partition_soak(root: str, replicas: int = 2, kills: int = 3,
                       seed: int = 0, clients: int = 3,
                       deadline_s: float = 120.0, log=print) -> int:
    """Run a replica fleet over ONE shared durable store, each replica
    behind its own deterministic :class:`~repro.service.faultproxy.
    FaultProxy`, and kill/partition replicas mid-flight under concurrent
    multi-tenant :class:`~repro.service.resilience.ResilientClient`
    load.  Asserts the fleet-resilience invariants of the PR:

    1. **zero client-visible hangs** — every client completes its fixed
       request list within the soak deadline (all receives are
       timeout-bounded, all retries are counted and capped);
    2. **zero wrong answers** — every exact answer matches the
       store-less reference byte-for-byte, no matter how many retries,
       hedges, failovers, torn frames, or resets it survived;
    3. **bounded retry amplification** — the daemons' own
       ``duplicate_dispatches`` counters (fresh evaluations beyond the
       first for one ``request_id``) stay at or below the unique request
       count, i.e. total dispatch ≤ 2× what a fault-free run performs;
    4. a final fault-free pass over the full workload is byte-identical
       to the reference, and every replica drains cleanly on SIGTERM.

    The fault schedule is seeded and scripted: each round partitions one
    replica's proxy, SIGKILLs the daemon behind it mid-partition,
    restarts it on a fresh port (retargeting the proxy, whose address is
    what clients dial), heals, and sprinkles one-shot torn-frame and
    reset toxics plus latency on the surviving replica so hedges and
    mid-stream failovers actually fire.

    Returns the number of kills delivered.
    """
    from ..schedulers import ExhaustiveScheduler
    from ..service.faultproxy import FaultProxy, Toxic
    from ..service.protocol import ServiceClient, resolve_graph
    from ..service.resilience import BackoffPolicy, ResilientClient

    store_dir = os.path.join(root, "fleet")
    shutil.rmtree(store_dir, ignore_errors=True)
    expected = _service_reference()
    rng = random.Random(seed)
    replicas = max(2, int(replicas))
    kills = max(1, int(kills))
    tenants = ("alpha", "beta", "gamma")
    skey = ExhaustiveScheduler().cache_key()

    daemons: List[Optional[subprocess.Popen]] = []
    proxies: List[FaultProxy] = []
    for i in range(replicas):
        proc, host, port = _spawn_serve(store_dir, "--name",
                                        f"replica-{i}")
        daemons.append(proc)
        proxies.append(FaultProxy((host, port), seed=seed * 101 + i)
                       .start())

    # Every client hammers the workload for the whole fault schedule
    # (and at least one full lap): every request must *eventually* be
    # served ok — that, plus the bounded join, is the hang check.
    def hammer(idx: int, stop: threading.Event, stop_by: float,
               failures: List[str], client_stats: List[dict]) -> None:
        client = ResilientClient(
            [p.addr for p in proxies], timeout=10.0, retries=6,
            backoff=BackoffPolicy(base=0.05, factor=2.0, max_delay=0.5),
            hedge_after=0.4, seed=seed * 1009 + idx,
            client_id=f"soak-{idx}")
        try:
            j = idx
            done = 0
            while not stop.is_set() or done < 14:
                spec, strategy, budgets = \
                    _SERVICE_WORKLOAD[j % len(_SERVICE_WORKLOAD)]
                b = budgets[j % len(budgets)]
                gkey = graph_fingerprint(resolve_graph(spec))
                tenant = tenants[idx % len(tenants)]
                ok = False
                while time.monotonic() < stop_by:
                    try:
                        frame = client.probe(spec, strategy, b,
                                             tenant=tenant)
                    except ConnectionError:
                        continue  # fleet-wide blip: re-issue (new rid)
                    if not frame.get("ok"):
                        continue  # non-retryable code: re-issue
                    res = frame["result"]
                    if res.get("exact"):
                        key = (skey, gkey, b)
                        if res["cost"] != expected[key]:
                            failures.append(
                                f"client {idx}: served {res['cost']} "
                                f"for {key}, expected {expected[key]}")
                    ok = True
                    break
                if not ok:
                    failures.append(
                        f"client {idx}: request (({spec}, {b})) never "
                        f"served before the soak deadline — hang or "
                        f"unavailability beyond bounds")
                    break
                j += 1
                done += 1
                time.sleep(0.01)  # leave room for faults to land mid-gap
        except Exception as exc:  # noqa: BLE001 - any leak is a failure
            failures.append(f"client {idx}: unexpected "
                            f"{type(exc).__name__}: {exc}")
        finally:
            client_stats.append(client.client_stats())
            client.close()

    deadline = time.monotonic() + deadline_s
    stop = threading.Event()
    failures: List[str] = []
    client_stats: List[dict] = []
    threads = [threading.Thread(
        target=hammer, args=(k, stop, deadline, failures, client_stats),
        daemon=True) for k in range(max(1, clients))]
    for t in threads:
        t.start()

    # -- the scripted fault schedule ----------------------------------- #
    landed = 0
    for round_no in range(kills):
        victim = round_no % replicas
        survivor = (victim + 1) % replicas
        time.sleep(rng.uniform(0.3, 0.6))
        # make the survivor interesting: a one-shot torn frame or reset,
        # plus latency so answers are not instantaneous.
        now = proxies[survivor].now()
        proxies[survivor].add(Toxic(
            "torn" if round_no % 2 == 0 else "reset",
            start=now, direction="down"))
        proxies[survivor].add(Toxic(
            "latency", start=now, stop=now + 0.6, direction="down",
            latency_s=0.05, jitter_s=0.02))
        # blackhole the victim first: requests stall silently (no error,
        # no EOF), which is exactly what hedged sends exist for.
        hole = proxies[victim].add(Toxic(
            "blackhole", start=proxies[victim].now(), direction="both",
            name=f"hole-{round_no}"))
        time.sleep(rng.uniform(0.6, 0.9))
        hole.stop = proxies[victim].now()
        # now partition it and kill the daemon behind the curtain.
        proxies[victim].partition()
        time.sleep(rng.uniform(0.2, 0.5))
        daemons[victim].kill()
        daemons[victim].communicate(timeout=60)
        landed += 1
        time.sleep(rng.uniform(0.2, 0.5))
        proc, host, port = _spawn_serve(store_dir, "--name",
                                        f"replica-{victim}")
        daemons[victim] = proc
        proxies[victim].set_upstream((host, port))
        proxies[victim].heal()
        log(f"partition round #{round_no + 1}: replica-{victim} "
            f"blackholed + partitioned + SIGKILLed + restarted "
            f"(survivor replica-{survivor} torn/latent)")
    stop.set()

    join_by = max(5.0, deadline - time.monotonic() + 30.0)
    for t in threads:
        t.join(timeout=join_by)
    hung = [t for t in threads if t.is_alive()]
    assert not hung, (f"{len(hung)} client(s) hung past the soak "
                      f"deadline — client-visible hang")
    assert not failures, "partition soak failures:\n  " + \
        "\n  ".join(failures)

    # -- amplification bound from the daemons' own counters ------------- #
    unique_requests = sum(cs["requests"] for cs in client_stats)
    duplicate_dispatches = 0
    retries_served = 0
    for proxy in proxies:
        host, port = proxy._upstream
        with ServiceClient(host, int(port), timeout=30.0) as c:
            stats = c.stats()["result"]
            res = stats.get("resilience", {})
            duplicate_dispatches += res.get("duplicate_dispatches", 0)
            retries_served += res.get("retries_served", 0)
    assert duplicate_dispatches <= unique_requests, (
        f"retry amplification out of bounds: {duplicate_dispatches} "
        f"duplicate dispatches for {unique_requests} unique requests "
        f"(> 2x total dispatch)")

    # -- final fault-free byte-identity pass ---------------------------- #
    with ResilientClient([p.addr for p in proxies], timeout=30.0,
                         retries=4, seed=seed,
                         client_id="soak-final") as final:
        for spec, strategy, budgets in _SERVICE_WORKLOAD:
            gkey = graph_fingerprint(resolve_graph(spec))
            for b in budgets:
                frame = final.probe(spec, strategy, b, tenant="final")
                assert frame.get("ok"), f"final pass failed: {frame}"
                res = frame["result"]
                assert res["exact"], f"final pass non-exact: {res}"
                assert res["cost"] == expected[(skey, gkey, b)], (
                    f"final pass served {res['cost']} for ({spec}, {b})"
                    f", expected {expected[(skey, gkey, b)]}")
        fleet = final.client_stats()

    for proc in daemons:
        proc.send_signal(signal.SIGTERM)
    for i, proc in enumerate(daemons):
        assert proc.wait(timeout=60) == 0, (
            f"replica-{i} SIGTERM drain exited non-zero")
    for proxy in proxies:
        proxy.stop()

    hedges = {k: sum(cs["hedges"][k] for cs in client_stats)
              for k in ("started", "won", "lost")}
    log(f"partition soak: {landed} kills across {replicas} replicas, "
        f"{unique_requests} requests, "
        f"{sum(cs['retries'] for cs in client_stats)} client retries, "
        f"{sum(cs['failovers'] for cs in client_stats)} failovers, "
        f"hedges {hedges}, {retries_served} retries served, "
        f"{duplicate_dispatches} duplicate dispatches "
        f"(bound: <= {unique_requests}), fleet store "
        f"{fleet['fleet_fingerprint']}, final pass byte-identical")
    return landed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.analysis.chaos",
        description="crash-injection soak for the durable result store")
    ap.add_argument("--store", default="chaos-store", metavar="DIR",
                    help="working directory for the attacked stores")
    ap.add_argument("--kills", type=int, default=20, metavar="N",
                    help="randomized SIGKILLs of the governed sweep")
    ap.add_argument("--seed", type=int, default=0, metavar="S",
                    help="seed for the kill-offset RNG")
    ap.add_argument("--dawdle", type=float, default=0.02, metavar="SEC",
                    help="victim sleep between probes (widens the window)")
    ap.add_argument("--skip-points", action="store_true",
                    help="skip the deterministic crash-point phase")
    ap.add_argument("--skip-soak", action="store_true",
                    help="skip the randomized sweep-SIGKILL phase")
    ap.add_argument("--service-kills", type=int, default=0, metavar="N",
                    help="run the daemon service soak with N SIGKILLs "
                         "(0 = skip; minimum 2 when enabled)")
    ap.add_argument("--clients", type=int, default=3, metavar="N",
                    help="concurrent client threads for the service soak")
    ap.add_argument("--partition-soak", action="store_true",
                    help="run the replica-fleet partition soak: N "
                         "daemons over one shared store behind "
                         "deterministic fault proxies, killed and "
                         "partitioned under ResilientClient load")
    ap.add_argument("--replicas", type=int, default=2, metavar="N",
                    help="fleet size for the partition soak (minimum 2)")
    ap.add_argument("--partition-kills", type=int, default=3, metavar="N",
                    help="kill/partition rounds for the partition soak")
    # Internal: victim entry points (the processes that get crashed).
    ap.add_argument("--victim", choices=["commit", "compact", "sweep"],
                    help=argparse.SUPPRESS)
    ap.add_argument("--point", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.victim == "commit":
        _victim_commit(args.store, args.point)
        return 0  # the crash point never fired — parent flags this
    if args.victim == "compact":
        _victim_compact(args.store, args.point)
        return 0
    if args.victim == "sweep":
        _victim_sweep(args.store, args.dawdle)
        return 0
    crashes = 0
    if not args.skip_points:
        crashes = run_crash_points(args.store)
    rounds = landed = cut = 0
    if not args.skip_soak:
        rounds = max(0, args.kills)
        landed, cut = run_sigkill_soak(args.store, kills=rounds,
                                       seed=args.seed, dawdle=args.dawdle)
    service_kills = 0
    if args.service_kills > 0:
        service_kills = run_service_soak(
            args.store, kills=args.service_kills, seed=args.seed,
            clients=args.clients)
    partition_kills = 0
    if args.partition_soak:
        partition_kills = run_partition_soak(
            args.store, replicas=args.replicas,
            kills=args.partition_kills, seed=args.seed,
            clients=args.clients)
    print(f"chaos: {crashes} injected crash points + {rounds} SIGKILL "
          f"rounds ({landed} landed, {cut} left records uncommitted) + "
          f"{service_kills} service kills + {partition_kills} partition "
          f"kills — all invariants held")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
