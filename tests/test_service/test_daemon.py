"""In-process tests of the scheduling daemon (:mod:`repro.service.daemon`).

Each robustness surface of the ISSUE gets its own proof:

* end-to-end correctness — served answers equal the direct engine path;
* coalescing — N concurrent identical probes, exactly 1 evaluation;
* admission control — ``max_inflight=1`` + a slow probe ⇒ structured
  ``overloaded`` rejections within bounded time;
* tenant governance — bucket rejections and deadline-capped solves that
  stream a certified bracket before the exact answer;
* graceful drain — shutdown during load finishes in-flight work.

The daemon runs on the test's own event loop; clients are plain asyncio
connections, so concurrency is deterministic and observable through the
daemon's counters.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time

import pytest

from repro.analysis import SweepEngine
from repro.core import equal
from repro.graphs import dwt_graph
from repro.schedulers import ExhaustiveScheduler, OptimalDWTScheduler
from repro.service import SchedulingDaemon, TenantGovernor, TenantPolicy
from repro.service.protocol import encode

DWT8 = {"family": "dwt", "n": 8, "d": 2, "weights": "equal"}


def run_daemon(body, *, engine=None, **daemon_kwargs):
    """Start a daemon, run ``body(daemon)``, always shut down."""
    engine = engine if engine is not None else SweepEngine(anytime=True)

    async def main():
        daemon = SchedulingDaemon(engine, close_engine=False,
                                  **daemon_kwargs)
        await daemon.start()
        try:
            return await body(daemon)
        finally:
            await daemon.shutdown()
    try:
        return asyncio.run(main())
    finally:
        engine.close()


async def rpc(port, obj, timeout=15.0):
    """One request, all frames until the final one."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode(obj))
        await writer.drain()
        frames = []
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout)
            assert line, "daemon closed the connection mid-request"
            frame = json.loads(line)
            frames.append(frame)
            if frame.get("final", True):
                return frames
    finally:
        writer.close()


def probe_req(budget, *, graph=DWT8, strategy="dwt-optimal", **kw):
    return {"verb": "probe", "graph": graph, "strategy": strategy,
            "budget": budget, **kw}


class SlowGate:
    """Wraps ``engine.probe`` so the first call blocks until released —
    deterministic overlap for coalescing/overload/drain proofs."""

    def __init__(self, engine):
        self.started = threading.Event()
        self.release = threading.Event()
        self._orig = engine.probe
        engine.probe = self  # instance attribute shadows the method

    def __call__(self, *args, **kwargs):
        self.started.set()
        assert self.release.wait(20), "gate never released"
        return self._orig(*args, **kwargs)


class TestEndToEnd:

    def test_probe_sweep_minmem_match_direct_engine(self):
        g = dwt_graph(8, 2, weights=equal())
        sched = OptimalDWTScheduler()
        ref_engine = SweepEngine()
        want_costs = ref_engine.sweep(sched, g, [48, 64, 96], "ref").costs
        want_min = ref_engine.min_memory(sched, g)

        async def body(daemon):
            p = (await rpc(daemon.port, probe_req(64)))[-1]
            assert p["ok"] and p["result"]["exact"]
            assert p["result"]["cost"] == want_costs[1]
            s = (await rpc(daemon.port,
                           {"verb": "sweep", "graph": DWT8,
                            "strategy": "dwt-optimal",
                            "budgets": [48, 64, 96]}))[-1]
            assert s["ok"] and tuple(s["result"]["costs"]) == want_costs
            m = (await rpc(daemon.port,
                           {"verb": "min-memory", "graph": DWT8,
                            "strategy": "dwt-optimal"}))[-1]
            assert m["ok"] and m["result"]["bits"] == want_min
        run_daemon(body)

    def test_health_and_stats_shapes(self):
        async def body(daemon):
            h = (await rpc(daemon.port, {"verb": "health"}))[-1]
            assert h["ok"] and h["result"]["status"] == "ok"
            assert h["result"]["queue_depth"] == 0
            await rpc(daemon.port, probe_req(64))
            s = (await rpc(daemon.port, {"verb": "stats"}))[-1]["result"]
            assert s["requests"]["probe"] == 1
            assert s["engine"]["evals"] >= 1
            assert s["rejections"] == {"overloaded": 0, "tenant": 0,
                                       "malformed": 0, "internal": 0}
            assert "default" in s["tenants"]
        run_daemon(body)

    def test_probe_payload_keys_and_no_batch_stats(self):
        async def body(daemon):
            frame = (await rpc(daemon.port, probe_req(64)))[-1]
            assert set(frame["result"]) == {
                "cost", "lb", "ub", "provenance", "exact", "degraded",
                "cached"}
            stats = (await rpc(daemon.port, {"verb": "stats"}))[-1]
            assert "batch" not in stats["result"]
        run_daemon(body)

    def test_exhaustive_sweep_matches_storeless_reference(self):
        # Many budgets in one request take the ``sweep`` verb; the
        # oracle's answers must equal a store-less engine's.
        g = dwt_graph(8, 2, weights=equal())
        ref = SweepEngine().sweep(ExhaustiveScheduler(), g,
                                  [56, 64, 72], "ref").costs

        async def body(daemon):
            frame = (await rpc(daemon.port, {
                "verb": "sweep", "graph": DWT8, "strategy": "exhaustive",
                "budgets": [56, 64, 72]}))[-1]
            assert frame["ok"]
            assert tuple(frame["result"]["costs"]) == ref
            assert frame["result"]["degraded"] == []  # every cost exact
        run_daemon(body)

    def test_second_probe_is_a_cache_hit(self):
        async def body(daemon):
            first = (await rpc(daemon.port, probe_req(64)))[-1]["result"]
            second = (await rpc(daemon.port, probe_req(64)))[-1]["result"]
            assert not first["cached"] and second["cached"]
            assert first["cost"] == second["cost"]
        run_daemon(body)


class TestCoalescing:

    N = 6

    def test_concurrent_identical_probes_cost_one_evaluation(self):
        engine = SweepEngine(anytime=True)
        gate = SlowGate(engine)

        async def body(daemon):
            tasks = [asyncio.ensure_future(
                rpc(daemon.port, probe_req(64, id=i)))
                for i in range(self.N)]
            # Wait until every request has been dispatched (counted) and
            # the single leader solve has started.
            while daemon.requests.get("probe", 0) < self.N:
                await asyncio.sleep(0.005)
            assert gate.started.wait(5)
            gate.release.set()
            all_frames = await asyncio.gather(*tasks)
            finals = [frames[-1] for frames in all_frames]
            assert all(f["ok"] for f in finals)
            costs = {f["result"]["cost"] for f in finals}
            assert len(costs) == 1  # every client got the same answer
            # Exactly one engine evaluation for N identical requests.
            assert daemon.engine.stats.evals == 1
            assert daemon.coalescer.started == 1
            assert daemon.coalescer.hits == self.N - 1
        run_daemon(body, engine=engine, max_inflight=2, max_pending=4)

    def test_coalesced_joins_bypass_admission(self):
        # max_inflight=1, max_pending=0: identical concurrent probes all
        # share the single slot instead of being rejected.
        engine = SweepEngine(anytime=True)
        gate = SlowGate(engine)

        async def body(daemon):
            tasks = [asyncio.ensure_future(
                rpc(daemon.port, probe_req(64, id=i)))
                for i in range(3)]
            while daemon.requests.get("probe", 0) < 3:
                await asyncio.sleep(0.005)
            gate.release.set()
            finals = [f[-1] for f in await asyncio.gather(*tasks)]
            assert all(f["ok"] for f in finals)
            assert daemon.rejected_overloaded == 0
        run_daemon(body, engine=engine, max_inflight=1, max_pending=0)


class TestAdmission:

    def test_overloaded_rejections_are_fast_and_structured(self):
        engine = SweepEngine(anytime=True)
        gate = SlowGate(engine)

        async def body(daemon):
            slow = asyncio.ensure_future(rpc(daemon.port, probe_req(64)))
            assert await asyncio.get_running_loop().run_in_executor(
                None, gate.started.wait, 5)
            # The daemon is saturated: distinct probes must be rejected
            # within bounded time, not queued behind the slow one.
            for i in range(3):
                frames = await asyncio.wait_for(
                    rpc(daemon.port, probe_req(96 + 16 * i)), 2.0)
                err = frames[-1]
                assert err["ok"] is False
                assert err["error"]["code"] == "overloaded"
                assert err["error"]["retry_after"] > 0
            assert daemon.rejected_overloaded == 3
            gate.release.set()
            assert (await slow)[-1]["ok"]
        run_daemon(body, engine=engine, max_inflight=1, max_pending=0)

    def test_health_and_stats_bypass_admission(self):
        engine = SweepEngine(anytime=True)
        gate = SlowGate(engine)

        async def body(daemon):
            slow = asyncio.ensure_future(rpc(daemon.port, probe_req(64)))
            assert await asyncio.get_running_loop().run_in_executor(
                None, gate.started.wait, 5)
            h = (await asyncio.wait_for(
                rpc(daemon.port, {"verb": "health"}), 2.0))[-1]
            assert h["ok"] and h["result"]["active"] == 1
            s = (await asyncio.wait_for(
                rpc(daemon.port, {"verb": "stats"}), 2.0))[-1]
            assert s["ok"]
            gate.release.set()
            assert (await slow)[-1]["ok"]
        run_daemon(body, engine=engine, max_inflight=1, max_pending=0)


class TestTenants:

    def test_bucket_exhaustion_rejects_with_retry_after(self):
        governor = TenantGovernor(policies={
            "starved": TenantPolicy(rate=0.001, burst=1)})

        async def body(daemon):
            ok = (await rpc(daemon.port,
                            probe_req(64, tenant="starved")))[-1]
            assert ok["ok"]
            rej = (await rpc(daemon.port,
                             probe_req(80, tenant="starved")))[-1]
            assert rej["ok"] is False
            assert rej["error"]["code"] == "tenant-rejected"
            assert rej["error"]["retry_after"] > 0
            # Other tenants are unaffected.
            other = (await rpc(daemon.port,
                               probe_req(80, tenant="other")))[-1]
            assert other["ok"]
            stats = (await rpc(daemon.port, {"verb": "stats"}))[-1]
            assert stats["result"]["tenants"]["starved"]["rejected"] == 1
        run_daemon(body, tenants=governor)

    def test_deadline_capped_tenant_streams_bracket_then_exact(self):
        # A deadline so tight the oracle cancels at its first poll: the
        # tenant gets a certified bracket immediately (final: false) and
        # the exact answer once the ungoverned refine lands.
        governor = TenantGovernor(policies={
            "bounded": TenantPolicy(deadline=1e-6)})
        ref = SweepEngine().sweep(
            __import__("repro.schedulers", fromlist=["ExhaustiveScheduler"]
                       ).ExhaustiveScheduler(),
            dwt_graph(8, 2, weights=equal()), [64], "ref").costs[0]

        async def body(daemon):
            frames = await rpc(daemon.port, probe_req(
                64, strategy="exhaustive", tenant="bounded", stream=True))
            assert len(frames) == 2
            interim, final = frames
            assert interim["final"] is False and interim["ok"]
            assert interim["result"]["exact"] is False
            assert interim["result"]["provenance"] in ("anytime",
                                                       "fallback")
            assert interim["result"]["lb"] <= ref <= interim["result"]["ub"]
            assert final["final"] is True and final["ok"]
            assert final["result"]["exact"] is True
            assert final["result"]["cost"] == ref
        run_daemon(body, tenants=governor)

    def test_unstreamed_governed_probe_answers_with_bracket(self):
        governor = TenantGovernor(policies={
            "bounded": TenantPolicy(deadline=1e-6)})

        async def body(daemon):
            frames = await rpc(daemon.port, probe_req(
                64, strategy="exhaustive", tenant="bounded"))
            assert len(frames) == 1
            res = frames[-1]["result"]
            assert res["exact"] is False
            assert res["lb"] <= res["ub"]
        run_daemon(body, tenants=governor)


class TestLifecycle:

    def test_shutdown_during_load_drains_inflight_work(self):
        engine = SweepEngine(anytime=True)
        gate = SlowGate(engine)

        async def body(daemon):
            slow = asyncio.ensure_future(rpc(daemon.port, probe_req(64)))
            assert await asyncio.get_running_loop().run_in_executor(
                None, gate.started.wait, 5)
            shutdown = asyncio.ensure_future(daemon.shutdown())
            await asyncio.sleep(0.05)
            gate.release.set()
            frames = await slow
            assert frames[-1]["ok"], "in-flight request lost during drain"
            await shutdown
            # New connections are refused once draining.
            with pytest.raises((ConnectionError, OSError, AssertionError,
                                asyncio.TimeoutError)):
                await rpc(daemon.port, probe_req(96), timeout=1.0)
        run_daemon(body, engine=engine, drain_deadline=10.0)

    def test_drain_deadline_cancels_stragglers(self):
        engine = SweepEngine(anytime=True)
        gate = SlowGate(engine)

        async def body(daemon):
            slow = asyncio.ensure_future(rpc(daemon.port, probe_req(64)))
            assert await asyncio.get_running_loop().run_in_executor(
                None, gate.started.wait, 5)
            # Never release the gate inside the drain window: shutdown
            # must still terminate (cooperative cancel, then task
            # cancellation) instead of hanging.
            shut = asyncio.ensure_future(daemon.shutdown())
            t0 = time.monotonic()
            await asyncio.sleep(0.3)
            # The drain waits for the straggler without freezing the loop.
            assert time.monotonic() - t0 < 2.0
            gate.release.set()  # let the executor thread exit
            await asyncio.wait_for(shut, 15.0)
            slow.cancel()
            await asyncio.gather(slow, return_exceptions=True)
        run_daemon(body, engine=engine, drain_deadline=0.1)

    def test_shutdown_is_idempotent(self):
        async def body(daemon):
            await daemon.shutdown()
            await daemon.shutdown()
        run_daemon(body)


class TestFleetAwareness:

    def test_replica_stanza_in_health_and_stats(self):
        async def body(daemon):
            h = (await rpc(daemon.port, {"verb": "health"}))[-1]["result"]
            rep = h["replica"]
            assert rep["name"] == "unit-replica"
            assert rep["pid"] == os.getpid()
            assert rep["store"] is None  # no durable store configured
            assert rep["uptime_s"] >= 0
            assert rep["draining"] is False
            assert rep["inflight"] == 0 and rep["active"] == 0
            s = (await rpc(daemon.port, {"verb": "stats"}))[-1]["result"]
            assert s["replica"]["name"] == "unit-replica"
        run_daemon(body, name="unit-replica")

    def test_replica_name_defaults_to_pid_label(self):
        async def body(daemon):
            h = (await rpc(daemon.port, {"verb": "health"}))[-1]["result"]
            assert h["replica"]["name"] == f"replica-{os.getpid()}"
        run_daemon(body)

    def test_replica_store_fingerprint_is_the_store_id(self, tmp_path):
        store_dir = str(tmp_path / "store")
        engine = SweepEngine(anytime=True, store=store_dir)

        async def body(daemon):
            h = (await rpc(daemon.port, {"verb": "health"}))[-1]["result"]
            stanza = h["replica"]["store"]
            assert stanza["path"] == engine.store.path
            assert stanza["fingerprint"] == engine.store.store_id
            assert stanza["records"] == len(engine.store)
        run_daemon(body, engine=engine)

    def test_resilience_counters_start_at_zero(self):
        async def body(daemon):
            s = (await rpc(daemon.port, {"verb": "stats"}))[-1]["result"]
            assert s["resilience"] == {"retries_served": 0,
                                       "duplicate_dispatches": 0,
                                       "request_ids_tracked": 0}
        run_daemon(body)

    def test_retried_request_id_counts_without_duplicate(self):
        async def body(daemon):
            for _ in range(2):
                f = (await rpc(daemon.port, probe_req(
                    64, request_id="rid-a")))[-1]
                assert f["ok"]
            s = (await rpc(daemon.port, {"verb": "stats"}))[-1]["result"]
            # the second send re-used the rid but was served from cache:
            # a served retry, not a duplicate dispatch.
            assert s["resilience"]["retries_served"] == 1
            assert s["resilience"]["duplicate_dispatches"] == 0
            assert s["resilience"]["request_ids_tracked"] == 1
        run_daemon(body)

    def test_fresh_reevaluation_for_one_rid_is_a_duplicate(self):
        async def body(daemon):
            for budget in (64, 96):
                f = (await rpc(daemon.port, probe_req(
                    budget, request_id="rid-b")))[-1]
                assert f["ok"]
            s = (await rpc(daemon.port, {"verb": "stats"}))[-1]["result"]
            assert s["resilience"]["retries_served"] == 1
            assert s["resilience"]["duplicate_dispatches"] == 1
        run_daemon(body)


class TestRetryAfterWire:

    def test_overloaded_retry_after_is_seconds_on_the_wire(self):
        engine = SweepEngine(anytime=True)
        gate = SlowGate(engine)

        async def body(daemon):
            slow = asyncio.ensure_future(rpc(daemon.port, probe_req(64)))
            assert await asyncio.get_running_loop().run_in_executor(
                None, gate.started.wait, 5)
            err = (await asyncio.wait_for(
                rpc(daemon.port, probe_req(96)), 2.0))[-1]["error"]
            assert err["code"] == "overloaded"
            # Pinned: the advisory is present, numeric, and in seconds
            # (the daemon's constant push-back window).
            assert isinstance(err["retry_after"], (int, float))
            assert err["retry_after"] == 0.25
            gate.release.set()
            assert (await slow)[-1]["ok"]
        run_daemon(body, engine=engine, max_inflight=1, max_pending=0)

    def test_tenant_rejection_retry_after_is_seconds_on_the_wire(self):
        # rate=0.5 tokens/s, burst=1: after spending the burst the next
        # token is ~2 seconds away.  A milliseconds (or minutes) value
        # here would be orders of magnitude off — this pins the unit.
        governor = TenantGovernor(policies={
            "metered": TenantPolicy(rate=0.5, burst=1)})

        async def body(daemon):
            ok = (await rpc(daemon.port,
                            probe_req(64, tenant="metered")))[-1]
            assert ok["ok"]
            err = (await rpc(daemon.port,
                             probe_req(80, tenant="metered")))[-1]["error"]
            assert err["code"] == "tenant-rejected"
            assert isinstance(err["retry_after"], (int, float))
            assert 0.5 <= err["retry_after"] <= 4.0
        run_daemon(body, tenants=governor)
