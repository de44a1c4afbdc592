"""The scheduling daemon: asyncio JSON-over-TCP front end of the engine.

Request lifecycle::

    line --> decode/validate --> tenant admission --> coalesce --> solve
                 |                    |                  |          |
             structured          tenant-rejected     join the   executor
            error frame          (+ retry_after)     in-flight  thread,
                                                     flight     governed

Robustness invariants (each pinned by a test):

* **admission control** — at most ``max_inflight`` solves run (the
  executor width) and at most ``max_pending`` more may be admitted;
  beyond that, requests get an immediate structured ``overloaded``
  frame instead of queueing unboundedly.  ``health``/``stats`` and
  coalesced joins bypass admission: they consume no solve thread.
* **coalescing** — identical probes share one evaluation
  (:mod:`repro.service.coalesce`); the shared solve is cancelled only
  when its *last* waiter departs, via the request's
  :class:`~repro.core.governor.CancellationToken`.
* **governance** — per-tenant deadline/memory caps chain into the solve
  (:mod:`repro.service.tenants`); a stopped oracle answers with a
  certified anytime ``[lb, ub]`` bracket.  With ``stream: true`` the
  bracket is pushed immediately (``final: false``) and the exact answer
  follows (``final: true``) once a background :meth:`~repro.analysis.
  engine.SweepEngine.probe` with ``refine=True`` lands — a refine can
  never serve a *stale* bracket over a stored exact value because
  :meth:`~repro.analysis.engine.CachedCostFn.refine` treats only exact
  records as hits.
* **graceful lifecycle** — SIGTERM stops accepting work, waits for
  in-flight requests under ``drain_deadline``, cooperatively cancels
  stragglers, then flushes and closes the engine (and with it the
  durable store).  SIGKILL loses nothing committed: durability is the
  store's job (:mod:`repro.core.store`), proven by the service soak in
  :mod:`repro.analysis.chaos`.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Optional, Set, Tuple

from ..core.governor import CancellationToken, governed
from .coalesce import Coalescer
from .protocol import (MAX_FRAME_BYTES, ProtocolError, Request, decode_line,
                       encode, error_frame, ok_frame, parse_request,
                       resolve_graph, resolve_scheduler, resolve_tiling)
from .tenants import TenantGovernor

#: Most recently seen client ``request_id``s remembered for retry
#: accounting (an LRU: a fleet client retries within seconds, not days).
RID_TRACK_CAP = 4096


def _json_num(v: float):
    """JSON-friendly float: ``inf`` / ``nan`` travel as strings so every
    frame stays strict JSON (``json.dumps`` would emit bare Infinity)."""
    if v != v or v in (float("inf"), float("-inf")):
        return repr(v)
    return v


class SchedulingDaemon:
    """One serving instance around one :class:`~repro.analysis.engine.
    SweepEngine`.  All protocol state lives on the event-loop thread;
    solves run on a bounded :class:`ThreadPoolExecutor` through the
    engine's thread-safe submission hooks."""

    def __init__(self, engine, *, host: str = "127.0.0.1", port: int = 0,
                 max_pending: int = 16, max_inflight: int = 2,
                 tenants: Optional[TenantGovernor] = None,
                 drain_deadline: float = 10.0,
                 close_engine: bool = True,
                 name: Optional[str] = None,
                 log: Optional[Callable[[str], None]] = None):
        self.engine = engine
        self.host = host
        self.port = port
        #: replica label surfaced in the health/stats ``replica`` stanza
        self.name = name if name else f"replica-{os.getpid()}"
        self.max_pending = max(0, int(max_pending))
        self.max_inflight = max(1, int(max_inflight))
        self.tenants = tenants if tenants is not None else TenantGovernor()
        self.drain_deadline = float(drain_deadline)
        self.coalescer = Coalescer()
        self._close_engine = close_engine
        self._log = log if log is not None else (lambda msg: None)
        self._pool = ThreadPoolExecutor(max_workers=self.max_inflight,
                                        thread_name_prefix="repro-serve")
        #: (strategy-spec json, graph-spec json) -> (scheduler, cdag) —
        #: interned so repeated requests reuse one engine cost-fn entry
        #: instead of growing ``engine._fns`` without bound.
        self._instances: Dict[Tuple[str, str], tuple] = {}
        self._active = 0  #: admitted leader solves not yet finished
        self._live_tokens: Set[CancellationToken] = set()
        self._conn_tasks: Set["asyncio.Task"] = set()
        self._request_tasks: Set["asyncio.Task"] = set()
        self._draining = False
        self._server: Optional["asyncio.AbstractServer"] = None
        self._stopped: Optional["asyncio.Event"] = None
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        self._started = time.monotonic()
        # observability counters (all loop-thread only)
        self.requests: Dict[str, int] = {}
        self.responses = 0
        self.rejected_overloaded = 0
        self.bad_frames = 0
        self.internal_errors = 0
        # retry/duplicate accounting: request_id -> "ever cost this
        # replica a fresh (uncached) dispatch".  The fleet client tags
        # every request with a request_id; re-serving one it has seen is
        # a retry, and a retry that could not be answered from the
        # cache/store/coalescer is a duplicate dispatch — the quantity
        # the partition soak bounds.
        self._rids: "OrderedDict[str, bool]" = OrderedDict()
        self.retries_served = 0
        self.duplicate_dispatches = 0

    # ----------------------------------------------------------------- #
    # Lifecycle

    async def start(self) -> "SchedulingDaemon":
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port,
            limit=MAX_FRAME_BYTES + 2)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()
        return self

    def install_signal_handlers(self) -> bool:
        """SIGTERM/SIGINT trigger a graceful drain.  Returns ``False``
        when the platform (or a non-main-thread loop, as in in-process
        tests) refuses signal handlers — the daemon still works, only
        signal-driven drain is unavailable."""
        assert self._loop is not None, "call start() first"
        try:
            for sig in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.shutdown()))
        except (ValueError, NotImplementedError, RuntimeError,
                OSError):  # pragma: no cover - platform-dependent
            return False
        return True

    async def run(self, announce: Optional[Callable[[str], None]] = None
                  ) -> None:
        """Start, announce the bound address, serve until drained."""
        await self.start()
        self.install_signal_handlers()
        if announce is not None:
            announce(f"repro-serve listening on {self.host}:{self.port} "
                     f"pid={os.getpid()}")
        await self._stopped.wait()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Graceful stop: refuse new work, drain in-flight requests
        under :attr:`drain_deadline`, cooperatively cancel stragglers,
        flush and close the engine (and its durable store)."""
        if self._draining:
            return
        self._draining = True
        loop = self._loop if self._loop is not None \
            else asyncio.get_running_loop()
        self._log(f"draining: {len(self._request_tasks)} request(s), "
                  f"{self._active} solve(s) in flight")
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        if drain:
            deadline = loop.time() + max(0.0, self.drain_deadline)
            while self._request_tasks and loop.time() < deadline:
                await asyncio.sleep(0.02)
        if self._request_tasks:
            self._log(f"drain deadline exceeded; cancelling "
                      f"{len(self._request_tasks)} request(s)")
            for token in list(self._live_tokens):
                token.cancel("draining")
            self.coalescer.cancel_all()
            grace = loop.time() + 2.0
            while self._request_tasks and loop.time() < grace:
                await asyncio.sleep(0.02)
            for task in list(self._request_tasks):
                task.cancel()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        # Join the solve threads off the loop: a solve that does not poll
        # its token keeps running until it returns, and the loop must
        # keep serving its callbacks meanwhile.
        running = min(self._active, self.max_inflight)
        if running:
            self._log(f"waiting for {running} running solve(s) to return")
        await asyncio.to_thread(self._pool.shutdown, wait=True,
                                cancel_futures=True)
        if self._close_engine:
            self.engine.close()
        else:
            store = getattr(self.engine, "store", None)
            if store is not None:
                with contextlib.suppress(Exception):
                    store.flush()
        self._log("drained and stopped")
        if self._stopped is not None:
            self._stopped.set()

    # ----------------------------------------------------------------- #
    # Connection handling

    async def _on_connection(self, reader, writer) -> None:
        if self._draining:
            with contextlib.suppress(Exception):
                writer.write(encode(error_frame(
                    "shutting-down", "daemon is draining")))
                await writer.drain()
                writer.close()
            return
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        wlock = asyncio.Lock()
        pending: Set["asyncio.Task"] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Over-long line: the stream cannot be resynchronized
                    # (we cannot know where the frame ends), so answer
                    # structurally and close.
                    self.bad_frames += 1
                    await self._send(writer, wlock, error_frame(
                        "frame-too-large",
                        f"request line exceeds {MAX_FRAME_BYTES} bytes; "
                        f"closing connection"))
                    break
                if not line:
                    break  # client EOF
                if line.strip() == b"":
                    continue  # tolerate keep-alive blank lines
                t = asyncio.ensure_future(
                    self._serve_line(line, writer, wlock))
                pending.add(t)
                self._request_tasks.add(t)
                t.add_done_callback(pending.discard)
                t.add_done_callback(self._request_tasks.discard)
        except (ConnectionError, OSError):
            pass  # client went away mid-read
        except asyncio.CancelledError:
            # Shutdown cancelled this connection: finish cleanly (the
            # task is ending either way; ending *cancelled* would make
            # asyncio's stream machinery log a spurious traceback).
            pass
        finally:
            # Departing client: its unanswered requests are waiters that
            # leave their flights (the coalescer abandons a shared solve
            # only when the last one goes).
            for t in list(pending):
                t.cancel()
            if pending:
                await asyncio.gather(*list(pending), return_exceptions=True)
            with contextlib.suppress(Exception):
                writer.close()
            self._conn_tasks.discard(task)

    async def _serve_line(self, line: bytes, writer, wlock) -> None:
        rid = None
        try:
            obj = decode_line(line)
            rid = obj.get("id")
            if not isinstance(rid, (str, int)):
                rid = None
            req = parse_request(obj)
            self.requests[req.verb] = self.requests.get(req.verb, 0) + 1
            await self._dispatch(req, writer, wlock)
        except ProtocolError as exc:
            if exc.code in ("invalid-json", "bad-request", "unknown-verb",
                            "frame-too-large"):
                self.bad_frames += 1
            await self._send(writer, wlock, exc.frame(id=rid))
        except asyncio.CancelledError:
            # Drain timeout or client departure: best-effort notice.
            if not writer.is_closing():
                with contextlib.suppress(Exception):
                    writer.write(encode(error_frame(
                        "cancelled", "request cancelled (disconnect or "
                        "shutdown)", id=rid)))
            raise
        except Exception as exc:
            # Never a traceback on the wire.
            self.internal_errors += 1
            self._log("internal error serving request:\n"
                      + traceback.format_exc())
            await self._send(writer, wlock, error_frame(
                "internal", f"{type(exc).__name__}: {exc}", id=rid))

    async def _send(self, writer, wlock: "asyncio.Lock", frame: dict
                    ) -> None:
        async with wlock:
            if writer.is_closing():
                return
            writer.write(encode(frame))
            with contextlib.suppress(ConnectionError, OSError):
                await writer.drain()
        self.responses += 1

    # ----------------------------------------------------------------- #
    # Dispatch

    async def _dispatch(self, req: Request, writer, wlock) -> None:
        if req.verb == "health":
            await self._send(writer, wlock,
                             ok_frame(req.id, "health",
                                      self.health_payload()))
            return
        if req.verb == "stats":
            await self._send(writer, wlock,
                             ok_frame(req.id, "stats", self.stats_payload()))
            return
        if self._draining:
            raise ProtocolError("shutting-down",
                                "daemon is draining; no new work accepted")
        retry = self.tenants.admit(req.tenant)
        if retry is not None:
            raise ProtocolError(
                "tenant-rejected",
                f"tenant {req.tenant!r} is out of request tokens",
                retry_after=retry)
        scheduler, cdag = self._instance(req)
        token = self.tenants.token_for(req.tenant, deadline=req.deadline,
                                       mem_limit_mb=req.mem_limit_mb)
        skey = scheduler.cache_key()
        gkey = self.engine.graph_key(cdag)
        self._note_rid(req.request_id)
        if req.verb == "probe":
            await self._probe(req, writer, wlock, scheduler, cdag,
                              skey, gkey, token)
        elif req.verb == "sweep":
            led = [False]
            key = ("sweep", skey, gkey, req.budgets)
            result = await self.coalescer.run(key, self._solve_factory(
                self._led(led, lambda: self._sweep_work(
                    scheduler, cdag, req.budgets, token)), token))
            self._note_dispatch(req.request_id, led[0])
            await self._send(writer, wlock,
                             ok_frame(req.id, "sweep", result))
        elif req.verb == "min-memory":
            led = [False]
            key = ("minmem", skey, gkey)
            bits = await self.coalescer.run(key, self._solve_factory(
                self._led(led, lambda: self.engine.probe_min_memory(
                    scheduler, cdag, token=token)), token))
            self._note_dispatch(req.request_id, led[0])
            words = bits // 16 if bits is not None else None
            await self._send(writer, wlock, ok_frame(
                req.id, "min-memory", {"bits": bits, "words": words}))
        else:  # pragma: no cover - parse_request restricts verbs
            raise ProtocolError("unknown-verb", f"verb {req.verb!r}")

    @staticmethod
    def _led(led, work: Callable[[], object]) -> Callable[[], object]:
        """Wrap ``work`` so its *execution* flips ``led[0]`` — the
        coalescer only runs the leader's work, so after awaiting the
        flight the flag says whether this request started it (joiners
        share the answer without a dispatch of their own)."""
        def wrapped():
            led[0] = True
            return work()
        return wrapped

    async def _probe(self, req: Request, writer, wlock, scheduler, cdag,
                     skey: str, gkey: str,
                     token: Optional[CancellationToken]) -> None:
        led = [False]
        key = ("probe", skey, gkey, req.budget)
        outcome = await self.coalescer.run(key, self._solve_factory(
            self._led(led, lambda: self.engine.probe(
                scheduler, cdag, req.budget, token=token)), token))
        self._note_dispatch(req.request_id,
                            led[0] and not outcome.cached)
        payload = self._probe_payload(outcome)
        if outcome.exact or not req.stream:
            await self._send(writer, wlock,
                             ok_frame(req.id, "probe", payload))
            return
        # Streamed two-phase answer: push the certified bracket now,
        # the exact value when the (coalesced, ungoverned) refine lands.
        await self._send(writer, wlock,
                         ok_frame(req.id, "probe", payload, final=False))
        await self._refine(req, writer, wlock, scheduler, cdag, skey, gkey)

    async def _refine(self, req: Request, writer, wlock, scheduler, cdag,
                      skey: str, gkey: str) -> None:
        """Background-tightening half of a streamed probe: coalesced,
        ungoverned, answered with the exact value (``final: true``)."""
        refined = await self.coalescer.run(
            ("refine", skey, gkey, req.budget), self._solve_factory(
                lambda: self.engine.probe(scheduler, cdag, req.budget,
                                          refine=True), None))
        await self._send(writer, wlock, ok_frame(
            req.id, "probe", self._probe_payload(refined)))

    @staticmethod
    def _probe_payload(outcome) -> dict:
        return {"cost": _json_num(outcome.cost),
                "lb": _json_num(outcome.lb), "ub": _json_num(outcome.ub),
                "provenance": outcome.provenance, "exact": outcome.exact,
                "degraded": outcome.degraded, "cached": outcome.cached}

    def _sweep_work(self, scheduler, cdag, budgets, token):
        # engine.sweep is not itself thread-safe; serialize on the same
        # per-(scheduler, graph) lock the probe path uses.
        _fn, lock = self.engine._probe_fn(scheduler, cdag)
        with lock:
            if token is not None:
                with governed(token):
                    series = self.engine.sweep(scheduler, cdag,
                                               list(budgets), "service")
            else:
                series = self.engine.sweep(scheduler, cdag, list(budgets),
                                           "service")
        return {"budgets": list(series.budgets),
                "costs": [_json_num(c) for c in series.costs],
                "degraded": list(series.degraded),
                "provenance": [list(p) for p in series.provenance]}

    def _note_rid(self, request_id: Optional[str]) -> None:
        """Remember a client ``request_id``; re-seeing one means this
        frame is a retry (or a hedged duplicate) of an already-served
        request."""
        if request_id is None:
            return
        if request_id in self._rids:
            self._rids.move_to_end(request_id)
            self.retries_served += 1
        else:
            self._rids[request_id] = False
            while len(self._rids) > RID_TRACK_CAP:
                self._rids.popitem(last=False)

    def _note_dispatch(self, request_id: Optional[str],
                       fresh: bool) -> None:
        """Record that serving ``request_id`` cost a *fresh* engine
        evaluation (this request led a flight and the answer was not
        cached).  The second fresh evaluation for one id is a duplicate
        dispatch — retry amplification the partition soak bounds."""
        if request_id is None or not fresh:
            return
        if self._rids.get(request_id):
            self.duplicate_dispatches += 1
        self._rids[request_id] = True

    def _instance(self, req: Request) -> tuple:
        key = req.instance_key
        inst = self._instances.get(key)
        if inst is None:
            cdag = resolve_graph(req.graph)
            if req.strategy["name"] == "tiling":
                scheduler = resolve_tiling(req.strategy, cdag)
            else:
                scheduler = resolve_scheduler(req.strategy)
            inst = self._instances[key] = (scheduler, cdag)
        return inst

    # ----------------------------------------------------------------- #
    # Solve admission + executor bridge

    def _admit(self) -> None:
        """Charge one solve against the bounded queue or reject."""
        if self._draining:
            raise ProtocolError("shutting-down", "daemon is draining")
        if self._active >= self.max_inflight + self.max_pending:
            self.rejected_overloaded += 1
            raise ProtocolError(
                "overloaded",
                f"{self._active} solve(s) active "
                f"(max_inflight={self.max_inflight}, "
                f"max_pending={self.max_pending}); retry later",
                retry_after=0.25)
        self._active += 1

    def _solve_factory(self, work: Callable[[], object],
                       token: Optional[CancellationToken]):
        """A synchronous flight-maker for the coalescer: admission check
        + executor submission happen atomically on the loop thread, so a
        rejected leader registers nothing and a created flight owns
        exactly one queue slot until its future resolves."""
        def make():
            self._admit()
            loop = self._loop
            if token is not None:
                self._live_tokens.add(token)
            cf = self._pool.submit(work)
            cf.add_done_callback(
                lambda _f: loop.call_soon_threadsafe(
                    self._solve_finished, token))

            async def waiter():
                try:
                    return await asyncio.wrap_future(cf)
                except asyncio.CancelledError:
                    # Abandoned (last waiter gone) or hard drain: tell
                    # the worker thread to stop at its next poll.
                    if token is not None:
                        token.cancel("abandoned")
                    raise
            return waiter()
        return make

    def _solve_finished(self, token: Optional[CancellationToken]) -> None:
        self._active -= 1
        if token is not None:
            self._live_tokens.discard(token)

    # ----------------------------------------------------------------- #
    # Observability

    def replica_payload(self) -> dict:
        """Fleet-awareness stanza: who this replica is, which store it
        answers from, and whether it is draining.  A fleet client uses
        the store fingerprint to refuse mixing replicas that serve
        different stores, and the drain flag to prefer drained-last
        replicas."""
        store = getattr(self.engine, "store", None)
        store_info = None
        if store is not None:
            store_info = {"path": store.path,
                          "fingerprint": store.store_id,
                          "records": len(store)}
        return {"name": self.name,
                "pid": os.getpid(),
                "store": store_info,
                "uptime_s": round(time.monotonic() - self._started, 3),
                "inflight": min(self._active, self.max_inflight),
                "active": self._active,
                "draining": self._draining}

    def health_payload(self) -> dict:
        return {"status": "draining" if self._draining else "ok",
                "pid": os.getpid(),
                "active": self._active,
                "inflight": min(self._active, self.max_inflight),
                "queue_depth": max(0, self._active - self.max_inflight),
                "max_inflight": self.max_inflight,
                "max_pending": self.max_pending,
                "connections": len(self._conn_tasks),
                "uptime_s": round(time.monotonic() - self._started, 3),
                "replica": self.replica_payload()}

    def stats_payload(self) -> dict:
        tenant_stats = self.tenants.stats()
        stats = self.engine.stats
        store = getattr(self.engine, "store", None)
        store_info = None
        if store is not None:
            store_info = {"path": store.path, "records": len(store)}
        return {"requests": dict(self.requests),
                "responses": self.responses,
                "replica": self.replica_payload(),
                "resilience": {
                    "retries_served": self.retries_served,
                    "duplicate_dispatches": self.duplicate_dispatches,
                    "request_ids_tracked": len(self._rids)},
                "coalesce": self.coalescer.stats(),
                "rejections": {
                    "overloaded": self.rejected_overloaded,
                    "tenant": sum(v["rejected"]
                                  for v in tenant_stats.values()),
                    "malformed": self.bad_frames,
                    "internal": self.internal_errors},
                "tenants": tenant_stats,
                "engine": {"probes": stats.probes,
                           "cache_hits": stats.cache_hits,
                           "evals": stats.evals,
                           "searches": stats.searches,
                           "sweeps": stats.sweeps},
                "store": store_info}
