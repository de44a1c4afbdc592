"""Fleet-resilient client: retries, failover, breakers, hedged sends.

:class:`~repro.service.protocol.ServiceClient` is one socket to one
daemon: any crash, partition, or slow replica is a user-visible failure.
:class:`ResilientClient` wraps **N replica endpoints** and makes the
fleet survivable:

* **idempotent retry** — every request carries a client-generated
  ``request_id``; the daemon's durable store and coalescer make
  re-serving idempotent, so a retried/hedged/failed-over exact probe
  returns the *byte-identical* cost to a single-daemon reference (the
  invariant the resilience tests and the partition soak assert).
* **bounded backoff with jitter** — exponential, capped, seeded; a
  structured ``retry_after`` from the server (overload, tenant
  rejection) is *honored*: the client sleeps at least that long.
* **per-endpoint circuit breakers** — closed → open on a failure-rate
  window, half-open trial after a cooldown, re-close on success.  With
  every breaker open the client fails open on the most-preferred
  endpoint rather than livelocking.
* **hedged sends** — when a request has waited past a latency
  percentile of recent successes (or a fixed ``hedge_after``), a second
  replica is engaged; the first *final frame* wins and the loser's
  in-flight solve is cancelled by closing its connection — the daemon's
  connection teardown departs the waiter, and the coalescer cancels the
  flight's :class:`~repro.core.governor.CancellationToken` only if no
  other waiter remains.  A hedged duplicate that lands on the same
  replica as a live flight *joins* it (single-flight), so hedging never
  double-solves on one replica.
* **transparent failover** — transport failures (reset, torn frame,
  timeout, refused connection) poison that endpoint's connection,
  charge its breaker, and re-issue the request against a surviving
  replica; a mid-stream failure of a ``stream: true`` request re-issues
  the whole request (interim brackets are certified, the final exact
  frame is what counts).
* **fleet sanity** — replicas advertise their durable store's
  fingerprint in the ``replica`` health stanza; the client refuses to
  mix replicas serving different stores (:class:`MixedStoreError`), and
  prefers drained-last replicas when one reports ``draining``.

With a single endpoint, no hedging, and zero faults the client performs
exactly one attempt per request over one persistent connection — the
wire is a plain :class:`ServiceClient` exchange plus the ``request_id``
key.
"""

from __future__ import annotations

import itertools
import math
import queue
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .protocol import ProtocolError, ServiceClient

__all__ = ["BackoffPolicy", "CircuitBreaker", "FleetError",
           "MixedStoreError", "ResilientClient", "RetriesExhausted"]

#: Server error codes a retry can fix: pushback (honor ``retry_after``),
#: a draining or drained replica, a cancelled solve, a transient
#: internal failure.  ``bad-request``-class codes are the caller's bug
#: and are returned as-is.
RETRYABLE_CODES = ("overloaded", "tenant-rejected", "shutting-down",
                   "cancelled", "internal")


class FleetError(Exception):
    """Base class for fleet-level client failures."""


class MixedStoreError(FleetError):
    """Two replicas advertise different durable stores.

    Answers from different stores are not interchangeable — a failover
    between them could serve records the other replica never committed —
    so the client refuses the fleet outright instead of guessing."""


class RetriesExhausted(FleetError, ConnectionError):
    """Every endpoint failed at the transport level for every attempt."""

    def __init__(self, message: str, attempts: int,
                 cause: Optional[BaseException] = None):
        super().__init__(message)
        self.attempts = attempts
        self.cause = cause


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff with multiplicative jitter."""

    base: float = 0.05  #: first retry delay, seconds
    factor: float = 2.0
    max_delay: float = 2.0  #: hard cap per sleep (also caps retry_after)
    jitter: float = 0.5  #: fraction of the delay randomized away

    def delay(self, attempt: int, rng: random.Random) -> float:
        d = min(self.max_delay, self.base * self.factor ** attempt)
        return d * (1.0 - self.jitter * rng.random())


class CircuitBreaker:
    """Per-endpoint failure-rate breaker: closed / open / half-open.

    Outcomes land in a sliding window; once at least ``min_volume``
    outcomes show a failure rate ≥ ``failure_threshold`` the breaker
    *opens* and :meth:`allow` refuses the endpoint for ``reset_after``
    seconds.  It then goes *half-open*: exactly one trial request is
    let through — success closes the breaker, failure re-opens it."""

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, *, window: int = 16, failure_threshold: float = 0.5,
                 min_volume: int = 4, reset_after: float = 2.0,
                 clock: Callable[[], float] = time.monotonic):
        self.window = int(window)
        self.failure_threshold = float(failure_threshold)
        self.min_volume = int(min_volume)
        self.reset_after = float(reset_after)
        self._clock = clock
        self._events: deque = deque(maxlen=self.window)
        self._state = self.CLOSED
        self._opened_at: Optional[float] = None
        self._trial_inflight = False
        self._opens = 0
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    @property
    def opens(self) -> int:
        return self._opens

    def _maybe_half_open(self) -> None:
        if (self._state == self.OPEN and self._opened_at is not None
                and self._clock() - self._opened_at >= self.reset_after):
            self._state = self.HALF_OPEN
            self._trial_inflight = False

    def allow(self) -> bool:
        """May a request go to this endpoint right now?  (Half-open
        admits exactly one in-flight trial.)"""
        with self._lock:
            self._maybe_half_open()
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                return False
            if self._trial_inflight:
                return False
            self._trial_inflight = True
            return True

    def record(self, ok: bool) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._trial_inflight = False
                if ok:
                    self._state = self.CLOSED
                    self._events.clear()
                else:
                    self._trip()
                return
            self._events.append(ok)
            if self._state == self.CLOSED and not ok:
                n = len(self._events)
                failures = sum(1 for e in self._events if not e)
                if (n >= self.min_volume
                        and failures / n >= self.failure_threshold):
                    self._trip()

    def _trip(self) -> None:
        self._state = self.OPEN
        self._opened_at = self._clock()
        self._opens += 1
        self._events.clear()


class _Endpoint:
    """One replica address plus its client-side state."""

    __slots__ = ("host", "port", "index", "breaker", "client", "draining",
                 "fingerprint", "replica_name", "successes", "failures",
                 "connects", "lock")

    def __init__(self, host: str, port: int, index: int,
                 breaker: CircuitBreaker):
        self.host = host
        self.port = port
        self.index = index
        self.breaker = breaker
        self.client: Optional[ServiceClient] = None
        self.draining = False
        self.fingerprint: Optional[str] = None  #: None = not yet learned
        self.replica_name: Optional[str] = None
        self.successes = 0
        self.failures = 0
        self.connects = 0
        self.lock = threading.Lock()  #: one attempt per endpoint at a time

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    def invalidate(self) -> None:
        client, self.client = self.client, None
        if client is not None:
            client.close()

    def cancel_inflight(self) -> None:
        """Hedge-loser cancellation: closing the socket makes the daemon
        see EOF, depart this waiter, and (if it was the last) cancel the
        flight's token — the existing cancellation plumbing."""
        client = self.client
        if client is not None:
            client._poison("hedge loser cancelled")


class _AttemptFailed(Exception):
    """Internal: one transport-level attempt died (which endpoints?)."""

    def __init__(self, cause: BaseException,
                 endpoints: Tuple[_Endpoint, ...]):
        super().__init__(str(cause))
        self.cause = cause
        self.endpoints = endpoints


def _parse_endpoint(spec) -> Tuple[str, int]:
    if isinstance(spec, str):
        host, _, port = spec.rpartition(":")
        return (host or "127.0.0.1", int(port))
    host, port = spec
    return (str(host), int(port))


class ResilientClient:
    """A :class:`ServiceClient`-shaped front door over a replica fleet.

    Parameters
    ----------
    endpoints:
        ``"host:port"`` strings or ``(host, port)`` pairs, in preference
        order.
    timeout:
        Per-attempt socket timeout (connect and each receive), seconds.
        Every call is bounded: worst case ≈ ``(retries + 1) × (timeout +
        max backoff)``.
    retries:
        Re-issues after the first attempt (transport failures and
        retryable error codes).
    backoff:
        The :class:`BackoffPolicy`; a server ``retry_after`` raises the
        sleep to at least that value (capped at ``backoff.max_delay``).
    hedge_after:
        ``None`` disables hedging.  A float engages the second replica
        after that many seconds; a ``"p95"``-style string tracks the
        latency percentile of recent successful attempts (until enough
        samples exist, ``hedge_floor`` is used).
    check_store:
        Verify (via each replica's health stanza) that all endpoints
        serve the same durable store; raise :class:`MixedStoreError`
        otherwise.  Only meaningful with ≥ 2 endpoints.
    seed / sleep / clock:
        Determinism hooks: jitter RNG seed, injectable sleep and clock
        (tests pin backoff and retry_after compliance through these).
    """

    def __init__(self, endpoints: Sequence, *, timeout: float = 30.0,
                 retries: int = 4,
                 backoff: BackoffPolicy = BackoffPolicy(),
                 hedge_after=None, hedge_floor: float = 0.1,
                 breaker_window: int = 16,
                 breaker_failure_threshold: float = 0.5,
                 breaker_min_volume: int = 4,
                 breaker_reset_after: float = 2.0,
                 check_store: bool = True,
                 client_id: Optional[str] = None, seed: int = 0,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic):
        if not endpoints:
            raise ValueError("ResilientClient needs at least one endpoint")
        self.timeout = float(timeout)
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.check_store = bool(check_store)
        self._sleep = sleep
        self._clock = clock
        self._rng = random.Random(seed)
        self._endpoints: List[_Endpoint] = []
        for i, spec in enumerate(endpoints):
            host, port = _parse_endpoint(spec)
            self._endpoints.append(_Endpoint(
                host, port, i, CircuitBreaker(
                    window=breaker_window,
                    failure_threshold=breaker_failure_threshold,
                    min_volume=breaker_min_volume,
                    reset_after=breaker_reset_after, clock=clock)))
        # hedging configuration
        self._hedge_fixed: Optional[float] = None
        self._hedge_pct: Optional[float] = None
        self.hedge_floor = float(hedge_floor)
        if hedge_after is not None:
            if isinstance(hedge_after, str):
                if not hedge_after.startswith("p"):
                    raise ValueError(f"hedge_after must be seconds or "
                                     f"'pNN', got {hedge_after!r}")
                self._hedge_pct = float(hedge_after[1:]) / 100.0
            else:
                self._hedge_fixed = float(hedge_after)
        self._latencies: deque = deque(maxlen=64)
        self._fleet_fingerprint: Optional[str] = None
        self._mixed_store: Optional[MixedStoreError] = None
        self._client_id = (client_id if client_id
                           else f"rc-{self._rng.randrange(16 ** 8):08x}")
        self._seq = itertools.count()
        self._stats_lock = threading.Lock()
        # -- counters (the client-side stats dump) --
        self.requests_total = 0
        self.attempts_total = 0
        self.retries_total = 0
        self.failovers = 0
        self.transport_failures = 0
        self.hedges_started = 0
        self.hedges_won = 0  #: the hedge (second send) delivered first
        self.hedges_lost = 0  #: the primary beat the hedge it triggered
        self.retry_after_honored = 0
        self.retry_after_slept = 0.0
        self.breaker_fail_open = 0

    # -- endpoint selection -------------------------------------------- #

    @property
    def hedging(self) -> bool:
        return (self._hedge_fixed is not None
                or self._hedge_pct is not None) and len(self._endpoints) > 1

    def _pick(self, avoid: Tuple[_Endpoint, ...] = ()) -> _Endpoint:
        """Preference order: endpoints we were not just burned by, then
        drained-last, then stable index order; the first whose breaker
        admits wins.  All breakers open → fail open on the most
        preferred endpoint (refusing everything would turn a transient
        fleet-wide blip into a permanent local outage)."""
        order = sorted(self._endpoints,
                       key=lambda e: (e in avoid, e.draining, e.index))
        for ep in order:
            if ep.breaker.allow():
                return ep
        with self._stats_lock:
            self.breaker_fail_open += 1
        return order[0]

    # -- transport ------------------------------------------------------ #

    def _connect(self, ep: _Endpoint) -> ServiceClient:
        client = ep.client
        if client is not None and not client.poisoned:
            return client
        ep.invalidate()
        client = ServiceClient(ep.host, ep.port, timeout=self.timeout)
        ep.connects += 1
        ep.client = client
        if self.check_store and len(self._endpoints) > 1:
            self._verify_replica(ep, client)
        return client

    def _verify_replica(self, ep: _Endpoint, client: ServiceClient) -> None:
        """Learn the replica stanza on (re)connect: store fingerprint
        (mixing stores is refused) and drain state (drained replicas are
        deprioritized)."""
        frame = client.request({"verb": "health"})[-1]
        result = frame.get("result") or {}
        stanza = result.get("replica")
        if stanza is None:  # pre-fleet daemon: nothing to verify against
            return
        ep.draining = bool(stanza.get("draining"))
        ep.replica_name = stanza.get("name")
        store = stanza.get("store")
        fp = store.get("fingerprint") if store else "<no-store>"
        ep.fingerprint = fp
        with self._stats_lock:
            if self._fleet_fingerprint is None:
                self._fleet_fingerprint = fp
            elif fp != self._fleet_fingerprint:
                exc = MixedStoreError(
                    f"replica {ep.addr} serves store {fp!r} but the "
                    f"fleet serves {self._fleet_fingerprint!r}; refusing "
                    f"to mix answers from different stores")
                # Latch it: if this was a hedge thread whose race the
                # other replica wins, the error must still surface (on
                # the next request) instead of dying with the loser.
                self._mixed_store = exc
                raise exc

    def _attempt(self, ep: _Endpoint, obj: dict,
                 cancelled: Optional[threading.Event] = None) -> List[dict]:
        """One request on one endpoint.  Transport failures charge the
        breaker (unless *we* cancelled the attempt as a hedge loser) and
        re-raise; success records the latency sample hedging feeds on."""
        with self._stats_lock:
            self.attempts_total += 1
        start = self._clock()
        with ep.lock:
            try:
                client = self._connect(ep)
                frames = client.request(obj)
            except MixedStoreError:
                raise
            except (ProtocolError, OSError) as exc:
                if cancelled is None or not cancelled.is_set():
                    ep.breaker.record(False)
                    with self._stats_lock:
                        ep.failures += 1
                        self.transport_failures += 1
                raise _AttemptFailed(exc, (ep,)) from exc
        ep.breaker.record(True)
        with self._stats_lock:
            ep.successes += 1
            self._latencies.append(self._clock() - start)
        return frames

    # -- hedging -------------------------------------------------------- #

    def _hedge_delay(self) -> float:
        if self._hedge_fixed is not None:
            return self._hedge_fixed
        with self._stats_lock:
            lat = sorted(self._latencies)
        if len(lat) < 8:
            return self.hedge_floor
        idx = min(len(lat) - 1,
                  max(0, math.ceil(self._hedge_pct * len(lat)) - 1))
        return max(lat[idx], 1e-4)

    def _race(self, obj: dict,
              avoid: Tuple[_Endpoint, ...]) -> Tuple[List[dict], _Endpoint]:
        """One logical attempt: primary send, optionally hedged onto a
        second replica after the hedge delay.  First *final frame* wins;
        the loser's connection is closed, which cancels its solve
        server-side via waiter departure."""
        primary = self._pick(avoid)
        if not self.hedging:
            return self._attempt(primary, obj), primary
        results: "queue.SimpleQueue" = queue.SimpleQueue()
        cancel: Dict[str, threading.Event] = {"primary": threading.Event(),
                                              "backup": threading.Event()}

        def run(tag: str, ep: _Endpoint) -> None:
            try:
                results.put((tag, ep, self._attempt(ep, obj, cancel[tag]),
                             None))
            except BaseException as exc:  # noqa: BLE001 - ferried to caller
                results.put((tag, ep, None, exc))

        threading.Thread(target=run, args=("primary", primary),
                         daemon=True).start()
        started = {"primary": primary}
        try:
            first = results.get(timeout=self._hedge_delay())
        except queue.Empty:
            backup = self._pick(avoid + (primary,))
            if backup is not primary:
                with self._stats_lock:
                    self.hedges_started += 1
                started["backup"] = backup
                threading.Thread(target=run, args=("backup", backup),
                                 daemon=True).start()
            first = results.get()  # bounded: every attempt has timeouts
        tag, ep, frames, exc = first
        if frames is None and len(started) > 1:
            # first finisher died; the other attempt is still live and
            # its own timeouts bound the wait.
            tag, ep, frames, exc = results.get()
        if frames is None:
            if isinstance(exc, _AttemptFailed):
                raise _AttemptFailed(exc.cause,
                                     tuple(started.values()))
            raise exc
        loser_tag = "backup" if tag == "primary" else "primary"
        if loser_tag in started:
            cancel[loser_tag].set()
            started[loser_tag].cancel_inflight()
            with self._stats_lock:
                if tag == "backup":
                    self.hedges_won += 1
                else:
                    self.hedges_lost += 1
        return frames, ep

    # -- the front door ------------------------------------------------- #

    def request(self, obj: dict) -> List[dict]:
        """Send one request to the fleet; collect frames until the final
        one.  Retries transport failures and retryable error codes with
        backoff (honoring ``retry_after``), failing over across
        replicas; the answer is byte-identical to a fault-free
        single-daemon exchange because every replica serves the same
        deterministic solver over the same store."""
        if self._mixed_store is not None:
            raise self._mixed_store
        if "request_id" not in obj:
            obj = dict(obj)
            obj["request_id"] = f"{self._client_id}-{next(self._seq)}"
        with self._stats_lock:
            self.requests_total += 1
        avoid: Tuple[_Endpoint, ...] = ()
        last_exc: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt:
                with self._stats_lock:
                    self.retries_total += 1
            try:
                frames, ep = self._race(obj, avoid)
            except _AttemptFailed as fail:
                last_exc = fail.cause
                if len(self._endpoints) > 1:
                    with self._stats_lock:
                        self.failovers += 1
                avoid = fail.endpoints
                if attempt < self.retries:
                    self._sleep(self.backoff.delay(attempt, self._rng))
                continue
            final = frames[-1]
            if final.get("ok", False):
                return frames
            err = final.get("error") or {}
            code = err.get("code")
            if code == "shutting-down":
                ep.draining = True
            if code not in RETRYABLE_CODES or attempt >= self.retries:
                return frames  # structured error belongs to the caller
            delay = self.backoff.delay(attempt, self._rng)
            retry_after = err.get("retry_after")
            if isinstance(retry_after, (int, float)):
                # Honor the server's advisory: never come back sooner.
                delay = max(delay, min(float(retry_after),
                                       self.backoff.max_delay))
                with self._stats_lock:
                    self.retry_after_honored += 1
                    self.retry_after_slept += delay
            elif code == "shutting-down" and len(self._endpoints) > 1:
                delay = 0.0  # another replica is up: fail over now
            avoid = (ep,) if len(self._endpoints) > 1 else ()
            if delay > 0:
                self._sleep(delay)
        raise RetriesExhausted(
            f"request {obj.get('verb')!r} failed on every endpoint "
            f"({', '.join(e.addr for e in self._endpoints)}) after "
            f"{self.retries + 1} attempts: {last_exc}",
            attempts=self.retries + 1, cause=last_exc)

    # -- verbs (mirror ServiceClient) ----------------------------------- #

    def probe(self, graph: dict, strategy, budget: int, **kw) -> dict:
        return self.request({"verb": "probe", "graph": graph,
                             "strategy": strategy, "budget": budget,
                             **kw})[-1]

    def sweep(self, graph: dict, strategy, budgets: List[int], **kw) -> dict:
        return self.request({"verb": "sweep", "graph": graph,
                             "strategy": strategy,
                             "budgets": list(budgets), **kw})[-1]

    def min_memory(self, graph: dict, strategy, **kw) -> dict:
        return self.request({"verb": "min-memory", "graph": graph,
                             "strategy": strategy, **kw})[-1]

    def health(self) -> dict:
        return self.request({"verb": "health"})[-1]

    def stats(self) -> dict:
        return self.request({"verb": "stats"})[-1]

    # -- observability --------------------------------------------------- #

    def client_stats(self) -> dict:
        """Client-side resilience dump: fleet counters plus per-endpoint
        breaker state (the satellite's observability surface; the soak
        reads hedge/failover behavior from here and amplification from
        the daemons' ``resilience`` stats)."""
        with self._stats_lock:
            lat = sorted(self._latencies)
            return {
                "client_id": self._client_id,
                "requests": self.requests_total,
                "attempts": self.attempts_total,
                "retries": self.retries_total,
                "failovers": self.failovers,
                "transport_failures": self.transport_failures,
                "hedges": {"started": self.hedges_started,
                           "won": self.hedges_won,
                           "lost": self.hedges_lost},
                "retry_after": {"honored": self.retry_after_honored,
                                "slept_s": round(self.retry_after_slept, 4)},
                "breaker_fail_open": self.breaker_fail_open,
                "latency_samples": len(lat),
                "fleet_fingerprint": self._fleet_fingerprint,
                "endpoints": [
                    {"addr": ep.addr, "index": ep.index,
                     "breaker": ep.breaker.state,
                     "breaker_opens": ep.breaker.opens,
                     "draining": ep.draining,
                     "replica": ep.replica_name,
                     "fingerprint": ep.fingerprint,
                     "successes": ep.successes,
                     "failures": ep.failures,
                     "connects": ep.connects}
                    for ep in self._endpoints],
            }

    def close(self) -> None:
        for ep in self._endpoints:
            ep.invalidate()

    def __enter__(self) -> "ResilientClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
