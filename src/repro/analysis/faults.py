"""Fault-tolerance primitives for the sweep engine.

Long sweeps die for boring reasons: one probe hangs (exhaustive pebbling
is PSPACE-complete in general, so a single oversized instance can run
forever), one pool worker segfaults, one flaky cost function hiccups.
This module provides the pieces :class:`repro.analysis.engine.SweepEngine`
composes so a multi-hour sweep survives all three:

* :class:`FaultPolicy` — per-probe wall-clock timeouts and bounded retries
  with exponential backoff + jitter for transient failures.
* :func:`run_probe` — one guarded cost evaluation: times out, retries,
  degrades to a fallback evaluation (recording the probe as an *upper
  bound*), and emits a :class:`FailureRecord` for anything non-clean.

A killed sweep resumes from the durable result store
(:class:`repro.core.store.ResultStore`, ``SweepEngine(store=...)``).

Everything here is policy-off by default: with no timeout, no retries and
no fallback, :func:`run_probe` is a plain function call and the engine's
happy path stays byte-identical to the un-guarded one.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..core.exceptions import (PebbleGameError, ProbeCancelledError,
                               ProbeTimeoutError, StateSpaceTooLargeError)
from ..core.governor import CancellationToken, current_token, governed
from ..core.store import PROVENANCES  # noqa: F401  (the ladder, re-exported)

#: Resolutions a :class:`FailureRecord` can end with.
RESOLUTIONS = ("retried", "degraded", "failed", "redispatched",
               "serial-fallback", "quarantined", "anytime", "inconclusive")

#: Exception types treated as transient (worth retrying) by default.
#: Deterministic game errors (:class:`PebbleGameError`) are never retried —
#: re-running the same scheduler on the same graph cannot change them.
DEFAULT_TRANSIENT = (OSError, ConnectionError, TimeoutError, EOFError)


@dataclass(frozen=True)
class FailureRecord:
    """One non-clean probe or task episode, with how it was resolved.

    ``resolution`` is one of :data:`RESOLUTIONS`:

    * ``"retried"`` — transient failure(s), succeeded within the retry
      budget (``attempts`` counts every try including the winner).
    * ``"degraded"`` — the probe timed out or tripped a state-space guard
      and was answered by the fallback scheduler; the recorded value is an
      upper bound, not the strategy's true cost.
    * ``"failed"`` — exhausted retries (or no fallback available); the
      exception propagated to the caller.
    * ``"redispatched"`` — a pool worker died; the task was re-submitted
      to a rebuilt pool.
    * ``"serial-fallback"`` — repeated pool deaths; the task ran serially
      in the parent process instead.
    * ``"quarantined"`` — the probe's answer failed the audit gauntlet
      (:mod:`repro.analysis.audit`); the recorded value came from the
      fallback scheduler and the violations are in ``stats.violations``.
    * ``"anytime"`` — a governed probe was stopped (deadline, memory
      watchdog, cancel) but returned a certified ``[lb, ub]`` bracket;
      the recorded value is the bracket's achievable upper bound.
    * ``"inconclusive"`` — a bracket spanned the comparison point of a
      feasibility or audit decision; the decision was answered soundly
      (pessimistically) rather than guessed.
    """

    key: str  #: probe/task identity, e.g. ``"fig6:OptimalDWT@DWT(16,4)#B=64"``
    exception: str  #: exception class name
    message: str  #: str(exception), truncated for the report
    attempts: int  #: tries consumed by the episode
    elapsed: float  #: seconds from first try to resolution
    resolution: str  #: one of :data:`RESOLUTIONS`
    context: Optional[dict] = None
    #: structured snapshot from ``exc.context()`` / search stats — for
    #: degraded probes this carries expanded/generated/pruned counters so
    #: ``--profile`` can report search effort even when no exact answer
    #: materialized

    _CTX_KEYS = ("reason", "lb", "ub", "expanded", "generated",
                 "bound_pruned", "dominated")

    def describe(self) -> str:
        msg = self.message if len(self.message) <= 120 else \
            self.message[:117] + "..."
        extra = ""
        if self.context:
            bits = [f"{k}={self.context[k]}" for k in self._CTX_KEYS
                    if self.context.get(k) is not None]
            if bits:
                extra = " {" + " ".join(bits) + "}"
        return (f"{self.key}: {self.exception} after {self.attempts} "
                f"attempt(s) ({self.elapsed:.2f}s) -> {self.resolution}"
                + (f" [{msg}]" if msg else "") + extra)


@dataclass
class FaultPolicy:
    """Knobs for guarded probe evaluation (all off by default).

    ``timeout`` bounds each probe's wall clock; a timed-out evaluation
    thread is told to stop through its cancellation token (cooperative —
    governed schedulers observe it at their next poll and exit instead of
    burning CPU as zombies).  ``deadline`` and ``mem_limit_mb`` arm the
    token's own guards so the probe *itself* stops — with ``anytime``
    set, governed oracles answer with a certified ``[lb, ub]`` bracket
    instead of an error.  ``retries`` bounds re-tries of *transient*
    failures; the n-th retry sleeps ``backoff * 2**n`` seconds, scaled by
    up to ``jitter`` of random spread so herds of workers don't retry in
    lockstep — seed the spread (``seed``) or inject an ``rng`` to make
    retry timing reproducible.
    """

    timeout: Optional[float] = None  #: per-probe wall clock, seconds
    retries: int = 0  #: max re-tries of transient failures
    backoff: float = 0.25  #: base of the exponential retry delay, seconds
    jitter: float = 0.25  #: random spread fraction on top of the backoff
    transient: tuple = DEFAULT_TRANSIENT  #: exception types worth retrying
    max_pool_restarts: int = 2  #: pool rebuilds before serial fallback
    deadline: Optional[float] = None  #: per-probe cooperative deadline, s
    mem_limit_mb: Optional[float] = None  #: RSS watchdog threshold, MiB
    anytime: bool = False  #: degraded probes return brackets, not errors
    seed: Optional[int] = None  #: jitter RNG seed (ships to pool workers)
    rng: Optional[random.Random] = field(default=None, repr=False,
                                         compare=False)
    #: injectable jitter RNG; built from ``seed`` when not supplied

    def __post_init__(self) -> None:
        if self.rng is None and self.seed is not None:
            self.rng = random.Random(self.seed)

    @property
    def active(self) -> bool:
        """True when any guard that changes evaluation batching is on."""
        return self.timeout is not None or self.retries > 0 or self.governed

    @property
    def governed(self) -> bool:
        """True when probes need a cancellation token of their own."""
        return (self.deadline is not None or self.mem_limit_mb is not None
                or self.anytime)

    def make_token(self) -> Optional[CancellationToken]:
        """Per-attempt token chaining under the caller's current one; or
        ``None`` when no guard needs a token at all."""
        if not self.governed and self.timeout is None:
            return None
        return CancellationToken(budget=self.deadline,
                                 mem_limit_mb=self.mem_limit_mb,
                                 anytime=self.anytime,
                                 parent=current_token())

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based), jittered."""
        base = self.backoff * (2.0 ** attempt)
        rng = self.rng if self.rng is not None else random
        return base * (1.0 + self.jitter * rng.random())

    def is_transient(self, exc: BaseException) -> bool:
        return (isinstance(exc, self.transient)
                and not isinstance(exc, PebbleGameError))


def call_with_timeout(fn: Callable[[], object], timeout: Optional[float],
                      key: str = "",
                      token: Optional[CancellationToken] = None) -> object:
    """Run ``fn()`` with a wall-clock bound, governed by ``token``.

    ``timeout=None`` calls ``fn`` directly — under ``governed(token)``
    when one is given, so cooperative guards (deadline, memory watchdog)
    still reach it; with neither, this is a plain call with identical
    semantics.  Otherwise ``fn`` runs on a daemon thread; if it misses
    the deadline a :class:`ProbeTimeoutError` is raised *and the token is
    cancelled* — a governed evaluation observes the cancellation at its
    next poll and exits promptly instead of burning CPU as a zombie
    (ungoverned pure-python cost functions still cannot be interrupted;
    the orphan finishes in the background and its result is discarded).
    """
    if timeout is None:
        if token is None:
            return fn()
        with governed(token):
            return fn()
    box: list = []

    def runner():
        try:
            if token is None:
                box.append((True, fn()))
            else:
                with governed(token):
                    box.append((True, fn()))
        except BaseException as exc:  # propagated below
            box.append((False, exc))

    t = threading.Thread(target=runner, daemon=True,
                         name=f"probe-{key or 'anon'}")
    t.start()
    t.join(timeout)
    if not box:
        if token is not None:
            token.cancel("timeout")
        raise ProbeTimeoutError(
            f"probe {key or '<anonymous>'} exceeded {timeout:.3g}s",
            key=key or None, timeout=timeout)
    ok, payload = box[0]
    if ok:
        return payload
    raise payload


#: Faults that trigger degradation instead of retry: the probe is
#: deterministic, just too expensive — re-running it cannot help, but a
#: cheaper scheduler can still bound it from above.  Cooperative
#: cancellations and memory exhaustion land here too: the guard already
#: decided the probe must not finish.
DEGRADABLE = (ProbeTimeoutError, StateSpaceTooLargeError,
              ProbeCancelledError, MemoryError)


def _exc_context(exc: BaseException) -> Optional[dict]:
    """Best-effort structured context from an exception (satellite of the
    governance layer: every degradable fault carries its search stats)."""
    ctx_fn = getattr(exc, "context", None)
    if callable(ctx_fn):
        try:
            return dict(ctx_fn())
        except Exception:
            return None
    return None


def run_probe(evaluate: Callable[[], object], *, key: str,
              policy: FaultPolicy,
              failures: Optional[List[FailureRecord]] = None,
              fallback: Optional[Callable[[], object]] = None,
              sleep: Callable[[float], None] = time.sleep,
              token: Optional[CancellationToken] = None
              ) -> Tuple[object, bool]:
    """One guarded evaluation.  Returns ``(value, degraded)``.

    * Transient exceptions (``policy.transient``) are retried up to
      ``policy.retries`` times with exponential backoff + jitter.
    * :data:`DEGRADABLE` faults (timeout, state-space guard, cooperative
      cancellation, memory exhaustion) switch to ``fallback()`` when one
      is provided — the result is flagged ``degraded=True`` (an upper
      bound) — and fail otherwise.  The fallback runs *ungoverned*: the
      last rung of the ladder must not itself be cancellable.
    * Deterministic game errors propagate immediately (the evaluation
      itself maps infeasibility to ∞ before this layer sees it).

    When the policy is governed (deadline / memory cap / anytime) or has
    a timeout, each attempt runs under a fresh :class:`CancellationToken`
    (chained to the caller's current one) unless ``token`` supplies one
    explicitly.  Every non-clean episode appends one
    :class:`FailureRecord` — carrying the fault's structured ``context()``
    where available — to ``failures``.  With the default policy and no
    fallback this reduces to ``(evaluate(), False)`` — no threads, no
    tokens, no records, no overhead.
    """
    attempts = 0
    t0 = time.perf_counter()

    def record(exc: BaseException, resolution: str) -> None:
        if failures is not None:
            failures.append(FailureRecord(
                key=key, exception=type(exc).__name__, message=str(exc),
                attempts=attempts, elapsed=time.perf_counter() - t0,
                resolution=resolution, context=_exc_context(exc)))

    while True:
        attempts += 1
        tok = token if token is not None else policy.make_token()
        try:
            value = call_with_timeout(evaluate, policy.timeout, key=key,
                                      token=tok)
            break
        except DEGRADABLE as exc:
            if fallback is not None:
                with governed(None):
                    value = fallback()
                record(exc, "degraded")
                return value, True
            record(exc, "failed")
            raise
        except Exception as exc:
            if not policy.is_transient(exc) or attempts > policy.retries:
                record(exc, "failed")
                raise
            last_exc = exc
            sleep(policy.delay(attempts - 1))
    if attempts > 1:
        record(last_exc, "retried")
    return value, False
