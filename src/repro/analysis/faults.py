"""Fault-tolerance primitives for the sweep engine.

Long sweeps die for boring reasons: one probe runs away (exhaustive
pebbling is PSPACE-complete in general, so a single oversized instance
can run forever) or one pool worker segfaults.  This module provides the
per-probe half of what :class:`repro.analysis.engine.SweepEngine`
composes so a multi-hour sweep survives both:

* :class:`FaultPolicy` — the per-probe guards: a cooperative deadline, an
  RSS watchdog and the anytime flag, armed on one
  :class:`~repro.core.governor.CancellationToken` per probe.
* :func:`run_probe` — one guarded cost evaluation: runs under the
  probe's token, degrades to a fallback evaluation (recording the probe
  as an *upper bound*) when the guard stops it, and emits a
  :class:`FailureRecord` for anything non-clean.

Dead pool workers are re-dispatched by :meth:`SweepEngine.map`, and a
killed sweep resumes from the durable result store
(:class:`repro.core.store.ResultStore`, ``SweepEngine(store=...)``).

Everything here is policy-off by default: with no deadline, no memory
cap and no fallback, :func:`run_probe` is a plain call under the
caller's ambient token and the engine's output is byte-identical to an
un-guarded evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..core.exceptions import ProbeCancelledError, StateSpaceTooLargeError
from ..core.governor import CancellationToken, current_token, governed
from ..core.store import PROVENANCES  # noqa: F401  (the ladder, re-exported)

#: Resolutions a :class:`FailureRecord` can end with.
RESOLUTIONS = ("degraded", "failed", "redispatched", "serial-fallback",
               "quarantined", "anytime", "inconclusive")


@dataclass(frozen=True)
class FailureRecord:
    """One non-clean probe or task episode, with how it was resolved.

    ``resolution`` is one of :data:`RESOLUTIONS`:

    * ``"degraded"`` — the probe was stopped by its guard (deadline,
      memory watchdog, cancel, state-space cap) and was answered by the
      fallback scheduler; the recorded value is an upper bound, not the
      strategy's true cost.
    * ``"failed"`` — the evaluation raised and no fallback applied; the
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
                 "bound_pruned")

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
    """The per-probe guards (all off by default).

    ``deadline`` (seconds) and ``mem_limit_mb`` (MiB) arm each probe's
    own cancellation token, so a governed evaluator stops *itself* at its
    next poll; with ``anytime`` set, governed oracles answer with a
    certified ``[lb, ub]`` bracket instead of an error.  Every exponential
    evaluator polls the token (both oracle cores, the DWT, k-ary and
    k-DWT DPs, schedule replay); the polynomial ones (greedy,
    layer-by-layer, the eviction heuristics, the closed-form tilers,
    IOOpt) run to completion.
    """

    deadline: Optional[float] = None  #: per-probe cooperative deadline, s
    mem_limit_mb: Optional[float] = None  #: RSS watchdog threshold, MiB
    anytime: bool = False  #: degraded probes return brackets, not errors

    @property
    def governed(self) -> bool:
        """True when probes need a cancellation token of their own."""
        return (self.deadline is not None or self.mem_limit_mb is not None
                or self.anytime)

    def make_token(self) -> Optional[CancellationToken]:
        """Per-probe token chained under the caller's current one; or
        ``None`` when the policy is ungoverned."""
        if not self.governed:
            return None
        return CancellationToken(budget=self.deadline,
                                 mem_limit_mb=self.mem_limit_mb,
                                 anytime=self.anytime,
                                 parent=current_token())


#: Faults that trigger degradation: the probe is deterministic, just too
#: expensive — re-running it cannot help, but a cheaper scheduler can
#: still bound it from above.  Cooperative cancellations and memory
#: exhaustion land here too: the guard already decided the probe must not
#: finish.
DEGRADABLE = (StateSpaceTooLargeError, ProbeCancelledError, MemoryError)


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
              fallback: Optional[Callable[[], object]] = None
              ) -> Tuple[object, bool]:
    """One guarded evaluation.  Returns ``(value, degraded)``.

    A governed policy runs ``evaluate()`` under a fresh
    :class:`CancellationToken` chained to the caller's current one; an
    ungoverned policy runs it under the caller's ambient token (a service
    request's, say), or none.

    * :data:`DEGRADABLE` faults (state-space guard, cooperative
      cancellation, memory exhaustion) switch to ``fallback()`` when one
      is provided — the result is flagged ``degraded=True`` (an upper
      bound) — and fail otherwise.  The fallback runs *ungoverned*: the
      last rung of the ladder must not itself be cancellable.
    * Any other exception propagates at once (the evaluation itself maps
      infeasibility to ∞ before this layer sees it).

    Every non-clean episode appends one :class:`FailureRecord` — carrying
    the fault's structured ``context()`` where available — to
    ``failures``.  A clean ungoverned probe is ``(evaluate(), False)``:
    no token, no record.
    """
    t0 = time.perf_counter()

    def record(exc: BaseException, resolution: str) -> None:
        if failures is not None:
            failures.append(FailureRecord(
                key=key, exception=type(exc).__name__, message=str(exc),
                attempts=1, elapsed=time.perf_counter() - t0,
                resolution=resolution, context=_exc_context(exc)))

    token = policy.make_token()
    try:
        if token is None:
            return evaluate(), False
        with governed(token):
            return evaluate(), False
    except DEGRADABLE as exc:
        if fallback is None:
            record(exc, "failed")
            raise
        with governed(None):
            value = fallback()
        record(exc, "degraded")
        return value, True
    except Exception as exc:
        record(exc, "failed")
        raise
