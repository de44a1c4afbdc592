"""Cooperative cancellation primitives and anytime results.

Optimal red-blue pebbling is PSPACE-complete in general, so every
exhaustive probe is one bad instance away from running forever.  This
module provides resource governance for every layer (the fault policies
and the degradation ladder that consume it live in
:mod:`repro.analysis.faults`; :mod:`repro.analysis` re-exports the
public names):

* :class:`CancellationToken` — a deadline + memory watchdog + external
  cancel flag that hot loops poll cooperatively.  Polling is strided
  (one cheap counter decrement per iteration, a real clock/RSS check
  every ``poll_interval`` iterations), so an ungoverned loop pays one
  ``is not None`` test and a governed one stays within a bounded
  staleness of its limits.
* a **thread-local active token** (:func:`current_token` /
  :func:`governed`) so the token reaches the hot loops of the search
  cores, the DP schedulers and the simulator without threading a
  parameter through every signature.  The fault layer installs a probe's
  token around the evaluation; a cancelled or expired token makes the
  evaluation stop at its next poll and release its resources.
* :class:`AnytimeResult` — the graceful answer of a governed search:
  the best incumbent schedule found so far (``upper_bound`` is its
  simulated cost), an admissible ``lower_bound`` from the open frontier,
  the termination reason, and the search statistics.
* :func:`install_rlimit` — the process-level backstop pool workers
  install before evaluating probes under a memory cap.

Everything is inert by default: with no token installed, every poll site
reduces to a ``None`` check and behavior is byte-identical to the
ungoverned code.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from .exceptions import ProbeCancelledError
from .schedule import Schedule

__all__ = ["REASONS", "SOURCES", "CancellationToken", "AnytimeResult",
           "TokenBucket", "chained_token", "current_token", "governed",
           "process_rss_mb", "install_rlimit", "RLIMIT_HEADROOM"]

#: Termination reasons a governed search can end with.  ``"exact"`` means
#: the search completed; everything else names the guard that stopped it.
REASONS = ("exact", "deadline", "memory", "states", "cancelled",
           "too-large")

#: Where an :class:`AnytimeResult`'s upper bound (and schedule) came from.
SOURCES = ("search", "greedy")

_PAGE_BYTES = None


def process_rss_mb() -> Optional[float]:
    """Current resident set size of this process in MiB, or ``None`` when
    it cannot be measured on this platform (the memory watchdog then
    degrades to a no-op rather than guessing)."""
    global _PAGE_BYTES
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        if _PAGE_BYTES is None:
            _PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
        return pages * _PAGE_BYTES / (1024.0 * 1024.0)
    except (OSError, ValueError, IndexError):
        pass
    try:  # fallback: peak RSS (monotone, still catches runaway growth)
        import resource
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return rss_kb / 1024.0
    except (ImportError, OSError):  # pragma: no cover - platform dependent
        return None


#: Address-space headroom multiplier for :func:`install_rlimit`: the RSS
#: watchdog is the precise guard; the rlimit is a backstop against runaway
#: native allocations the cooperative poll never sees, so it sits well
#: above the watchdog threshold to avoid spurious ``MemoryError`` from
#: ordinary interpreter overhead and arena fragmentation.
RLIMIT_HEADROOM = 4.0


def install_rlimit(mem_limit_mb: Optional[float],
                   headroom: float = RLIMIT_HEADROOM) -> bool:
    """Install a hard address-space cap in *this* process (pool workers).

    Sets ``RLIMIT_AS`` to ``mem_limit_mb * headroom`` MiB — but never
    *raises* an existing tighter limit.  Returns ``True`` when a limit
    was installed, ``False`` when ``mem_limit_mb`` is ``None`` or the
    platform refuses (no :mod:`resource` module, or the kernel rejects
    the value); failure is silent by design — the cooperative RSS
    watchdog remains the primary guard either way.
    """
    if mem_limit_mb is None:
        return False
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return False
    limit = int(mem_limit_mb * headroom * 1024 * 1024)
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        for cur in (soft, hard):
            if cur != resource.RLIM_INFINITY and cur < limit:
                return False  # an existing tighter cap wins
        new_hard = hard if hard != resource.RLIM_INFINITY else limit
        resource.setrlimit(resource.RLIMIT_AS, (limit, max(limit, new_hard)))
    except (ValueError, OSError):  # pragma: no cover - platform-dependent
        return False
    return True


class CancellationToken:
    """Cooperative cancellation: deadline + memory watchdog + external flag.

    Hot loops call :meth:`poll` (returns the cancellation reason or
    ``None``) or :meth:`raise_if_cancelled`.  The token is thread-safe in
    the ways that matter: :meth:`cancel` publishes a plain attribute
    under the GIL, so a poll from any thread observes it on its next
    check — this is how a draining daemon stops its in-flight probes.

    Parameters
    ----------
    deadline:
        Absolute :func:`time.monotonic` instant after which the token
        cancels itself (reason ``"deadline"``).
    budget:
        Convenience: seconds from now; folded into ``deadline`` (the
        earlier of the two wins).
    mem_limit_mb:
        Cancel (reason ``"memory"``) once the process RSS exceeds this
        many MiB.  Checked on the strided full checks only.
    anytime:
        Advisory flag consumed by search cores: when set, a governed
        search should answer cancellation with a best-effort
        :class:`AnytimeResult` bracket instead of raising.
    parent:
        Optional enclosing token; cancellation of the parent cancels this
        token at its next full check (per-probe tokens nest under a
        whole-sweep token this way).
    poll_interval:
        Iterations between full (clock + memory) checks.
    """

    __slots__ = ("deadline", "mem_limit_mb", "anytime", "parent",
                 "poll_interval", "_clock", "_rss_fn", "_reason",
                 "_countdown")

    def __init__(self, *, deadline: Optional[float] = None,
                 budget: Optional[float] = None,
                 mem_limit_mb: Optional[float] = None,
                 anytime: bool = False,
                 parent: Optional["CancellationToken"] = None,
                 poll_interval: int = 512,
                 clock: Callable[[], float] = time.monotonic,
                 rss_fn: Callable[[], Optional[float]] = process_rss_mb):
        if budget is not None:
            d = clock() + budget
            deadline = d if deadline is None else min(deadline, d)
        self.deadline = deadline
        self.mem_limit_mb = mem_limit_mb
        self.anytime = bool(anytime)
        self.parent = parent
        self.poll_interval = max(1, int(poll_interval))
        self._clock = clock
        self._rss_fn = rss_fn
        self._reason: Optional[str] = None
        self._countdown = 1  # first poll always does a full check

    # ------------------------------------------------------------------ #

    def cancel(self, reason: str = "cancelled") -> None:
        """Cancel externally (idempotent; the first reason sticks)."""
        if self._reason is None:
            self._reason = reason

    @property
    def reason(self) -> Optional[str]:
        """The cancellation reason, or ``None`` while live.  Does not run
        a full check; use :meth:`poll` to also evaluate the guards."""
        if self._reason is None and self.parent is not None:
            return self.parent.reason
        return self._reason

    @property
    def cancelled(self) -> bool:
        return self.check() is not None

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (``None`` = unbounded)."""
        if self.deadline is None:
            return None
        return self.deadline - self._clock()

    # ------------------------------------------------------------------ #

    def check(self) -> Optional[str]:
        """Full guard evaluation: external flag, parent, deadline, RSS."""
        if self._reason is not None:
            return self._reason
        if self.parent is not None:
            r = self.parent.check()
            if r is not None:
                self._reason = r
                return r
        if self.deadline is not None and self._clock() >= self.deadline:
            self._reason = "deadline"
            return self._reason
        if self.mem_limit_mb is not None:
            rss = self._rss_fn()
            if rss is not None and rss > self.mem_limit_mb:
                self._reason = "memory"
                return self._reason
        return None

    def poll(self) -> Optional[str]:
        """Strided check for hot loops: O(1) fast path, a full
        :meth:`check` every ``poll_interval`` calls.  Returns the
        cancellation reason, or ``None`` to keep going."""
        if self._reason is not None:
            return self._reason
        self._countdown -= 1
        if self._countdown > 0:
            return None
        self._countdown = self.poll_interval
        return self.check()

    def raise_if_cancelled(self, where: str = "") -> None:
        """Strided check that raises :class:`ProbeCancelledError`."""
        r = self.poll()
        if r is not None:
            raise ProbeCancelledError(
                f"{where or 'probe'} cancelled ({r})", reason=r)


def chained_token(*, budget: Optional[float] = None,
                  deadline: Optional[float] = None,
                  mem_limit_mb: Optional[float] = None,
                  anytime: bool = False,
                  parent: Optional[CancellationToken] = None,
                  poll_interval: int = 512) -> CancellationToken:
    """A :class:`CancellationToken` chained under ``parent`` — or, when
    ``parent`` is ``None``, under the thread's currently installed token
    (:func:`current_token`), so nested scopes compose automatically:
    cancelling any ancestor cancels this token at its next full check.
    The service layer uses this to hang a per-request deadline/memory cap
    under the per-tenant budget token, which itself hangs under the
    daemon-wide drain token."""
    return CancellationToken(budget=budget, deadline=deadline,
                             mem_limit_mb=mem_limit_mb, anytime=anytime,
                             parent=parent if parent is not None
                             else current_token(),
                             poll_interval=poll_interval)


class TokenBucket:
    """Classic token-bucket rate limiter (thread-safe, injectable clock).

    The bucket holds up to ``capacity`` tokens and refills continuously
    at ``rate`` tokens per second.  :meth:`try_acquire` either debits the
    requested tokens and returns ``True``, or leaves the bucket untouched
    and returns ``False`` — it never blocks, because the service layer
    answers an over-budget tenant with a structured rejection instead of
    queueing them (:meth:`wait_time` tells the caller how long to advise
    the client to back off).

    ``rate=None`` builds an unlimited bucket: every acquire succeeds and
    the wait time is always zero — the inert default, so governance-off
    service configs pay one ``is None`` test per request.
    """

    __slots__ = ("rate", "capacity", "_tokens", "_stamp", "_clock", "_lock")

    def __init__(self, rate: Optional[float], capacity: Optional[float] = None,
                 *, clock: Callable[[], float] = time.monotonic):
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be positive or None, got {rate!r}")
        self.rate = rate
        self.capacity = (float(capacity) if capacity is not None
                         else (rate if rate is not None else 0.0))
        if rate is not None and self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self._tokens = self.capacity
        self._clock = clock
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._stamp
        self._stamp = now
        if elapsed > 0:
            self._tokens = min(self.capacity,
                               self._tokens + elapsed * self.rate)

    @property
    def available(self) -> float:
        """Tokens currently in the bucket (∞ for an unlimited bucket)."""
        if self.rate is None:
            return float("inf")
        with self._lock:
            self._refill()
            return self._tokens

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Debit ``tokens`` if available; never blocks."""
        if self.rate is None:
            return True
        with self._lock:
            self._refill()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def wait_time(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` would be available (0.0 when they
        already are) — advisory retry-after for rejected callers."""
        if self.rate is None:
            return 0.0
        with self._lock:
            self._refill()
            deficit = tokens - self._tokens
            return max(0.0, deficit / self.rate)


# --------------------------------------------------------------------- #
# Thread-local active token


_tls = threading.local()


def current_token() -> Optional[CancellationToken]:
    """The token governing this thread, or ``None`` (ungoverned)."""
    return getattr(_tls, "token", None)


@contextlib.contextmanager
def governed(token: Optional[CancellationToken]):
    """Install ``token`` as this thread's active token for the block.

    ``governed(None)`` suspends governance — the degradation ladder uses
    it so a last-resort fallback (greedy) can never itself be cancelled.
    """
    prev = getattr(_tls, "token", None)
    _tls.token = token
    try:
        yield token
    finally:
        _tls.token = prev


# --------------------------------------------------------------------- #
# Anytime results


@dataclass(frozen=True)
class AnytimeResult:
    """Best-effort answer of a governed (or completed) optimal search.

    The invariant is ``lower_bound <= optimum <= upper_bound``:
    ``lower_bound`` is admissible (min ``f`` over the surviving open
    frontier, tightened by transposition-table monotonicity brackets) and
    ``upper_bound`` is the simulated cost of ``schedule`` — the best
    incumbent the search touched, or the greedy fallback when it touched
    none.  ``reason == "exact"`` means the search finished and the
    bracket is closed (``lower_bound == upper_bound``).
    """

    lower_bound: float  #: admissible bound: no schedule can cost less
    upper_bound: float  #: achievable: the cost of ``schedule`` (inf = none)
    schedule: Optional[Schedule]  #: the schedule achieving ``upper_bound``
    reason: str  #: one of :data:`REASONS`
    source: str = "search"  #: one of :data:`SOURCES`
    stats: Dict[str, int] = field(default_factory=dict)
    #: search counters at termination (:class:`~repro.schedulers.search.SearchStats`)

    @property
    def exact(self) -> bool:
        return self.reason == "exact"

    @property
    def gap(self) -> float:
        """Absolute bracket width (0 for exact results)."""
        return self.upper_bound - self.lower_bound

    def decides(self, threshold: float) -> Optional[bool]:
        """Sound comparison against a threshold: ``True`` when the
        optimum is certainly ``<= threshold`` (``upper_bound`` proves
        it), ``False`` when certainly ``>`` (``lower_bound`` proves it),
        and ``None`` when the bracket spans the threshold — the caller
        must record the probe *inconclusive*, never guess."""
        if self.upper_bound <= threshold:
            return True
        if self.lower_bound > threshold:
            return False
        return None

    def describe(self) -> str:
        lb, ub = self.lower_bound, self.upper_bound
        return (f"[{lb:g}, {ub:g}] ({self.reason}, via {self.source}, "
                f"gap {self.gap:g})")
