"""Exception hierarchy for the Weighted Red-Blue Pebble Game (WRBPG).

All library errors derive from :class:`PebbleGameError` so callers can catch
one base class.  Rule-level violations carry the offending move and its index
within the schedule to make failed validations debuggable.
"""

from __future__ import annotations


class PebbleGameError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphStructureError(PebbleGameError):
    """The CDAG violates a structural requirement (cycle, bad weight, ...)."""


class StateSpaceTooLargeError(GraphStructureError):
    """An exhaustive search refused to run: the configuration space implied
    by the graph (and budget) exceeds a guard.

    Optimal red-blue pebbling is PSPACE-complete in general [Demaine & Liu
    '18], so exhaustive solvers cap the graphs they accept.  Subclassing
    :class:`GraphStructureError` keeps pre-existing ``except`` clauses
    working while letting fault-tolerant drivers catch this case
    specifically and degrade to a heuristic scheduler.

    Attributes
    ----------
    size:
        The offending measure (node count or settled-state count).
    limit:
        The guard it exceeded.
    stats:
        Optional dict of search counters captured at the moment the guard
        tripped (states expanded/generated, bound-pruned counts,
        heuristic evaluations — see
        :class:`repro.schedulers.search.SearchStats`).
    """

    def __init__(self, message: str, size=None, limit=None, stats=None):
        super().__init__(message)
        self.size = size
        self.limit = limit
        self.stats = dict(stats) if stats else {}

    def context(self) -> dict:
        """Structured snapshot for logs and failure records: the tripped
        guard plus whatever heuristic/pruning statistics the search
        collected before it gave up."""
        ctx = {"size": self.size, "limit": self.limit}
        ctx.update(self.stats)
        return ctx


class ProbeCancelledError(PebbleGameError):
    """A governed computation observed its cancellation token and stopped.

    Raised by the cooperative poll sites (search cores, DP schedulers,
    schedule replay) when the active :class:`repro.core.governor.
    CancellationToken` fires in *strict* (non-anytime) mode: a missed
    ``--deadline``, the memory watchdog, or an external cancel.  The
    computation itself stopped promptly and released its resources; the
    sweep engine degrades the probe to its fallback scheduler (see
    :mod:`repro.analysis.faults`).

    Attributes
    ----------
    reason:
        Why the token fired: one of ``repro.core.governor.REASONS``
        (``"deadline"``, ``"memory"``, ``"cancelled"``) or the reason
        string an external :meth:`~repro.core.governor.CancellationToken.
        cancel` passed.
    key:
        Identity of the cancelled probe when known, or ``None``.
    stats:
        Optional dict of search counters captured at cancellation (see
        :class:`repro.schedulers.search.SearchStats`).
    """

    def __init__(self, message: str, reason=None, key=None, stats=None):
        super().__init__(message)
        self.reason = reason
        self.key = key
        self.stats = dict(stats) if stats else {}

    def context(self) -> dict:
        """Structured snapshot for logs and failure records."""
        ctx = {"reason": self.reason}
        ctx.update(self.stats)
        return ctx


class InfeasibleBudgetError(PebbleGameError):
    """No valid WRBPG schedule exists for the given budget (Prop. 2.3)."""


class InvalidScheduleError(PebbleGameError):
    """A schedule is malformed independent of game state (unknown node, ...).

    Attributes
    ----------
    move:
        The offending move when the malformation surfaced mid-replay, or
        ``None`` for document-level problems (bad JSON field, ...).
    index:
        Zero-based position of the move in the schedule, or ``None``.
    """

    def __init__(self, message: str, move=None, index=None):
        super().__init__(message)
        self.move = move
        self.index = index


class AuditFailure(PebbleGameError):
    """A scheduler's reported result failed a runtime audit check.

    Raised by :mod:`repro.analysis.audit` when a probe cannot be
    quarantined (no fallback scheduler to degrade to).  ``violations``
    holds the structured :class:`~repro.analysis.audit.AuditViolation`
    records that triggered it.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class RuleViolationError(PebbleGameError):
    """A move is illegal in the current snapshot (Sec. 2.1 move rules).

    Attributes
    ----------
    move:
        The offending move, or ``None`` when the violation is not tied to a
        single move (e.g. a failed stopping condition).
    index:
        Zero-based position of the move in the schedule, or ``None``.
    """

    def __init__(self, message: str, move=None, index=None):
        super().__init__(message)
        self.move = move
        self.index = index


class BudgetExceededError(RuleViolationError):
    """A move pushed the total weight of red pebbles above the budget B."""


class StoppingConditionError(RuleViolationError):
    """The schedule ended without blue pebbles on every sink node."""
