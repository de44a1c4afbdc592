"""Runtime verification of scheduler outputs — the audit gauntlet.

PR 2's fault-tolerance layer handles probes that *crash or hang*; this
module handles the more dangerous failure mode for a result-reproduction
repo: probes that return **silently wrong answers**.  Every check grounds
in a definition of the paper:

* legality — the emitted moves are a valid WRBPG schedule (Def. 2.1 moves
  M1–M4 under the weighted red budget), enforced by replaying through the
  strict simulator;
* honesty — the *reported* cost equals the independently simulated cost
  (Def. 2.2);
* plausibility — the cost respects the algorithmic lower bound
  (Prop. 2.4) and the existence bound (Prop. 2.3);
* optimality — on small instances the cost is cross-checked against the
  :class:`~repro.schedulers.exhaustive.ExhaustiveScheduler` optimum:
  **equality** where the scheduler's declared
  :class:`~repro.schedulers.base.OptimalityContract` claims optimality
  (Thm. 3.5 / Thm. 3.8 families), ``≥`` everywhere else; and
  ``cost_many`` batches are checked item-for-item against repeated
  ``cost`` calls (a corrupted shared DP memo is invisible otherwise).

Audit levels (cumulative):

========== ==========================================================
``off``          no checks — byte-identical to the un-audited engine
``bounds``       lower-bound / existence / malformed-cost checks only
``replay``       + simulate the actual schedule, compare costs
``differential`` + exhaustive-optimum and ``cost_many`` cross-checks
                   on small instances
========== ==========================================================

A failed audit inside the sweep engine **quarantines** the probe: the
violation is recorded as a structured :class:`AuditViolation`, the probe
degrades to the scheduler's designated fallback (exactly like a
guard-stopped probe in :mod:`repro.analysis.faults`), and the budget is flagged
in ``SweepSeries.degraded`` — the sweep survives, the lie does not
poison it.  Without a fallback the typed
:class:`~repro.core.exceptions.AuditFailure` propagates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.bounds import algorithmic_lower_bound, min_feasible_budget
from ..core.cdag import CDAG
from ..core.exceptions import (AuditFailure, GraphStructureError,
                               InfeasibleBudgetError, PebbleGameError,
                               ProbeCancelledError, RuleViolationError,
                               StateSpaceTooLargeError)
from ..core.simulator import simulate

#: Audit levels, weakest to strongest; each includes all before it.
LEVELS = ("off", "bounds", "replay", "differential")

#: Violation kinds an audit can report.
KINDS = (
    "malformed-cost",            # negative / non-integer reported cost
    "below-lower-bound",         # reported < Prop. 2.4 lower bound
    "infeasible-budget-scheduled",  # finite cost below the Prop. 2.3 bound
    "feasibility-mismatch",      # cost() and schedule() disagree on feasibility
    "schedule-error",            # schedule() raised although cost() succeeded
    "invalid-schedule",          # replay rejected a move / budget / stopping
    "replay-cost-mismatch",      # simulated cost != reported cost
    "below-optimum",             # reported < exhaustive optimum (impossible)
    "suboptimal",                # claims optimality but reported > optimum
    "cost-many-mismatch",        # cost_many item disagrees with cost()
)


def level_index(level: str) -> int:
    """Position of ``level`` in :data:`LEVELS` (raises on unknown)."""
    try:
        return LEVELS.index(level)
    except ValueError:
        raise ValueError(
            f"unknown audit level {level!r}; pick from {LEVELS}") from None


@dataclass(frozen=True)
class AuditViolation:
    """One structured audit finding: what was claimed vs. what is true."""

    kind: str  #: one of :data:`KINDS`
    scheduler: str  #: scheduler cache key (stable config identity)
    graph: str  #: graph display name
    budget: Optional[int]  #: probed budget (None = graph default)
    reported: float  #: the cost the scheduler claimed (may be ``inf``)
    expected: Optional[float]  #: the audited truth it conflicts with
    message: str  #: human-readable diagnosis
    move_index: Optional[int] = None  #: offending move, when replay failed

    def describe(self) -> str:
        where = f"{self.scheduler}@{self.graph}#B={self.budget}"
        msg = self.message if len(self.message) <= 160 else \
            self.message[:157] + "..."
        return f"{self.kind}: {where}: {msg}"


def _finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _as_float(value) -> float:
    return float(value) if value is not None else math.nan


@dataclass
class Auditor:
    """Configured audit gauntlet; :meth:`check` runs every enabled level.

    Parameters
    ----------
    level:
        One of :data:`LEVELS`; ``"off"`` makes :meth:`check` a no-op.
    max_exhaustive_nodes:
        Differential checks only run on graphs at or below this size —
        exhaustive pebbling is exponential, so "small instances" is a
        hard gate, not a suggestion.
    max_exhaustive_states:
        State cap handed to the exhaustive oracle; a tripped cap skips
        the differential comparison for that probe (never a violation).
    check_cost_many:
        At the differential level, also re-evaluate the probe through
        ``cost_many`` *and* ``cost`` and demand item-for-item agreement.
    governed:
        The audit is running under resource governance (deadline /
        memory watchdog): the differential oracle runs in *anytime* mode
        and comparisons consume its ``[lb, ub]`` bracket soundly — a
        bracket that spans the probe's reported value decides nothing
        and bumps :attr:`inconclusive` instead of manufacturing a
        violation.  Cooperative cancellations inside a check likewise
        count as inconclusive, never as findings.
    """

    level: str = "off"
    max_exhaustive_nodes: int = 32
    max_exhaustive_states: int = 25_000
    check_cost_many: bool = True
    governed: bool = False

    def __post_init__(self) -> None:
        level_index(self.level)  # validate eagerly
        # (graph id, budget) -> (graph ref, (lb, ub) or None); the ref
        # pins the graph so a recycled id can never alias a stale entry.
        self._opt_cache: dict = {}
        # Shared oracle memo: the A* transposition table inside is keyed
        # per graph (cost_many resets it on a graph change), so budget
        # probes of the same graph reuse heuristic values and search
        # results instead of re-exploring from scratch.
        self._oracle_memo: dict = {}
        #: checks that could not be decided under governance (spanning
        #: oracle bracket, cancelled sub-check) — never violations
        self.inconclusive: int = 0

    @property
    def active(self) -> bool:
        return self.level != "off"

    def config(self) -> dict:
        """Plain-data mirror (pool-worker setup / repro files)."""
        return {"level": self.level,
                "max_exhaustive_nodes": self.max_exhaustive_nodes,
                "max_exhaustive_states": self.max_exhaustive_states,
                "check_cost_many": self.check_cost_many,
                "governed": self.governed}

    # ------------------------------------------------------------------ #

    def check(self, scheduler, cdag: CDAG, budget: Optional[int],
              reported: float) -> List[AuditViolation]:
        """Audit one probe: ``scheduler`` claimed ``reported`` on
        ``(cdag, budget)``.  Returns all violations found (empty = clean).
        """
        i = level_index(self.level)
        if i == 0:
            return []
        violations: List[AuditViolation] = []

        def add(kind: str, message: str, expected=None, move_index=None):
            violations.append(AuditViolation(
                kind=kind, scheduler=scheduler.cache_key(), graph=cdag.name,
                budget=budget, reported=_as_float(reported),
                expected=None if expected is None else float(expected),
                message=message, move_index=move_index))

        self._check_bounds(scheduler, cdag, budget, reported, add)
        if i >= level_index("replay"):
            self._check_replay(scheduler, cdag, budget, reported, add)
        if i >= level_index("differential"):
            self._check_differential(scheduler, cdag, budget, reported, add)
            if self.check_cost_many:
                self._check_cost_many(scheduler, cdag, budget, reported, add)
        return violations

    def check_or_raise(self, scheduler, cdag: CDAG, budget: Optional[int],
                       reported: float) -> None:
        """Like :meth:`check` but raises :class:`AuditFailure` on any
        violation (the no-fallback path)."""
        violations = self.check(scheduler, cdag, budget, reported)
        if violations:
            raise AuditFailure(
                "; ".join(v.describe() for v in violations[:4]),
                violations=violations)

    # ------------------------------------------------------------------ #
    # Level 1: bounds

    def _check_bounds(self, scheduler, cdag, budget, reported, add) -> None:
        # Prop. 2.3/2.4 assume A(G) ∩ Z(G) = ∅.  Degenerate edge-free
        # graphs violate that (every node is both an input and an output,
        # already materialized in slow memory — the empty schedule is
        # valid and free), so the bounds only count non-overlapping
        # sources/sinks and the existence check is skipped there.
        sources, sinks = set(cdag.sources), set(cdag.sinks)
        degenerate = bool(sources & sinks)
        lb = (algorithmic_lower_bound(cdag) if not degenerate else
              cdag.total_weight(sources - sinks)
              + cdag.total_weight(sinks - sources))
        if _finite(reported):
            value = float(reported)
            if value < 0 or not value.is_integer():
                add("malformed-cost",
                    f"reported cost {reported!r} is not a non-negative "
                    f"integer")
                return
            if value < lb:
                add("below-lower-bound",
                    f"reported cost {reported} < algorithmic lower bound "
                    f"{lb} (Prop. 2.4)", expected=lb)
            need = min_feasible_budget(cdag)
            if budget is not None and budget < need and not degenerate:
                add("infeasible-budget-scheduled",
                    f"finite cost {reported} reported at budget {budget} < "
                    f"existence bound {need} (Prop. 2.3: no valid schedule "
                    f"exists)", expected=math.inf)
        elif not (isinstance(reported, float) and math.isinf(reported)):
            add("malformed-cost",
                f"reported cost {reported!r} is neither a finite number "
                f"nor inf")

    # ------------------------------------------------------------------ #
    # Level 2: replay

    def _check_replay(self, scheduler, cdag, budget, reported, add) -> None:
        try:
            sched = scheduler.schedule(cdag, budget)
        except InfeasibleBudgetError:
            if _finite(reported):
                add("feasibility-mismatch",
                    f"cost() reported {reported} but schedule() raised "
                    f"InfeasibleBudgetError at budget {budget}",
                    expected=math.inf)
            return
        except ProbeCancelledError:
            # Governance stopped the re-derivation, not the scheduler:
            # no evidence either way.
            self.inconclusive += 1
            return
        except PebbleGameError as exc:
            if _finite(reported):
                add("schedule-error",
                    f"cost() reported {reported} but schedule() raised "
                    f"{type(exc).__name__}: {exc}")
            return
        try:
            result = simulate(cdag, sched, budget=budget)
        except ProbeCancelledError:
            self.inconclusive += 1
            return
        except PebbleGameError as exc:
            idx = getattr(exc, "index", None)
            add("invalid-schedule",
                f"replay rejected the schedule: {type(exc).__name__}: {exc}",
                move_index=idx)
            return
        if not _finite(reported):
            add("feasibility-mismatch",
                f"cost() reported infeasible at budget {budget} but "
                f"schedule() produced a valid schedule costing "
                f"{result.cost}", expected=result.cost)
        elif result.cost != reported:
            add("replay-cost-mismatch",
                f"reported cost {reported} != simulated cost {result.cost} "
                f"(Def. 2.2 accounting)", expected=result.cost)

    # ------------------------------------------------------------------ #
    # Level 3: differential

    def _oracle(self):
        from ..schedulers.exhaustive import ExhaustiveScheduler
        return ExhaustiveScheduler(max_nodes=self.max_exhaustive_nodes,
                                   max_states=self.max_exhaustive_states,
                                   anytime=self.governed)

    def optimum_bracket(self, cdag: CDAG, budget: Optional[int]
                        ) -> Optional[tuple]:
        """Certified ``(lb, ub)`` on the exhaustive optimum for small
        instances — ``lb == ub`` when the oracle finished, ``(inf, inf)``
        when no valid schedule exists, a strict bracket when governance
        stopped it early, ``None`` when the instance is out of the
        differential regime (too large / state cap tripped ungoverned /
        cancelled without an incumbent)."""
        if len(cdag) > self.max_exhaustive_nodes:
            return None
        key = (id(cdag), budget)
        hit = self._opt_cache.get(key)
        if hit is not None and hit[0] is cdag:
            return hit[1]
        oracle = self._oracle()
        try:
            ub = float(
                oracle.cost_many(cdag, (budget,), memo=self._oracle_memo)[0])
            bag = self._oracle_memo.get("anytime_results")
            ares = bag.pop(budget, None) if bag else None
            bracket = (ub, ub) if ares is None else \
                (float(ares.lower_bound), ub)
        except ProbeCancelledError:
            bracket = None  # cancelled before any incumbent: no evidence
        except (StateSpaceTooLargeError, GraphStructureError):
            bracket = None
        self._opt_cache[key] = (cdag, bracket)
        return bracket

    def optimum(self, cdag: CDAG, budget: Optional[int]) -> Optional[float]:
        """Exhaustive optimum for small instances, ``inf`` when no valid
        schedule exists, ``None`` when the instance is out of the
        differential regime or the governed oracle only produced a
        strict (undecided) bracket."""
        bracket = self.optimum_bracket(cdag, budget)
        if bracket is None or bracket[0] != bracket[1]:
            return None
        return bracket[1]

    def _check_differential(self, scheduler, cdag, budget, reported,
                            add) -> None:
        from ..schedulers.exhaustive import ExhaustiveScheduler
        if isinstance(scheduler, ExhaustiveScheduler):
            return  # comparing the oracle against itself proves nothing
        bracket = self.optimum_bracket(cdag, budget)
        if bracket is None:
            return
        lb, ub = bracket
        exact = lb == ub
        if _finite(reported) and reported < lb:
            # Sound even from a governed bracket: opt >= lb, so nothing
            # can cost less than lb.
            add("below-optimum",
                f"reported cost {reported} < exhaustive optimum "
                f"{'bound ' if not exact else ''}{lb} — no valid schedule "
                f"can cost less", expected=lb)
        if scheduler.claims_optimal(cdag):
            value = _as_float(reported)
            if value > ub:
                # opt <= ub, so a claimed-optimal cost above ub is a lie.
                add("suboptimal",
                    f"contract claims optimality on this family "
                    f"({scheduler.contract.notes or 'no notes'}) but "
                    f"reported {reported} > exhaustive optimum "
                    f"{'bound ' if not exact else ''}{ub}", expected=ub)
            elif not exact and lb <= value <= ub:
                # The bracket spans the claim; optimality can be neither
                # confirmed nor refuted under this budget of search.
                self.inconclusive += 1

    def _check_cost_many(self, scheduler, cdag, budget, reported,
                         add) -> None:
        try:
            batch = scheduler.cost_many(cdag, (budget,))[0]
        except ProbeCancelledError:
            self.inconclusive += 1
            return
        except PebbleGameError as exc:
            add("cost-many-mismatch",
                f"cost_many() raised {type(exc).__name__} although the "
                f"probe reported {reported}: {exc}")
            return
        try:
            single: float = scheduler.cost(cdag, budget)
        except InfeasibleBudgetError:
            single = math.inf
        except ProbeCancelledError:
            self.inconclusive += 1
            return
        except PebbleGameError as exc:
            add("cost-many-mismatch",
                f"cost() raised {type(exc).__name__} although cost_many() "
                f"returned {batch}: {exc}")
            return
        if batch != single:
            add("cost-many-mismatch",
                f"cost_many() item {batch} != repeated cost() {single} — "
                f"batch evaluation must be interchangeable with per-budget "
                f"evaluation", expected=single)
        elif _as_float(reported) != _as_float(batch):
            add("cost-many-mismatch",
                f"probe reported {reported} but a fresh evaluation returns "
                f"{batch} — the scheduler is not deterministic or a shared "
                f"memo was corrupted", expected=batch)


def audit_schedule(scheduler, cdag: CDAG, budget: Optional[int] = None,
                   level: str = "differential") -> List[AuditViolation]:
    """One-shot audit outside the engine: derive the scheduler's reported
    cost, then run the gauntlet at ``level``.  Convenience entry point
    for tests and the fuzz CLI."""
    auditor = Auditor(level=level)
    try:
        reported: float = scheduler.cost(cdag, budget)
    except InfeasibleBudgetError:
        reported = math.inf
    return auditor.check(scheduler, cdag, budget, reported)
