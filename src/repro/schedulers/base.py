"""Scheduler interface shared by all WRBPG scheduling strategies."""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.cdag import CDAG
from ..core.exceptions import InfeasibleBudgetError
from ..core.schedule import Schedule


@dataclass(frozen=True)
class OptimalityContract:
    """What a scheduler *promises* about its results, per graph family.

    Every concrete scheduler declares one (see
    :mod:`repro.schedulers.families` for the tags).  The differential
    audit harness (:mod:`repro.analysis.audit`) consumes it: on small
    instances the reported cost must **equal** the exhaustive optimum for
    families in ``optimal_on`` and may only be **≥** it elsewhere, and
    :mod:`repro.schedulers.auto` must never route a family to a scheduler
    whose ``accepts`` excludes it.

    Attributes
    ----------
    accepts:
        Family tags the scheduler can produce valid schedules for;
        ``("*",)`` means any CDAG.  A scheduler handed a graph outside
        these families may raise ``GraphStructureError``.
    optimal_on:
        Family tags on which the reported cost is provably the WRBPG
        optimum (``("*",)`` for the exhaustive oracle, ``()`` for
        heuristics).  Must be a subset of what the scheduler accepts.
    notes:
        One-line provenance of the claim (theorem / proposition number).
    """

    accepts: tuple = ("*",)
    optimal_on: tuple = ()
    notes: str = ""


class Scheduler(abc.ABC):
    """A strategy producing valid WRBPG schedules for a family of CDAGs.

    Subclasses implement :meth:`schedule`; they may refuse graphs outside
    their family by raising :class:`~repro.core.exceptions.GraphStructureError`.
    All returned schedules must replay cleanly through
    :func:`repro.core.simulator.simulate` under the given budget.
    """

    #: Human-readable name used in reports and figures.
    name: str = "scheduler"

    #: The declared optimality contract.  Every concrete scheduler class
    #: MUST declare its own (a parametrized test enforces this) so the
    #: differential audit knows where equality with the exhaustive
    #: optimum is required versus merely ``≥``.
    contract: OptimalityContract = OptimalityContract()

    @abc.abstractmethod
    def schedule(self, cdag: CDAG, budget: Optional[int] = None) -> Schedule:
        """Produce a valid schedule for ``cdag`` under ``budget``
        (default: the graph's own budget)."""

    # -- optimality contract ------------------------------------------- #

    def accepts(self, cdag: CDAG) -> bool:
        """True when this scheduler's contract covers ``cdag``'s family.

        The default intersects the contract's ``accepts`` tags with the
        structural classification of the graph; subclasses with extra
        instance-level restrictions (arity caps, shape parameters bound
        at construction) refine it.
        """
        from .families import graph_families
        if "*" in self.contract.accepts:
            return True
        return bool(set(self.contract.accepts) & graph_families(cdag))

    def claims_optimal(self, cdag: CDAG) -> bool:
        """True when the contract promises the exhaustive optimum on
        ``cdag`` — the differential audit then demands equality, not
        just ``≥``."""
        from .families import graph_families
        if "*" in self.contract.optimal_on:
            return True
        return bool(set(self.contract.optimal_on) & graph_families(cdag))

    def cost(self, cdag: CDAG, budget: Optional[int] = None) -> int:
        """Weighted I/O cost of this strategy on ``cdag``.

        The default computes it from the generated schedule; subclasses with
        closed-form costs may override for speed (tests cross-check both).
        """
        return self.schedule(cdag, budget).cost(cdag)

    def cost_many(self, cdag: CDAG, budgets: Sequence[Optional[int]],
                  *, memo: Optional[dict] = None) -> List[float]:
        """Weighted I/O cost at each budget, ``math.inf`` where infeasible.

        Returns one entry per budget, aligned with ``budgets``; feasible
        entries equal :meth:`cost` exactly (same value *and* type), so
        batch evaluation is interchangeable with per-budget evaluation.

        ``memo`` is an opaque mutable mapping owned by the caller (for
        example a sweep engine's cached cost function).  Subclasses whose
        cost comes from a budget-indexed DP may stash their memo tables in
        it so the work of one probe is reused by every later probe on the
        same graph — across budgets within this call *and* across calls
        that pass the same mapping.  The base implementation simply loops
        over :meth:`cost` and ignores ``memo``.
        """
        out: List[float] = []
        for b in budgets:
            try:
                out.append(self.cost(cdag, b))
            except InfeasibleBudgetError:
                out.append(math.inf)
        return out

    def cache_key(self) -> str:
        """Stable identity of this strategy *configuration* for persisted
        probe caches (the durable result store, see :mod:`repro.core.store`).

        Two scheduler instances with the same cache key must produce the
        same cost on every (graph, budget) — a resumed sweep trusts saved
        probes keyed by it.  The default folds in the class name and every
        plain-data constructor attribute (ints, floats, strings, bools,
        tuples, ``None``), so parameterized strategies (eviction policy,
        retention mode, tile shape, ...) separate automatically.  Override
        only for schedulers configured through non-plain state.
        """
        parts = [type(self).__name__]
        for attr in sorted(vars(self)):
            value = vars(self)[attr]
            if value is None or isinstance(value, (int, float, str, bool,
                                                   tuple)):
                parts.append(f"{attr}={value!r}")
        return "|".join(parts)

    def fallback_scheduler(self) -> Optional["Scheduler"]:
        """The strategy a fault-tolerant driver degrades to when this one
        times out or refuses an instance (state-space guard).

        The fallback must accept every graph this scheduler accepts and be
        cheap enough to never need a fallback of its own; its cost is an
        *upper bound* on this scheduler's, and probes answered by it are
        marked ``degraded``.  ``None`` (the default) means "no designated
        fallback — let the fault propagate"."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
