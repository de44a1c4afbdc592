"""Cached, parallel, instrumented, fault-tolerant sweep/min-memory engine.

Every headline artifact of the paper (Fig. 5 budget sweeps, Fig. 6
min-memory curves, Table 1) is produced by repeatedly evaluating
``scheduler.cost(cdag, budget)`` over budget grids and binary searches.
This module amortizes those probes instead of re-deriving each one from
scratch:

* :class:`CachedCostFn` memoizes budget → cost per (scheduler, graph)
  pair, so a budget probed by both the Fig. 5 grid and the Fig. 6/Table 1
  binary searches is computed once.  Scheduler-backed cost functions are
  evaluated through :meth:`repro.schedulers.base.Scheduler.cost_many`
  with a persistent ``memo`` mapping, letting DP schedulers share their
  budget-indexed memo tables across probes.
* :class:`SweepEngine` drives sweeps and min-memory searches over the
  cached cost functions, fans independent evaluation tasks out over a
  ``ProcessPoolExecutor`` (``jobs > 1``) with deterministic result
  ordering and a strictly serial ``jobs == 1`` fallback, and aggregates
  per-evaluation instrumentation into a :class:`SweepStats` report.

Long sweeps also survive partial failure (see
:mod:`repro.analysis.faults`):

* one **probe guard** — every fresh probe runs under a cancellation
  token; ``deadline=``/``mem_limit_mb=`` arm a per-probe one, so a
  runaway evaluation stops itself at its next poll;
* **graceful degradation** — a probe stopped by its guard (deadline,
  memory watchdog, exhaustive state-space cap) is answered by the
  scheduler's designated fallback (greedy / layer-by-layer / ...) and
  flagged ``degraded`` instead of killing the sweep;
* **worker-crash recovery** — a ``BrokenProcessPool`` rebuilds the pool
  and re-dispatches only the lost tasks, degrading to serial in-process
  execution after repeated pool deaths;
* **resume** — completed ``(scheduler, graph, budget) → cost`` probes
  are written through to a durable :class:`~repro.core.store.ResultStore`
  (``store=`` kwarg / ``--store`` flag) and re-seed the caches of a
  resumed run.

And, orthogonally, wrong answers are caught (see
:mod:`repro.analysis.audit`): with ``audit=`` above ``"off"`` every fresh
probe runs the audit gauntlet — lower-bound/replay/differential checks —
and a failed audit **quarantines** the probe: the violation is recorded
as a structured ``AuditViolation``, the probe is answered by the fallback
scheduler (flagged ``degraded``, exactly like a guard-stopped probe),
and the sweep continues.

The engine never changes results: cached, parallel, and resumed paths
return values identical to the direct serial path (the tests assert
bit-identical series on DWT and MVM instances).  With all fault-tolerance
knobs at their defaults and no faults occurring, output is byte-identical
to the un-guarded engine.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.bounds import algorithmic_lower_bound, min_feasible_budget
from ..core.cdag import CDAG
from ..core.exceptions import AuditFailure
from ..core.governor import CancellationToken, governed, install_rlimit
from .audit import Auditor, AuditViolation
from .faults import FailureRecord, FaultPolicy, run_probe
from .min_memory import cost_at, minimum_fast_memory
from .sweep import SweepSeries

CostFn = Callable[[int], float]

#: ``fallback="auto"`` asks each scheduler for its designated fallback.
AUTO_FALLBACK = "auto"

#: Pool rebuilds :meth:`SweepEngine.map` tolerates before it runs the
#: remaining tasks serially in-process.
MAX_POOL_RESTARTS = 2


# --------------------------------------------------------------------- #
# Instrumentation


@dataclass
class SweepStats:
    """Aggregated instrumentation of one engine (or one merged run)."""

    probes: int = 0  #: cost-function lookups requested
    cache_hits: int = 0  #: probes answered from the budget cache
    evals: int = 0  #: probes that ran a scheduler/cost function
    eval_time: float = 0.0  #: seconds spent inside cost evaluations
    wall_time: float = 0.0  #: seconds spent inside engine sweeps/searches
    peak_memo_entries: int = 0  #: largest cache+DP-memo entry count seen
    searches: int = 0  #: min-memory searches run
    sweeps: int = 0  #: budget-grid sweeps run
    tasks: int = 0  #: fan-out tasks executed via :meth:`SweepEngine.map`
    pool_restarts: int = 0  #: process pools rebuilt after worker crashes
    failures: List[FailureRecord] = field(default_factory=list)
    #: non-clean probe/task episodes (degraded, failed, redispatched, ...)
    violations: List[AuditViolation] = field(default_factory=list)
    #: audit findings (:mod:`repro.analysis.audit`), one per failed check

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of probes served from cache (0.0 when no probes)."""
        return self.cache_hits / self.probes if self.probes else 0.0

    def failure_counts(self) -> Dict[str, int]:
        """Failure episodes grouped by resolution (empty dict when clean)."""
        counts: Dict[str, int] = {}
        for f in self.failures:
            counts[f.resolution] = counts.get(f.resolution, 0) + 1
        return counts

    @property
    def degraded_probes(self) -> int:
        """Probes answered by a fallback scheduler (upper bounds)."""
        return sum(1 for f in self.failures if f.resolution == "degraded")

    @property
    def quarantined_probes(self) -> int:
        """Probes whose answer failed the audit and was replaced by the
        fallback scheduler's (see :mod:`repro.analysis.audit`)."""
        return sum(1 for f in self.failures
                   if f.resolution == "quarantined")

    @property
    def anytime_probes(self) -> int:
        """Governed probes answered with a certified ``[lb, ub]`` bracket
        (deadline / memory watchdog / cancel — value is the bracket's ub)."""
        return sum(1 for f in self.failures if f.resolution == "anytime")

    @property
    def inconclusive_probes(self) -> int:
        """Bracket-vs-threshold comparisons that spanned the decision
        point and were answered pessimistically instead of guessed."""
        return sum(1 for f in self.failures
                   if f.resolution == "inconclusive")

    def merge(self, other: "SweepStats") -> None:
        """Fold another stats record (e.g. from a pool worker) into this."""
        self.probes += other.probes
        self.cache_hits += other.cache_hits
        self.evals += other.evals
        self.eval_time += other.eval_time
        self.wall_time += other.wall_time
        self.peak_memo_entries = max(self.peak_memo_entries,
                                     other.peak_memo_entries)
        self.searches += other.searches
        self.sweeps += other.sweeps
        self.tasks += other.tasks
        self.pool_restarts += other.pool_restarts
        self.failures.extend(other.failures)
        self.violations.extend(other.violations)

    def report(self, max_failures: int = 8) -> str:
        """Human-readable profile block (``repro-pebble ... --profile``)."""
        lines = [
            "sweep engine profile",
            f"  searches / sweeps / tasks   {self.searches} / {self.sweeps}"
            f" / {self.tasks}",
            f"  cost probes                 {self.probes}",
            f"  cache hits                  {self.cache_hits} "
            f"({100.0 * self.cache_hit_rate:.1f}%)",
            f"  evaluations                 {self.evals} "
            f"({self.eval_time:.2f}s inside cost functions)",
            f"  peak memo size              {self.peak_memo_entries} entries",
            f"  engine wall time            {self.wall_time:.2f}s",
        ]
        counts = self.failure_counts()
        summary = ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
        lines.append(f"  failures                    {len(self.failures)}"
                     + (f" ({summary})" if counts else ""))
        lines.append(f"  pool restarts               {self.pool_restarts}")
        for f in self.failures[:max_failures]:
            lines.append(f"    {f.describe()}")
        if len(self.failures) > max_failures:
            lines.append(f"    ... and {len(self.failures) - max_failures} "
                         f"more")
        lines.append(f"  audit violations            {len(self.violations)}"
                     + (f" ({self.quarantined_probes} probes quarantined)"
                        if self.violations else ""))
        for v in self.violations[:max_failures]:
            lines.append(f"    {v.describe()}")
        if len(self.violations) > max_failures:
            lines.append(f"    ... and "
                         f"{len(self.violations) - max_failures} more")
        return "\n".join(lines)


@dataclass(frozen=True)
class ProbeOutcome:
    """One service-facing probe answer with its certainty bracket.

    ``cost`` is what the probe reported (the bracket's upper bound for
    anytime answers); ``(lb, ub)`` is the certified bracket — equal for
    exact answers; ``cached`` means the answer was served without a fresh
    scheduler evaluation (in-memory cache or durable store read-through)."""

    cost: float
    degraded: bool
    provenance: str  #: one of :data:`repro.core.store.PROVENANCES`
    lb: float
    ub: float
    cached: bool

    @property
    def exact(self) -> bool:
        return self.provenance == "exact"


# --------------------------------------------------------------------- #
# Cached cost functions


class CachedCostFn:
    """Memoizing budget → cost wrapper (∞ where infeasible).

    Wraps either a raw cost callable or a (scheduler, graph) pair.  The
    scheduler path evaluates through ``scheduler.cost_many`` with a
    persistent ``memo`` mapping, so DP schedulers reuse their memo tables
    across every probe on the same graph.  Feasible values are returned
    exactly as the underlying ``cost`` would (same value and type), which
    keeps cached sweeps bit-identical to direct ones.

    Every fresh budget takes one path, :meth:`_evaluate`:
    :func:`~repro.analysis.faults.run_probe` under the
    :class:`~repro.analysis.faults.FaultPolicy` (the default policy
    adds no guard of its own), fallback on a degradable fault, the
    anytime bracket, the audit, the ``on_eval`` record, then the cache.
    Budgets answered by the fallback are collected in :attr:`degraded`,
    and failure episodes are appended to ``stats.failures``.
    """

    __slots__ = ("_fn", "_scheduler", "_cdag", "_cache", "_memo", "stats",
                 "_policy", "_fallback", "_fb_memo", "_key", "_context",
                 "_on_eval", "_auditor", "degraded", "provenance",
                 "brackets")

    def __init__(self, fn: Optional[CostFn] = None, *,
                 scheduler=None, cdag: Optional[CDAG] = None,
                 stats: Optional[SweepStats] = None,
                 policy: Optional[FaultPolicy] = None,
                 fallback=None, key: Optional[str] = None,
                 context: Optional[Callable[[], str]] = None,
                 on_eval: Optional[
                     Callable[[int, float, bool, str, Optional[float]],
                              None]] = None,
                 auditor: Optional[Auditor] = None):
        if (fn is None) == (scheduler is None):
            raise ValueError("pass either fn or scheduler+cdag")
        if scheduler is not None and cdag is None:
            raise ValueError("scheduler path needs a cdag")
        if fallback is not None and scheduler is None:
            raise ValueError("fallback degradation needs a scheduler+cdag")
        if auditor is not None and scheduler is None:
            raise ValueError("auditing needs a scheduler+cdag")
        self._fn = fn
        self._scheduler = scheduler
        self._cdag = cdag
        self._cache: Dict[int, float] = {}
        self._memo: dict = {}
        self.stats = stats if stats is not None else SweepStats()
        self._policy = policy if policy is not None else FaultPolicy()
        self._fallback = fallback
        self._fb_memo: dict = {}
        self._key = key if key is not None else \
            (type(scheduler).__name__ if scheduler is not None else "rawfn")
        self._context = context
        self._on_eval = on_eval
        self._auditor = auditor if auditor is not None and auditor.active \
            else None
        self.degraded: set = set()
        #: budget -> ladder rung for every non-exact cached value
        #: (see :data:`repro.core.store.PROVENANCES`)
        self.provenance: Dict[int, str] = {}
        #: budget -> certified (lb, ub) for anytime-bracketed values
        self.brackets: Dict[int, Tuple[float, float]] = {}

    # -- fault-tolerant single-budget evaluation ----------------------- #

    def _probe_key(self, budget: int) -> str:
        ctx = self._context() if self._context is not None else ""
        return f"{ctx}{self._key}#B={budget}"

    def _evaluate(self, budget: int) -> float:
        """Evaluate one uncached budget through the probe guard, record
        it through the ``on_eval`` hook (store write-through), then cache
        it.  Recording comes first, so a value the store refuses is never
        served later."""
        t0 = time.perf_counter()
        if self._scheduler is not None:
            evaluate = lambda: self._scheduler.cost_many(
                self._cdag, (budget,), memo=self._memo)[0]
        else:
            evaluate = lambda: cost_at(self._fn, budget)
        fallback = None
        if self._fallback is not None:
            fallback = lambda: self._fallback.cost_many(
                self._cdag, (budget,), memo=self._fb_memo)[0]
        val, was_degraded = run_probe(
            evaluate, key=self._probe_key(budget), policy=self._policy,
            failures=self.stats.failures, fallback=fallback)
        self.stats.evals += 1
        self.stats.eval_time += time.perf_counter() - t0
        provenance, bracket = "fallback", None
        if not was_degraded:
            provenance, bracket = self._absorb_anytime(
                budget, time.perf_counter() - t0)
            was_degraded = bracket is not None
        if self._auditor is not None and not was_degraded:
            # Degraded probes already carry the fallback's (trusted) value;
            # auditing them against the primary scheduler's claims would
            # manufacture false mismatches.
            val, was_degraded = self._quarantine(budget, val)
            if was_degraded:
                provenance = "quarantined"
        if self._on_eval is not None:
            self._on_eval(budget, val, was_degraded, provenance,
                          bracket[0] if bracket is not None else None)
        self._cache[budget] = val
        if was_degraded:
            self.degraded.add(budget)
            self.provenance[budget] = provenance
            if bracket is not None:
                self.brackets[budget] = bracket
        entries = self.memo_entries()
        if entries > self.stats.peak_memo_entries:
            self.stats.peak_memo_entries = entries
        return val

    def _absorb_anytime(self, budget: int, elapsed: float
                        ) -> Tuple[str, Optional[Tuple[float, float]]]:
        """Pop the inexact bracket a governed oracle parked for ``budget``
        (``memo["anytime_results"]``, see ``ExhaustiveScheduler.
        cost_many``) and record the episode.  Returns
        ``(provenance, (lb, ub))`` — ``("exact", None)`` when the probe
        completed normally."""
        bag = self._memo.get("anytime_results")
        ares = bag.pop(budget, None) if bag else None
        if ares is None:
            return "exact", None
        provenance = "anytime" if ares.source == "search" else "fallback"
        resolution = "anytime" if provenance == "anytime" else "degraded"
        self.stats.failures.append(FailureRecord(
            key=self._probe_key(budget), exception="AnytimeResult",
            message=ares.describe(), attempts=1, elapsed=elapsed,
            resolution=resolution,
            context={"reason": ares.reason, "lb": ares.lower_bound,
                     "ub": ares.upper_bound, **ares.stats}))
        return provenance, (ares.lower_bound, ares.upper_bound)

    def bracket(self, budget: int) -> Tuple[float, float]:
        """Certified ``(lb, ub)`` for a budget: ``(cost, cost)`` for
        exact values, the recorded governance bracket for anytime values,
        ``(0, cost)`` for plain fallback upper bounds, and ``(0, inf)``
        when the budget was never probed."""
        value = self._cache.get(budget)
        if value is None:
            return (0.0, math.inf)
        bracket = self.brackets.get(budget)
        if bracket is not None:
            return bracket
        if budget in self.degraded:
            return (0.0, value)
        return (value, value)

    def refine(self, budget: int) -> float:
        """Exactness-forcing probe: a cached *exact* value is a plain
        cache hit, while a cached bracket / fallback answer is dropped
        and re-evaluated **ungoverned** (outside any ambient cancellation
        scope), so the refreshed value is the scheduler's true answer
        whenever the engine itself carries no governance policy.

        This is the background-tightening half of the service layer's
        anytime streaming: a request answered early with an ``[lb, ub]``
        bracket is later refined to the exact value, and because the
        re-evaluation runs through the normal ``on_eval`` plumbing the
        exact record also upgrades the durable store through the
        provenance merge ladder — a refined budget can never regress to a
        stale bracket."""
        self.stats.probes += 1
        hit = self._cache.get(budget)
        if hit is not None and budget not in self.degraded:
            self.stats.cache_hits += 1
            return hit
        if budget in self._cache:
            del self._cache[budget]
            self.degraded.discard(budget)
            self.provenance.pop(budget, None)
            self.brackets.pop(budget, None)
        with governed(None):
            return self._evaluate(budget)

    def _quarantine(self, budget: int, val: float) -> Tuple[float, bool]:
        """Audit one fresh probe value; on violation, record the findings
        and answer from the fallback instead (``degraded=True``), or raise
        :class:`AuditFailure` when no fallback exists."""
        violations = self._auditor.check(self._scheduler, self._cdag,
                                         budget, val)
        if not violations:
            return val, False
        self.stats.violations.extend(violations)
        key = self._probe_key(budget)
        t0 = time.perf_counter()
        if self._fallback is None:
            self.stats.failures.append(FailureRecord(
                key=key, exception=AuditFailure.__name__,
                message=violations[0].describe(), attempts=1, elapsed=0.0,
                resolution="failed"))
            raise AuditFailure(
                "; ".join(v.describe() for v in violations[:4]),
                violations=violations)
        fb_val = self._fallback.cost_many(self._cdag, (budget,),
                                          memo=self._fb_memo)[0]
        self.stats.failures.append(FailureRecord(
            key=key, exception=AuditFailure.__name__,
            message=violations[0].describe(), attempts=1,
            elapsed=time.perf_counter() - t0, resolution="quarantined"))
        return fb_val, True

    def __call__(self, budget: int) -> float:
        stats = self.stats
        stats.probes += 1
        hit = self._cache.get(budget)
        if hit is not None:
            stats.cache_hits += 1
            return hit
        return self._evaluate(budget)

    def value(self, budget: int) -> float:
        """Cached value for ``budget`` without touching the stats
        (``budget`` must have been probed or primed before)."""
        return self._cache[budget]

    def preload(self, entries: Dict[int, tuple]) -> None:
        """Seed the cache from persisted probes (store resume):
        ``budget -> (cost, degraded, provenance, lb)``.  Already-cached
        budgets keep their in-memory value; stats are untouched (a seeded
        probe later counts as a cache hit, which is what it is)."""
        for budget, (cost, was_degraded, provenance, lb) in entries.items():
            if budget in self._cache:
                continue
            self._cache[budget] = cost
            if was_degraded:
                self.degraded.add(budget)
                self.provenance[budget] = provenance
                if lb is not None:
                    self.brackets[budget] = (lb, cost)

    def prime(self, budgets: Sequence[int]) -> None:
        """Evaluate the not-yet-cached budgets, each through
        :meth:`_evaluate` on the shared memo (DP state carries across
        them)."""
        unique = list(dict.fromkeys(budgets))
        self.stats.probes += len(unique)
        missing = [b for b in unique if b not in self._cache]
        self.stats.cache_hits += len(unique) - len(missing)
        if getattr(self._scheduler, "monotone_budget_probes", False):
            # Evaluate high-budget-first: the oracle's optimum is
            # non-increasing in the budget, so each solved budget seeds
            # ``upper_bound`` pruning (and closes monotonicity brackets)
            # for every lower-budget probe after it.  Pure evaluation
            # order — cached values and the caller's result order are
            # untouched.
            missing.sort(reverse=True)
        for b in missing:
            self._evaluate(b)

    def memo_entries(self) -> int:
        """Current cache + DP-memo footprint, in entries.

        Counts plain DP-memo dicts and any sized memo value that reports
        its own footprint (e.g. the oracle's transposition table, whose
        ``__len__`` is heuristic-cache + per-budget results)."""
        from ..schedulers.search import TranspositionTable
        return len(self._cache) + sum(
            len(v) for v in self._memo.values()
            if isinstance(v, (dict, TranspositionTable)))


# --------------------------------------------------------------------- #
# Parallel fan-out helper (module-level so it pickles)


def _pool_task(fn, args, kwargs, setup: Optional[dict] = None):
    """Worker-side task runner: build a fresh single-job engine that
    inherits the parent's fault policy / fallback / probe context and is
    seeded with the parent's persisted probes, run the task against it,
    and ship back (result, stats, newly evaluated probes)."""
    setup = setup or {}
    audit = setup.get("audit")
    if setup.get("mem_limit_mb") is not None:
        # Hard backstop in this worker process on top of the cooperative
        # RSS watchdog (generous headroom: the rlimit is for runaway
        # native allocations the poll never sees).
        install_rlimit(setup["mem_limit_mb"])
    engine = SweepEngine(jobs=1,
                         fallback=setup.get("fallback", AUTO_FALLBACK),
                         audit=Auditor(**audit) if audit else "off",
                         deadline=setup.get("deadline"),
                         mem_limit_mb=setup.get("mem_limit_mb"),
                         anytime=setup.get("anytime", False),
                         store=setup.get("store"))
    engine._context = setup.get("context", "")
    engine._collect_probes = True
    seed = setup.get("seed")
    if seed:
        engine._seed.update(seed)
    try:
        result = fn(*args, engine=engine, **kwargs)
    finally:
        if engine.store is not None:
            engine.store.close()  # commit this worker's probes durably
    return result, engine.stats, engine._probe_log


# --------------------------------------------------------------------- #
# The engine


class SweepEngine:
    """Shared evaluation engine for sweeps and min-memory searches.

    One engine owns one cache universe: cost functions are keyed by the
    identity of their (scheduler, graph) pair (the engine keeps strong
    references, so keys stay unique for its lifetime).  Experiments that
    share workload objects — e.g. Table 1 re-searching the same graphs
    Fig. 5 swept — therefore share every probe.

    ``jobs`` controls :meth:`map`: 1 runs tasks serially in-process
    (sharing this engine's caches), >1 fans them out over a
    ``ProcessPoolExecutor`` with deterministic, submission-ordered
    results; worker stats are merged back into :attr:`stats`.

    Fault-tolerance kwargs (all inert by default):

    fallback:
        ``"auto"`` (default) degrades a guard-stopped probe (deadline,
        memory watchdog, cancel, state-space cap) to the scheduler's own
        designated fallback
        (:meth:`~repro.schedulers.base.Scheduler.fallback_scheduler`);
        a :class:`~repro.schedulers.base.Scheduler` instance forces one
        fallback for every scheduler; ``None`` disables degradation.
    audit:
        Audit level (``"off"``/``"bounds"``/``"replay"``/
        ``"differential"``) or a configured
        :class:`~repro.analysis.audit.Auditor`.  Any level above ``off``
        audits every fresh probe; a failed audit quarantines the probe
        (fallback answer + ``degraded`` flag + structured
        :class:`~repro.analysis.audit.AuditViolation` in
        ``stats.violations``) or raises
        :class:`~repro.core.exceptions.AuditFailure` when the scheduler
        has no fallback.  ``"off"`` (default) leaves the evaluation path
        byte-identical to the un-audited engine.

    Governance kwargs (:mod:`repro.core.governor`, all inert by
    default):

    deadline / mem_limit_mb:
        Per-probe cooperative wall-clock budget (seconds) and RSS
        watchdog threshold (MiB) — the one per-probe bound: each probe
        runs under its own :class:`~repro.core.governor.
        CancellationToken`, so governed schedulers *stop themselves* at
        their next poll (see :class:`~repro.analysis.faults.
        FaultPolicy`).  Without them a probe runs under the caller's
        ambient token.
    anytime:
        Stopped oracle probes return certified ``[lb, ub]`` brackets
        (recorded value = ub, provenance ``"anytime"``) instead of
        immediately degrading to the greedy fallback.
    store:
        Path of a durable cross-run :class:`~repro.core.store.ResultStore`
        directory (created if missing) or an open store instance.  Every
        cost function preloads from it, and every probe is committed to
        it (fsync'd, crash-safe) once it has been evaluated, audited and
        labelled — by the engine that evaluated it: its name ships to
        pool workers, whose engines open their own handles and commit
        their own probes.  Evaluations themselves do no I/O.  The store
        is the only way a probe result crosses runs or processes.
        ``None`` (default) leaves every artifact byte-identical to a
        store-less engine.
    checkpoint:
        Path of a probe journal written by earlier releases.  If the
        file exists it is folded into ``store`` once on startup (see
        :meth:`~repro.core.store.ResultStore.import_journal`); it is
        never written.  Needs ``store``.

    The engine is a context manager: ``with SweepEngine(...) as eng:``
    guarantees :meth:`close` (store commit and release) on every exit
    path.
    """

    def __init__(self, jobs: int = 1, *,
                 fallback: Union[str, None, object] = AUTO_FALLBACK,
                 checkpoint: Optional[str] = None,
                 audit: Union[str, Auditor] = "off",
                 deadline: Optional[float] = None,
                 mem_limit_mb: Optional[float] = None,
                 anytime: bool = False,
                 store=None):
        self.jobs = max(1, int(jobs))
        self.stats = SweepStats()
        self.policy = FaultPolicy(deadline=deadline,
                                  mem_limit_mb=mem_limit_mb, anytime=anytime)
        self.auditor = audit if isinstance(audit, Auditor) \
            else Auditor(level=audit)
        if self.auditor.active and self.policy.governed:
            self.auditor.governed = True
        self.fallback = fallback
        self._fns: Dict[Tuple, CachedCostFn] = {}
        # id(cdag) -> (cdag, lower bound, min budget, total weight, gcd step)
        self._bounds: Dict[int, Tuple] = {}
        # id(cdag) -> (cdag, stable content key) for persisted probes
        self._graph_keys: Dict[int, Tuple[CDAG, str]] = {}
        #: persisted/absorbed probes: (sched key, graph key, budget) ->
        #: (cost, degraded, provenance, lb)
        self._seed: Dict[Tuple[str, str, int], tuple] = {}
        self._probe_log: List[tuple] = []
        self._collect_probes = False
        self._context = ""
        #: Service-layer thread-safety (see :meth:`probe`): a creation
        #: lock for the cost-fn registry plus one lock per (scheduler,
        #: graph) serializing evaluations that share a memo/table, and a
        #: record lock serializing store/seed writes.
        self._submit_lock = threading.Lock()
        self._fn_locks: Dict[Tuple, threading.Lock] = {}
        self._record_lock = threading.Lock()
        #: Durable cross-run result store (open-failure raises: a user
        #: who asked for durability should not silently lose it).
        self.store = None
        self._store_path: Optional[str] = None
        if checkpoint is not None and store is None:
            raise ValueError("checkpoint= imports an old probe journal "
                             "into a result store; pass store=DIR too")
        if store is not None:
            from ..core.store import ResultStore
            if isinstance(store, ResultStore):
                self.store = store
            else:
                self.store = ResultStore(store)
            self._store_path = self.store.path
            # The journal folds into the store first (its merge rule
            # keeps whichever side is more exact per key), so the merged
            # view seeds this run and later runs need only the store.
            if checkpoint is not None and os.path.exists(checkpoint):
                self.store.import_journal(checkpoint)
            self._seed.update(self.store.probe_entries())

    def close(self) -> None:
        """Commit and release the result store.  Idempotent; the engine
        remains usable afterwards, minus store write-through.

        Safe to call from ``atexit`` handlers, signal handlers, and
        ``finally`` blocks around a constructor — i.e. on an engine that
        never ran a sweep, whose pool already died, or whose ``__init__``
        raised partway (missing attributes count as already-released).
        A failing store flush is reported as a :class:`RuntimeWarning`:
        a teardown path must not throw, and silently dropping durable
        records would be worse."""
        store = getattr(self, "store", None)
        self.store = None
        if store is not None:
            try:
                store.close()
            except Exception as exc:
                warnings.warn(f"engine close: result-store flush failed "
                              f"({exc})", RuntimeWarning, stacklevel=2)

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ----------------------------------------------------------------- #
    # Probe labelling / persistence plumbing

    @contextlib.contextmanager
    def probe_context(self, label: str):
        """Prefix failure-record keys with ``label`` for probes evaluated
        inside the block (``with eng.probe_context("fig6"): ...``), so a
        profile report names the experiment a failure belongs to.  The
        context is inherited by pool workers dispatched within it."""
        prev = self._context
        self._context = f"{prev}{label}:"
        try:
            yield self
        finally:
            self._context = prev

    def graph_key(self, cdag: CDAG) -> str:
        """Stable content identity of a graph for persisted probes: name,
        node count, and a fingerprint of the weighted structure — safe
        across processes and runs (unlike ``id``).  Computed by
        :func:`repro.core.store.graph_fingerprint`, cached per graph
        object here."""
        from ..core.store import graph_fingerprint
        key = id(cdag)
        entry = self._graph_keys.get(key)
        if entry is None or entry[0] is not cdag:
            entry = (cdag, graph_fingerprint(cdag))
            self._graph_keys[key] = entry
        return entry[1]

    def _record_probe(self, sched_key: str, gkey: str, budget: int,
                      cost: float, was_degraded: bool,
                      provenance: str = "exact",
                      lb: Optional[float] = None) -> None:
        """Record one completed probe (store + seed + worker export).
        The store stages first: a record it refuses raises before the
        seed can serve it.  Serialized under the record lock so
        concurrent service-layer probes of *different* graphs (see
        :meth:`probe`) never interleave store commits."""
        with self._record_lock:
            if self.store is not None:
                self.store.put_probe(sched_key, gkey, budget, cost,
                                     was_degraded, provenance, lb)
            self._seed[(sched_key, gkey, budget)] = (cost, was_degraded,
                                                     provenance, lb)
            if self._collect_probes:
                self._probe_log.append((sched_key, gkey, budget, cost,
                                        was_degraded, provenance, lb))

    def _record_probes(self, probes) -> None:
        """Fold ``(sched key, graph key, budget, cost, degraded,
        provenance, lb)`` rows harvested from a pool worker into this
        engine's seed, so later cost functions reuse them.  The worker's
        engine already committed them to the store: each probe is
        committed once, by the process that evaluated it."""
        with self._record_lock:
            for sched_key, gkey, budget, *value in probes:
                self._seed[(sched_key, gkey, budget)] = tuple(value)

    def _fallback_for(self, scheduler):
        if self.fallback == AUTO_FALLBACK:
            return scheduler.fallback_scheduler()
        return self.fallback

    # ----------------------------------------------------------------- #
    # Cached cost functions

    def cost_fn(self, scheduler, cdag: CDAG) -> CachedCostFn:
        """The engine's memoized cost function for a (scheduler, graph)."""
        key = (id(scheduler), id(cdag))
        fn = self._fns.get(key)
        if fn is None or fn._scheduler is not scheduler or fn._cdag is not cdag:
            sched_key = scheduler.cache_key()
            gkey = self.graph_key(cdag)
            fallback = self._fallback_for(scheduler)
            record = (lambda budget, cost, was_degraded, provenance, lb:
                      self._record_probe(sched_key, gkey, budget, cost,
                                         was_degraded, provenance, lb))
            fn = CachedCostFn(scheduler=scheduler, cdag=cdag,
                              stats=self.stats, policy=self.policy,
                              fallback=fallback,
                              key=f"{sched_key}@{gkey}",
                              context=lambda: self._context,
                              on_eval=record,
                              auditor=self.auditor)
            fn.preload({b: v for (s, g, b), v in self._seed.items()
                        if s == sched_key and g == gkey})
            self._fns[key] = fn
        return fn

    def raw_cost_fn(self, fn: CostFn, key: Optional[Tuple] = None
                    ) -> CachedCostFn:
        """Memoized wrapper for a plain cost callable.  ``key`` makes the
        cache survive across calls that rebuild the callable (e.g. a
        closure over the same model object).  Raw callables run under the
        probe guard but get no fallback degradation and no store records
        — there is no stable cross-run identity to key them under."""
        cache_key = ("raw",) + (key if key is not None else (id(fn),))
        cached = self._fns.get(cache_key)
        if cached is None:
            cached = CachedCostFn(fn, stats=self.stats, policy=self.policy,
                                  key=f"rawfn{cache_key[1:]!r}",
                                  context=lambda: self._context)
            self._fns[cache_key] = cached
        return cached

    # ----------------------------------------------------------------- #
    # Sweeps (Fig. 5)

    def sweep(self, scheduler, cdag: CDAG, budgets: Sequence[int],
              label: str) -> SweepSeries:
        """Cached :func:`repro.analysis.sweep.sweep` over a scheduler.
        Budgets answered by a fallback scheduler (guard-stopped probes)
        are listed in the series' ``degraded`` field."""
        fn = self.cost_fn(scheduler, cdag)
        t0 = time.perf_counter()
        try:
            fn.prime(budgets)
            costs = tuple(fn.value(b) for b in budgets)
        finally:
            self.stats.wall_time += time.perf_counter() - t0
        self.stats.sweeps += 1
        return SweepSeries(label=label, budgets=tuple(budgets), costs=costs,
                           degraded=tuple(b for b in budgets
                                          if b in fn.degraded),
                           provenance=tuple(
                               (b, fn.provenance.get(b, "fallback"))
                               for b in budgets if b in fn.degraded))

    def sweep_fn(self, cost_fn: CostFn, budgets: Sequence[int], label: str,
                 key: Optional[Tuple] = None) -> SweepSeries:
        """Cached sweep over a plain cost callable."""
        fn = self.raw_cost_fn(cost_fn, key=key)
        t0 = time.perf_counter()
        fn.prime(budgets)
        costs = tuple(fn.value(b) for b in budgets)
        self.stats.wall_time += time.perf_counter() - t0
        self.stats.sweeps += 1
        return SweepSeries(label=label, budgets=tuple(budgets), costs=costs)

    # ----------------------------------------------------------------- #
    # Min-memory searches (Fig. 6 / Table 1)

    def _graph_bounds(self, cdag: CDAG) -> Tuple:
        """Per-graph search constants (lower bound, min budget, total
        weight, gcd step), computed once per graph the engine has seen.
        The entry pins the graph, so the id-key can never be recycled."""
        key = id(cdag)
        entry = self._bounds.get(key)
        if entry is None or entry[0] is not cdag:
            entry = (cdag, algorithmic_lower_bound(cdag),
                     min_feasible_budget(cdag), cdag.total_weight(),
                     math.gcd(*cdag.weights.values()) if len(cdag) else 1)
            self._bounds[key] = entry
        return entry

    def min_memory(self, scheduler, cdag: CDAG, step: Optional[int] = None,
                   hi: Optional[int] = None, hint: Optional[int] = None
                   ) -> Optional[int]:
        """Cached :func:`repro.analysis.min_memory.scheduler_min_memory`.

        ``hint`` warm-starts the boundary bracketing (see
        :func:`minimum_fast_memory`); results are identical either way.
        """
        _, target, lo, total, gcd_step = self._graph_bounds(cdag)
        if hi is None:
            hi = total
        if step is None:
            step = gcd_step
        fn = self.cost_fn(scheduler, cdag)
        noted: set = set()

        def inconclusive(budget: int, lb: float, ub: float) -> None:
            # A bracket spanning the feasibility target decides nothing;
            # the search treats it as infeasible (sound) and we record the
            # undecided comparison once per budget for the profile.
            if budget in noted:
                return
            noted.add(budget)
            self.stats.failures.append(FailureRecord(
                key=fn._probe_key(budget), exception="AnytimeResult",
                message=f"bracket [{lb}, {ub}] spans min-memory target "
                        f"{target}; treated infeasible",
                attempts=1, elapsed=0.0, resolution="inconclusive",
                context={"lb": lb, "ub": ub}))

        t0 = time.perf_counter()
        try:
            result = minimum_fast_memory(
                fn, target, lo, hi, step, hint=hint,
                bracket_fn=fn.bracket, on_inconclusive=inconclusive,
                high_first=getattr(scheduler, "monotone_budget_probes",
                                   False))
        finally:
            self.stats.wall_time += time.perf_counter() - t0
        self.stats.searches += 1
        return result

    # ----------------------------------------------------------------- #
    # Service submission hooks (thread-safe single requests)

    def _probe_fn(self, scheduler, cdag: CDAG
                  ) -> Tuple[CachedCostFn, threading.Lock]:
        """The cost function for a (scheduler, graph) plus the lock that
        serializes evaluations against it.  Registry mutation happens
        under the submission lock, so concurrent first requests for the
        same pair race safely."""
        with self._submit_lock:
            fn = self.cost_fn(scheduler, cdag)
            key = (id(scheduler), id(cdag))
            lock = self._fn_locks.get(key)
            if lock is None:
                lock = self._fn_locks[key] = threading.Lock()
            return fn, lock

    def probe(self, scheduler, cdag: CDAG, budget: int, *,
              token: Optional[CancellationToken] = None,
              refine: bool = False) -> ProbeOutcome:
        """One blocking cost probe for the service layer: evaluate (or
        serve from cache/store), then report the value with its certified
        bracket as a :class:`ProbeOutcome`.

        Unlike :meth:`sweep`/:meth:`min_memory`, this entry point is
        **thread-safe**: the daemon calls it from executor threads, and
        probes of the same (scheduler, graph) — which share a DP memo /
        transposition table — are serialized on a per-pair lock while
        probes of different pairs run concurrently.  (Identical in-flight
        requests are additionally coalesced one layer up, in
        :mod:`repro.service.coalesce`, so the lock rarely contends.)

        ``token`` governs the evaluation (chained per-request/per-tenant
        deadlines and memory caps reach the solve through the thread's
        ambient token); ``refine=True`` instead forces exactness — see
        :meth:`CachedCostFn.refine`."""
        fn, lock = self._probe_fn(scheduler, cdag)
        with lock:
            cached = budget in fn._cache and not (refine
                                                  and budget in fn.degraded)
            if refine:
                value = fn.refine(budget)
            elif token is not None:
                with governed(token):
                    value = fn(budget)
            else:
                value = fn(budget)
            lb, ub = fn.bracket(budget)
            return ProbeOutcome(
                cost=value, degraded=budget in fn.degraded,
                provenance=fn.provenance.get(budget, "exact"),
                lb=lb, ub=ub, cached=cached)

    def probe_min_memory(self, scheduler, cdag: CDAG, *,
                         token: Optional[CancellationToken] = None,
                         **kwargs) -> Optional[int]:
        """Thread-safe :meth:`min_memory` for the service layer — same
        per-(scheduler, graph) serialization as :meth:`probe`, with
        ``token`` governing every probe of the search."""
        fn, lock = self._probe_fn(scheduler, cdag)
        with lock:
            if token is not None:
                with governed(token):
                    return self.min_memory(scheduler, cdag, **kwargs)
            return self.min_memory(scheduler, cdag, **kwargs)

    # ----------------------------------------------------------------- #
    # Fan-out

    def chunks(self, items: Sequence) -> List[tuple]:
        """Split ``items`` into ≤ ``jobs`` contiguous, order-preserving
        chunks — the fan-out unit for warm-started curve evaluation."""
        items = list(items)
        if not items:
            return []
        n = min(self.jobs, len(items))
        size = -(-len(items) // n)
        return [tuple(items[i:i + size]) for i in range(0, len(items), size)]

    def _worker_setup(self) -> dict:
        """Everything a pool worker needs to mirror this engine's fault
        behaviour (must pickle: schedulers are plain-data objects)."""
        return {
            "fallback": self.fallback,
            "context": self._context,
            "seed": dict(self._seed) if self._seed else None,
            "audit": self.auditor.config(),
            "deadline": self.policy.deadline,
            "mem_limit_mb": self.policy.mem_limit_mb,
            "anytime": self.policy.anytime,
            "store": self._store_path,
        }

    def _task_key(self, fn, index: int) -> str:
        name = getattr(fn, "__name__", type(fn).__name__)
        return f"{self._context}{name}#{index}"

    def map(self, tasks: Sequence[tuple]) -> list:
        """Run ``(fn, args)`` / ``(fn, args, kwargs)`` tasks, passing each
        an ``engine=`` keyword, and return their results in task order.

        ``jobs == 1`` runs in-process against *this* engine (tasks share
        its caches); ``jobs > 1`` uses a ``ProcessPoolExecutor`` — ``fn``
        and arguments must be picklable, each worker evaluates against a
        fresh single-job engine inheriting this engine's fault policy and
        persisted probes, and the workers' stats and probe results are
        merged back deterministically in task order.

        A worker crash (``BrokenProcessPool``) does not kill the sweep:
        results that completed before the crash are kept, the pool is
        rebuilt, and only the lost tasks are re-dispatched.  After
        :data:`MAX_POOL_RESTARTS` rebuilds the remaining tasks run serially
        in this process.  Each recovery episode is recorded in
        :attr:`stats` (``pool_restarts`` + per-task ``FailureRecord``).
        """
        norm = [(t[0], tuple(t[1]), dict(t[2]) if len(t) > 2 else {})
                for t in tasks]
        if not norm:  # never build a pool with max_workers=0
            return []
        self.stats.tasks += len(norm)
        if self.jobs == 1 or len(norm) == 1:
            return [fn(*args, engine=self, **kwargs)
                    for fn, args, kwargs in norm]
        results: List = [None] * len(norm)
        self._map_with_recovery(norm, results)
        return results

    def _map_with_recovery(self, norm, results) -> None:
        """Pool fan-out with crash recovery, filling ``results`` in
        place (the re-dispatch loop of :meth:`map`)."""
        pending = list(range(len(norm)))
        restarts = 0
        while pending:
            if restarts > MAX_POOL_RESTARTS:
                # Too many pool deaths: finish serially in this process.
                for i in pending:
                    t0 = time.perf_counter()
                    fn, args, kwargs = norm[i]
                    results[i] = fn(*args, engine=self, **kwargs)
                    self.stats.failures.append(FailureRecord(
                        key=self._task_key(fn, i),
                        exception=BrokenProcessPool.__name__,
                        message=f"pool died {restarts} times; ran serially",
                        attempts=restarts,
                        elapsed=time.perf_counter() - t0,
                        resolution="serial-fallback"))
                pending = []
                break
            setup = self._worker_setup()
            crashed: Optional[BaseException] = None
            completed: List[int] = []
            t0 = time.perf_counter()
            with ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(pending))) as ex:
                futures = {i: ex.submit(_pool_task, *norm[i], setup)
                           for i in pending}
                for i in pending:  # submission order => deterministic
                    try:
                        result, stats, probes = futures[i].result()
                    except BrokenProcessPool as exc:
                        crashed = exc
                        break
                    results[i] = result
                    self.stats.merge(stats)
                    self._record_probes(probes)
                    completed.append(i)
                if crashed is not None:
                    # Keep everything that finished before the pool died.
                    for i in pending:
                        if i in completed:
                            continue
                        fut = futures[i]
                        if fut.done() and not fut.cancelled() \
                                and fut.exception() is None:
                            result, stats, probes = fut.result()
                            results[i] = result
                            self.stats.merge(stats)
                            self._record_probes(probes)
                            completed.append(i)
            if crashed is None:
                pending = []
            else:
                lost = [i for i in pending if i not in completed]
                restarts += 1
                self.stats.pool_restarts += 1
                elapsed = time.perf_counter() - t0
                for i in lost:
                    self.stats.failures.append(FailureRecord(
                        key=self._task_key(norm[i][0], i),
                        exception=type(crashed).__name__,
                        message=str(crashed) or "worker process died",
                        attempts=restarts, elapsed=elapsed,
                        resolution="redispatched"))
                pending = lost


# --------------------------------------------------------------------- #
# Default engine (shared by the experiment drivers and the CLI)

_default_engine: Optional[SweepEngine] = None


def get_default_engine() -> SweepEngine:
    """The process-wide engine used when drivers get ``engine=None``."""
    global _default_engine
    if _default_engine is None:
        _default_engine = SweepEngine()
    return _default_engine


def set_default_engine(engine: Optional[SweepEngine]) -> None:
    """Install (or, with ``None``, reset) the process-wide engine."""
    global _default_engine
    _default_engine = engine
