"""Seeded property-based fuzzing of every registered scheduler.

The audit gauntlet (:mod:`repro.analysis.audit`) can verify any single
probe; this module *generates* the probes.  Each seed deterministically
expands into a corpus of adversarial CDAGs — random layered / series-
parallel graphs, long chains, wide fan-ins, disconnected unions, plus
small instances of every structured family the paper schedules — crossed
with weight edge cases (all weight-1, random, heavy-tailed with a
``2**20`` outlier, single-node, edge-free).  Every applicable scheduler
from :data:`repro.schedulers.registry.REGISTRY` is then audited on every
graph at a boundary-heavy budget set: just below the Prop. 2.3 existence
bound, exactly at it, one weight-gcd above it, midway, and at the total
weight.

A failing probe is **shrunk** before it is reported: nodes are greedily
dropped and weights reduced to 1 while the violation (same kind, same
scheduler) persists, so the repro file holds a minimal counterexample.
Repro files are the ``wrbpg-audit-repro`` JSON documents of
:mod:`repro.serialize` — self-contained (graph embedded, scheduler named
by registry key) and replayable with :func:`replay_repro`.

Everything is deterministic in the seed list: same seeds → same corpus,
same probe order, same repro bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.bounds import min_feasible_budget
from ..core.cdag import CDAG
from ..core.exceptions import (GraphStructureError, InfeasibleBudgetError,
                               PebbleGameError, ProbeCancelledError,
                               StateSpaceTooLargeError)
from ..core.governor import CancellationToken, governed
from .. import serialize
from ..graphs import (banded_mvm_graph, caterpillar_tree, complete_kary_tree,
                      conv_graph, disconnected_union, dwt_graph, kdwt_graph,
                      long_chain, mvm_graph, random_kary_tree,
                      random_layered_dag, random_series_parallel,
                      random_weighted, skewed_weights, wide_fan_dag)
from ..schedulers.registry import REGISTRY, schedulers_for, spec
from .audit import Auditor, AuditViolation

#: Heavy weight injected by the skewed corpus variants.
HEAVY_WEIGHT = 1 << 20


# --------------------------------------------------------------------- #
# Corpus


def corpus(seed: int) -> List[Tuple[str, CDAG]]:
    """The deterministic ``(case id, graph)`` list for one seed.

    Structured families keep their canonical shapes (so the optimal
    schedulers stay applicable); randomness enters through the random
    generators and through re-weighting.  Sizes are chosen so most cases
    fit the differential (exhaustive-oracle) regime.
    """
    cases: List[Tuple[str, CDAG]] = []

    def add(tag: str, g: CDAG) -> None:
        cases.append((f"{tag}@seed{seed}", g))

    # Structured families (weights: unit, random, heavy-tailed).
    add("dwt", dwt_graph(4, 1))
    add("dwt/w", random_weighted(dwt_graph(4, 1), 1, 4, seed=seed))
    add("dwt/skew", skewed_weights(dwt_graph(4, 1), seed=seed,
                                   heavy=HEAVY_WEIGHT))
    add("kdwt", kdwt_graph(4, 1, 2))
    add("kary", complete_kary_tree(2, 2))
    add("kary/w", random_weighted(complete_kary_tree(2, 2), 1, 4, seed=seed))
    add("caterpillar/skew", skewed_weights(caterpillar_tree(2, 2), seed=seed,
                                           heavy=HEAVY_WEIGHT))
    add("rtree", random_kary_tree(3, 2, seed=seed))
    add("mvm", mvm_graph(2, 2))
    add("banded", banded_mvm_graph(3, 3, 1))
    add("conv", conv_graph(3, 2))

    # Random adversarial shapes.
    add("layered", random_layered_dag(3, 2, seed=seed))
    add("layered/w", random_weighted(random_layered_dag(3, 3, seed=seed),
                                     1, 4, seed=seed))
    add("sp", random_series_parallel(3, seed=seed))
    add("chain", long_chain(5, seed=seed, max_weight=3))
    add("fan", wide_fan_dag(4, 2, seed=seed, max_weight=2))
    add("fan/skew", skewed_weights(wide_fan_dag(3, 1, seed=seed), seed=seed,
                                   heavy=HEAVY_WEIGHT))
    add("union", disconnected_union([long_chain(2, seed=seed),
                                     long_chain(3, seed=seed + 1)]))

    # Degenerate edge cases.
    add("single", long_chain(1, seed=seed, max_weight=7))
    add("edgefree", CDAG((), {"a": 1, "b": 2, "c": 3},
                         nodes=("a", "b", "c"), name="Isolated(3)"))
    return cases


def budgets_for(cdag: CDAG) -> List[int]:
    """Boundary-heavy budget set for one graph: just below / at / just
    above the Prop. 2.3 existence bound, midway, and the total weight."""
    need = min_feasible_budget(cdag)
    total = cdag.total_weight()
    step = math.gcd(*cdag.weights.values()) if len(cdag) else 1
    budgets = {need, need + step, (need + total) // 2, max(need, total)}
    if need - step >= 1:
        budgets.add(need - step)  # the infeasible side of the boundary
    return sorted(budgets)


# --------------------------------------------------------------------- #
# Probing


def _probe(auditor: Auditor, scheduler, cdag: CDAG,
           budget: Optional[int]) -> Optional[List[AuditViolation]]:
    """Audit one probe.  ``None`` = skipped (state-space guard tripped);
    otherwise the violation list (empty = clean).  A crash inside
    ``cost()`` is itself reported as a ``schedule-error`` violation —
    fuzzing hunts crashes as much as lies."""
    try:
        reported: float = scheduler.cost(cdag, budget)
    except InfeasibleBudgetError:
        reported = math.inf
    except StateSpaceTooLargeError:
        return None
    except ProbeCancelledError:
        # Cooperative governance stopped the probe — that is resource
        # exhaustion, not a scheduler bug; it must never be reported as
        # a "schedule-error" violation.  The driver counts it.
        raise
    except PebbleGameError as exc:
        return [AuditViolation(
            kind="schedule-error", scheduler=scheduler.cache_key(),
            graph=cdag.name, budget=budget, reported=math.nan, expected=None,
            message=f"cost() raised {type(exc).__name__}: {exc}")]
    return auditor.check(scheduler, cdag, budget, reported)


# --------------------------------------------------------------------- #
# Shrinking


def _induced(cdag: CDAG, keep: Iterable) -> CDAG:
    """Induced subgraph with deterministic node order (the parent's
    topological order restricted to ``keep``), so shrunk graphs — and the
    repro files serialized from them — are byte-stable across runs."""
    keep_set = set(keep)
    order = [v for v in cdag.topological_order() if v in keep_set]
    edges = [(p, v) for v in order
             for p in cdag.predecessors(v) if p in keep_set]
    return CDAG(edges, {v: cdag.weight(v) for v in order}, nodes=order,
                name=cdag.name)


def _first_failure(scheduler_key: str, cdag: CDAG, auditor: Auditor,
                   kinds: Optional[set] = None
                   ) -> Optional[Tuple[int, Tuple[AuditViolation, ...]]]:
    """First ``(budget, violations)`` where ``scheduler_key`` fails the
    audit on ``cdag`` (restricted to violation ``kinds`` when given)."""
    inst = spec(scheduler_key).for_graph(cdag)
    if inst is None:
        return None
    for budget in budgets_for(cdag):
        violations = _probe(auditor, inst, cdag, budget)
        if violations:
            if kinds is None or any(v.kind in kinds for v in violations):
                return budget, tuple(violations)
    return None


def shrink(scheduler_key: str, cdag: CDAG, auditor: Optional[Auditor] = None,
           level: str = "differential"
           ) -> Tuple[CDAG, Optional[Tuple[int, Tuple[AuditViolation, ...]]]]:
    """Greedily minimize a failing case.

    Repeatedly tries dropping one node (induced subgraph) and reducing
    one weight to 1, keeping any candidate on which the scheduler still
    produces a violation of the same kind(s).  Budgets are re-derived for
    every candidate (shrinking moves the Prop. 2.3 boundary).  Returns
    ``(minimal graph, (budget, violations))`` — or ``(cdag, None)`` when
    the original case doesn't reproduce (nothing to shrink).
    """
    auditor = auditor if auditor is not None else Auditor(level=level)
    base = _first_failure(scheduler_key, cdag, auditor)
    if base is None:
        return cdag, None
    kinds = {v.kind for v in base[1]}
    current, failure = cdag, base
    shrinking = True
    while shrinking:
        shrinking = False
        for v in current.topological_order():
            keep = [u for u in current.topological_order() if u != v]
            if not keep:
                continue
            try:
                candidate = _induced(current, keep)
            except GraphStructureError:
                continue  # removal orphaned a node / broke invariants
            result = _first_failure(scheduler_key, candidate, auditor, kinds)
            if result is not None:
                current, failure = candidate, result
                shrinking = True
                break  # restart the scan on the smaller graph
        if shrinking:
            continue
        for v in current.topological_order():
            if current.weight(v) <= 1:
                continue
            lighter = current.with_weights(
                {u: (1 if u == v else current.weight(u)) for u in current})
            result = _first_failure(scheduler_key, lighter, auditor, kinds)
            if result is not None:
                current, failure = lighter, result
                shrinking = True
                break
    return current, failure


# --------------------------------------------------------------------- #
# Reporting


@dataclass(frozen=True)
class FuzzFailure:
    """One audited-and-shrunk counterexample."""

    case: str  #: corpus case id, e.g. ``"fan/skew@seed3"``
    scheduler: str  #: registry key of the failing strategy
    budget: int  #: failing budget on the minimal graph
    cdag: CDAG  #: the minimal repro graph
    violations: Tuple[AuditViolation, ...]
    seed: Optional[int] = None  #: corpus seed the case came from

    def describe(self) -> str:
        kinds = ",".join(sorted({v.kind for v in self.violations}))
        return (f"{self.case}: {self.scheduler} on {self.cdag.name} "
                f"(|V|={len(self.cdag)}) at B={self.budget}: {kinds}")

    def to_json(self) -> str:
        return serialize.dumps_repro(self.cdag, self.scheduler, self.budget,
                                     violations=self.violations,
                                     seed=self.seed)


@dataclass
class FuzzReport:
    """Outcome of one :func:`fuzz` run."""

    seeds: Tuple[int, ...]
    level: str
    cases: int = 0  #: corpus graphs generated
    probes: int = 0  #: audited (scheduler, graph, budget) probes
    skipped: int = 0  #: probes skipped by the state-space guard
    cancelled: int = 0  #: probes stopped by governance (deadline/memory)
    inconclusive: int = 0  #: audit checks undecidable under governance
    failures: List[FuzzFailure] = field(default_factory=list)
    repro_paths: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        head = (f"fuzz: seeds={list(self.seeds)} level={self.level} "
                f"cases={self.cases} probes={self.probes} "
                f"skipped={self.skipped} failures={len(self.failures)}")
        if self.cancelled or self.inconclusive:
            head += (f" cancelled={self.cancelled} "
                     f"inconclusive={self.inconclusive}")
        lines = [head]
        for f in self.failures:
            lines.append(f"  {f.describe()}")
        for p in self.repro_paths:
            lines.append(f"  repro: {p}")
        return "\n".join(lines)


def write_repro(failure: FuzzFailure, out_dir: str) -> str:
    """Serialize one failure under ``out_dir`` (created if missing).
    The filename folds in a content hash, so distinct counterexamples
    never collide and identical ones overwrite deterministically."""
    os.makedirs(out_dir, exist_ok=True)
    text = failure.to_json()
    digest = hashlib.sha1(text.encode()).hexdigest()[:10]
    path = os.path.join(out_dir, f"repro-{failure.scheduler}-{digest}.json")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def replay_repro(text: str, level: str = "differential"
                 ) -> Tuple[List[AuditViolation], dict]:
    """Re-run a serialized counterexample.  Returns the violations the
    audit finds *now* (empty once the bug is fixed — regression tests
    assert exactly that) plus the decoded repro document."""
    data = serialize.loads_repro(text)
    key = data["scheduler"]
    if key not in REGISTRY:
        raise GraphStructureError(f"repro names unknown scheduler {key!r}; "
                                  f"known: {sorted(REGISTRY)}")
    inst = spec(key).for_graph(data["cdag"])
    if inst is None:
        raise GraphStructureError(
            f"scheduler {key!r} no longer accepts the repro graph "
            f"{data['cdag'].name!r} (contract changed?)")
    violations = _probe(Auditor(level=level), inst, data["cdag"],
                        data["budget"])
    return list(violations or ()), data


# --------------------------------------------------------------------- #
# Driver


def fuzz(seeds: Sequence[int] = (0, 1, 2), level: str = "differential",
         exclude: Sequence[str] = (), out_dir: Optional[str] = None,
         shrink_failures: bool = True, max_failures: int = 10,
         deadline: Optional[float] = None,
         mem_limit_mb: Optional[float] = None,
         store=None) -> FuzzReport:
    """Run the gauntlet over the whole corpus.

    For every seed, every corpus graph, every applicable registered
    scheduler and every boundary budget, audit the probe at ``level``.
    Failures are shrunk (unless ``shrink_failures=False``), serialized to
    ``out_dir`` when given, and collected in the report; a scheduler that
    fails on a graph is not probed again on that graph's other budgets
    (one counterexample per (scheduler, graph) is enough).  Stops early
    after ``max_failures`` distinct failures.

    ``deadline`` / ``mem_limit_mb`` run every probe (and every shrink
    attempt) under its own :class:`~repro.core.governor.
    CancellationToken`.  Governance degrades the run, never its
    soundness: a cancelled probe counts as ``cancelled`` (not a
    violation), and the auditor — whose differential oracle runs in
    anytime mode — records undecidable comparisons as ``inconclusive``
    instead of guessing.  Same seeds still yield the same corpus and
    probe order; only how far each probe gets may differ.

    ``store`` (an open :class:`~repro.core.store.ResultStore` or a store
    directory path) makes repeated fuzz runs cheap: it becomes the
    auditor's :attr:`~repro.analysis.audit.Auditor.store`, so the
    differential optima are read from and committed to it (a re-fuzzed
    seed reuses every prior optimum), and each failure's repro document
    is archived in it alongside any ``out_dir`` file.
    """
    governed_run = deadline is not None or mem_limit_mb is not None
    auditor = Auditor(level=level, governed=governed_run)
    report = FuzzReport(seeds=tuple(seeds), level=level)
    owns_store = store is not None and not hasattr(store, "put_doc")
    if owns_store:
        from ..core.store import ResultStore
        store = ResultStore(store)
    auditor.store = store  # differential optima read and write through it

    def archive(failure: FuzzFailure) -> None:
        if store is None:
            return
        from ..core.store import graph_fingerprint
        store.put_doc(failure.scheduler, graph_fingerprint(failure.cdag),
                      failure.budget, json.loads(failure.to_json()))

    def finish() -> FuzzReport:
        report.inconclusive = auditor.inconclusive
        if owns_store:
            store.close()
        elif store is not None:
            store.flush()
        return report

    def make_token() -> Optional[CancellationToken]:
        if not governed_run:
            return None
        return CancellationToken(budget=deadline, mem_limit_mb=mem_limit_mb)

    def _scope(token):
        # Ungoverned runs must not disturb any caller-installed token
        # (``governed(None)`` would *suspend* it).
        return governed(token) if token is not None \
            else contextlib.nullcontext()

    for seed in seeds:
        for case_id, graph in corpus(seed):
            report.cases += 1
            budgets = budgets_for(graph)
            for key, scheduler in schedulers_for(graph,
                                                 exclude=tuple(exclude)):
                for budget in budgets:
                    try:
                        with _scope(make_token()):
                            violations = _probe(auditor, scheduler, graph,
                                                budget)
                    except ProbeCancelledError:
                        report.cancelled += 1
                        continue
                    if violations is None:
                        report.skipped += 1
                        continue
                    report.probes += 1
                    if not violations:
                        continue
                    failing_graph, budget_now, found = \
                        graph, budget, tuple(violations)
                    if shrink_failures:
                        # One fresh token for the whole shrink pass: a
                        # cancelled shrink keeps the unshrunk repro.
                        try:
                            with _scope(make_token()):
                                small, refound = shrink(key, graph, auditor)
                            if refound is not None:
                                failing_graph = small
                                budget_now, found = refound
                        except ProbeCancelledError:
                            report.cancelled += 1
                    failure = FuzzFailure(case=case_id, scheduler=key,
                                          budget=budget_now,
                                          cdag=failing_graph,
                                          violations=found, seed=seed)
                    report.failures.append(failure)
                    archive(failure)
                    if out_dir is not None:
                        report.repro_paths.append(
                            write_repro(failure, out_dir))
                    if len(report.failures) >= max_failures:
                        return finish()
                    break  # next scheduler; this pair is already indicted
    return finish()
