"""Command-line interface: ``python -m repro.cli <command> ...``.

Subcommands:

* ``build``     — construct a named graph family and write it as JSON
                  (or print a summary / DOT).
* ``schedule``  — derive a schedule for a graph at a budget with a chosen
                  strategy; verify it; write/print it.
* ``minmem``    — minimum fast memory size (Def. 2.6) of a strategy.
* ``synth``     — synthesize the SRAM macro for a capacity.
* ``experiments`` — regenerate the paper's tables/figures (delegates to
                  :mod:`repro.experiments.__main__`).
* ``fuzz``      — seeded property-based audit fuzzing of every registered
                  scheduler; writes minimized JSON repro files and can
                  replay them (``--replay``).

The sweep-driving subcommands (``minmem``, ``experiments``) accept
``--audit={off,bounds,replay,differential}``: every probe is then
verified against the simulator / bounds / exhaustive optimum, and failed
audits quarantine the probe (fallback answer, ``degraded`` flag, violation
listed under ``--profile``).

Examples::

    python -m repro.cli build dwt --n 256 --d 8 -o dwt.json
    python -m repro.cli schedule dwt.json --budget-words 10 --strategy dwt-optimal
    python -m repro.cli minmem dwt.json --strategy layer-by-layer
    python -m repro.cli synth --bits 2048
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import serialize
from .core import (CDAG, algorithmic_lower_bound, double_accumulator, equal,
                   min_feasible_budget, simulate)
from .graphs import (conv_graph, dwt_graph, fft_graph, kdwt_graph, mvm_graph,
                     banded_mvm_graph)
from .hardware import MemoryCompiler, floorplan, render_ascii
from .schedulers import (EvictionScheduler, GreedyTopologicalScheduler,
                         LayerByLayerScheduler, OptimalDWTScheduler,
                         OptimalKDWTScheduler, OptimalTreeScheduler,
                         TilingMVMScheduler)
from .viz import occupancy_timeline, schedule_summary, to_dot

STRATEGIES = ("dwt-optimal", "kary-optimal", "tiling", "layer-by-layer",
              "greedy", "belady", "lru", "exhaustive")


def _config(name: str):
    return double_accumulator() if name == "da" else equal()


def _make_scheduler(name: str, cdag: CDAG, args=None):
    if name == "dwt-optimal":
        return OptimalDWTScheduler()
    if name == "kary-optimal":
        return OptimalTreeScheduler()
    if name == "tiling":
        return TilingMVMScheduler.for_graph(cdag)
    if name == "layer-by-layer":
        return LayerByLayerScheduler()
    if name == "greedy":
        return GreedyTopologicalScheduler()
    if name in ("belady", "lru"):
        return EvictionScheduler(policy=name)
    if name == "exhaustive":
        from .schedulers import ExhaustiveScheduler
        kwargs = {}
        if args is not None:
            if getattr(args, "oracle_max_nodes", None) is not None:
                kwargs["max_nodes"] = args.oracle_max_nodes
            if getattr(args, "oracle_max_states", None) is not None:
                kwargs["max_states"] = args.oracle_max_states
            if getattr(args, "oracle_legacy", False):
                kwargs["core"] = "legacy"
        return ExhaustiveScheduler(**kwargs)
    raise SystemExit(f"unknown strategy {name!r}; pick from {STRATEGIES}")


def _add_oracle_flags(parser) -> None:
    """Exhaustive-oracle tuning flags for subcommands with --strategy."""
    parser.add_argument("--oracle-max-nodes", type=int, default=None,
                        metavar="N",
                        help="node-count cap for --strategy exhaustive "
                             "(default: scheduler default)")
    parser.add_argument("--oracle-max-states", type=int, default=None,
                        metavar="N",
                        help="settled-state cap for --strategy exhaustive")
    parser.add_argument("--oracle-legacy", action="store_true",
                        help="use the uninformed-Dijkstra oracle core "
                             "instead of A* (debugging / benchmarking)")


def cmd_build(args) -> int:
    cfg = _config(args.weights)
    if args.family == "dwt":
        g = dwt_graph(args.n, args.d, weights=cfg)
    elif args.family == "kdwt":
        g = kdwt_graph(args.n, args.d, args.k, weights=cfg)
    elif args.family == "mvm":
        g = mvm_graph(args.m, args.n, weights=cfg)
    elif args.family == "banded-mvm":
        g = banded_mvm_graph(args.m, args.n, args.bandwidth, weights=cfg)
    elif args.family == "fft":
        g = fft_graph(args.n, weights=cfg)
    elif args.family == "conv":
        g = conv_graph(args.n, args.taps, weights=cfg)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown family {args.family!r}")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(serialize.dumps_cdag(g, indent=None))
        print(f"wrote {g.name}: |V|={len(g)} |E|={g.num_edges} "
              f"-> {args.output}")
    elif args.dot:
        print(to_dot(g))
    else:
        print(f"{g.name}: |V|={len(g)} |E|={g.num_edges} "
              f"inputs={len(g.sources)} outputs={len(g.sinks)} "
              f"LB={algorithmic_lower_bound(g)} bits "
              f"minB={min_feasible_budget(g)} bits")
    return 0


def _load_graph(path: str) -> CDAG:
    with open(path) as fh:
        return serialize.loads_cdag(fh.read())


def cmd_schedule(args) -> int:
    g = _load_graph(args.graph)
    budget = (args.budget_bits if args.budget_bits
              else args.budget_words * 16)
    scheduler = _make_scheduler(args.strategy, g, args)
    sched = scheduler.schedule(g, budget)
    result = simulate(g, sched, budget=budget)
    print(schedule_summary(g, sched))
    print(f"verified: cost={result.cost} bits "
          f"(lower bound {algorithmic_lower_bound(g)}), "
          f"peak={result.peak_red_weight}/{budget} bits")
    if args.timeline:
        print(occupancy_timeline(g, sched, budget=budget))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(serialize.dumps_schedule(sched, g.name))
        print(f"wrote schedule -> {args.output}")
    return 0


def cmd_trace(args) -> int:
    from .machine import render_trace, trace, AddressMap
    g = _load_graph(args.graph)
    budget = (args.budget_bits if args.budget_bits
              else args.budget_words * 16)
    scheduler = _make_scheduler(args.strategy, g, args)
    sched = scheduler.schedule(g, budget)
    simulate(g, sched, budget=budget)
    records = trace(g, sched, AddressMap(g, base_address=args.base))
    text = render_trace(records)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(records)} accesses -> {args.output}")
    else:
        print(text)
    return 0


def cmd_minmem(args) -> int:
    from .analysis import SweepEngine
    g = _load_graph(args.graph)
    scheduler = _make_scheduler(args.strategy, g, args)
    with SweepEngine(audit=args.audit, deadline=args.deadline,
                     mem_limit_mb=args.mem_limit, anytime=args.anytime,
                     store=args.store) as engine:
        bits = engine.min_memory(scheduler, g)
    if bits is None:
        print("strategy never reaches the lower bound")
        return 1
    print(f"{args.strategy} on {g.name}: minimum fast memory = {bits} bits "
          f"= {bits // 16} words (16-bit)")
    if args.profile:
        print(engine.stats.report())
    return 0


def cmd_synth(args) -> int:
    compiler = MemoryCompiler(word_bits=args.word_bits)
    macro = (compiler.synthesize_pow2(args.bits) if args.pow2
             else compiler.synthesize(args.bits))
    org = macro.org
    print(f"{macro.capacity_bits} bits: {org.rows}r x {org.cols}c x "
          f"{org.banks} bank(s), mux {org.mux}")
    print(f"  area           {macro.area:.0f}")
    print(f"  leakage        {macro.leakage_mw:.2f} mW")
    print(f"  read power     {macro.read_power_mw:.2f} mW")
    print(f"  write power    {macro.write_power_mw:.2f} mW")
    print(f"  access time    {macro.access_time_ns:.3f} ns")
    print(f"  read BW        {macro.read_bandwidth_gbps:.1f} GB/s")
    if args.layout:
        print(render_ascii(floorplan(macro)))
    return 0


def cmd_compare(args) -> int:
    from .analysis import compare
    g = _load_graph(args.graph)
    strategies = [_make_scheduler(name, g, args) for name in args.strategies]
    budgets = None
    if args.budget_words:
        budgets = [w * 16 for w in args.budget_words]
    print(compare(g, strategies, budgets).render())
    return 0


def cmd_experiments(args) -> int:
    from .experiments.__main__ import main as run_all
    run_all(args.output_dir, jobs=args.jobs, profile=args.profile,
            audit=args.audit, deadline=args.deadline,
            mem_limit_mb=args.mem_limit, anytime=args.anytime,
            store=args.store)
    return 0


def cmd_fuzz(args) -> int:
    from .analysis.fuzz import fuzz, replay_repro
    from .core.exceptions import PebbleGameError
    if args.replay:
        failures = 0
        for path in args.replay:
            with open(path) as fh:
                text = fh.read()
            try:
                violations, data = replay_repro(text, level=args.level)
            except PebbleGameError as exc:
                # Malformed document / unknown scheduler key: report the
                # file and keep replaying the rest.
                failures += 1
                print(f"UNREPLAYABLE {path}: {exc}")
                continue
            tag = (f"{data['scheduler']} on {data['cdag'].name} "
                   f"at B={data['budget']}")
            if violations:
                failures += 1
                print(f"STILL FAILING {path}: {tag}")
                for v in violations:
                    print(f"  {v.describe()}")
            else:
                print(f"clean {path}: {tag}")
        return 1 if failures else 0
    report = fuzz(seeds=args.seeds, level=args.level,
                  exclude=tuple(args.exclude or ()), out_dir=args.out,
                  max_failures=args.max_failures,
                  deadline=args.deadline, mem_limit_mb=args.mem_limit,
                  store=args.store)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    import asyncio

    from .analysis import SweepEngine
    from .service import SchedulingDaemon, TenantGovernor

    try:
        governor = TenantGovernor.parse(args.tenant or [])
    except ValueError as exc:
        raise SystemExit(str(exc))
    engine = SweepEngine(store=args.store, anytime=True)
    daemon = SchedulingDaemon(engine, host=args.host, port=args.port,
                              max_pending=args.max_pending,
                              max_inflight=args.max_inflight,
                              tenants=governor,
                              drain_deadline=args.drain_deadline,
                              name=args.name,
                              log=(print if args.verbose else None))
    try:
        asyncio.run(daemon.run(announce=lambda msg: print(msg, flush=True)))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def _add_fault_flags(parser) -> None:
    """Fault-tolerance flags shared by the sweep-driving subcommands."""
    parser.add_argument("--audit",
                        choices=["off", "bounds", "replay", "differential"],
                        default="off",
                        help="verify every probe at this level; failed "
                             "audits quarantine the probe (fallback answer "
                             "+ degraded flag + violation in the profile)")
    parser.add_argument("--deadline", type=float, default=None, metavar="SEC",
                        help="per-probe wall-clock bound: governed "
                             "schedulers stop themselves at the next poll "
                             "and the probe degrades to the scheduler's "
                             "fallback")
    parser.add_argument("--mem-limit", type=float, default=None, metavar="MB",
                        help="per-probe RSS watchdog threshold (MiB); pool "
                             "workers additionally install a hard "
                             "address-space rlimit backstop")
    parser.add_argument("--anytime", action="store_true",
                        help="governed oracle probes answer with certified "
                             "[lb, ub] brackets (value = ub, provenance "
                             "'anytime') instead of degrading straight to "
                             "the greedy fallback")
    parser.add_argument("--store", metavar="DIR",
                        help="durable cross-run result store directory "
                             "(created if missing): fsync'd, crash-safe, "
                             "shared across concurrent processes; probes "
                             "answered from it are never recomputed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro", description="Weighted Red-Blue Pebble Game toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a graph family")
    b.add_argument("family", choices=["dwt", "kdwt", "mvm", "banded-mvm",
                                      "fft", "conv"])
    b.add_argument("--n", type=int, default=16)
    b.add_argument("--d", type=int, default=2)
    b.add_argument("--k", type=int, default=3)
    b.add_argument("--m", type=int, default=4)
    b.add_argument("--taps", type=int, default=3)
    b.add_argument("--bandwidth", type=int, default=1)
    b.add_argument("--weights", choices=["equal", "da"], default="equal")
    b.add_argument("-o", "--output")
    b.add_argument("--dot", action="store_true")
    b.set_defaults(fn=cmd_build)

    s = sub.add_parser("schedule", help="derive + verify a schedule")
    s.add_argument("graph", help="graph JSON from `build -o`")
    s.add_argument("--strategy", choices=STRATEGIES, default="belady")
    s.add_argument("--budget-words", type=int, default=16)
    s.add_argument("--budget-bits", type=int)
    s.add_argument("--timeline", action="store_true")
    s.add_argument("-o", "--output")
    _add_oracle_flags(s)
    s.set_defaults(fn=cmd_schedule)

    t = sub.add_parser("trace", help="emit a slow-memory access trace")
    t.add_argument("graph")
    t.add_argument("--strategy", choices=STRATEGIES, default="belady")
    t.add_argument("--budget-words", type=int, default=16)
    t.add_argument("--budget-bits", type=int)
    t.add_argument("--base", type=lambda x: int(x, 0), default=0x1000)
    t.add_argument("-o", "--output")
    _add_oracle_flags(t)
    t.set_defaults(fn=cmd_trace)

    m = sub.add_parser("minmem", help="minimum fast memory size (Def. 2.6)")
    m.add_argument("graph")
    m.add_argument("--strategy", choices=STRATEGIES, default="belady")
    m.add_argument("--profile", action="store_true",
                   help="print sweep-engine instrumentation")
    _add_fault_flags(m)
    _add_oracle_flags(m)
    m.set_defaults(fn=cmd_minmem)

    y = sub.add_parser("synth", help="synthesize an SRAM macro")
    y.add_argument("--bits", type=int, required=True)
    y.add_argument("--word-bits", type=int, default=16)
    y.add_argument("--pow2", action="store_true")
    y.add_argument("--layout", action="store_true")
    y.set_defaults(fn=cmd_synth)

    c = sub.add_parser("compare", help="evaluate strategies side by side")
    c.add_argument("graph")
    c.add_argument("--strategies", nargs="+", default=["belady", "greedy"],
                   choices=STRATEGIES)
    c.add_argument("--budget-words", nargs="+", type=int)
    _add_oracle_flags(c)
    c.set_defaults(fn=cmd_compare)

    e = sub.add_parser("experiments", help="regenerate the paper artifacts")
    e.add_argument("--output-dir", default="paper_artifacts")
    e.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the sweep engine")
    e.add_argument("--profile", action="store_true",
                   help="print sweep-engine instrumentation")
    _add_fault_flags(e)
    e.set_defaults(fn=cmd_experiments)

    v = sub.add_parser(
        "serve", help="long-lived scheduling daemon (JSON over TCP)")
    v.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: loopback only)")
    v.add_argument("--port", type=int, default=0,
                   help="TCP port; 0 picks an ephemeral port, announced "
                        "on stdout as 'repro-serve listening on H:P'")
    v.add_argument("--store", metavar="DIR",
                   help="durable result store backing the daemon "
                        "(crash-safe; probes served from it are never "
                        "recomputed)")
    v.add_argument("--max-inflight", type=int, default=2, metavar="N",
                   help="solver threads (default 2)")
    v.add_argument("--max-pending", type=int, default=16, metavar="N",
                   help="admitted-but-waiting solves beyond the inflight "
                        "limit before requests get structured "
                        "'overloaded' rejections (default 16)")
    v.add_argument("--drain-deadline", type=float, default=10.0,
                   metavar="SEC",
                   help="SIGTERM grace: seconds to let in-flight requests "
                        "finish before cooperative cancellation")
    v.add_argument("--name", default=None, metavar="NAME",
                   help="replica label reported in the health/stats "
                        "'replica' stanza (default: replica-<pid>); a "
                        "fleet client shows it in failover diagnostics")
    v.add_argument("--tenant", action="append", metavar="SPEC",
                   help="per-tenant policy 'NAME:rate=R,burst=B,"
                        "deadline=S,mem=MB' (NAME '*' sets the default; "
                        "repeatable)")
    v.add_argument("--verbose", action="store_true",
                   help="log request-level events to stdout")
    v.set_defaults(fn=cmd_serve)

    f = sub.add_parser(
        "fuzz", help="property-based audit fuzzing of every scheduler")
    f.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2],
                   help="corpus seeds (deterministic; default 0 1 2)")
    f.add_argument("--level",
                   choices=["bounds", "replay", "differential"],
                   default="differential",
                   help="audit level applied to every probe")
    f.add_argument("--exclude", nargs="*", metavar="KEY",
                   help="registry keys to skip (e.g. exhaustive)")
    f.add_argument("--out", metavar="DIR",
                   help="write minimized JSON repro files here")
    f.add_argument("--max-failures", type=int, default=10,
                   help="stop after this many distinct failures")
    f.add_argument("--replay", nargs="+", metavar="FILE",
                   help="re-run saved repro files instead of fuzzing; "
                        "exits 1 if any still fails")
    f.add_argument("--deadline", type=float, default=None, metavar="SEC",
                   help="cooperative per-probe deadline; cancelled probes "
                        "count as 'cancelled', never as violations")
    f.add_argument("--mem-limit", type=float, default=None, metavar="MB",
                   help="per-probe RSS watchdog threshold (MiB)")
    f.add_argument("--store", metavar="DIR",
                   help="durable result store: differential-audit oracle "
                        "optima are served from and written through it "
                        "(repeated seeds stop re-solving), and repro "
                        "documents are archived in it")
    f.set_defaults(fn=cmd_fuzz)
    return ap


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
