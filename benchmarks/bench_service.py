"""Service throughput benchmark: micro-batched vs probe-at-a-time daemon.

Drives a real ``repro.cli serve`` subprocess — durable store attached,
the deployment shape — with many concurrent clients probing **distinct
budgets** of one probe family at a time, the workload cross-request
micro-batching exists for.  Two passes: once with ``--batch-window 0``
(the probe-at-a-time wire: one executor dispatch, one engine-lock
acquisition and one ``cost_many`` call per probe) and once with batching
enabled (a fused batch of k probes shares one of each).  Both sides
commit every probe to the store individually, one fsync each: the
engine's store commits every put, so batching does not amortize
durability.  Reports req/s,
client-observed p50/p95 latency, and the daemon's batching counters,
and verifies **every** served cost against a store-less single-probe
reference computed in this process (zero drift tolerated: batching must
change performance, never answers).

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py            # full
    PYTHONPATH=src python benchmarks/bench_service.py --quick    # CI smoke

Writes ``benchmarks/results/BENCH_service.json``.  Exit status is
non-zero on any cost drift, or when the batched/unbatched throughput
ratio falls below ``--min-speedup`` (default 2.0 full, 1.0 quick; set
0 to record without asserting).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from repro.core.store import graph_fingerprint
from repro.service.protocol import (encode, resolve_graph,
                                    resolve_scheduler)

#: (graph spec, budgets) probe families: the workload micro-batching
#: exists for.  Many clients, distinct budgets, solves fast enough that
#: *serving* overhead — executor round-trips, engine-lock acquisitions,
#: one dispatch per request — dominates, which is what fusing k probes
#: into one ``cost_many`` amortizes.  Budget grids start at each
#: family's min-memory so every probe is feasible, and their length is
#: divisible by the default client count so batches fire full.
STRATEGY = "dwt-optimal"
CORPUS_FULL = (
    ({"family": "dwt", "n": 8, "d": 2, "weights": "equal"},
     tuple(range(64, 320, 8))),
    ({"family": "dwt", "n": 8, "d": 2, "weights": "da"},
     tuple(range(96, 352, 8))),
    ({"family": "dwt", "n": 16, "d": 2, "weights": "equal"},
     tuple(range(64, 320, 8))),
    ({"family": "dwt", "n": 16, "d": 4, "weights": "equal"},
     tuple(range(96, 352, 8))),
)
CORPUS_QUICK = (
    ({"family": "dwt", "n": 8, "d": 2, "weights": "equal"},
     tuple(range(64, 192, 8))),
    ({"family": "dwt", "n": 8, "d": 2, "weights": "da"},
     tuple(range(96, 224, 8))),
)


def reference(corpus):
    """Store-less single-probe ground truth: a fresh scheduler per
    family, one ``cost_many`` call per budget (exactly the unbatched
    daemon's evaluation path)."""
    expected = {}
    for spec, budgets in corpus:
        cdag = resolve_graph(spec)
        gkey = graph_fingerprint(cdag)
        sched = resolve_scheduler({"name": STRATEGY})
        memo: dict = {}
        for b in budgets:
            expected[(gkey, b)] = sched.cost_many(cdag, (b,), memo=memo)[0]
    return expected


def spawn_daemon(store_dir, extra, ready_timeout=60.0):
    """Launch ``repro.cli serve`` with a durable store on an ephemeral
    port.  The store is the deployment shape; both sides commit (fsync)
    every probe's result individually."""
    src_root = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--store", store_dir,
         "--max-inflight", "2", "--max-pending", "256", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = time.monotonic() + ready_timeout
    line = b""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        if not ready:
            break
        line = proc.stdout.readline()
        break
    m = re.match(rb"repro-serve listening on ([\d.]+):(\d+)", line)
    if not m:
        proc.kill()
        _, err = proc.communicate(timeout=30)
        raise RuntimeError(f"daemon never announced readiness "
                           f"(got {line!r})\n{err.decode(errors='replace')}")
    return proc, m.group(1).decode(), int(m.group(2))


async def drive(host, port, corpus, clients):
    """All clients walk the corpus family by family (a barrier keeps
    them on the same family, so distinct-budget requests overlap), one
    single-budget probe per request.  Returns (served, latencies,
    wall_s, daemon_stats)."""
    barrier = asyncio.Barrier(clients)
    served = {}
    latencies = []

    async def client(idx):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for spec, budgets in corpus:
                gkey = graph_fingerprint(resolve_graph(spec))
                await barrier.wait()
                for b in budgets[idx::clients]:
                    t0 = time.perf_counter()
                    writer.write(encode({
                        "verb": "probe", "graph": spec,
                        "strategy": STRATEGY, "budget": b,
                        "id": f"{idx}"}))
                    await writer.drain()
                    line = await asyncio.wait_for(reader.readline(), 120.0)
                    latencies.append(time.perf_counter() - t0)
                    frame = json.loads(line)
                    if not frame.get("ok"):
                        raise RuntimeError(f"probe failed: {frame}")
                    served[(gkey, b)] = frame["result"]
        finally:
            writer.close()

    t0 = time.perf_counter()
    await asyncio.gather(*(client(i) for i in range(clients)))
    wall = time.perf_counter() - t0
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode({"verb": "stats"}))
        await writer.drain()
        stats = json.loads(await asyncio.wait_for(
            reader.readline(), 30.0))["result"]
    finally:
        writer.close()
    return served, latencies, wall, stats


def run_side(label, corpus, clients, batch_args, log=print):
    with tempfile.TemporaryDirectory(prefix=f"bench-svc-{label}-") as store:
        proc, host, port = spawn_daemon(store, batch_args)
        try:
            served, lat, wall, stats = asyncio.run(
                drive(host, port, corpus, clients))
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
    n = len(lat)
    lat_ms = sorted(x * 1000.0 for x in lat)
    result = {
        "requests": n,
        "wall_s": round(wall, 4),
        "req_per_s": round(n / wall, 2) if wall > 0 else None,
        "p50_ms": round(statistics.median(lat_ms), 3),
        "p95_ms": round(lat_ms[min(n - 1, int(0.95 * n))], 3),
        "batch": stats.get("batch"),
    }
    log(f"  {label}: {n} probes in {wall:.2f}s -> "
        f"{result['req_per_s']} req/s "
        f"(p50 {result['p50_ms']:.1f}ms, p95 {result['p95_ms']:.1f}ms)")
    return served, result


def run(quick, clients, window_ms, batch_max, min_speedup, out_path,
        log=print):
    corpus = CORPUS_QUICK if quick else CORPUS_FULL
    total = sum(len(b) for _, b in corpus)
    log(f"service bench: {len(corpus)} families, {total} distinct probes, "
        f"{clients} clients, window {window_ms}ms")
    log("computing store-less reference...")
    expected = reference(corpus)

    log("unbatched daemon (--batch-window 0):")
    served_u, unbatched = run_side("unbatched", corpus, clients, (), log)
    log(f"batched daemon (--batch-window {window_ms}"
        f" --batch-max {batch_max}):")
    served_b, batched = run_side(
        "batched", corpus, clients,
        ("--batch-window", str(window_ms), "--batch-max", str(batch_max)),
        log)

    drift = []
    for name, served in (("unbatched", served_u), ("batched", served_b)):
        for key, want in expected.items():
            got = served.get(key)
            # inf/nan travel as strings on the wire (strict JSON).
            cost = got.get("cost") if got else None
            if isinstance(cost, str):
                cost = float(cost)
            if got is None:
                drift.append(f"{name}: probe {key} never answered")
            elif not got.get("exact") or cost != want:
                drift.append(f"{name}: {key} served {got.get('cost')} "
                             f"(exact={got.get('exact')}), want {want}")
    speedup = (batched["req_per_s"] / unbatched["req_per_s"]
               if unbatched["req_per_s"] else None)
    report = {
        "benchmark": "service-micro-batching",
        "mode": "quick" if quick else "full",
        "clients": clients,
        "batch_window_ms": window_ms,
        "batch_max": batch_max,
        "corpus": [{"graph": spec, "budgets": list(budgets)}
                   for spec, budgets in corpus],
        "distinct_probes": total,
        "unbatched": unbatched,
        "batched": batched,
        "speedup": round(speedup, 3) if speedup else None,
        "drift": len(drift),
        "drift_details": drift[:20],
    }
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log(f"wrote {out_path}")
    log(f"speedup: {report['speedup']}x (floor {min_speedup}x), "
        f"drift: {len(drift)}")
    if drift:
        log("DRIFT (first 20):")
        for d in drift[:20]:
            log(f"  {d}")
        return 1
    if min_speedup > 0 and (speedup is None or speedup < min_speedup):
        log(f"FAIL: batched daemon is {report['speedup']}x the unbatched "
            f"one; floor is {min_speedup}x")
        return 1
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke: smaller corpus, speedup floor 1.0")
    ap.add_argument("--clients", type=int, default=8, metavar="N")
    ap.add_argument("--batch-window", type=float, default=10.0,
                    metavar="MS", help="batched side's fuse window")
    ap.add_argument("--batch-max", type=int, default=0, metavar="K",
                    help="batched side's max batch (0 = clients)")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="throughput floor (default 2.0; 1.0 with "
                         "--quick; 0 records without asserting)")
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "results",
        "BENCH_service.json"))
    args = ap.parse_args(argv)
    min_speedup = args.min_speedup
    if min_speedup is None:
        min_speedup = 1.0 if args.quick else 2.0
    return run(args.quick, max(2, args.clients), args.batch_window,
               args.batch_max or max(2, args.clients), min_speedup,
               args.out)


if __name__ == "__main__":
    sys.exit(main())
