"""The ``serve-write`` and ``serve-read`` workloads and the serve ladder.

Both drive ``python -m repro.cli serve --store DIR`` over loopback with
batching off, no tenant policy, no deadlines and no journal, from one
process holding two connections in a closed loop.  Connection *i* owns
one (strategy, graph) pair: ``dwt-optimal`` on DWT(128, 7), Equal weights
on one connection and Double Accumulator weights on the other, so
coalescing and per-pair lock order cannot change the work.  Each
connection asks the lowest ``PER_CONN`` budgets of its pair (every budget
of the Equal pair); the seed picks their order.

``serve-write``: every request names a budget nobody asked before, so it
costs one DP solve plus one durable commit.  Each round starts a fresh
daemon on an empty store.

``serve-read``: the store is first filled (untimed, through the same
engine the daemon runs) with the records serve-write's stream makes; one
daemon started over it then answers every request of that stream
``READ_REPEAT`` times per round, all from its cache.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from clock import Sampler
from daemon import Conn, Daemon
from result import Run, percentile

N = 128                      #: DWT(128, 7)
PER_CONN = 380               #: requests per connection per write round
READ_REPEAT = 4              #: times serve-read asks each request per round
LADDER_REQUESTS = 160        #: requests driven through every ladder rung
WEIGHTS = ("equal", "da")    #: one pair per connection


def graph_spec(weights: str) -> dict:
    from repro.graphs import max_level
    return {"family": "dwt", "n": N, "d": max_level(N), "weights": weights}


def build_graph(weights: str):
    from repro.core import double_accumulator, equal
    from repro.graphs import dwt_graph, max_level
    cfg = double_accumulator() if weights == "da" else equal()
    return dwt_graph(N, max_level(N), weights=cfg)


def budget_stream(seed: int, graphs) -> List[List[int]]:
    """Per connection, the budgets it asks, in order."""
    from repro.core import min_feasible_budget
    rng = random.Random(seed)
    out = []
    for g in graphs:
        need = min_feasible_budget(g)
        step = math.gcd(*g.weights.values())
        budgets = [need + i * step for i in range(PER_CONN)]
        rng.shuffle(budgets)
        out.append(budgets)
    return out


def reference_costs(graphs, stream) -> List[Dict[int, int]]:
    """Costs from a fresh scheduler's ``cost_many``: no engine, store or
    wire involved."""
    from repro.schedulers import OptimalDWTScheduler
    return [dict(zip(budgets, OptimalDWTScheduler().cost_many(g, budgets)))
            for g, budgets in zip(graphs, stream)]


def check_answer(frame: Optional[dict], expected, cached: Optional[bool]
                 ) -> Optional[str]:
    """Problem with one served answer, or ``None``.  ``cached`` is the
    required ``cached`` flag (``None``: either)."""
    if frame is None:
        return "missing answer"
    if not frame.get("ok"):
        return f"error frame {frame.get('error')}"
    res = frame["result"]
    if res.get("cost") != expected:
        return f"cost {res.get('cost')} != reference {expected}"
    if not res.get("exact") or res.get("provenance") != "exact" \
            or res.get("degraded"):
        return f"answer not exact: {res}"
    if cached is not None and res.get("cached") is not cached:
        return f"cached={res.get('cached')}, expected {cached}"
    return None


class ServeBench:
    """The stream of one seed, its reference answers, and the daemons,
    stores and sampler of one run."""

    def __init__(self, root: str, seed: int, out_dir: str,
                 sampler: Sampler):
        self.src = os.path.join(root, "src")
        self.seed = seed
        # The daemon runs on the benchmark's vCPU, so the sampler's
        # reference loop sees the speed the daemon runs at (clock.py).
        self.sampler = sampler
        self.daemon_cpus = None if sampler.cpu is None else {sampler.cpu}
        self.tmp = os.path.join(out_dir, f"serve-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self._n = 0
        self.graphs = [build_graph(w) for w in WEIGHTS]
        self.specs = [graph_spec(w) for w in WEIGHTS]
        self.stream = budget_stream(seed, self.graphs)
        self.ref = reference_costs(self.graphs, self.stream)

    def fresh_dir(self, tag: str) -> str:
        self._n += 1
        path = os.path.join(self.tmp, f"{tag}-{self._n}")
        os.makedirs(path)
        return path

    def start_daemon(self, store: Optional[str] = None) -> Daemon:
        """Launch a daemon; ``ready`` then waits for it."""
        store = store or self.fresh_dir("store")
        mark = self.sampler.mark()
        d = Daemon(self.src, store,
                   os.path.join(self.tmp, f"daemon-{self._n}.log"),
                   self.daemon_cpus)
        d.launch_mark = mark
        return d

    def ready(self, d: Daemon) -> Tuple[float, float]:
        """Wait until ``d`` answers ``health``: (normalised, raw)
        seconds since its launch."""
        d.wait_ready()
        norm, _, raw = self.sampler.close(d.launch_mark)
        return norm, raw

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- the closed loop ------------------------------------------------ #

    def drive(self, port: int, requests: List[List[int]], cached: bool,
              run: Run, tracer=None):
        """Both connections walk their request lists concurrently, each
        answer checked as it lands.  Returns the round's normalised
        seconds, every request's normalised latency (send to final
        frame), and the same two raw."""
        lat: List[List[Tuple[float, float]]] = [[] for _ in requests]
        problems: List[List[str]] = [[] for _ in requests]
        failed = [0] * len(requests)
        start = threading.Barrier(len(requests) + 1)

        def worker(i: int) -> None:
            conn = Conn(port)
            spec = self.specs[i]
            try:
                start.wait()
                for b in requests[i]:
                    req = {"verb": "probe", "strategy": "dwt-optimal",
                           "graph": spec, "budget": b}
                    rec = tracer.begin("client.request") \
                        if tracer is not None else None
                    t0 = time.perf_counter()
                    try:
                        frame = conn.call(req)
                    except (OSError, ValueError):
                        failed[i] += 1
                        conn.close()
                        conn = Conn(port)
                        continue
                    finally:
                        if rec is not None:
                            tracer.end(rec)
                    lat[i].append((t0, time.perf_counter() - t0))
                    bad = check_answer(frame, self.ref[i][b], cached)
                    if bad:
                        problems[i].append(f"conn {i} budget {b}: {bad}")
            finally:
                conn.close()

        threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range(len(requests))]
        for t in threads:
            t.start()
        start.wait()
        mark = self.sampler.mark()
        for t in threads:
            t.join()
        seconds, share, raw = self.sampler.close(mark)
        run.attempted += sum(len(r) for r in requests)
        run.failed += sum(failed)
        for p in problems:
            run.problems.extend(p[:10])
        pairs = [x for series in lat for x in series]
        norm = [d * self.sampler.factor_at(t0) * share for t0, d in pairs]
        return seconds, norm, raw, [d for _, d in pairs]

    # -- store fill for serve-read ------------------------------------- #

    def fill_store(self, path: str) -> None:
        """Commit serve-write's records through the engine the daemon
        runs (``SweepEngine(store=..., anytime=True)``), untimed."""
        from repro.analysis.engine import SweepEngine
        from repro.schedulers import OptimalDWTScheduler
        with SweepEngine(store=path, anytime=True) as eng:
            for g, budgets in zip(self.graphs, self.stream):
                sched = OptimalDWTScheduler()
                for b in budgets:
                    eng.probe(sched, g, b)

    def read_requests(self, round_no: int) -> List[List[int]]:
        rng = random.Random(self.seed * 1000 + round_no)
        out = []
        for budgets in self.stream:
            reqs = list(budgets) * READ_REPEAT
            rng.shuffle(reqs)
            out.append(reqs)
        return out


def store_metrics(path: str) -> Dict[str, float]:
    """An engine opening over the store at ``path``: seconds, records,
    and the segment files' bytes per record."""
    from repro.analysis.engine import SweepEngine
    t0 = time.perf_counter()
    eng = SweepEngine(store=path, anytime=True)
    open_s = time.perf_counter() - t0
    records = len(eng.store)
    eng.close()
    seg = os.path.join(path, "segments")
    size = sum(os.path.getsize(os.path.join(seg, f))
               for f in os.listdir(seg))
    return {"store.open_s": open_s, "store.records": records,
            "store.bytes_per_record": size / records}


# --------------------------------------------------------------------- #
# The ladder: serve-write's stream through one more layer per rung.

RUNGS = ("solve", "engine", "store", "journal", "daemon", "client")


def ladder(bench: ServeBench, run: Run) -> Dict[str, float]:
    """Median normalised milliseconds per request at each rung, and each
    layer's self time as the difference of adjacent rungs.  Rungs take
    every request in turn, so host speed drift hits all of them alike;
    each rung has its own state (memo, engine, store, daemon), so every
    request is fresh at every rung."""
    from repro.analysis.engine import SweepEngine
    from repro.schedulers import OptimalDWTScheduler
    from repro.service.resilience import ResilientClient

    reqs = [(i, bench.stream[i][k]) for k in range(LADDER_REQUESTS // 2)
            for i in range(len(bench.stream))]
    scheds = {r: [OptimalDWTScheduler() for _ in bench.graphs]
              for r in RUNGS[:4]}
    memos = [dict() for _ in bench.graphs]
    engines = {
        "engine": SweepEngine(anytime=True),
        "store": SweepEngine(anytime=True, store=bench.fresh_dir("lstore")),
        "journal": SweepEngine(
            anytime=True, store=bench.fresh_dir("ljournal"),
            checkpoint=os.path.join(bench.fresh_dir("lckpt"), "j.json")),
    }
    daemons: List[Daemon] = []
    times: Dict[str, List[float]] = {r: [] for r in RUNGS}
    tracer = run.tracer
    try:
        d_raw = bench.start_daemon()
        daemons.append(d_raw)
        d_client = bench.start_daemon()
        daemons.append(d_client)
        bench.ready(d_raw)
        bench.ready(d_client)
        conn = Conn(d_raw.port)
        rc = ResilientClient([f"127.0.0.1:{d_client.port}"],
                             hedge_after=None)
        for k, (i, b) in enumerate(reqs):
            g = bench.graphs[i]
            expected = bench.ref[i][b]
            spec = bench.specs[i]
            tracer.op_id = f"ladder:{k}"

            def timed(rung, fn):
                rec = tracer.begin(f"ladder.{rung}")
                t0 = time.perf_counter()
                try:
                    return fn()
                finally:
                    times[rung].append((time.perf_counter() - t0)
                                       * bench.sampler.factor_at(t0))
                    tracer.end(rec)

            got = timed("solve", lambda: scheds["solve"][i].cost_many(
                g, (b,), memo=memos[i])[0])
            if got != expected:
                run.problems.append(f"ladder solve {b}: {got} != {expected}")
            for rung in ("engine", "store", "journal"):
                out = timed(rung, lambda: engines[rung].probe(
                    scheds[rung][i], g, b))
                if out.cost != expected or not out.exact or out.cached:
                    run.problems.append(f"ladder {rung} {b}: {out}")
            answers = {
                "daemon": timed("daemon", lambda: conn.call(
                    {"verb": "probe", "graph": spec,
                     "strategy": "dwt-optimal", "budget": b})),
                "client": timed("client", lambda: rc.probe(
                    spec, "dwt-optimal", b)),
            }
            for rung, frame in answers.items():
                bad = check_answer(frame, expected, False)
                if bad:
                    run.problems.append(f"ladder {rung} {b}: {bad}")
        conn.close()
        rc.close()
    finally:
        for eng in engines.values():
            eng.close()
        for d in daemons:
            d.stop()
    ms = {r: statistics.median(times[r]) * 1000.0 for r in RUNGS}
    out = {f"ladder.{r}_ms": v for r, v in ms.items()}
    out["ladder.engine_self_ms"] = ms["engine"] - ms["solve"]
    out["ladder.store_self_ms"] = ms["store"] - ms["engine"]
    out["ladder.journal_self_ms"] = ms["journal"] - ms["store"]
    out["ladder.daemon_self_ms"] = ms["daemon"] - ms["store"]
    out["ladder.client_self_ms"] = ms["client"] - ms["daemon"]
    return out


# --------------------------------------------------------------------- #
# Workload entry points


def _service_metrics(d: Daemon, before: dict, after: dict, cpu0: float,
                     client_cpu: float, lat: List[float]) -> dict:
    """Daemon, client and engine counters of one traced round."""
    n = len(lat)
    eng0, eng1 = before["engine"], after["engine"]
    probes = eng1["probes"] - eng0["probes"]
    hits = eng1["cache_hits"] - eng0["cache_hits"]
    evals = eng1["evals"] - eng0["evals"]
    return {
        "daemon.cpu_ms_per_req": (d.cpu_s() - cpu0) * 1000.0 / n,
        "client.cpu_ms_per_req": client_cpu * 1000.0 / n,
        "daemon.evals": evals,
        "daemon.coalesced": (after["coalesce"]["hits"]
                             - before["coalesce"]["hits"]),
        "daemon.rejections": (sum(after["rejections"].values())
                              - sum(before["rejections"].values())),
        "client.p90_ms": percentile(lat, 0.90) * 1000.0,
        "client.p99_ms": percentile(lat, 0.99) * 1000.0,
        "engine.probes": probes,
        "engine.cache_hits": hits,
        "engine.hit_ratio": hits / probes if probes else 0.0,
        "engine.evals": evals,
    }


def _round(bench: ServeBench, run: Run, d: Daemon, requests, cached: bool,
           expected_evals: int, traced: bool) -> None:
    """One timed round against ``d``; every answer and the daemon's
    evaluation count are checked."""
    before = d.stats()
    cpu0, ccpu0 = d.cpu_s(), time.process_time()
    seconds, lat, raw, raw_lat = bench.drive(
        d.port, requests, cached, run, run.tracer if traced else None)
    ccpu = time.process_time() - ccpu0
    after = d.stats()
    evals = after["engine"]["evals"] - before["engine"]["evals"]
    if evals != expected_evals:
        run.problems.append(f"daemon ran {evals} evaluations, expected "
                            f"{expected_evals}")
    # Each connection owns its pairs and nothing is rate-limited, so no
    # request may share another's flight or be refused.
    coalesced = after["coalesce"]["hits"] - before["coalesce"]["hits"]
    rejected = (sum(after["rejections"].values())
                - sum(before["rejections"].values()))
    if coalesced or rejected:
        run.problems.append(f"{coalesced} requests coalesced and "
                            f"{rejected} rejected, expected none")
    run.add_round(seconds, lat, traced, raw, raw_lat)
    if traced:
        run.layer.update(_service_metrics(d, before, after, cpu0, ccpu,
                                          lat))


def import_s(bench: ServeBench) -> float:
    """Seconds a fresh interpreter on the run's vCPU takes to import
    ``repro.cli``, the daemon's entry module."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=bench.src)
    cpus = bench.daemon_cpus
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120,
        preexec_fn=None if cpus is None else
        lambda: os.sched_setaffinity(0, cpus))
    return float(out.stdout)


def run_write(bench: ServeBench, run: Run) -> None:
    n_req = sum(len(r) for r in bench.stream)
    run.start()
    for round_no, traced in run.rounds():
        store = bench.fresh_dir("store")
        d = bench.start_daemon(store)
        try:
            setup, raw_setup = bench.ready(d)
            if round_no == 0:
                run.setup_s, run.raw_setup_s = setup, raw_setup
            _round(bench, run, d, bench.stream, False, n_req, traced)
            run.peak_rss.append(d.peak_rss_mb())
        finally:
            d.stop()
        if traced:
            run.layer.update(store_metrics(store))
        shutil.rmtree(store, ignore_errors=True)
    if run.tracer is not None:
        run.layer.update(ladder(bench, run))
        run.layer["import_s"] = import_s(bench)


def run_read(bench: ServeBench, run: Run) -> None:
    store = bench.fresh_dir("filled")
    bench.fill_store(store)
    d = bench.start_daemon(store)
    try:
        run.setup_s, run.raw_setup_s = bench.ready(d)
        run.start()
        for round_no, traced in run.rounds():
            _round(bench, run, d, bench.read_requests(round_no), True, 0,
                   traced)
        run.peak_rss.append(d.peak_rss_mb())
    finally:
        d.stop()
    if run.tracer is not None:
        run.layer.update(store_metrics(store))
        run.layer.update(ladder(bench, run))
        run.layer["import_s"] = import_s(bench)
