"""The repository's benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the repository root (it imports the program from ``src/``).
Workloads: ``reproduce``, ``oracle``, ``serve-write``, ``serve-read``
(see ``perfbench/README.md``).  A run repeats whole rounds of the
workload's operations until it has measured ``--seconds`` and checks
every output.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  A traced run also writes its spans to
``perfbench/out/``.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("reproduce", "oracle", "serve-write", "serve-read")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # A terminated run still stops its daemons: SIGTERM unwinds the
    # ``finally`` blocks like an exception.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program under {src}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT, exist_ok=True)

    from clock import Sampler, pin, steal_s
    from result import Run, load_spec, result_line
    # Every process of the run shares one vCPU, sampled from here on;
    # set-up is timed from the process's first statement (clock.py).
    cpu = pin()
    setup_mark = (T_START, steal_s(cpu))
    sampler = Sampler(cpu)
    spec = load_spec(ROOT)
    run = Run(args.seconds, bool(args.trace))
    try:
        if args.workload == "reproduce":
            import reproduce
            reproduce.run(run, args.seed, sampler, setup_mark)
        elif args.workload == "oracle":
            import oracle
            oracle.run(run, args.seed, sampler, setup_mark)
        else:
            import serve
            bench = serve.ServeBench(ROOT, args.seed, OUT, sampler)
            try:
                if args.workload == "serve-write":
                    serve.run_write(bench, run)
                else:
                    serve.run_read(bench, run)
            finally:
                bench.close()
    finally:
        sampler.stop()
    if run.tracer is not None:
        path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        run.tracer.write(path)
        print(f"spans: {path} ({len(run.tracer.spans)})", file=sys.stderr)
    for error in run.errors[:20]:
        print(f"OPERATION FAILED: {error}", file=sys.stderr)
    for problem in run.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(run.raw_summary(), file=sys.stderr)
    print(result_line(spec, run, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
