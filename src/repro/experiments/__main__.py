"""Run the full paper reproduction in one command:

    python -m repro.experiments [output_dir] [--jobs N] [--profile]
                                [--deadline SEC] [--store DIR]

Regenerates Table 1 and Figures 5-8, printing each and writing the text
artifacts to ``output_dir`` (default ``./paper_artifacts``).  Every
experiment runs on one :class:`SweepEngine`, so the searches Table 1
runs are cache hits by the time Fig. 5 needs them, and Figs. 7 and 8
are built from Table 1's rows rather than solving it again;
``--jobs`` fans their evaluation points out over worker processes and
``--profile`` prints the engine's :class:`SweepStats` report at the end.

The governance flags bound each probe's resources cooperatively:
``--deadline SEC`` (the per-probe time bound) and ``--mem-limit MB``
arm a per-probe cancellation token (governed schedulers stop themselves
at the next poll, and the probe degrades to the scheduler's designated
fallback, reported in the profile), and ``--anytime`` makes stopped
oracle probes answer with certified ``[lb, ub]`` brackets —
provenance-tagged in the artifacts and the profile — instead of
degrading straight to the greedy fallback.  ``--store DIR`` writes
completed probes through to a durable result store so a killed run
resumes where it stopped instead of restarting from zero.
"""

from __future__ import annotations

import argparse
import pathlib
import time

from ..analysis.engine import SweepEngine
from .fig5 import render_fig5, run_fig5
from .fig6 import render_fig6, run_fig6
from .fig7 import render_fig7, run_fig7
from .fig8 import render_fig8, run_fig8
from .table1 import render_table1, run_table1


def main(out_dir: str = "paper_artifacts", jobs: int = 1,
         profile: bool = False, audit: str = "off", deadline=None,
         mem_limit_mb=None, anytime: bool = False, store=None) -> None:
    out = pathlib.Path(out_dir)
    out.mkdir(exist_ok=True)
    eng = SweepEngine(jobs=jobs, audit=audit, deadline=deadline,
                      mem_limit_mb=mem_limit_mb, anytime=anytime,
                      store=store)
    # Table 1 is solved once, on the run's engine; Figs. 7 and 8 are
    # synthesized from its rows.
    solved: dict = {}

    def table1() -> str:
        solved["rows"] = run_table1(engine=eng)
        return render_table1(solved["rows"])

    def fig7() -> str:
        solved["columns"] = run_fig7(solved["rows"])
        return render_fig7(solved["columns"])

    tasks = [
        ("table1", table1),
        ("fig5", lambda: render_fig5(run_fig5(engine=eng))),
        ("fig6", lambda: render_fig6(
            run_fig6(dwt_stride=4, mvm_stride=1, engine=eng))),
        ("fig7", fig7),
        ("fig8", lambda: render_fig8(run_fig8(solved["columns"]))),
    ]
    try:
        for name, job in tasks:
            t0 = time.perf_counter()
            text = job()
            dt = time.perf_counter() - t0
            (out / f"{name}.txt").write_text(text + "\n")
            print(f"\n{'=' * 72}\n{text}\n"
                  f"[{name}: {dt:.1f}s -> {out / name}.txt]")
    finally:
        eng.close()  # commit partial progress + release the store
    if profile:
        print(f"\n{'=' * 72}\n{eng.stats.report()}")


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="regenerate the paper's tables and figures")
    ap.add_argument("output_dir", nargs="?", default="paper_artifacts")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes for the sweep engine (default 1)")
    ap.add_argument("--profile", action="store_true",
                    help="print the sweep-engine instrumentation report")
    ap.add_argument("--audit",
                    choices=["off", "bounds", "replay", "differential"],
                    default="off",
                    help="verify every probe; failed audits quarantine "
                         "the probe and surface in --profile")
    ap.add_argument("--deadline", type=float, default=None, metavar="SEC",
                    help="per-probe wall-clock bound (governed "
                         "schedulers stop themselves at the next poll; "
                         "the probe degrades to its fallback)")
    ap.add_argument("--mem-limit", type=float, default=None, metavar="MB",
                    help="per-probe RSS watchdog threshold (MiB)")
    ap.add_argument("--anytime", action="store_true",
                    help="stopped oracle probes answer with certified "
                         "[lb, ub] brackets instead of greedy fallbacks")
    ap.add_argument("--store", metavar="DIR",
                    help="durable cross-run result store directory "
                         "(fsync'd, crash-safe, multi-process)")
    return ap.parse_args(argv)


if __name__ == "__main__":
    _args = _parse_args()
    main(_args.output_dir, jobs=_args.jobs, profile=_args.profile,
         audit=_args.audit, deadline=_args.deadline,
         mem_limit_mb=_args.mem_limit, anytime=_args.anytime,
         store=_args.store)
