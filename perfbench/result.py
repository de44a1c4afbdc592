"""One run's measurements and the result line built from them."""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from typing import Dict, Iterator, List, Optional, Tuple

from spans import Tracer


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` (peak resident memory) of a process, MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


class Run:
    """Rounds, operations, failures and check problems of one run.

    A run repeats whole rounds of the same operations until it has
    measured ``seconds`` (at least ``min_rounds``).  With tracing on, one
    traced round follows the untraced ones; the end-to-end figures come
    from the untraced rounds only.
    """

    def __init__(self, seconds: float, trace: bool):
        self.seconds = seconds
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.setup_s: Optional[float] = None
        self.raw_setup_s: Optional[float] = None
        self.round_s: List[float] = []
        self.traced_round_s: List[float] = []
        self.op_s: List[float] = []
        self.traced_op_s: List[float] = []
        #: raw wall seconds of the untraced rounds and operations
        self.raw_round_s: List[float] = []
        self.raw_op_s: List[float] = []
        self.peak_rss: List[float] = []
        self.attempted = 0
        self.failed = 0
        #: failed checks (``correct`` is false when any)
        self.problems: List[str] = []
        #: exceptions of failed operations (counted in ``failed``)
        self.errors: List[str] = []
        #: per-layer metrics (traced runs)
        self.layer: Dict[str, float] = {}
        self._t0: Optional[float] = None

    def start(self) -> None:
        """Measuring begins (after set-up)."""
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def rounds(self, min_rounds: int = 1) -> Iterator[Tuple[int, bool]]:
        """``(round number, traced)`` for every round of the run."""
        n = 0
        while n < min_rounds or self.elapsed() < self.seconds:
            yield n, False
            n += 1
        if self.tracer is not None:
            yield n, True

    def add_round(self, seconds: float, op_s: List[float], traced: bool,
                  raw_seconds: float, raw_op_s: List[float]) -> None:
        """One round's normalised and raw times (see clock.py)."""
        if traced:
            self.traced_round_s.append(seconds)
            self.traced_op_s.extend(op_s)
        else:
            self.round_s.append(seconds)
            self.op_s.extend(op_s)
            self.raw_round_s.append(raw_seconds)
            self.raw_op_s.extend(raw_op_s)

    def raw_summary(self) -> str:
        """The untraced time metrics in raw wall seconds (for the
        README's reference figures; not part of the result line)."""
        return (f"raw: run_s={statistics.median(self.raw_round_s):.6f} "
                f"op_p50_ms="
                f"{statistics.median(self.raw_op_s) * 1000.0:.6f} "
                f"setup_s={self.raw_setup_s:.6f}")

    def end_to_end(self) -> Dict[str, float]:
        return {"setup_s": self.setup_s,
                "run_s": statistics.median(self.round_s),
                "op_p50_ms": statistics.median(self.op_s) * 1000.0,
                "peak_rss_mb": max(self.peak_rss)}

    def trace_overhead(self) -> Dict[str, float]:
        traced = statistics.median(self.traced_round_s)
        untraced = statistics.median(self.round_s)
        return {"trace.run_s": traced, "trace.untraced_run_s": untraced,
                "trace.overhead_s": traced - untraced}


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_line(spec: dict, run: Run, trace: bool) -> str:
    """The final JSON line: every end-to-end metric (untraced) or every
    per-layer metric (traced).  A per-layer metric of a layer the
    workload never reaches reads 0."""
    if trace:
        values = dict(run.layer)
        values.update(run.trace_overhead())
        wanted = spec["per_layer"]
    else:
        values = run.end_to_end()
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        v = values.get(m["name"], 0 if trace else None)
        if v is None:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return json.dumps({"correct": not run.problems,
                       "attempted": run.attempted, "failed": run.failed,
                       "metrics": metrics})
