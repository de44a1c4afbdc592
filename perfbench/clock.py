"""Reference-normalised timing.

The vCPUs of the host this benchmark was tuned on change speed by about
a third every few seconds, each vCPU on its own, neighbours on the host
slow memory-heavy work more than arithmetic, and the hypervisor
sometimes takes a vCPU away altogether (``steal`` in ``/proc/stat``).  A
raw wall time therefore mixes the program's cost with the state of the
host.  To take most of that out, every workload runs all of its
processes on one vCPU (:func:`pin`) and runs a :class:`Sampler` in the
benchmark's process while it measures:

* every ``PERIOD_S`` a ``SIGALRM`` handler times two fixed pure-Python
  reference loops that call nothing in the program: one of arithmetic,
  one of reads spread over the 4096 pages of a 16 MiB buffer, which
  depends on address translation and caches rather than arithmetic;
* an interval's normalised time is its wall time minus the time spent in
  those handlers and the steal the kernel accounted to the vCPU, with
  each stretch between two samples scaled by the geometric mean of the
  two loops' nominal over measured times (each the median of ``SMOOTH``
  neighbouring samples).

A normalised second is thus a second of the vCPU running at the
reference speed.  The loops run on the same vCPU as the work, so they see
the speed the work saw, also when the work is done by the daemon.  On
repeated identical rounds the pair of loops tracked the host better than
either loop alone (see the README).
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time
from typing import List, Optional, Tuple

#: Iterations of the arithmetic loop.
REF_ITERS = 5_000

#: Bytes of the buffer the reading loop reads, and the reads per sample.
PROBE_BYTES = 16 << 20
PROBE_READS = 3_000

#: The loops' nominal durations, seconds: about their medians on the
#: tuning host, so a normalised second reads close to a raw one there.
#: They are a fixed unit: changing them rescales every normalised figure.
REF_NOMINAL_S = 0.0005
PROBE_NOMINAL_S = 0.0004

#: Sampling period of the reference loops, seconds.
PERIOD_S = 0.05

#: Neighbouring samples whose median gives the speed around a sample.
SMOOTH = 5


def ref_loop_s() -> float:
    """Time one run of the arithmetic loop, in raw seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc = (acc + i * i) % 1000003
    return time.perf_counter() - t0


class _Probe:
    """The reading loop: ``PROBE_READS`` reads at fixed, scattered
    offsets of a zero-filled ``PROBE_BYTES`` buffer."""

    def __init__(self) -> None:
        self.buf = bytearray(PROBE_BYTES)
        self.offsets = [(i * 2654435761) % PROBE_BYTES
                        for i in range(PROBE_READS)]

    def time_s(self) -> float:
        buf = self.buf
        t0 = time.perf_counter()
        acc = 0
        for i in self.offsets:
            acc += buf[i]
        return time.perf_counter() - t0


def pin() -> Optional[int]:
    """Pin this process (and what it starts later) to the last vCPU it
    may use; return that vCPU (``None`` where affinity cannot be set)."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def steal_s(cpu: Optional[int]) -> float:
    """Seconds the hypervisor has held ``cpu`` away (0 when unknown)."""
    if cpu is None:
        return 0.0
    tag = f"cpu{cpu} "
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith(tag):
                return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    return 0.0


class Sampler:
    """Samples the reference loops every ``PERIOD_S`` while it runs and
    turns raw intervals into normalised seconds."""

    def __init__(self, cpu: Optional[int]) -> None:
        self.cpu = cpu
        self._probe = _Probe()
        #: per sample: start time, the two loops' seconds, handler seconds
        self.t: List[float] = []
        self.dt: List[float] = []
        self.dt_probe: List[float] = []
        self.cost: List[float] = []
        for _ in range(SMOOTH):
            self._sample()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        dt = ref_loop_s()
        dt_probe = self._probe.time_s()
        self.t.append(t0)
        self.dt.append(dt)
        self.dt_probe.append(dt_probe)
        self.cost.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self) -> Tuple[float, float]:
        """Start of an interval: (time, steal)."""
        return time.perf_counter(), steal_s(self.cpu)

    def factor(self, i: int) -> float:
        """Geometric mean of nominal over measured loop times around
        sample ``i``."""
        lo = max(0, min(i - SMOOTH // 2, len(self.dt) - SMOOTH))
        cpu = REF_NOMINAL_S / statistics.median(self.dt[lo:lo + SMOOTH])
        mem = PROBE_NOMINAL_S / statistics.median(
            self.dt_probe[lo:lo + SMOOTH])
        return (cpu * mem) ** 0.5

    def factor_at(self, t: float) -> float:
        """The factor of the sample nearest before ``t``."""
        return self.factor(max(0, bisect.bisect_right(self.t, t) - 1))

    def close(self, mark: Tuple[float, float]
              ) -> Tuple[float, float, float]:
        """End the interval started at ``mark``: (normalised seconds,
        share, raw seconds), where share is the part of the interval's
        wall time left after handlers and steal."""
        t1 = time.perf_counter()
        t0, s0 = mark
        stolen = steal_s(self.cpu) - s0
        i0 = bisect.bisect_right(self.t, t0)
        i1 = bisect.bisect_right(self.t, t1)
        edges = [t0] + self.t[i0:i1] + [t1]
        scaled = sum((b - a) * self.factor(max(0, i0 - 1 + k))
                     for k, (a, b) in enumerate(zip(edges, edges[1:])))
        raw = t1 - t0
        ran = max(raw - sum(self.cost[i0:i1]) - stolen, 0.0)
        share = ran / raw if raw > 0 else 1.0
        return scaled * share, share, raw
