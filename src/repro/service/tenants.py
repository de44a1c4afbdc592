"""Per-tenant admission and governance for the scheduling daemon.

Two layers, mirroring the paper's resource-constrained framing at the
serving tier:

* **admission** — each tenant owns a :class:`~repro.core.governor.
  TokenBucket`; a request costs one token.  An empty bucket yields a
  structured ``tenant-rejected`` frame with an advisory ``retry_after``
  instead of queueing, so one tenant's burst cannot occupy the bounded
  queue that every tenant shares.
* **governance** — a tenant's policy carries solve-side caps (deadline
  seconds, RSS MiB).  They are chained into the solve as a
  :class:`~repro.core.governor.CancellationToken` the engine's fault
  policy parents its per-probe tokens under, so a capped tenant's
  32-node exhaustive probe stops itself at the next poll — answering
  with a certified anytime ``[lb, ub]`` bracket — rather than starving
  other tenants' threads.  Request-level caps may only *tighten* the
  tenant policy, never loosen it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..core.governor import CancellationToken, TokenBucket, chained_token


@dataclass(frozen=True)
class TenantPolicy:
    """Limits for one tenant; every field ``None`` means unlimited."""

    rate: Optional[float] = None  #: sustained requests/second
    burst: Optional[float] = None  #: bucket capacity (defaults to rate)
    deadline: Optional[float] = None  #: per-request solve cap, seconds
    mem_limit_mb: Optional[float] = None  #: per-request RSS cap, MiB

    @property
    def governed(self) -> bool:
        return self.deadline is not None or self.mem_limit_mb is not None


def _tighter(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class TenantGovernor:
    """Admission + governance across all tenants of one daemon.

    Thread-safe: admission runs on the event loop, but stats are read
    from tests and the bucket map may be touched lazily, so mutation is
    guarded by one small lock.
    """

    def __init__(self, default: TenantPolicy = TenantPolicy(),
                 policies: Optional[Dict[str, TenantPolicy]] = None):
        self.default = default
        self.policies = dict(policies or {})
        self._buckets: Dict[str, TokenBucket] = {}
        self._requests: Dict[str, int] = {}
        self._rejections: Dict[str, int] = {}
        self._lock = threading.Lock()

    def policy(self, tenant: str) -> TenantPolicy:
        return self.policies.get(tenant, self.default)

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            p = self.policy(tenant)
            bucket = TokenBucket(p.rate, p.burst)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str) -> Optional[float]:
        """Charge one request token to ``tenant``.  Returns ``None`` when
        admitted, else the advisory seconds until a token is free."""
        with self._lock:
            bucket = self._bucket(tenant)
            if bucket.try_acquire():
                self._requests[tenant] = self._requests.get(tenant, 0) + 1
                return None
            self._rejections[tenant] = self._rejections.get(tenant, 0) + 1
            return bucket.wait_time()

    def token_for(self, tenant: str, *,
                  deadline: Optional[float] = None,
                  mem_limit_mb: Optional[float] = None
                  ) -> Optional[CancellationToken]:
        """The governance token for one request: tenant caps tightened by
        request caps, ``None`` when the request is entirely unbounded.
        The token is ``anytime`` — a stopped solve answers with a
        certified bracket, the serving-friendly failure mode."""
        p = self.policy(tenant)
        eff_deadline = _tighter(p.deadline, deadline)
        eff_mem = _tighter(p.mem_limit_mb, mem_limit_mb)
        if eff_deadline is None and eff_mem is None:
            return None
        return chained_token(budget=eff_deadline, mem_limit_mb=eff_mem,
                             anytime=True, parent=None)

    def stats(self) -> dict:
        with self._lock:
            tenants = sorted(set(self._requests) | set(self._rejections))
            return {t: {"requests": self._requests.get(t, 0),
                        "rejected": self._rejections.get(t, 0)}
                    for t in tenants}

    # ----------------------------------------------------------------- #
    # CLI spec parsing

    @classmethod
    def parse(cls, specs: Iterable[str],
              default: TenantPolicy = TenantPolicy()) -> "TenantGovernor":
        """Build a governor from ``--tenant`` CLI specs.

        Each spec is ``NAME:key=value,...`` with keys ``rate`` (req/s),
        ``burst``, ``deadline`` (s), ``mem`` (MiB); ``NAME`` may be
        ``*`` to set the default policy.  Example::

            --tenant 'batch:rate=2,deadline=5' --tenant '*:deadline=30'
        """
        policies: Dict[str, TenantPolicy] = {}
        keys = {"rate": "rate", "burst": "burst",
                "deadline": "deadline", "mem": "mem_limit_mb"}
        for spec in specs:
            name, sep, body = spec.partition(":")
            if not name or not sep:
                raise ValueError(f"malformed tenant spec {spec!r} "
                                 f"(want NAME:key=value,...)")
            kwargs: Dict[str, float] = {}
            for item in filter(None, body.split(",")):
                k, sep2, v = item.partition("=")
                if k not in keys or not sep2:
                    raise ValueError(f"malformed tenant option {item!r} in "
                                     f"{spec!r} (keys: {sorted(keys)})")
                try:
                    kwargs[keys[k]] = float(v)
                except ValueError:
                    raise ValueError(f"tenant option {item!r} in {spec!r} "
                                     f"is not a number")
            policy = TenantPolicy(**kwargs)
            if name == "*":
                default = policy
            else:
                policies[name] = policy
        return cls(default=default, policies=policies)
