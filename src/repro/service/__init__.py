"""Scheduling-as-a-service: a long-lived daemon in front of the engine.

The ROADMAP's serving story in one package:

* :mod:`repro.service.protocol` — the newline-delimited JSON wire
  format, request validation, graph/strategy resolution, and a small
  blocking :class:`~repro.service.protocol.ServiceClient`.
* :mod:`repro.service.coalesce` — the async single-flight registry that
  lets identical in-flight probes share one computation.
* :mod:`repro.service.tenants` — per-tenant admission (token buckets)
  and governance caps (deadline / memory) chained into every solve.
* :mod:`repro.service.daemon` — the asyncio TCP daemon tying them
  together: admission control, streaming anytime answers, graceful
  drain, health/stats observability, and the fleet-awareness
  ``replica`` stanza (store fingerprint, drain state).
* :mod:`repro.service.resilience` — the fleet client: idempotent
  retries with backoff honoring ``retry_after``, per-endpoint circuit
  breakers, hedged sends, transparent failover across replicas.
* :mod:`repro.service.faultproxy` — a deterministic, seeded TCP
  fault-injection proxy (latency, bandwidth, torn frames, blackholes,
  resets, asymmetric partitions) powering the partition soak.

Launch with ``python -m repro.cli serve --store DIR``.
"""

from .coalesce import Coalescer
from .daemon import SchedulingDaemon
from .faultproxy import FaultProxy, Toxic
from .protocol import (MAX_FRAME_BYTES, ProtocolError, ServiceClient,
                       decode_line, encode, error_frame, ok_frame,
                       parse_request, resolve_graph, resolve_scheduler)
from .resilience import (BackoffPolicy, CircuitBreaker, FleetError,
                         MixedStoreError, ResilientClient,
                         RetriesExhausted)
from .tenants import TenantGovernor, TenantPolicy

__all__ = ["Coalescer", "SchedulingDaemon", "MAX_FRAME_BYTES",
           "ProtocolError", "ServiceClient", "decode_line", "encode",
           "error_frame", "ok_frame", "parse_request", "resolve_graph",
           "resolve_scheduler", "TenantGovernor", "TenantPolicy",
           "BackoffPolicy", "CircuitBreaker", "FleetError",
           "MixedStoreError", "ResilientClient", "RetriesExhausted",
           "FaultProxy", "Toxic"]
