"""Wire protocol of the scheduling service: newline-delimited JSON.

One request per line, one-or-more response frames per request:

* request — ``{"verb": ..., "id": ..., "tenant": ..., ...}``; the
  optional ``id`` is echoed on every frame answering it, so a client may
  pipeline requests on one connection.
* success frame — ``{"ok": true, "verb": ..., "final": bool,
  "result": {...}}``.  ``final: false`` marks a streamed interim answer
  (an anytime ``[lb, ub]`` bracket); exactly one ``final: true`` frame
  closes every request.
* error frame — ``{"ok": false, "final": true, "error": {"code": ...,
  "message": ...}}`` with ``code`` drawn from :data:`ERROR_CODES`.
  Malformed input *always* gets a structured error, never a traceback;
  the single exception is an over-long line (:data:`MAX_FRAME_BYTES`),
  after which the stream cannot be resynchronized, so the daemon sends
  ``frame-too-large`` and closes the connection.

Verbs
-----

``probe``       cost of (strategy, graph) at one ``budget``
``sweep``       costs over a ``budgets`` grid (many budgets, one request)
``min-memory``  minimum fast memory size (Def. 2.6) of a strategy
``health``      liveness + load snapshot (always admitted)
``stats``       counters: coalescing, rejections, tenants, store size

Graphs travel **by specification**, not by value: ``{"family": "dwt",
"n": 16, "d": 2}`` — the daemon constructs (and interns) the instance,
so the request's identity is canonical and coalescing/store keys are
stable.  Structural parameters are capped at :data:`MAX_GRAPH_PARAM` —
admission control cannot help after an unbounded graph has been built.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import CDAG, double_accumulator, equal
from ..graphs import (banded_mvm_graph, conv_graph, dwt_graph, fft_graph,
                      kdwt_graph, mvm_graph)

#: Hard cap on one wire line (request or response), bytes incl. newline.
MAX_FRAME_BYTES = 1 << 20

#: Cap on any structural graph parameter (n, d, k, m, taps, bandwidth).
MAX_GRAPH_PARAM = 4096

#: Every error code a frame can carry.
ERROR_CODES = ("invalid-json", "frame-too-large", "bad-request",
               "unknown-verb", "overloaded", "tenant-rejected",
               "shutting-down", "cancelled", "internal")

VERBS = ("probe", "sweep", "min-memory", "health", "stats")

#: family -> (constructor, required int parameters)
GRAPH_FAMILIES = {
    "dwt": (dwt_graph, ("n", "d")),
    "kdwt": (kdwt_graph, ("n", "d", "k")),
    "mvm": (mvm_graph, ("m", "n")),
    "banded-mvm": (banded_mvm_graph, ("m", "n", "bandwidth")),
    "fft": (fft_graph, ("n",)),
    "conv": (conv_graph, ("n", "taps")),
}

#: Strategies servable without per-request tuning state.
STRATEGIES = ("dwt-optimal", "kary-optimal", "tiling", "layer-by-layer",
              "greedy", "belady", "lru", "exhaustive")


class ProtocolError(Exception):
    """A request-level failure with a structured wire representation."""

    def __init__(self, code: str, message: str,
                 retry_after: Optional[float] = None):
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message
        self.retry_after = retry_after

    def frame(self, id: Optional[object] = None) -> dict:
        return error_frame(self.code, self.message, id=id,
                           retry_after=self.retry_after)


def encode(obj: dict) -> bytes:
    """One wire frame: compact JSON + newline."""
    return json.dumps(obj, separators=(",", ":"),
                      sort_keys=True).encode() + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one request line; structured errors for malformed input."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError("frame-too-large",
                            f"line exceeds {MAX_FRAME_BYTES} bytes")
    try:
        obj = json.loads(line.decode("utf-8", errors="strict"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("invalid-json", f"unparseable frame: {exc}")
    if not isinstance(obj, dict):
        raise ProtocolError("bad-request",
                            f"frame must be a JSON object, got "
                            f"{type(obj).__name__}")
    return obj


def ok_frame(id: Optional[object], verb: str, result: dict, *,
             final: bool = True) -> dict:
    frame = {"ok": True, "verb": verb, "final": final, "result": result}
    if id is not None:
        frame["id"] = id
    return frame


def error_frame(code: str, message: str, *, id: Optional[object] = None,
                retry_after: Optional[float] = None) -> dict:
    err: dict = {"code": code, "message": message}
    if retry_after is not None:
        err["retry_after"] = round(float(retry_after), 4)
    frame: dict = {"ok": False, "final": True, "error": err}
    if id is not None:
        frame["id"] = id
    return frame


# --------------------------------------------------------------------- #
# Request validation + instance resolution


@dataclass(frozen=True)
class Request:
    """A validated request, ready for dispatch."""

    verb: str
    id: Optional[object] = None
    tenant: str = "default"
    request_id: Optional[str] = None  #: client-generated idempotency key
    graph: Optional[dict] = None  #: canonicalized graph specification
    strategy: Optional[dict] = None  #: canonicalized strategy specification
    budget: Optional[int] = None
    budgets: Tuple[int, ...] = ()
    stream: bool = False  #: push an interim bracket before the exact answer
    deadline: Optional[float] = None  #: request-level solve cap, seconds
    mem_limit_mb: Optional[float] = None

    @property
    def instance_key(self) -> Tuple[str, str]:
        """Canonical (strategy, graph) identity for daemon interning."""
        return (json.dumps(self.strategy, sort_keys=True),
                json.dumps(self.graph, sort_keys=True))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ProtocolError("bad-request", message)


def _canonical_graph(spec: object) -> dict:
    _require(isinstance(spec, dict), "'graph' must be an object")
    family = spec.get("family")
    _require(family in GRAPH_FAMILIES,
             f"unknown graph family {family!r}; "
             f"pick from {sorted(GRAPH_FAMILIES)}")
    _, params = GRAPH_FAMILIES[family]
    out: dict = {"family": family}
    for p in params:
        v = spec.get(p)
        _require(isinstance(v, int) and not isinstance(v, bool)
                 and 1 <= v <= MAX_GRAPH_PARAM,
                 f"graph parameter {p!r} must be an int in "
                 f"[1, {MAX_GRAPH_PARAM}], got {v!r}")
        out[p] = v
    weights = spec.get("weights", "equal")
    _require(weights in ("equal", "da"),
             f"graph weights must be 'equal' or 'da', got {weights!r}")
    out["weights"] = weights
    unknown = set(spec) - set(out)
    _require(not unknown, f"unknown graph parameter(s) {sorted(unknown)}")
    return out


def _canonical_strategy(spec: object) -> dict:
    if isinstance(spec, str):
        spec = {"name": spec}
    _require(isinstance(spec, dict), "'strategy' must be a name or object")
    name = spec.get("name")
    _require(name in STRATEGIES,
             f"unknown strategy {name!r}; pick from {STRATEGIES}")
    out: dict = {"name": name}
    if name == "exhaustive":
        for p in ("max_nodes", "max_states"):
            v = spec.get(p)
            if v is not None:
                _require(isinstance(v, int) and not isinstance(v, bool)
                         and v >= 1, f"strategy option {p!r} must be a "
                                     f"positive int, got {v!r}")
                out[p] = v
    unknown = set(spec) - set(out) - {"name"}
    _require(not unknown, f"unknown strategy option(s) {sorted(unknown)}")
    return out


def _budget(v: object, name: str = "budget") -> int:
    _require(isinstance(v, int) and not isinstance(v, bool) and v > 0,
             f"{name!r} must be a positive int, got {v!r}")
    return v


def _cap(spec: dict, name: str) -> Optional[float]:
    v = spec.get(name)
    if v is None:
        return None
    _require(isinstance(v, (int, float)) and not isinstance(v, bool)
             and v > 0, f"{name!r} must be a positive number, got {v!r}")
    return float(v)


def parse_request(obj: dict) -> Request:
    """Validate one decoded frame into a :class:`Request`."""
    verb = obj.get("verb")
    rid = obj.get("id")
    if rid is not None:
        _require(isinstance(rid, (str, int)), "'id' must be a string or int")
    if verb not in VERBS:
        raise ProtocolError("unknown-verb",
                            f"unknown verb {verb!r}; pick from {VERBS}")
    tenant = obj.get("tenant", "default")
    _require(isinstance(tenant, str) and 0 < len(tenant) <= 64,
             "'tenant' must be a non-empty string (<= 64 chars)")
    request_id = obj.get("request_id")
    if request_id is not None:
        _require(isinstance(request_id, str)
                 and 0 < len(request_id) <= 128,
                 "'request_id' must be a non-empty string (<= 128 chars)")
    if verb in ("health", "stats"):
        return Request(verb=verb, id=rid, tenant=tenant,
                       request_id=request_id)
    graph = _canonical_graph(obj.get("graph"))
    strategy = _canonical_strategy(obj.get("strategy"))
    budget = None
    budgets: Tuple[int, ...] = ()
    if verb == "probe":
        _require(obj.get("budgets") is None,
                 "'probe' takes one 'budget'; ask for a 'budgets' list "
                 "with the 'sweep' verb")
        budget = _budget(obj.get("budget"))
    elif verb == "sweep":
        raw = obj.get("budgets")
        _require(isinstance(raw, list) and 0 < len(raw) <= 256,
                 "'budgets' must be a non-empty list (<= 256 entries)")
        budgets = tuple(_budget(b, "budgets[]") for b in raw)
    return Request(verb=verb, id=rid, tenant=tenant,
                   request_id=request_id, graph=graph,
                   strategy=strategy, budget=budget, budgets=budgets,
                   stream=bool(obj.get("stream", False)),
                   deadline=_cap(obj, "deadline"),
                   mem_limit_mb=_cap(obj, "mem_limit_mb"))


def resolve_graph(spec: dict) -> CDAG:
    """Construct the graph instance a canonical specification names."""
    ctor, params = GRAPH_FAMILIES[spec["family"]]
    cfg = double_accumulator() if spec.get("weights") == "da" else equal()
    return ctor(*(spec[p] for p in params), weights=cfg)


def resolve_scheduler(spec: dict):
    """Construct the scheduler instance a canonical specification names."""
    name = spec["name"]
    from ..schedulers import (EvictionScheduler, ExhaustiveScheduler,
                              GreedyTopologicalScheduler,
                              LayerByLayerScheduler, OptimalDWTScheduler,
                              OptimalTreeScheduler)
    if name == "dwt-optimal":
        return OptimalDWTScheduler()
    if name == "kary-optimal":
        return OptimalTreeScheduler()
    if name == "layer-by-layer":
        return LayerByLayerScheduler()
    if name == "greedy":
        return GreedyTopologicalScheduler()
    if name in ("belady", "lru"):
        return EvictionScheduler(policy=name)
    if name == "exhaustive":
        kwargs = {k: spec[k] for k in ("max_nodes", "max_states")
                  if k in spec}
        return ExhaustiveScheduler(**kwargs)
    raise ProtocolError("bad-request", f"unresolvable strategy {name!r}")


def resolve_tiling(spec: dict, cdag: CDAG):
    """``tiling`` needs the graph; resolved separately by the daemon."""
    from ..schedulers import TilingMVMScheduler
    try:
        return TilingMVMScheduler.for_graph(cdag)
    except Exception as exc:
        raise ProtocolError("bad-request",
                            f"tiling strategy rejected this graph: {exc}")


# --------------------------------------------------------------------- #
# Blocking client (tests, chaos harness, scripting)


class ServiceClient:
    """Minimal synchronous client: one in-flight request per connection.

    Every receive is bounded by ``timeout`` — a wedged daemon surfaces as
    ``socket.timeout``, never as an infinite hang (the chaos soak relies
    on this to prove "zero protocol-level hangs").

    The connection **poisons itself** after any framing failure — a
    receive timeout, a torn/unparseable frame, a peer that streams past
    the frame cap, or EOF mid-frame.  A poisoned connection has
    half-read bytes in its buffer, so the next ``request()`` could pair
    frames with the *wrong* request; instead every later use raises
    ``ConnectionError`` and the caller must open a fresh client (the
    :class:`~repro.service.resilience.ResilientClient` does this
    automatically)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.settimeout(timeout)
        self._buf = b""
        self._poisoned: Optional[str] = None

    # -- framing ------------------------------------------------------- #

    @property
    def poisoned(self) -> bool:
        return self._poisoned is not None

    def _poison(self, why: str) -> None:
        """Mark the stream unusable and close the socket: after a
        timeout or mid-frame failure the next frame on this connection
        can belong to an abandoned request."""
        if self._poisoned is None:
            self._poisoned = why
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass

    def _usable(self) -> None:
        if self._poisoned is not None:
            raise ConnectionError(
                f"connection poisoned ({self._poisoned}); responses on "
                f"this stream can no longer be paired with requests — "
                f"open a fresh ServiceClient")

    def send(self, obj: dict) -> None:
        self._usable()
        try:
            self.sock.sendall(encode(obj))
        except (OSError, socket.timeout):
            self._poison("send failed")
            raise

    def send_raw(self, data: bytes) -> None:
        """Ship arbitrary bytes (protocol fuzzing)."""
        self._usable()
        self.sock.sendall(data)

    def recv(self) -> Optional[dict]:
        """One response frame, or ``None`` on EOF."""
        self._usable()
        while b"\n" not in self._buf:
            if len(self._buf) > MAX_FRAME_BYTES:
                # Mirror of the server's frame cap: a broken peer
                # streaming bytes with no newline must exhaust this
                # bound, not the process's memory.
                self._poison("frame cap exceeded")
                raise ProtocolError(
                    "frame-too-large",
                    f"peer streamed {len(self._buf)} bytes without a "
                    f"frame terminator (cap {MAX_FRAME_BYTES})")
            try:
                chunk = self.sock.recv(65536)
            except (OSError, socket.timeout):
                self._poison("receive timed out or failed mid-frame")
                raise
            if not chunk:
                if self._buf:
                    self._poison("EOF mid-frame")
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        try:
            return json.loads(line.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            self._poison("unparseable frame")
            raise ProtocolError("invalid-json",
                                f"unparseable response frame: {exc}")

    def request(self, obj: dict) -> List[dict]:
        """Send one request; collect frames until the ``final`` one."""
        self.send(obj)
        frames: List[dict] = []
        while True:
            frame = self.recv()
            if frame is None:
                self._poison("EOF mid-request")
                raise ConnectionError("daemon closed the connection "
                                      f"mid-request ({obj.get('verb')})")
            frames.append(frame)
            if frame.get("final", True):
                return frames

    # -- verbs --------------------------------------------------------- #

    def probe(self, graph: dict, strategy, budget: int, **kw) -> dict:
        req = {"verb": "probe", "graph": graph, "strategy": strategy,
               "budget": budget, **kw}
        return self.request(req)[-1]

    def sweep(self, graph: dict, strategy, budgets: List[int], **kw) -> dict:
        req = {"verb": "sweep", "graph": graph, "strategy": strategy,
               "budgets": list(budgets), **kw}
        return self.request(req)[-1]

    def min_memory(self, graph: dict, strategy, **kw) -> dict:
        req = {"verb": "min-memory", "graph": graph, "strategy": strategy,
               **kw}
        return self.request(req)[-1]

    def health(self) -> dict:
        return self.request({"verb": "health"})[-1]

    def stats(self) -> dict:
        return self.request({"verb": "stats"})[-1]

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
