"""JSON serialization for CDAGs and schedules.

Schedules are design artifacts — once derived, a hardware team wants them
in a file, diffable and replayable.  The format is deliberately dumb JSON:

.. code-block:: json

    {"format": "wrbpg-cdag", "version": 1, "name": "DWT(8,3)",
     "budget": 160,
     "nodes": [{"id": [1, 1], "weight": 16}, ...],
     "edges": [[[1, 1], [2, 1]], ...]}

    {"format": "wrbpg-schedule", "version": 1, "graph": "DWT(8,3)",
     "moves": [[1, [1, 1]], [3, [2, 1]], ...]}

Node ids survive round-trips for the tuple/str/int names this library
uses (tuples are stored as JSON arrays and restored as tuples).
Decoders validate every field and raise :class:`InvalidScheduleError`
naming the offending entry, so a truncated or hand-edited file fails
loudly.

A third document kind is the **audit repro file**: a minimal
counterexample the fuzzer (:mod:`repro.analysis.fuzz`) shrank a failing
case down to, self-contained enough to replay deterministically:

.. code-block:: json

    {"format": "wrbpg-audit-repro", "version": 1,
     "scheduler": "kary-optimal", "budget": 7, "seed": 3,
     "cdag": {"format": "wrbpg-cdag", ...},
     "violations": [{"kind": "suboptimal", "message": "...", ...}]}

``scheduler`` is a :data:`repro.schedulers.registry.REGISTRY` key, so
``loads_repro`` + the registry reconstruct the exact failing probe.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict

from .core.cdag import CDAG
from .core.exceptions import InvalidScheduleError
from .core.moves import Move, MoveType
from .core.schedule import Schedule

CDAG_FORMAT = "wrbpg-cdag"
SCHEDULE_FORMAT = "wrbpg-schedule"
REPRO_FORMAT = "wrbpg-audit-repro"
VERSION = 1


def _encode_node(node) -> Any:
    if isinstance(node, tuple):
        return list(_encode_node(x) for x in node)
    return node


def _decode_node(obj) -> Any:
    if isinstance(obj, list):
        return tuple(_decode_node(x) for x in obj)
    return obj


def cdag_to_dict(cdag: CDAG) -> dict:
    return {
        "format": CDAG_FORMAT,
        "version": VERSION,
        "name": cdag.name,
        "budget": cdag.budget,
        "nodes": [{"id": _encode_node(v), "weight": cdag.weight(v)}
                  for v in cdag.topological_order()],
        "edges": [[_encode_node(p), _encode_node(v)]
                  for v in cdag.topological_order()
                  for p in cdag.predecessors(v)],
    }


def cdag_from_dict(data: dict) -> CDAG:
    if data.get("format") != CDAG_FORMAT:
        raise InvalidScheduleError(
            f"not a {CDAG_FORMAT} document: {data.get('format')!r}")
    if data.get("version") != VERSION:
        raise InvalidScheduleError(
            f"unsupported version {data.get('version')!r}")
    weights: Dict[Any, int] = {}
    for i, n in enumerate(data.get("nodes", [])):
        if not isinstance(n, dict) or "id" not in n:
            raise InvalidScheduleError(f"nodes[{i}]: missing 'id' field")
        node = _decode_node(n["id"])
        w = n.get("weight")
        if not isinstance(w, int) or isinstance(w, bool) or w <= 0:
            raise InvalidScheduleError(
                f"nodes[{i}].weight: node {node!r} needs a positive "
                f"integer weight, got {w!r}")
        if node in weights:
            raise InvalidScheduleError(
                f"nodes[{i}].id: duplicate node id {node!r}")
        weights[node] = w
    edges = []
    for i, e in enumerate(data.get("edges", [])):
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise InvalidScheduleError(
                f"edges[{i}]: expected a [src, dst] pair, got {e!r}")
        p, v = _decode_node(e[0]), _decode_node(e[1])
        if p not in weights:
            raise InvalidScheduleError(
                f"edges[{i}][0]: unknown source node {p!r}")
        if v not in weights:
            raise InvalidScheduleError(
                f"edges[{i}][1]: unknown destination node {v!r}")
        edges.append((p, v))
    return CDAG(edges, weights, budget=data.get("budget"),
                nodes=weights.keys(), name=data.get("name", "cdag"))


def schedule_to_dict(schedule: Schedule, graph_name: str = "") -> dict:
    return {
        "format": SCHEDULE_FORMAT,
        "version": VERSION,
        "graph": graph_name,
        "moves": [[int(m.kind), _encode_node(m.node)] for m in schedule],
    }


def schedule_from_dict(data: dict) -> Schedule:
    if data.get("format") != SCHEDULE_FORMAT:
        raise InvalidScheduleError(
            f"not a {SCHEDULE_FORMAT} document: {data.get('format')!r}")
    if data.get("version") != VERSION:
        raise InvalidScheduleError(
            f"unsupported version {data.get('version')!r}")
    return Schedule(Move(MoveType(kind), _decode_node(node))
                    for kind, node in data["moves"])


def dumps_cdag(cdag: CDAG, **json_kwargs) -> str:
    return json.dumps(cdag_to_dict(cdag), **json_kwargs)


def loads_cdag(text: str) -> CDAG:
    return cdag_from_dict(json.loads(text))


def dumps_schedule(schedule: Schedule, graph_name: str = "",
                   **json_kwargs) -> str:
    return json.dumps(schedule_to_dict(schedule, graph_name), **json_kwargs)


def loads_schedule(text: str) -> Schedule:
    return schedule_from_dict(json.loads(text))


# --------------------------------------------------------------------- #
# Audit repro files: a minimal failing (scheduler, graph, budget) probe


def _encode_cost(cost: float) -> Any:
    return "inf" if math.isinf(cost) else cost


def repro_to_dict(cdag: CDAG, scheduler_key: str, budget,
                  violations=(), seed=None) -> dict:
    """Encode a fuzzer counterexample.  ``violations`` is an iterable of
    :class:`repro.analysis.audit.AuditViolation` (or plain dicts)."""
    encoded = []
    for v in violations:
        if not isinstance(v, dict):
            v = {"kind": v.kind, "scheduler": v.scheduler, "graph": v.graph,
                 "budget": v.budget,
                 "reported": _encode_cost(v.reported),
                 "expected": None if v.expected is None
                 else _encode_cost(v.expected),
                 "message": v.message, "move_index": v.move_index}
        encoded.append(v)
    return {
        "format": REPRO_FORMAT,
        "version": VERSION,
        "scheduler": scheduler_key,
        "budget": budget,
        "seed": seed,
        "cdag": cdag_to_dict(cdag),
        "violations": encoded,
    }


def repro_from_dict(data: dict) -> dict:
    """Decode and validate a repro file.  Returns a dict with keys
    ``cdag`` (a :class:`CDAG`), ``scheduler`` (a registry key string),
    ``budget`` (positive int or None), ``seed`` and ``violations`` (a
    list of plain dicts)."""
    if data.get("format") != REPRO_FORMAT:
        raise InvalidScheduleError(
            f"not a {REPRO_FORMAT} document: {data.get('format')!r}")
    if data.get("version") != VERSION:
        raise InvalidScheduleError(
            f"unsupported version {data.get('version')!r}")
    scheduler = data.get("scheduler")
    if not isinstance(scheduler, str) or not scheduler:
        raise InvalidScheduleError(
            f"scheduler: expected a non-empty registry key, "
            f"got {scheduler!r}")
    budget = data.get("budget")
    if budget is not None and (not isinstance(budget, int)
                               or isinstance(budget, bool) or budget <= 0):
        raise InvalidScheduleError(
            f"budget: expected a positive integer or null, got {budget!r}")
    cdag_doc = data.get("cdag")
    if not isinstance(cdag_doc, dict):
        raise InvalidScheduleError(
            f"cdag: expected an embedded {CDAG_FORMAT} document")
    violations = data.get("violations", [])
    if not isinstance(violations, list) \
            or any(not isinstance(v, dict) for v in violations):
        raise InvalidScheduleError("violations: expected a list of objects")
    return {"cdag": cdag_from_dict(cdag_doc), "scheduler": scheduler,
            "budget": budget, "seed": data.get("seed"),
            "violations": violations}


def dumps_repro(cdag: CDAG, scheduler_key: str, budget,
                violations=(), seed=None, **json_kwargs) -> str:
    json_kwargs.setdefault("indent", 1)
    return json.dumps(repro_to_dict(cdag, scheduler_key, budget,
                                    violations=violations, seed=seed),
                      **json_kwargs)


def loads_repro(text: str) -> dict:
    return repro_from_dict(json.loads(text))
