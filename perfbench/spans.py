"""In-memory spans around calls into the program's public functions.

The traced mode installs thin wrappers, from the benchmark's side, around
the public functions of each layer (graph builders, DP schedulers, the
sweep engine, the A* search) and records one span per call: a name, a
start, an end, the span it ran under and the id of the operation it
belongs to.  Spans stay in memory and are written out when the run ends.
A layer's self time is its spans' durations minus the parts their child
spans cover.  Untraced runs install nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        #: [id, name, start, end, parent id, op id] per finished span
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._next = 0
        self._id_lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []
        self.op_id: Optional[str] = None

    # -- recording ----------------------------------------------------- #

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name: str) -> list:
        with self._id_lock:
            sid = self._next
            self._next += 1
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        rec = [sid, name, time.perf_counter(), None, parent, self.op_id]
        stack.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack().pop()
        self.spans.append(rec)

    def current(self) -> Optional[str]:
        """Name of this thread's innermost open span."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- instrumentation ----------------------------------------------- #

    def wrap_method(self, cls: type, attr: str, name: str,
                    on_result: Optional[Callable] = None) -> None:
        """Record a ``name`` span around every call of ``cls.attr``.
        ``on_result(args, result)`` may add counters."""
        had = attr in cls.__dict__
        orig = cls.__dict__.get(attr)
        target = getattr(cls, attr)
        setattr(cls, attr, self._wrapper(target, name, on_result))
        if had:
            self._restore.append(lambda: setattr(cls, attr, orig))
        else:
            self._restore.append(lambda: delattr(cls, attr))

    def wrap_function(self, func: Callable, name: str) -> None:
        """Record a ``name`` span around ``func`` in every ``repro``
        module that binds it (``from .x import f`` copies the binding)."""
        wrapped = self._wrapper(func, name, None)
        for modname, mod in list(sys.modules.items()):
            if not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, attr, wrapped)
                    self._restore.append(
                        lambda m=mod, a=attr: setattr(m, a, func))

    def _wrapper(self, target: Callable, name: str,
                 on_result: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            rec = tracer.begin(name)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer.end(rec)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- analysis ------------------------------------------------------ #

    def self_times(self, scale: Callable[[float], float]
                   ) -> Dict[str, float]:
        """Seconds per span name, minus what child spans cover; each
        span's self time is multiplied by ``scale(start)`` (the sampler's
        normalisation factor, see clock.py)."""
        child = {}
        for sid, _name, s, e, parent, _op in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (e - s)
        out: Dict[str, float] = {}
        for sid, name, s, e, _parent, _op in self.spans:
            own = (e - s - child.get(sid, 0.0)) * scale(s)
            out[name] = out.get(name, 0.0) + own
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, s, e, parent, op in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": s,
                                     "end": e, "parent": parent, "op": op})
                         + "\n")
