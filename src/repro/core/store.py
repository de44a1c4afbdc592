"""Durable, crash-consistent, multi-process result store.

The ROADMAP's "scheduling-as-a-service" goal needs exactly one missing
layer: a schedule (or an exact oracle cost, or a certified anytime
bracket) computed once should never be recomputed by anyone — not after
a ``kill -9``, not after a power loss mid-write, not when two sweeps
share the store concurrently.  :class:`ResultStore` provides that layer
with deliberately boring machinery:

* **append-only segment files** (``segments/seg-NNNNNN.log``), one
  CRC32-checksummed JSON record per line — no in-place mutation, ever;
* **fsync'd atomic commits**: a batch of records is appended, flushed,
  and ``fsync``'d under an advisory writer lock before :meth:`flush`
  returns; a record is *committed* exactly when that fsync completes
  (the directory is additionally fsync'd when the commit created the
  segment file, so the file name itself is durable);
* **truncated-tail recovery**: a crash mid-append leaves a suffix
  without a trailing newline (or with a failing checksum); recovery
  drops *only* that uncommitted suffix — every committed record before
  it survives — and the next writer physically truncates the tail;
* **corrupt-record quarantine**: a checksummed line that later fails
  validation (bitrot, external edits) is copied to ``quarantine/`` and
  skipped with a warning instead of poisoning the load or crashing it;
* **advisory file locking** (``flock``) serializes writers; readers are
  lock-free — append-only files plus per-record checksums mean a reader
  racing a writer sees either a committed record or an ignorable torn
  tail, never garbage;
* **compaction** rewrites the live record set into a fresh segment
  (fsync + atomic rename + directory fsync) and retires the dead
  segments; a crash at any point leaves a store that recovers to the
  same live set.

Records are keyed by the repo's existing content addresses —
``Scheduler.cache_key()`` and :func:`graph_fingerprint` (the
fingerprint ``SweepEngine.graph_key`` delegates to, so every layer
agrees byte-for-byte) — plus the budget.  A probe record stores the
cost, the degraded flag, the provenance rung (``exact`` / ``anytime``
/ ``fallback`` / ``quarantined``, see :data:`PROVENANCES`), an
optional certified lower bound, and optionally the schedule's move
list; ``kind="repro"`` records carry fuzzer counterexample documents
instead.

The store is the only place a probe result crosses runs or processes.
:meth:`ResultStore.import_journal` folds the JSON probe journal of
earlier releases (``"wrbpg-sweep-checkpoint"``) into it once.

Merge semantics are deterministic and monotone: for one key the store
keeps the *most exact* record (``exact`` beats ``anytime`` beats
``fallback`` beats ``quarantined``; among anytime brackets the tighter
one wins; ties keep the incumbent).  Appending a record that is not
better than what is already committed is a no-op, so concurrent writers
computing the same probe produce one committed record, not duplicates.

Crash-injection hooks: assign :attr:`ResultStore.crash_hook` (see
:func:`crash_at` and :data:`CRASH_POINTS`) and the commit/compaction
protocols invoke it at every named point — the chaos harness
(:mod:`repro.analysis.chaos`) uses this to die deterministically inside
the protocol and then assert the recovery invariants.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import uuid
import warnings
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, \
    Tuple

from .cdag import CDAG

try:  # POSIX advisory locking; degrade to lockless on other platforms
    import fcntl
except ImportError:  # pragma: no cover - non-posix
    fcntl = None  # type: ignore[assignment]

#: Record kinds a store can hold.
KINDS = ("probe", "repro")

#: Where a recorded probe value came from, most to least exact.  The
#: degradation ladder moves down: ``"exact"`` (ungoverned or completed
#: search), ``"anytime"`` (certified ``[lb, ub]`` bracket, value = ub),
#: ``"fallback"`` (greedy upper bound after deadline/state guard),
#: ``"quarantined"`` (fallback after a failed audit).
PROVENANCES = ("exact", "anytime", "fallback", "quarantined")
_RANK = {p: i for i, p in enumerate(reversed(PROVENANCES))}

#: Format tag of the probe journal earlier releases wrote
#: (:meth:`ResultStore.import_journal` reads it; nothing writes it).
JOURNAL_FORMAT = "wrbpg-sweep-checkpoint"

#: Named crash points of the commit and compaction protocols, in
#: protocol order.  ``commit-post-fsync`` is the commit point: a crash
#: at or after it must never lose the batch; a crash before it may lose
#: the batch but must never corrupt the store.
CRASH_POINTS = (
    "commit-begin",        # writer lock held, nothing written yet
    "commit-mid-write",    # half the batch bytes appended (torn tail)
    "commit-pre-fsync",    # batch fully appended, not yet durable
    "commit-post-fsync",   # batch durable: the commit point
    "commit-end",          # directory entry durable too (new segments)
    "compact-pre-rename",  # merged segment written + fsync'd as .tmp
    "compact-post-rename", # merged segment live; old segments not yet gone
    "compact-end",         # old segments deleted
)

#: Roll the active segment once it exceeds this many bytes (compaction
#: then has dead segments to retire).
DEFAULT_SEGMENT_BYTES = 1 << 20

_SEG_PREFIX = "seg-"
_SEG_SUFFIX = ".log"


def graph_fingerprint(cdag: CDAG) -> str:
    """Stable content identity of a graph: name, node count, and a hash
    of the weighted structure — safe across processes and runs (unlike
    ``id``).  ``SweepEngine.graph_key`` and ``Auditor.optimum_bracket``
    key their store records by it, so every writer agrees on one
    address.

    The hashed text is, node by node in ``repr`` order, the ``repr`` of
    the tuple ``(node, weight, [predecessors in repr order])``.  It is
    assembled from one ``repr`` per node and hashed in one call, which
    yields the same bytes, and so the same keys, as building and
    ``repr``-ing each tuple."""
    names = {v: repr(v) for v in cdag}
    name = names.__getitem__
    weights = cdag.weights
    text = "".join([
        f"({names[v]}, {weights[v]!r}, "
        f"[{', '.join(sorted(map(name, cdag.predecessors(v))))}])"
        for v in sorted(names, key=name)])
    digest = hashlib.sha1(text.encode()).hexdigest()
    return f"{cdag.name}#V{len(cdag)}#{digest[:12]}"


def crash_at(point: str, exit_code: int = 7) -> Callable[[str], None]:
    """A crash hook that ``os._exit``'s the process when the commit or
    compaction protocol reaches ``point`` — no cleanup, no flushing, no
    ``atexit``: as close to a real crash as a live process gets."""
    if point not in CRASH_POINTS:
        raise ValueError(f"unknown crash point {point!r}; "
                         f"pick from {CRASH_POINTS}")

    def hook(reached: str) -> None:
        if reached == point:
            os._exit(exit_code)
    return hook


# --------------------------------------------------------------------- #
# Record codec


@dataclass(frozen=True)
class StoreRecord:
    """One immutable store record (a probe result or a repro document)."""

    kind: str  #: one of :data:`KINDS`
    scheduler: str  #: ``Scheduler.cache_key()``
    graph: str  #: :func:`graph_fingerprint` of the CDAG
    budget: Optional[int]  #: probed budget (None = graph default)
    cost: float = math.nan  #: reported cost (``inf`` = infeasible)
    degraded: bool = False  #: value is not the strategy's true optimum
    provenance: str = "exact"  #: ladder rung, see :data:`PROVENANCES`
    lb: Optional[float] = None  #: certified lower bound (anytime bracket)
    schedule: Optional[tuple] = None  #: ``((kind, node), ...)`` move list
    doc: Optional[dict] = None  #: embedded document (``kind="repro"``)

    @property
    def key(self) -> Tuple[str, str, str, Optional[int]]:
        return (self.kind, self.scheduler, self.graph, self.budget)

    def probe_value(self) -> Tuple[float, bool, str, Optional[float]]:
        """The ``(cost, degraded, provenance, lb)`` tuple the sweep
        layer's caches speak natively."""
        return (self.cost, self.degraded, self.provenance, self.lb)


def _encode_num(value: float) -> Any:
    return "inf" if math.isinf(value) else value


def _decode_num(value, field: str) -> float:
    if value == "inf":
        return math.inf
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value) or value < 0:
        raise ValueError(f"{field}: expected a non-negative number or "
                         f"'inf', got {value!r}")
    return value


def _encode_record(record: StoreRecord) -> bytes:
    """Canonical JSON payload + CRC32 header, newline-terminated."""
    obj: Dict[str, Any] = {"kind": record.kind,
                           "scheduler": record.scheduler,
                           "graph": record.graph}
    if record.budget is not None:
        obj["budget"] = record.budget
    if record.kind == "probe":
        obj["cost"] = _encode_num(record.cost)
        if record.degraded:
            obj["degraded"] = True
        implied = "fallback" if record.degraded else "exact"
        if record.provenance != implied:
            obj["provenance"] = record.provenance
        if record.lb is not None:
            obj["lb"] = _encode_num(record.lb)
        if record.schedule is not None:
            obj["schedule"] = [list(m) for m in record.schedule]
    else:
        obj["doc"] = record.doc
    payload = json.dumps(obj, sort_keys=True,
                         separators=(",", ":")).encode()
    return b"%08x %s\n" % (zlib.crc32(payload), payload)


def _decode_payload(payload: bytes) -> StoreRecord:
    """Validate and decode one checksummed payload (raises ValueError on
    any schema violation — the caller quarantines)."""
    return _decode_obj(json.loads(payload))


def _decode_obj(obj) -> StoreRecord:
    """Validate and decode one record object (raises ValueError naming
    the offending field)."""
    if not isinstance(obj, dict):
        raise ValueError("record payload is not an object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ValueError(f"kind: expected one of {KINDS}, got {kind!r}")
    scheduler, graph = obj.get("scheduler"), obj.get("graph")
    for field, value in (("scheduler", scheduler), ("graph", graph)):
        if not isinstance(value, str) or not value:
            raise ValueError(f"{field}: expected a non-empty string, "
                             f"got {value!r}")
    budget = obj.get("budget")
    if budget is not None and (not isinstance(budget, int)
                               or isinstance(budget, bool) or budget <= 0):
        raise ValueError(f"budget: expected a positive integer or absent, "
                         f"got {budget!r}")
    if kind == "repro":
        doc = obj.get("doc")
        if not isinstance(doc, dict):
            raise ValueError(f"doc: expected an object, got {type(doc)}")
        return StoreRecord(kind=kind, scheduler=scheduler, graph=graph,
                           budget=budget, doc=doc)
    cost = _decode_num(obj.get("cost"), "cost")
    degraded = obj.get("degraded", False)
    if not isinstance(degraded, bool):
        raise ValueError(f"degraded: expected a boolean, got {degraded!r}")
    provenance = obj.get("provenance", "fallback" if degraded else "exact")
    if provenance not in PROVENANCES:
        raise ValueError(f"provenance: expected one of {PROVENANCES}, "
                         f"got {provenance!r}")
    if degraded == (provenance == "exact"):
        raise ValueError(f"provenance {provenance!r} inconsistent with "
                         f"degraded={degraded}")
    lb = obj.get("lb")
    if lb is not None:
        lb = _decode_num(lb, "lb")
        if lb > cost:
            raise ValueError(f"lower bound {lb!r} exceeds cost {cost!r} — "
                             f"corrupt bracket")
    schedule = obj.get("schedule")
    if schedule is not None:
        if not isinstance(schedule, list) or any(
                not isinstance(m, list) or len(m) != 2 for m in schedule):
            raise ValueError("schedule: expected a list of [kind, node]")
        schedule = tuple((m[0], m[1]) for m in schedule)
    return StoreRecord(kind=kind, scheduler=scheduler, graph=graph,
                       budget=budget, cost=cost, degraded=degraded,
                       provenance=provenance, lb=lb, schedule=schedule)


def _prefer(new: StoreRecord, old: StoreRecord) -> bool:
    """True when ``new`` should replace ``old`` for the same key.
    Monotone toward exactness: a higher provenance rung always wins, a
    tighter anytime bracket wins within the rung, repro docs are
    last-writer-wins, and exact ties keep the incumbent (idempotence)."""
    if new.kind == "repro":
        return True
    nr, orank = _RANK.get(new.provenance, -1), _RANK.get(old.provenance, -1)
    if nr != orank:
        return nr > orank
    if new.provenance == "anytime":
        def gap(r: StoreRecord) -> float:
            return r.cost - (r.lb if r.lb is not None else 0.0)
        return gap(new) < gap(old)
    if new.schedule is not None and old.schedule is None:
        return True  # same exactness, strictly more information
    return False


# --------------------------------------------------------------------- #
# The store


class ResultStore:
    """One durable store rooted at a directory (created if missing).

    All reads are served from an in-memory index built by scanning the
    segment files; :meth:`refresh` folds in records other processes have
    committed since (incrementally — only new bytes are read).  Writers
    batch records and commit them in :meth:`flush` (automatically every
    ``every`` puts); ``every=1`` (the default) makes every put an
    fsync'd commit of its own.

    The instance is *not* thread-safe; one store object per
    process/thread, all of them pointed at the same directory, is the
    supported concurrency model (the on-disk protocol does the
    coordination).
    """

    def __init__(self, path, *, every: int = 1,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES):
        self.path = os.fspath(path)
        self.every = max(1, int(every))
        self.segment_bytes = max(1 << 12, int(segment_bytes))
        self._segments_dir = os.path.join(self.path, "segments")
        self._quarantine_dir = os.path.join(self.path, "quarantine")
        self._lock_path = os.path.join(self.path, "store.lock")
        os.makedirs(self._segments_dir, exist_ok=True)
        #: crash-injection hook: called with each protocol point name
        self.crash_hook: Optional[Callable[[str], None]] = None
        #: records known committed on disk, by key
        self._disk: Dict[tuple, StoreRecord] = {}
        #: merged view: disk ∪ pending ∪ absorbed (what lookups serve)
        self._index: Dict[tuple, StoreRecord] = {}
        #: bytes already consumed per segment file name
        self._offsets: Dict[str, int] = {}
        self._pending: List[StoreRecord] = []
        self._store_id: Optional[str] = None
        self._closed = False
        self.hits = 0  #: lookups answered from the index
        self.misses = 0  #: lookups that found nothing
        self.appends = 0  #: records physically appended by this handle
        self.quarantined = 0  #: corrupt records skipped across loads
        self.refresh()

    # -- plumbing ------------------------------------------------------ #

    def _crash(self, point: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(point)

    @contextlib.contextmanager
    def _writer_lock(self):
        """Advisory exclusive lock serializing writers (and compaction).
        Opened per acquisition, so a forked child never shares the lock's
        open file description with its parent.  Readers never take it."""
        if fcntl is None:  # pragma: no cover - non-posix
            yield
            return
        fd = os.open(self._lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing releases the flock

    @staticmethod
    def _fsync_dir(path: str) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    @property
    def store_id(self) -> str:
        """Stable identity of the *directory* this store serves, minted
        once (under the writer lock) and shared by every process that
        opens the same path.  The service layer's replica stanza reports
        it so a fleet client can refuse to mix replicas that serve
        different stores — two daemons answering from different record
        sets must never look interchangeable."""
        if self._store_id is not None:
            return self._store_id
        id_path = os.path.join(self.path, "STORE_ID")
        sid = self._read_store_id(id_path)
        if sid is None:
            with self._writer_lock():
                sid = self._read_store_id(id_path)
                if sid is None:
                    sid = uuid.uuid4().hex
                    tmp = id_path + ".tmp"
                    with open(tmp, "w") as fh:
                        fh.write(sid + "\n")
                        fh.flush()
                        os.fsync(fh.fileno())
                    os.replace(tmp, id_path)
                    self._fsync_dir(self.path)
        self._store_id = sid
        return sid

    @staticmethod
    def _read_store_id(id_path: str) -> Optional[str]:
        try:
            with open(id_path) as fh:
                sid = fh.read().strip()
        except (FileNotFoundError, OSError):
            return None
        return sid or None

    def _segment_names(self) -> List[str]:
        try:
            names = os.listdir(self._segments_dir)
        except FileNotFoundError:  # pragma: no cover - racing an rmtree
            return []
        return sorted(n for n in names
                      if n.startswith(_SEG_PREFIX) and n.endswith(_SEG_SUFFIX))

    @staticmethod
    def _seq(name: str) -> int:
        return int(name[len(_SEG_PREFIX):-len(_SEG_SUFFIX)])

    def _quarantine_line(self, segment: str, line: bytes) -> None:
        """Preserve a corrupt committed record's bytes for post-mortem
        and count it; the load continues without it.  A line whose exact
        bytes are already quarantined (every handle re-scans a persistent
        corrupt record until compaction retires its segment) is counted
        but neither re-appended nor re-warned, so the ``.bad`` file stays
        bounded across processes and runs."""
        self.quarantined += 1
        bad_path = os.path.join(self._quarantine_dir, f"{segment}.bad")
        try:
            with open(bad_path, "rb") as fh:
                if line in fh.read().split(b"\n"):
                    return  # already preserved by an earlier scan
        except OSError:
            pass  # no .bad file yet (or unreadable): treat as new
        try:
            os.makedirs(self._quarantine_dir, exist_ok=True)
            with open(bad_path, "ab") as fh:
                fh.write(line + b"\n")
        except OSError:  # pragma: no cover - quarantine is best-effort
            pass
        warnings.warn(f"result store {self.path}: quarantined a corrupt "
                      f"record in {segment}", RuntimeWarning,
                      stacklevel=3)

    def _parse_line(self, line: bytes) -> Optional[StoreRecord]:
        """Decode one newline-stripped line; None = corrupt."""
        if len(line) < 10 or line[8:9] != b" ":
            return None
        payload = line[9:]
        try:
            if int(line[:8], 16) != zlib.crc32(payload):
                return None
            return _decode_payload(payload)
        except (ValueError, json.JSONDecodeError):
            return None

    def _scan_segment(self, name: str, tail_segment: bool) -> int:
        """Fold committed records of one segment (from the remembered
        offset) into ``_disk``; returns the committed byte length.

        A trailing chunk without a newline is the uncommitted suffix of
        a torn append: it is *not* consumed (a racing writer may still
        complete it) and never surfaces in the index.  A checksummed
        line that fails validation is quarantined and skipped.
        """
        path = os.path.join(self._segments_dir, name)
        start = self._offsets.get(name, 0)
        try:
            with open(path, "rb") as fh:
                if start:
                    fh.seek(start)
                data = fh.read()
        except FileNotFoundError:
            return start  # compacted away mid-scan; caller reloads
        pos = 0
        while True:
            nl = data.find(b"\n", pos)
            if nl < 0:
                break  # torn/in-flight tail: not committed, not consumed
            line = data[pos:nl]
            pos = nl + 1
            record = self._parse_line(line)
            if record is None:
                if not tail_segment or data.find(b"\n", pos) >= 0 \
                        or data[pos:]:
                    # Followed by more data: a corrupt *committed* record.
                    self._quarantine_line(name, line)
                else:
                    # Last line of the last segment: torn-tail damage —
                    # drop the uncommitted suffix, nothing to quarantine.
                    pos = nl + 1 - (len(line) + 1)
                    break
                continue
            old = self._disk.get(record.key)
            if old is None or _prefer(record, old):
                self._disk[record.key] = record
        self._offsets[name] = start + pos
        return start + pos

    def refresh(self) -> None:
        """Fold in records committed since the last scan (lock-free).
        Incremental: only new bytes of known segments plus new segments
        are read; a vanished segment (compaction ran) triggers a full
        reload of the survivors."""
        names = self._segment_names()
        if any(n not in names for n in self._offsets):
            self._disk.clear()
            self._offsets.clear()
        for i, name in enumerate(names):
            self._scan_segment(name, tail_segment=(i == len(names) - 1))
        # Rebuild the merged view: disk records, then still-pending ones.
        self._index = dict(self._disk)
        for record in self._pending:
            old = self._index.get(record.key)
            if old is None or _prefer(record, old):
                self._index[record.key] = record

    def _truncate_uncommitted(self, name: str) -> int:
        """Physically drop a segment's uncommitted suffix — every byte
        past the committed length the scan established.  Returns the
        number of bytes dropped.  The caller must hold the writer lock
        and have scanned ``name`` already (so ``_offsets[name]`` is the
        committed length); with the lock held no writer is mid-append,
        so any surplus bytes are a crashed writer's torn tail."""
        path = os.path.join(self._segments_dir, name)
        committed = self._offsets.get(name, 0)
        try:
            size = os.path.getsize(path)
        except FileNotFoundError:  # pragma: no cover - compaction race
            return 0
        if size <= committed:
            return 0
        with open(path, "r+b") as fh:
            fh.truncate(committed)
            fh.flush()
            os.fsync(fh.fileno())
        return size - committed

    def recover_tail(self) -> int:
        """Physically truncate the active segment's uncommitted suffix
        (bytes after the last committed record).  Returns the number of
        bytes dropped.  Runs under the writer lock; readers never need
        it — they simply ignore the tail — and :meth:`flush` performs
        the same truncation before every append, so explicit calls are
        only needed to reclaim space without writing."""
        if not self._segment_names():
            return 0
        with self._writer_lock():
            names = self._segment_names()
            if not names:  # pragma: no cover - compacted away meanwhile
                return 0
            name = names[-1]
            self._offsets.pop(name, None)
            self._scan_segment(name, tail_segment=True)
            return self._truncate_uncommitted(name)

    # -- reads --------------------------------------------------------- #

    def __len__(self) -> int:
        return len(self._index)

    def get(self, kind: str, scheduler: str, graph: str,
            budget: Optional[int]) -> Optional[StoreRecord]:
        record = self._index.get((kind, scheduler, graph, budget))
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def get_probe(self, scheduler: str, graph: str, budget: Optional[int]
                  ) -> Optional[Tuple[float, bool, str, Optional[float]]]:
        """``(cost, degraded, provenance, lb)`` for a probe key, or
        ``None``.  Callers deciding exactness must check the provenance —
        the store never promotes an anytime bracket to exact."""
        record = self.get("probe", scheduler, graph, budget)
        return None if record is None else record.probe_value()

    def probe_entries(self) -> Dict[Tuple[str, str, int], tuple]:
        """Every probe record as the ``(scheduler, graph, budget) ->
        (cost, degraded, provenance, lb)`` mapping the sweep layer's
        seeds use."""
        return {(r.scheduler, r.graph, r.budget): r.probe_value()
                for r in self._index.values()
                if r.kind == "probe" and r.budget is not None}

    def records(self) -> List[StoreRecord]:
        """The live record set, deterministically ordered by key."""
        return [self._index[k] for k in sorted(
            self._index, key=lambda k: (k[0], k[1], k[2], k[3] or 0))]

    # -- writes -------------------------------------------------------- #

    def _put(self, record: StoreRecord) -> None:
        if self._closed:
            raise ValueError(f"result store {self.path} is closed")
        # Enforce the read path's schema invariants at write time: a
        # record _decode_payload would reject (inconsistent provenance,
        # lb > cost, NaN cost, unserializable doc, ...) must fail the
        # caller *now*, not fsync successfully and then be quarantined
        # on every subsequent load.  Cheapest correct check: round-trip
        # the encoded payload through the decoder itself.
        try:
            _decode_payload(_encode_record(record)[9:-1])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"refusing to stage an invalid record for "
                             f"key {record.key}: {exc}") from exc
        old = self._index.get(record.key)
        if old is not None and not _prefer(record, old):
            return  # nothing new to persist
        self._index[record.key] = record
        self._pending.append(record)
        if len(self._pending) >= self.every:
            self.flush()

    def put_probe(self, scheduler: str, graph: str, budget: Optional[int],
                  cost: float, degraded: bool = False,
                  provenance: Optional[str] = None,
                  lb: Optional[float] = None,
                  schedule: Optional[Iterable] = None) -> None:
        """Record one probe result (committed at the next flush)."""
        if provenance is None:
            provenance = "fallback" if degraded else "exact"

        def num(v):  # keep exact int costs as ints
            return v if isinstance(v, int) and not isinstance(v, bool) \
                else float(v)
        self._put(StoreRecord(
            kind="probe", scheduler=scheduler, graph=graph,
            budget=None if budget is None else int(budget),
            cost=num(cost), degraded=bool(degraded),
            provenance=provenance, lb=None if lb is None else num(lb),
            schedule=None if schedule is None else
            tuple((int(k), n) for k, n in schedule)))

    def put_doc(self, scheduler: str, graph: str, budget: Optional[int],
                doc: Mapping) -> None:
        """Record one embedded document (e.g. a fuzzer repro file)."""
        self._put(StoreRecord(kind="repro", scheduler=scheduler,
                              graph=graph, budget=budget, doc=dict(doc)))

    def import_journal(self, path) -> int:
        """Fold a probe journal written by earlier releases into the
        store, then commit; returns the number of entries read.

        The journal is one JSON document, ``{"format":
        "wrbpg-sweep-checkpoint", "version": 1, "entries": [...]}``, each
        entry a probe ``{"scheduler", "graph", "budget", "cost"[,
        "degraded", "provenance", "lb"]}`` with ``"cost": "inf"`` for
        infeasible budgets.  Entries without ``provenance`` read as
        ``exact`` (or ``fallback`` when ``degraded``).  The merge rule
        keeps whichever side is more exact per key.  The file is only
        read, never written; a malformed document raises
        :class:`ValueError` naming the first bad entry, before anything
        is staged."""
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != JOURNAL_FORMAT \
                or doc.get("version") != 1:
            raise ValueError(f"{path}: not a {JOURNAL_FORMAT} version 1 "
                             f"document")
        entries = doc.get("entries")
        if not isinstance(entries, list):
            raise ValueError(f"{path}: entries: expected a list")
        records = []
        for i, entry in enumerate(entries):
            try:
                record = _decode_obj({**entry, "kind": "probe"}
                                     if isinstance(entry, dict) else entry)
                if record.budget is None:
                    raise ValueError("budget: missing")
            except ValueError as exc:
                raise ValueError(f"{path}: entries[{i}]: {exc}") from exc
            records.append(record)
        for record in records:
            self._put(record)
        self.flush()
        return len(records)

    def flush(self) -> None:
        """Commit the pending batch: append under the writer lock, fsync
        the segment (and its directory when the file is new), and only
        then return.  Records another writer committed first (observed
        under the lock) are dropped instead of duplicated."""
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        with self._writer_lock():
            self.refresh()  # see committed work of concurrent writers
            live = []
            for record in batch:
                old = self._disk.get(record.key)
                if old is None or _prefer(record, old):
                    live.append(record)
                    self._disk[record.key] = record
                    self._index[record.key] = record
            if not live:
                return
            self._crash("commit-begin")
            names = self._segment_names()
            if names:
                # A crashed writer may have left a torn suffix on the
                # active segment.  Appending after it would fuse the
                # torn bytes with our first record into one CRC-failing
                # line, losing a *committed* record to quarantine — so
                # every commit starts at a record boundary.
                self._truncate_uncommitted(names[-1])
            created = False
            if names and os.path.getsize(os.path.join(
                    self._segments_dir, names[-1])) < self.segment_bytes:
                name = names[-1]
            else:
                seq = self._seq(names[-1]) + 1 if names else 1
                name = f"{_SEG_PREFIX}{seq:06d}{_SEG_SUFFIX}"
                created = True
            blob = b"".join(_encode_record(r) for r in live)
            path = os.path.join(self._segments_dir, name)
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                         0o644)
            try:
                half = len(blob) // 2
                os.write(fd, blob[:half])
                self._crash("commit-mid-write")
                os.write(fd, blob[half:])
                self._crash("commit-pre-fsync")
                os.fsync(fd)
                self._crash("commit-post-fsync")
            finally:
                os.close(fd)
            if created:
                self._fsync_dir(self._segments_dir)
            self._crash("commit-end")
            self._offsets[name] = self._offsets.get(name, 0) + len(blob)
            self.appends += len(live)

    def compact(self) -> None:
        """Rewrite the live record set into one fresh segment and retire
        every older segment.  Crash-safe at every point: before the
        rename the old segments are untouched; after it the merged
        segment carries every live record, so losing (some of) the old
        segments to a crash changes nothing the index can observe."""
        self.flush()
        with self._writer_lock():
            self.refresh()
            names = self._segment_names()
            if not names:
                return
            live = [self._disk[k] for k in sorted(
                self._disk, key=lambda k: (k[0], k[1], k[2], k[3] or 0))]
            seq = self._seq(names[-1]) + 1
            final = f"{_SEG_PREFIX}{seq:06d}{_SEG_SUFFIX}"
            tmp_path = os.path.join(self._segments_dir, final + ".tmp")
            with open(tmp_path, "wb") as fh:
                for record in live:
                    fh.write(_encode_record(record))
                fh.flush()
                os.fsync(fh.fileno())
            self._crash("compact-pre-rename")
            os.replace(tmp_path, os.path.join(self._segments_dir, final))
            self._fsync_dir(self._segments_dir)
            self._crash("compact-post-rename")
            for name in names:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(os.path.join(self._segments_dir, name))
            self._fsync_dir(self._segments_dir)
            self._crash("compact-end")
            self._offsets = {final: os.path.getsize(
                os.path.join(self._segments_dir, final))}
            self._disk = {r.key: r for r in live}
            self._index = dict(self._disk)
            for record in self._pending:
                old = self._index.get(record.key)
                if old is None or _prefer(record, old):
                    self._index[record.key] = record

    # -- lifecycle ----------------------------------------------------- #

    def close(self) -> None:
        """Commit pending records and mark the handle closed.
        Idempotent; reads keep working, writes raise.  Reopening the
        path later gives a fresh handle with a fresh scan."""
        if self._closed:
            return
        self.flush()
        self._closed = True

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
