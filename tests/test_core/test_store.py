"""Tests for the durable result store (:mod:`repro.core.store`).

Codec and merge semantics, the recovery invariants (torn tails dropped,
corrupt committed records quarantined — never served, never fatal),
compaction, and the multi-process contract of satellite coverage: two
processes committing into one store concurrently produce no torn and no
duplicate records, and a lock-free reader watching a live writer only
ever observes valid, monotonically accumulating records.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
import warnings
import zlib

import pytest

from repro.core.store import (CRASH_POINTS, ResultStore, StoreRecord,
                              _decode_payload, _encode_record, _prefer,
                              crash_at, graph_fingerprint)
from repro.graphs import dwt_graph, mvm_graph


def _segment_paths(store):
    return [os.path.join(store.path, "segments", n)
            for n in store._segment_names()]


def _raw_lines(store):
    lines = []
    for path in _segment_paths(store):
        with open(path, "rb") as fh:
            lines.extend(l for l in fh.read().split(b"\n") if l)
    return lines


# --------------------------------------------------------------------- #
# Codec + merge rule


def test_probe_record_roundtrip(tmp_path):
    s = ResultStore(tmp_path / "st")
    s.put_probe("S", "G", 8, 20)
    s.put_probe("S", "G", 9, 18, degraded=True, provenance="anytime", lb=12)
    s.put_probe("S", "G", 2, float("inf"))
    s.put_probe("S", "G", 10, 16, schedule=((1, "a"), (3, ["b", 1])))
    s.close()
    r = ResultStore(tmp_path / "st")
    assert r.get_probe("S", "G", 8) == (20, False, "exact", None)
    assert r.get_probe("S", "G", 9) == (18, True, "anytime", 12)
    assert r.get_probe("S", "G", 2) == (math.inf, False, "exact", None)
    rec = r.get("probe", "S", "G", 10)
    assert rec.schedule == ((1, "a"), (3, ["b", 1]))
    assert r.get_probe("S", "G", 99) is None
    assert r.hits == 4 and r.misses == 1


def test_repro_doc_roundtrip(tmp_path):
    s = ResultStore(tmp_path / "st")
    s.put_doc("S", "G", 5, {"cdag": {"nodes": ["a"]}, "budget": 5})
    s.close()
    r = ResultStore(tmp_path / "st")
    assert r.get("repro", "S", "G", 5).doc["budget"] == 5


def test_exactness_ladder_governs_replacement(tmp_path):
    s = ResultStore(tmp_path / "st")
    s.put_probe("S", "G", 8, 25, degraded=True)  # fallback
    s.put_probe("S", "G", 8, 22, degraded=True, provenance="anytime", lb=10)
    assert s.get_probe("S", "G", 8)[2] == "anytime"
    # Looser bracket ignored, tighter bracket wins.
    s.put_probe("S", "G", 8, 24, degraded=True, provenance="anytime", lb=9)
    assert s.get_probe("S", "G", 8)[0] == 22
    s.put_probe("S", "G", 8, 23, degraded=True, provenance="anytime", lb=18)
    assert s.get_probe("S", "G", 8) == (23, True, "anytime", 18)
    # Exact beats every bracket; a later bracket never demotes it.
    s.put_probe("S", "G", 8, 20)
    s.put_probe("S", "G", 8, 19, degraded=True, provenance="anytime", lb=19)
    assert s.get_probe("S", "G", 8) == (20, False, "exact", None)
    # Re-putting the identical exact record appends nothing (idempotent).
    before = s.appends
    s.put_probe("S", "G", 8, 20)
    assert s.appends == before


def test_exact_with_schedule_beats_bare_exact():
    bare = StoreRecord(kind="probe", scheduler="S", graph="G", budget=8,
                       cost=20)
    rich = StoreRecord(kind="probe", scheduler="S", graph="G", budget=8,
                       cost=20, schedule=((1, "a"),))
    assert _prefer(rich, bare) and not _prefer(bare, rich)


def test_decode_rejects_schema_violations():
    good = StoreRecord(kind="probe", scheduler="S", graph="G", budget=8,
                       cost=20)
    payload = _encode_record(good)[9:-1]
    assert _decode_payload(payload) == good
    for mutate in [lambda d: d.update(kind="nope"),
                   lambda d: d.update(scheduler=""),
                   lambda d: d.update(budget=0),
                   lambda d: d.update(budget=True),
                   lambda d: d.update(cost=-1),
                   lambda d: d.update(cost="huge"),
                   lambda d: d.update(degraded=True, provenance="exact"),
                   lambda d: d.update(provenance="guess"),
                   lambda d: d.update(lb=99)]:  # lb > cost
        doc = json.loads(payload)
        mutate(doc)
        with pytest.raises(ValueError):
            _decode_payload(json.dumps(doc).encode())


# --------------------------------------------------------------------- #
# Recovery: torn tails, corruption, quarantine


def test_torn_tail_is_invisible_and_truncated(tmp_path):
    s = ResultStore(tmp_path / "st")
    s.put_probe("S", "G", 8, 20)
    s.close()
    seg = _segment_paths(s)[-1]
    with open(seg, "ab") as fh:
        fh.write(b"00000000 {\"half-a-rec")  # crash mid-append
    r = ResultStore(tmp_path / "st")
    assert len(r) == 1 and r.quarantined == 0
    assert r.recover_tail() > 0
    assert r.recover_tail() == 0  # idempotent
    assert ResultStore(tmp_path / "st").get_probe("S", "G", 8) == \
        (20, False, "exact", None)


def test_flush_truncates_torn_tail_before_appending(tmp_path):
    """The production resume path (a fresh handle that just writes — no
    explicit recover_tail) must not fuse a crashed writer's torn suffix
    with its first appended record into one corrupt line."""
    s = ResultStore(tmp_path / "st")
    s.put_probe("S", "G", 8, 20)
    s.close()
    with open(_segment_paths(s)[-1], "ab") as fh:
        fh.write(b"00000000 {\"half-a-rec")  # crash mid-append
    w = ResultStore(tmp_path / "st")
    w.put_probe("S", "G", 9, 18)
    w.close()
    r = ResultStore(tmp_path / "st")
    assert r.quarantined == 0
    assert r.get_probe("S", "G", 8) == (20, False, "exact", None)
    assert r.get_probe("S", "G", 9) == (18, False, "exact", None)
    # every physical line is a committed record again — the torn bytes
    # were truncated, not buried under the new append
    assert all(r._parse_line(l) is not None for l in _raw_lines(r))


def test_put_rejects_records_the_decoder_would_quarantine(tmp_path):
    """Write-time schema enforcement: a record the read path would
    quarantine must fail the caller immediately, not commit."""
    s = ResultStore(tmp_path / "st")
    with pytest.raises(ValueError, match="invalid record"):
        s.put_probe("S", "G", 8, 20, lb=25)  # lb > cost
    with pytest.raises(ValueError, match="invalid record"):
        s.put_probe("S", "G", 8, 20, provenance="anytime")  # not degraded
    with pytest.raises(ValueError, match="invalid record"):
        s.put_probe("S", "G", 8, float("nan"))
    with pytest.raises(ValueError, match="invalid record"):
        s.put_doc("S", "G", 8, {"x": object()})  # unserializable doc
    s.close()
    assert len(ResultStore(tmp_path / "st")) == 0


def test_corrupt_committed_record_is_quarantined_not_served(tmp_path):
    s = ResultStore(tmp_path / "st")
    s.put_probe("S", "G", 8, 20)
    s.put_probe("S", "G", 9, 18)
    s.close()
    seg = _segment_paths(s)[-1]
    data = bytearray(open(seg, "rb").read())
    data[15] ^= 0xFF  # bitrot inside the first committed record
    with open(seg, "wb") as fh:
        fh.write(bytes(data))
    with pytest.warns(RuntimeWarning, match="quarantined"):
        r = ResultStore(tmp_path / "st")
    assert r.quarantined == 1
    assert r.get_probe("S", "G", 8) is None  # never served corrupt
    assert r.get_probe("S", "G", 9) == (18, False, "exact", None)
    bad = os.listdir(os.path.join(str(tmp_path / "st"), "quarantine"))
    assert bad, "corrupt record bytes were not preserved"


def test_checksum_valid_schema_invalid_record_is_quarantined(tmp_path):
    s = ResultStore(tmp_path / "st")
    s.put_probe("S", "G", 8, 20)
    s.close()
    payload = json.dumps({"kind": "probe", "scheduler": "S", "graph": "G",
                          "budget": 8, "cost": -5}).encode()
    with open(_segment_paths(s)[-1], "ab") as fh:
        fh.write(b"%08x %s\n" % (zlib.crc32(payload), payload))
        fh.write(b"trailer must make it non-tail\n")
    with pytest.warns(RuntimeWarning):
        r = ResultStore(tmp_path / "st")
    assert r.quarantined >= 1
    assert r.get_probe("S", "G", 8) == (20, False, "exact", None)


def test_quarantine_is_deduped_across_handles(tmp_path):
    """A persistent corrupt record (bit-rot compaction hasn't retired)
    is preserved once: later handles skip and count it without growing
    the .bad file or re-warning every run."""
    s = ResultStore(tmp_path / "st")
    s.put_probe("S", "G", 8, 20)
    s.put_probe("S", "G", 9, 18)
    s.close()
    seg = _segment_paths(s)[-1]
    data = bytearray(open(seg, "rb").read())
    data[15] ^= 0xFF  # bitrot inside the first committed record
    with open(seg, "wb") as fh:
        fh.write(bytes(data))
    with pytest.warns(RuntimeWarning, match="quarantined"):
        ResultStore(tmp_path / "st")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any re-warn fails the test
        r2 = ResultStore(tmp_path / "st")
    assert r2.quarantined == 1  # still counted and skipped
    bad_dir = os.path.join(str(tmp_path / "st"), "quarantine")
    (bad_name,) = os.listdir(bad_dir)
    with open(os.path.join(bad_dir, bad_name), "rb") as fh:
        preserved = [l for l in fh.read().split(b"\n") if l]
    assert len(preserved) == 1  # bytes preserved exactly once


# --------------------------------------------------------------------- #
# Compaction + segments


def test_compaction_retires_dead_records_and_segments(tmp_path):
    s = ResultStore(tmp_path / "st", segment_bytes=1 << 12)
    for b in range(1, 60):
        s.put_probe("S", "G", b, b + 100, degraded=True,
                    provenance="anytime", lb=b)
    for b in range(1, 60):  # upgrade everything: brackets become dead
        s.put_probe("S", "G", b, b + 50)
    assert len(s._segment_names()) > 1
    assert len(_raw_lines(s)) == 118
    s.compact()
    assert len(s._segment_names()) == 1
    assert len(_raw_lines(s)) == 59  # one live record per key
    r = ResultStore(tmp_path / "st")
    assert len(r) == 59
    assert r.get_probe("S", "G", 7) == (57, False, "exact", None)
    # A handle that remembers pre-compaction segments reloads cleanly.
    s.put_probe("S", "G", 99, 1)
    assert ResultStore(tmp_path / "st").get_probe("S", "G", 99) is not None


def test_batched_commits_respect_every(tmp_path):
    s = ResultStore(tmp_path / "st", every=3)
    s.put_probe("S", "G", 1, 10)
    s.put_probe("S", "G", 2, 11)
    assert len(ResultStore(tmp_path / "st")) == 0  # below the cadence
    s.put_probe("S", "G", 3, 12)
    assert len(ResultStore(tmp_path / "st")) == 3  # auto-committed
    s.close()


def test_closed_store_rejects_writes_and_close_is_idempotent(tmp_path):
    s = ResultStore(tmp_path / "st")
    s.put_probe("S", "G", 1, 10)
    s.close()
    s.close()
    with pytest.raises(ValueError, match="closed"):
        s.put_probe("S", "G", 2, 11)
    assert s.get_probe("S", "G", 1) is not None  # reads keep working


def test_context_manager_commits_on_exit(tmp_path):
    with ResultStore(tmp_path / "st", every=100) as s:
        s.put_probe("S", "G", 1, 10)
    assert ResultStore(tmp_path / "st").get_probe("S", "G", 1) is not None


def test_crash_at_validates_point_names():
    assert crash_at(CRASH_POINTS[0]) is not None
    with pytest.raises(ValueError):
        crash_at("commit-never-heard-of-it")


def test_graph_fingerprint_tracks_content_not_identity():
    a, b = dwt_graph(4, 2), dwt_graph(4, 2)
    assert a is not b
    assert graph_fingerprint(a) == graph_fingerprint(b)
    assert graph_fingerprint(a) != graph_fingerprint(dwt_graph(8, 2))
    assert graph_fingerprint(a) != graph_fingerprint(mvm_graph(2, 2))


def test_graph_fingerprint_matches_engine_graph_key():
    from repro.analysis import SweepEngine
    g = dwt_graph(4, 2)
    assert SweepEngine().graph_key(g) == graph_fingerprint(g)


def _reference_fingerprint(cdag):
    """The fingerprint's defining formula, one SHA-1 update per node:
    the bytes every existing store is keyed by."""
    import hashlib
    h = hashlib.sha1()
    for v in sorted(cdag, key=repr):
        h.update(repr((v, cdag.weight(v),
                       sorted(cdag.predecessors(v), key=repr))).encode())
    return f"{cdag.name}#V{len(cdag)}#{h.hexdigest()[:12]}"


def _fingerprint_corpus():
    from repro.core import CDAG, double_accumulator, equal
    from repro.graphs import random_layered_dag, random_weighted
    graphs = [dwt_graph(16, 4, weights=equal(16)),
              dwt_graph(32, 5, weights=double_accumulator(16)),
              mvm_graph(4, 5, weights=double_accumulator(16)),
              mvm_graph(6, 3, weights=equal(16))]
    for seed in range(3):
        g = random_layered_dag(4, 5, seed=seed)
        graphs += [g, random_weighted(g, 1, 9, seed=seed)]
    # Non-tuple names of mixed types, whose repr order differs from any
    # natural order, and a non-ASCII name.
    mixed = {"b": 2, "a": 1, 10: 3, 9: 4, frozenset({1}): 5, "é": 6,
             "out": 7}
    graphs.append(CDAG([("b", 10), ("a", 10), (frozenset({1}), 9),
                        ("a", 9), (10, "é"), (9, "é"), ("é", "out"),
                        (9, "out")], mixed, name="mixed"))
    return graphs


def test_graph_fingerprint_keeps_the_reference_bytes():
    for g in _fingerprint_corpus():
        assert graph_fingerprint(g) == _reference_fingerprint(g), g.name


def test_graph_fingerprint_pinned_keys():
    """Keys of stores written before the one-pass fingerprint still
    resolve: these two were computed with the reference formula."""
    from repro.core import double_accumulator, equal
    assert graph_fingerprint(dwt_graph(16, 4, weights=equal(16))) == \
        "DWT(16,4)#V46#8538e3f23d1b"
    assert graph_fingerprint(mvm_graph(4, 5,
                                       weights=double_accumulator(16))) == \
        "MVM(4,5)#V61#387680dfbf1a"


def test_import_journal_folds_old_journals_read_only(tmp_path):
    from repro.analysis import SweepEngine
    old = tmp_path / "old.json"  # two-field entries, infinity as "inf"
    old.write_text(json.dumps({
        "format": "wrbpg-sweep-checkpoint", "version": 1,
        "entries": [{"scheduler": "S", "graph": "G", "budget": 8,
                     "cost": 20, "degraded": False},
                    {"scheduler": "S", "graph": "G", "budget": 4,
                     "cost": "inf", "degraded": False},
                    {"scheduler": "S", "graph": "G", "budget": 6,
                     "cost": 30, "degraded": True}]}))
    governed = tmp_path / "governed.json"  # provenance + lb fields
    governed.write_text(json.dumps({
        "format": "wrbpg-sweep-checkpoint", "version": 1,
        "entries": [{"scheduler": "S", "graph": "G", "budget": 9,
                     "cost": 18, "degraded": True,
                     "provenance": "anytime", "lb": 12},
                    {"scheduler": "S", "graph": "G", "budget": 10,
                     "cost": 17, "degraded": True,
                     "provenance": "quarantined"}]}))
    before = {p: p.read_bytes() for p in (old, governed)}
    s = ResultStore(tmp_path / "st")
    assert s.import_journal(old) == 3
    assert s.import_journal(governed) == 2
    s.close()
    assert {p: p.read_bytes() for p in (old, governed)} == before
    r = ResultStore(tmp_path / "st")
    assert r.get_probe("S", "G", 8) == (20, False, "exact", None)
    assert r.get_probe("S", "G", 4) == (math.inf, False, "exact", None)
    assert r.get_probe("S", "G", 6) == (30, True, "fallback", None)
    assert r.get_probe("S", "G", 9) == (18, True, "anytime", 12)
    assert r.get_probe("S", "G", 10) == (17, True, "quarantined", None)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "format": "wrbpg-sweep-checkpoint", "version": 1,
        "entries": [{"scheduler": "S", "graph": "G", "budget": 11,
                     "cost": 1},
                    {"scheduler": "S", "graph": "G", "budget": 12,
                     "cost": -1}]}))
    with pytest.raises(ValueError, match=r"entries\[1\]: cost"):
        r.import_journal(bad)
    assert r.get_probe("S", "G", 11) is None  # nothing staged
    r.close()

    with pytest.raises(ValueError, match="store"):
        SweepEngine(checkpoint=str(old))


# --------------------------------------------------------------------- #
# Satellite: concurrent access


def _contending_writer(store_dir, wid, n, barrier):
    s = ResultStore(store_dir)
    barrier.wait()  # maximize lock contention: start together
    for i in range(n):
        s.put_probe("W", f"G{wid}", i + 1, 1000 * wid + i)  # disjoint
        s.put_probe("W", "SHARED", i + 1, 7)  # same key, same value
    s.close()


def test_two_processes_interleave_commits_without_torn_or_dup(tmp_path):
    store_dir = str(tmp_path / "st")
    n = 25
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    procs = [ctx.Process(target=_contending_writer,
                         args=(store_dir, wid, n, barrier))
             for wid in (1, 2)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(120)
        assert p.exitcode == 0
    r = ResultStore(store_dir)
    assert r.quarantined == 0
    for wid in (1, 2):
        for i in range(n):
            assert r.get_probe("W", f"G{wid}", i + 1) == \
                (1000 * wid + i, False, "exact", None)
    for i in range(n):
        assert r.get_probe("W", "SHARED", i + 1) == (7, False, "exact",
                                                     None)
    # Interleaved commits must dedup under the lock: every committed
    # line decodes, and no key was physically written twice.
    lines = _raw_lines(r)
    keys = []
    for line in lines:
        rec = r._parse_line(line)
        assert rec is not None, f"torn/corrupt committed line: {line!r}"
        keys.append(rec.key)
    assert len(keys) == len(set(keys)) == 3 * n


def _slow_writer(store_dir, n):
    s = ResultStore(store_dir)
    for i in range(n):
        s.put_probe("W", "G", i + 1, i)
        time.sleep(0.005)
    s.close()


def test_lockfree_reader_sees_only_valid_monotone_state(tmp_path):
    store_dir = str(tmp_path / "st")
    n = 40
    ctx = multiprocessing.get_context("fork")
    writer = ctx.Process(target=_slow_writer, args=(store_dir, n))
    writer.start()
    try:
        reader = None
        seen = set()
        deadline = time.time() + 120
        while len(seen) < n and time.time() < deadline:
            if reader is None and os.path.isdir(store_dir):
                reader = ResultStore(store_dir)  # never takes the lock
            if reader is None:
                continue
            reader.refresh()
            now = set()
            for (s, g, b), value in reader.probe_entries().items():
                assert value == (b - 1, False, "exact", None)
                now.add(b)
            assert seen <= now, "reader observed a committed record vanish"
            seen = now
        assert reader is not None and reader.quarantined == 0
        assert len(seen) == n, f"reader only ever saw {len(seen)}/{n}"
    finally:
        writer.join(120)
    assert writer.exitcode == 0


def _compacting_writer(store_dir, rounds, stop):
    """Interleave upgrades (anytime → exact leaves dead records) with
    repeated compactions so the reader races segment replacement."""
    s = ResultStore(store_dir)
    try:
        for i in range(rounds):
            s.put_probe("W", f"G{i}", 8, 100 + i, degraded=True,
                        provenance="anytime", lb=float(50 + i))
            s.flush()
            s.put_probe("W", f"G{i}", 8, 100 + i)  # exact supersedes
            s.flush()
            s.compact()
    finally:
        stop.set()
        s.close()


def test_compaction_racing_lockfree_reader_stays_monotone(tmp_path):
    """Satellite: a lock-free reader polling ``refresh()`` while the
    writer compacts (rename-before-delete) never crashes, never sees a
    committed key vanish, and never observes an exact record regress to
    its superseded anytime value."""
    import threading
    store_dir = str(tmp_path / "st")
    ResultStore(store_dir).close()  # ensure layout exists for reader
    rounds, stop = 30, threading.Event()
    failures = []
    seen = {}

    def read_loop():
        reader = ResultStore(store_dir)
        try:
            while not stop.is_set() or not seen_all():
                reader.refresh()
                for (s, g, b), val in reader.probe_entries().items():
                    i = int(g[1:])
                    assert val in ((100 + i, True, "anytime", 50 + i),
                                   (100 + i, False, "exact", None)), val
                    if seen.get(g) == "exact":
                        assert val[2] == "exact", \
                            "exact record regressed to anytime"
                    seen[g] = val[2]
                if stop.is_set() and seen_all():
                    break
            assert reader.quarantined == 0
        except BaseException as exc:  # surface into the main thread
            failures.append(exc)
        finally:
            reader.close()

    def seen_all():
        return sum(1 for v in seen.values() if v == "exact") == rounds

    t = threading.Thread(target=read_loop)
    t.start()
    try:
        _compacting_writer(store_dir, rounds, stop)
    finally:
        stop.set()
        t.join(120)
    assert not t.is_alive(), "reader wedged"
    if failures:
        raise failures[0]
    assert sum(1 for v in seen.values() if v == "exact") == rounds
