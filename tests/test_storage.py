"""Storage-engine tests (ISSUE 8): contract, parity, crash points, codecs.

Four families:

* engine contract + randomized mutation-stream parity — ``MemoryEngine``
  is the oracle; ``LogEngine`` (with and without snapshots) must stay
  row-for-row equal under identical streams of
  ``append``/``delete``/``replace``, batched and bare, down to ``get``
  by id and the next row id;
* WAL crash points — a torn final append (partial header or payload) is
  dropped cleanly and flagged; a complete-but-corrupt record (bad CRC,
  bad JSON under a valid CRC) raises the typed ``CorruptLogError``; so
  does a corrupt snapshot;
* one-record-one-notification regression — every logical store
  operation (``TripleStore.add`` / ``add_all`` / ``remove`` /
  ``remove_source`` / ``replace_source``) under a ``LogEngine`` emits
  exactly one WAL record and at most one delta notification;
* hypothesis round trips for every codec in ``repro.storage.records``,
  including empty grams/deltas and unicode values.
"""

import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs as obs_mod
from repro.piazza.updates import Updategram
from repro.rdf.store import TripleStore
from repro.rdf.triples import Delta, Triple
from repro.storage import (
    CorruptLogError,
    LogEngine,
    MemoryEngine,
    SnapshotFile,
    WriteAheadLog,
    decode_delta,
    decode_engine_snapshot,
    decode_peer_snapshot,
    decode_row,
    decode_updategram,
    decode_value,
    encode_delta,
    encode_engine_snapshot,
    encode_peer_snapshot,
    encode_row,
    encode_updategram,
    encode_value,
)
from repro.storage.wal import _HEADER


# -- engine contract ---------------------------------------------------------
def contract_engines(tmp_path):
    return {
        "memory": MemoryEngine(),
        "log": LogEngine(tmp_path / "log", snapshot_every=None),
        "log-snap": LogEngine(tmp_path / "snap", snapshot_every=3),
    }


def test_engine_contract_basics(tmp_path):
    for name, engine in contract_engines(tmp_path).items():
        a = engine.append(("a", 1))
        b = engine.append(("b", 2))
        c = engine.append(("c", 3))
        assert [a, b, c] == [0, 1, 2], name
        assert engine.get(b) == ("b", 2)
        assert engine.delete(b) == ("b", 2)
        assert engine.get(b) is None
        assert engine.delete(b) is None
        # deleted ids are never reused
        assert engine.append(("d", 4)) == 3
        engine.replace(c, ("c", 30))
        assert engine.get(c) == ("c", 30)
        assert list(engine.scan()) == [
            (0, ("a", 1)),
            (2, ("c", 30)),
            (3, ("d", 4)),
        ], name
        assert len(engine) == 3
        assert engine.describe()["rows"] == 3
        engine.close()


# -- randomized mutation-stream parity ---------------------------------------
def drive_engine(engine, seed, steps=120):
    """A random stream of ``(key, dept, size)`` rows: appends, batched
    deletes and replaces by dept, and bare deletes of random ids."""
    rng = random.Random(seed)
    next_key = 0
    for _ in range(steps):
        op = rng.random()
        if op < 0.55:
            engine.append((next_key, rng.choice("abc"), rng.randint(0, 50)))
            next_key += 1
        elif op < 0.7:
            dept = rng.choice("abc")
            with engine.batch():
                for row_id, row in list(engine.scan()):
                    if row[1] == dept:
                        engine.delete(row_id)
        elif op < 0.85:
            dept, size = rng.choice("abc"), rng.randint(0, 50)
            with engine.batch():
                for row_id, row in list(engine.scan()):
                    if row[1] == dept:
                        engine.replace(row_id, (row[0], dept, size))
        else:
            engine.delete(rng.randrange(max(next_key, 1)))


def engine_fingerprint(engine):
    return {
        "rows": list(engine.scan()),
        "len": len(engine),
        "get": [engine.get(row_id) for row_id in range(130)],
        "next_id": engine.next_id,
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_mutation_stream_parity(tmp_path, seed):
    engines = contract_engines(tmp_path / str(seed))
    for engine in engines.values():
        drive_engine(engine, seed)
    oracle = engine_fingerprint(engines["memory"])
    for name, engine in engines.items():
        assert engine_fingerprint(engine) == oracle, name
        engine.close()


@pytest.mark.parametrize("seed", [0, 1])
def test_triple_store_parity_across_engines(tmp_path, seed):
    stores = {
        "memory": TripleStore(),
        "log": TripleStore(
            engine=LogEngine(tmp_path / "t", name=f"trip{seed}", snapshot_every=5)
        ),
    }
    rng = random.Random(seed)
    sources = [f"url{i}" for i in range(4)]
    ops = []
    for _ in range(60):
        kind = rng.random()
        if kind < 0.4:
            ops.append(
                (
                    "add_all",
                    [
                        Triple(f"s{rng.randint(0, 9)}", f"p{rng.randint(0, 2)}",
                               rng.randint(0, 5), rng.choice(sources))
                        for _ in range(rng.randint(1, 3))
                    ],
                )
            )
        elif kind < 0.6:
            ops.append(("remove", (f"s{rng.randint(0, 9)}", f"p{rng.randint(0, 2)}",
                                   rng.randint(0, 5))))
        else:
            ops.append(
                (
                    "replace_source",
                    rng.choice(sources),
                    [
                        Triple(f"s{rng.randint(0, 9)}", f"p{rng.randint(0, 2)}",
                               rng.randint(0, 5), "ignored")
                        for _ in range(rng.randint(0, 4))
                    ],
                )
            )
    for name, store in stores.items():
        for op in ops:
            if op[0] == "add_all":
                store.add_all(op[1])
            elif op[0] == "remove":
                store.remove(*op[1])
            else:
                store.replace_source(op[1], op[2])
    oracle = stores["memory"].all_triples()
    for name, store in stores.items():
        assert store.all_triples() == oracle, name
        assert list(store.match(predicate="p1")) == [
            t for t in oracle if t.predicate == "p1"
        ], name
        store.close()


# -- WAL crash points --------------------------------------------------------
def logged_rows(tmp_path, count, name="t"):
    """A closed LogEngine holding ``count`` rows, one WAL record each."""
    engine = LogEngine(tmp_path, name=name, snapshot_every=None)
    for key in range(count):
        engine.append((key, "a", key))
    engine.close()


def test_truncated_tail_partial_payload_dropped(tmp_path):
    logged_rows(tmp_path, 5)
    wal = tmp_path / "t.wal"
    wal.write_bytes(wal.read_bytes()[:-3])  # tear the final append
    engine = LogEngine(tmp_path, name="t", snapshot_every=None)
    assert engine.truncated_tail
    assert engine.replayed_records == 4
    assert [row[0] for _row_id, row in engine.scan()] == [0, 1, 2, 3]
    engine.close()


def test_truncated_tail_partial_header_dropped(tmp_path):
    logged_rows(tmp_path, 1)
    wal = tmp_path / "t.wal"
    wal.write_bytes(wal.read_bytes() + b"\x00\x01")  # torn header-only append
    engine = LogEngine(tmp_path, name="t", snapshot_every=None)
    assert engine.truncated_tail
    assert engine.replayed_records == 1
    engine.close()


def test_append_after_torn_tail_recovery_stays_recoverable(tmp_path):
    """Regression: the torn tail must be truncated, not just dropped.

    Crash mid-append -> recover -> write one record -> recover again.
    Before the fix, recovery dropped the garbage bytes in memory but
    left them on disk, so the post-recovery append landed *behind*
    them and the second recovery raised ``CorruptLogError``.
    """
    logged_rows(tmp_path, 5)
    wal = tmp_path / "t.wal"
    torn_size = len(wal.read_bytes())
    wal.write_bytes(wal.read_bytes()[:-3])  # tear the final append
    engine = LogEngine(tmp_path, name="t", snapshot_every=None)
    assert engine.truncated_tail
    assert wal.stat().st_size < torn_size - 3  # garbage truncated on disk
    engine.append((4, "b", 4))  # append after the repaired tail
    engine.close()
    recovered = LogEngine(tmp_path, name="t", snapshot_every=None)
    assert not recovered.truncated_tail
    assert recovered.replayed_records == 5
    assert [row[0] for _row_id, row in recovered.scan()] == [0, 1, 2, 3, 4]
    recovered.close()


def test_append_to_unread_torn_log_truncates_first(tmp_path):
    """A torn log appended to without a recovery read is repaired too.

    ``PeerLog`` appends grams without necessarily calling ``records()``
    first, so ``append`` itself must validate the tail on first touch.
    """
    path = tmp_path / "x.wal"
    wal = WriteAheadLog(path)
    for i in range(3):
        wal.append({"i": i})
    wal.close()
    path.write_bytes(path.read_bytes()[:-2])  # tear the final append
    fresh = WriteAheadLog(path)
    fresh.append({"i": 99})  # first touch is a write, not a read
    assert fresh.truncated_tail
    fresh.close()
    reader = WriteAheadLog(path)
    assert [r["i"] for r in reader.records()] == [0, 1, 99]
    assert not reader.truncated_tail


def test_sync_mode_survives_restart(tmp_path):
    """sync=True (per-append fsync + directory fsync) round-trips."""
    engine = LogEngine(tmp_path, name="s", snapshot_every=None, sync=True)
    engine.append((1,))
    engine.append((2,))
    engine.checkpoint()
    engine.append((3,))
    engine.close()
    recovered = LogEngine(tmp_path, name="s", snapshot_every=None, sync=True)
    assert [row for _id, row in recovered.scan()] == [(1,), (2,), (3,)]
    recovered.close()


def test_corrupt_complete_record_raises_typed_error(tmp_path):
    logged_rows(tmp_path, 3)
    wal = tmp_path / "t.wal"
    data = bytearray(wal.read_bytes())
    data[_HEADER.size + 2] ^= 0xFF  # flip a byte inside the first payload
    wal.write_bytes(bytes(data))
    with pytest.raises(CorruptLogError):
        LogEngine(tmp_path, name="t", snapshot_every=None)


def test_bad_json_under_valid_crc_raises_typed_error(tmp_path):
    payload = b"definitely not json"
    frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
    (tmp_path / "t.wal").write_bytes(frame)
    with pytest.raises(CorruptLogError):
        LogEngine(tmp_path, name="t", snapshot_every=None)


def test_corrupt_snapshot_raises_typed_error(tmp_path):
    engine = LogEngine(tmp_path, name="t", snapshot_every=None)
    engine.append(("a",))
    engine.checkpoint()
    engine.close()
    snap = tmp_path / "t.snapshot"
    snap.write_bytes(snap.read_bytes()[:-2])
    with pytest.raises(CorruptLogError):
        LogEngine(tmp_path, name="t", snapshot_every=None)


def test_snapshot_write_is_atomic_and_resets_wal(tmp_path):
    engine = LogEngine(tmp_path, name="t", snapshot_every=None)
    for i in range(10):
        engine.append((i,))
    assert engine.wal_size_bytes() > 0
    engine.checkpoint()
    assert engine.wal_size_bytes() == 0
    engine.close()
    recovered = LogEngine(tmp_path, name="t", snapshot_every=None)
    assert recovered.replayed_records == 0  # all state came from the snapshot
    assert [row for _id, row in recovered.scan()] == [(i,) for i in range(10)]
    assert recovered.next_id == 10
    recovered.close()


def test_recovery_preserves_next_id_past_trailing_deletes(tmp_path):
    engine = LogEngine(tmp_path, name="t", snapshot_every=None)
    for i in range(4):
        engine.append((i,))
    engine.delete(3)  # the max id is dead: recovery must not reuse it
    engine.close()
    recovered = LogEngine(tmp_path, name="t", snapshot_every=None)
    assert recovered.next_id == 4
    assert recovered.append(("new",)) == 4
    recovered.close()


def test_bare_write_of_unencodable_row_changes_nothing(tmp_path):
    from repro.storage import StorageError

    engine = LogEngine(tmp_path, name="t", snapshot_every=None)
    engine.append(("k", 1))
    wal = (tmp_path / "t.wal").read_bytes()
    with pytest.raises(StorageError):
        engine.append(("k", {"x": 1}))
    with pytest.raises(StorageError):
        engine.replace(0, ("k", {"x": 1}))
    assert (len(engine), engine.next_id, list(engine.scan())) == (1, 1, [(0, ("k", 1))])
    assert (tmp_path / "t.wal").read_bytes() == wal
    engine.close()


# -- one record + one notification per logical operation ---------------------
def test_table_ops_emit_one_wal_record_each(tmp_path):
    """Each store operation on its triples table is one ``delta`` record
    whose logical payload is the delta the subscribers received."""
    store = TripleStore(engine=LogEngine(tmp_path, name="trip", snapshot_every=None))
    deltas = []
    store.subscribe_delta(lambda _store, delta: deltas.append(delta))
    store.add(Triple("s1", "p", 1, "u"))
    store.add_all([Triple("s1", "p", 2, "u"), Triple("s2", "q", 3, "v")])
    store.remove("s1", "p", 1)
    store.replace_source("u", [Triple("s1", "p", 2, "u"), Triple("s3", "p", 4, "u")])
    store.remove_source("v")
    records = store.engine.wal_records()
    assert [r["kind"] for r in records] == ["delta"] * 5
    assert [decode_delta(r["logical"]) for r in records] == deltas
    assert [len(r["ops"]) for r in records] == [1, 2, 1, 1, 1]
    assert deltas[2] == Delta(removed=(Triple("s1", "p", 1, "u", 1),))
    assert [t.timestamp for t in deltas[2].removed] == [1]
    assert deltas[4] == Delta(removed=(Triple("s2", "q", 3, "v"),))
    store.close()


def test_no_op_mutations_log_nothing(tmp_path):
    store = TripleStore(engine=LogEngine(tmp_path, name="trip", snapshot_every=None))
    store.add(Triple("s", "p", 5, "u"))
    store.add_all([])
    store.remove("s", "p", 6)
    store.remove("nobody", "p", 5)
    store.remove_source("unknown")
    store.replace_source("u", [Triple("s", "p", 5, "elsewhere")])  # unchanged
    with pytest.raises(TypeError):
        store.add(Triple(None, "p", 6, "u"))  # rejected before logging
    assert len(store.engine.wal_records()) == 1
    assert store.all_triples() == [Triple("s", "p", 5, "u", 1)]
    store.close()


def test_replace_source_one_record_one_notification(tmp_path):
    store = TripleStore(engine=LogEngine(tmp_path, name="trip", snapshot_every=None))
    notifications = []
    store.subscribe_delta(lambda _store, delta: notifications.append(delta))
    store.add_all([Triple("s1", "p", 1, "u"), Triple("s2", "p", 2, "u")])
    delta = store.replace_source(
        "u", [Triple("s1", "p", 1, "u"), Triple("s3", "p", 3, "u")]
    )
    records = store.engine.wal_records()
    assert [r["kind"] for r in records] == ["delta", "delta"]
    assert len(notifications) == 2
    # the WAL's logical payload IS the delta the subscribers received
    assert decode_delta(records[1]["logical"]) == delta == notifications[1]
    # an unchanged re-publish logs nothing and notifies nobody
    store.replace_source("u", [Triple("s1", "p", 1, "u"), Triple("s3", "p", 3, "u")])
    assert len(store.engine.wal_records()) == 2
    assert len(notifications) == 2
    store.close()


def test_notification_fires_after_wal_commit(tmp_path):
    store = TripleStore(engine=LogEngine(tmp_path, name="trip", snapshot_every=None))
    seen = []
    store.subscribe_delta(
        lambda s, _delta: seen.append(len(s.engine.wal_records()))
    )
    store.add(Triple("s", "p", 1, "u"))
    store.replace_source("u", [Triple("s", "p", 2, "u")])
    assert seen == [1, 2]  # each listener saw its own record already durable
    store.close()


# -- metrics -----------------------------------------------------------------
def test_storage_metrics_reach_shared_registry(tmp_path):
    obs = obs_mod.Observability()
    engine = LogEngine(tmp_path, name="m", snapshot_every=2, obs=obs)
    for i in range(5):
        engine.append((i,))
    engine.close()
    metrics = obs.metrics
    assert metrics.counter("storage.wal.appends").value == 5
    assert metrics.counter("storage.wal.bytes").value > 0
    assert metrics.counter("storage.snapshot.writes").value >= 1
    engine2 = LogEngine(tmp_path, name="m", snapshot_every=None, obs=obs)
    assert metrics.counter("storage.replay.records").value >= 1
    engine2.close()


def test_default_registry_gets_storage_metrics(tmp_path):
    engine = LogEngine(tmp_path, name="d", snapshot_every=None)
    engine.append((1,))
    engine.close()
    registry = obs_mod.default().metrics
    assert "storage.wal.appends" in registry
    assert registry.counter("storage.wal.appends").value >= 1


# -- codec round trips (hypothesis) ------------------------------------------
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3),
    ),
    max_leaves=6,
)
rows = st.lists(values, min_size=1, max_size=4).map(tuple)
hashable_rows = st.lists(
    st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=4
    ),
    min_size=1,
    max_size=4,
).map(tuple)
relation_names = st.text(min_size=1, max_size=8)


@given(values)
def test_value_round_trip(value):
    assert decode_value(encode_value(value)) == value


@given(rows)
def test_row_round_trip(row):
    assert decode_row(encode_row(row)) == row


@given(
    st.dictionaries(relation_names, st.lists(hashable_rows, max_size=3), max_size=3),
    st.dictionaries(relation_names, st.lists(hashable_rows, max_size=3), max_size=3),
)
@settings(max_examples=50)
def test_updategram_round_trip(inserts, deletes):
    gram = Updategram()
    for relation, gram_rows in inserts.items():
        gram.insert(relation, gram_rows)
    for relation, gram_rows in deletes.items():
        gram.delete(relation, gram_rows)
    assert decode_updategram(encode_updategram(gram)) == gram


def test_empty_updategram_round_trip():
    assert decode_updategram(encode_updategram(Updategram())) == Updategram()


triples = st.builds(
    Triple,
    subject=st.text(min_size=1, max_size=8),
    predicate=st.text(min_size=1, max_size=8),
    object=st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=4
    ),
    source=st.text(max_size=10),
    timestamp=st.integers(min_value=0, max_value=2**31),
)


@given(st.lists(triples, max_size=4), st.lists(triples, max_size=4))
@settings(max_examples=50)
def test_delta_round_trip(added, removed):
    delta = Delta(added=tuple(added), removed=tuple(removed))
    assert decode_delta(encode_delta(delta)) == delta


def test_empty_delta_round_trip():
    assert decode_delta(encode_delta(Delta())) == Delta()


def test_unicode_values_round_trip():
    row = ("κλειδί", "日本語", "emoji 🎉", ("nested", "ключ"), None)
    assert decode_row(encode_row(row)) == row
    gram = Updategram().insert("ρελ", [row])
    assert decode_updategram(encode_updategram(gram)) == gram
    delta = Delta(added=(Triple("σ", "п", "值", "ü", 7),))
    assert decode_delta(encode_delta(delta)) == delta


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=1000), hashable_rows, max_size=5
    ),
)
@settings(max_examples=50)
def test_engine_snapshot_round_trip(row_map):
    next_id = max(row_map, default=-1) + 1
    decoded_rows, decoded_next = decode_engine_snapshot(
        encode_engine_snapshot(row_map, next_id)
    )
    assert decoded_rows == row_map
    assert decoded_next == next_id


@given(
    st.dictionaries(
        relation_names, st.lists(st.text(max_size=6), max_size=3), max_size=3
    ),
    st.dictionaries(
        relation_names, st.sets(hashable_rows, max_size=4), max_size=3
    ),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=50)
def test_peer_snapshot_round_trip(stored, data, epoch):
    decoded = decode_peer_snapshot(encode_peer_snapshot(stored, data, epoch))
    assert decoded == (stored, data, epoch)


def test_unencodable_value_raises():
    from repro.storage import StorageError

    with pytest.raises(StorageError):
        encode_value(object())
    with pytest.raises(StorageError):
        decode_value({"weird": []})
