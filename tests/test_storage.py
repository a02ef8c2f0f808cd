"""Storage-engine tests (ISSUE 8): contract, parity, crash points, codecs.

Four families:

* engine contract + randomized mutation-stream parity — ``MemoryEngine``
  is the oracle; ``LogEngine`` and ``ShardedEngine`` (memory and log
  children) must stay row-for-row equal under identical streams,
  including secondary-index-visible state;
* WAL crash points — a torn final append (partial header or payload) is
  dropped cleanly and flagged; a complete-but-corrupt record (bad CRC,
  bad JSON under a valid CRC) raises the typed ``CorruptLogError``; so
  does a corrupt snapshot;
* one-record-one-notification regression — every logical store
  operation (``Table.insert`` / ``delete_where`` / ``update_where``,
  ``TripleStore.replace_source`` / ``add_all``) under a ``LogEngine``
  emits exactly one WAL record and at most one delta notification;
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
from repro.relational import ColumnType, Database, IntegrityError
from repro.storage import (
    CorruptLogError,
    LogEngine,
    MemoryEngine,
    ShardedEngine,
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
    stable_row_hash,
)
from repro.storage.wal import _HEADER


# -- engine contract ---------------------------------------------------------
def contract_engines(tmp_path):
    return {
        "memory": MemoryEngine(),
        "log": LogEngine(tmp_path / "log", snapshot_every=None),
        "log-snap": LogEngine(tmp_path / "snap", snapshot_every=3),
        "sharded": ShardedEngine(shards=3),
        "sharded-log": ShardedEngine(
            shards=3,
            child_factory=lambda i: LogEngine(
                tmp_path / "shards", name=f"s{i}", snapshot_every=None
            ),
        ),
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


def test_scan_order_is_row_id_order_after_reroute(tmp_path):
    engine = ShardedEngine(shards=4)
    ids = [engine.append((f"row-{i}", i)) for i in range(40)]
    # replace re-routes rows whose content hash moves them to another shard
    for row_id in ids[::3]:
        engine.replace(row_id, (f"moved-{row_id}", row_id * 10))
    scanned = [row_id for row_id, _row in engine.scan()]
    assert scanned == sorted(scanned)
    assert sum(engine.shard_sizes()) == len(engine) == 40


def test_stable_row_hash_is_deterministic():
    assert stable_row_hash(("x", 1)) == stable_row_hash(("x", 1))
    assert stable_row_hash(("x", 1)) == zlib.crc32(repr(("x", 1)).encode("utf-8"))


# -- randomized mutation-stream parity ---------------------------------------
def make_table(engine):
    db = Database("parity")
    table = db.create_table(
        "items",
        [
            ("id", ColumnType.INT),
            ("dept", ColumnType.TEXT),
            ("size", ColumnType.INT),
        ],
        primary_key=("id",),
        engine=engine,
    )
    table.create_hash_index(("dept",))
    return table


def drive_table(table, seed, steps=120):
    rng = random.Random(seed)
    next_key = 0
    for _ in range(steps):
        op = rng.random()
        if op < 0.55:
            try:
                table.insert((next_key, rng.choice("abc"), rng.randint(0, 50)))
            except IntegrityError:
                pass
            next_key += 1
        elif op < 0.7:
            dept = rng.choice("abc")
            table.delete_where(lambda row: row["dept"] == dept)
        elif op < 0.85:
            dept = rng.choice("abc")
            table.update_where(
                lambda row: row["dept"] == dept, {"size": rng.randint(0, 50)}
            )
        else:
            table.delete_row(rng.randrange(max(next_key, 1)))


def table_fingerprint(table):
    index = table.hash_index_for({"dept"})
    return {
        "rows": list(table.engine.scan()),
        "len": len(table),
        "hash": {d: sorted(index.lookup((d,))) for d in "abc"},
        "pk": [table.lookup_pk((k,)) for k in range(130)],
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_mutation_stream_parity(tmp_path, seed):
    tables = {
        name: make_table(engine)
        for name, engine in contract_engines(tmp_path / str(seed)).items()
    }
    for table in tables.values():
        drive_table(table, seed)
    oracle = table_fingerprint(tables["memory"])
    for name, table in tables.items():
        assert table_fingerprint(table) == oracle, name
        table.close()


@pytest.mark.parametrize("seed", [0, 1])
def test_triple_store_parity_across_engines(tmp_path, seed):
    stores = {
        "memory": TripleStore(),
        "log": TripleStore(
            engine=LogEngine(tmp_path / "t", name=f"trip{seed}", snapshot_every=5)
        ),
        "sharded": TripleStore(engine=ShardedEngine(shards=3)),
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
def logged_table(tmp_path, name="t"):
    return make_table(LogEngine(tmp_path, name=name, snapshot_every=None))


def test_truncated_tail_partial_payload_dropped(tmp_path):
    table = logged_table(tmp_path)
    for key in range(5):
        table.insert((key, "a", key))
    table.close()
    wal = tmp_path / "t.wal"
    wal.write_bytes(wal.read_bytes()[:-3])  # tear the final append
    engine = LogEngine(tmp_path, name="t", snapshot_every=None)
    assert engine.truncated_tail
    assert engine.replayed_records == 4
    recovered = make_table(engine)
    assert [row["id"] for row in recovered.scan()] == [0, 1, 2, 3]
    engine.close()


def test_truncated_tail_partial_header_dropped(tmp_path):
    table = logged_table(tmp_path)
    table.insert((0, "a", 0))
    table.close()
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
    table = logged_table(tmp_path)
    for key in range(5):
        table.insert((key, "a", key))
    table.close()
    wal = tmp_path / "t.wal"
    torn_size = len(wal.read_bytes())
    wal.write_bytes(wal.read_bytes()[:-3])  # tear the final append
    engine = LogEngine(tmp_path, name="t", snapshot_every=None)
    assert engine.truncated_tail
    assert wal.stat().st_size < torn_size - 3  # garbage truncated on disk
    survivor = make_table(engine)
    survivor.insert((4, "b", 4))  # append after the repaired tail
    survivor.close()
    recovered = LogEngine(tmp_path, name="t", snapshot_every=None)
    assert not recovered.truncated_tail
    assert recovered.replayed_records == 5
    assert [row["id"] for row in make_table(recovered).scan()] == [0, 1, 2, 3, 4]
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
    table = logged_table(tmp_path)
    for key in range(3):
        table.insert((key, "a", key))
    table.close()
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


def test_sharded_recovery_dedups_cross_shard_replace_duplicate(tmp_path):
    """A row id live in two shards after a crash is repaired on recovery.

    A crash between the two per-shard commits of a cross-shard
    ``replace`` can leave the row live in both children; recovery must
    keep exactly one copy (highest-index shard wins, deterministically)
    and durably delete the stale one so ``scan`` never yields a row id
    twice.
    """

    def factory(i):
        return LogEngine(tmp_path / f"s{i}", name="shard", snapshot_every=None)

    first = factory(0)
    first.insert_at(0, ("old", 1))
    first.close()
    second = factory(1)
    second.insert_at(0, ("new", 2))
    second.close()

    obs = obs_mod.Observability()
    engine = ShardedEngine(shards=2, child_factory=factory, obs=obs)
    assert list(engine.scan()) == [(0, ("new", 2))]
    assert len(engine) == 1
    assert obs.metrics.counter("storage.shard.recovered_duplicates").value == 1
    engine.close()

    # the repair was written to the losing shard's log: a second
    # recovery is already clean
    engine2 = ShardedEngine(shards=2, child_factory=factory)
    assert list(engine2.scan()) == [(0, ("new", 2))]
    engine2.close()


def test_named_sharded_engines_do_not_collide_on_gauges():
    obs = obs_mod.Observability()
    employees = ShardedEngine(shards=2, obs=obs, name="emp")
    departments = ShardedEngine(shards=2, obs=obs, name="dept")
    employees.append(("x",))
    employees.append(("y",))
    departments.append(("z",))
    metrics = obs.metrics
    emp = sum(metrics.gauge(f"storage.shard.rows.emp.{i}").value for i in range(2))
    dept = sum(metrics.gauge(f"storage.shard.rows.dept.{i}").value for i in range(2))
    assert (emp, dept) == (2, 1)


# -- one record + one notification per logical operation ---------------------
def test_table_ops_emit_one_wal_record_each(tmp_path):
    table = logged_table(tmp_path)
    table.insert((0, "a", 5))
    table.insert((1, "b", 7))
    table.update_where(lambda row: row["dept"] == "a", {"size": 9})
    table.delete_where(lambda row: row["size"] > 0)
    records = table.engine.wal_records()
    assert [r["kind"] for r in records] == [
        "updategram",
        "updategram",
        "updategram",
        "updategram",
    ]
    # the logical payloads replay to the same grams the table described
    assert records[0]["logical"]["inserts"] == {"items": [[0, "a", 5]]}
    assert records[2]["logical"]["deletes"] == {"items": [[0, "a", 5]]}
    assert records[2]["logical"]["inserts"] == {"items": [[0, "a", 9]]}
    assert records[3]["logical"]["deletes"] == {"items": [[0, "a", 9], [1, "b", 7]]}
    table.close()


def test_no_op_mutations_log_nothing(tmp_path):
    table = logged_table(tmp_path)
    table.insert((0, "a", 5))
    table.delete_where(lambda row: False)
    table.update_where(lambda row: False, {"size": 1})
    table.delete_row(99)
    with pytest.raises(IntegrityError):
        table.insert((0, "a", 6))  # duplicate pk: rejected before logging
    assert len(table.engine.wal_records()) == 1
    table.close()


@pytest.mark.parametrize("kind", ["memory", "log"])
def test_update_where_is_all_or_nothing(tmp_path, kind):
    engine = (
        MemoryEngine() if kind == "memory"
        else LogEngine(tmp_path, name="atomic", snapshot_every=None)
    )
    table = Database("atomic").create_table(
        "t", [("id", ColumnType.INT), ("v", ColumnType.INT)],
        primary_key=("id",), engine=engine,
    )
    for row in [(1, 10), (2, 20), (3, 30)]:
        table.insert(row)
    before = list(table.raw_scan())
    with pytest.raises(IntegrityError):  # rows 2 and 3 would both become id 7
        table.update_where(lambda row: row["id"] >= 2, {"id": 7})
    with pytest.raises(IntegrityError):  # row 3 would take row 1's id
        table.update_where(lambda row: row["id"] == 3, {"id": 1})
    assert list(table.raw_scan()) == before
    assert [table.lookup_pk((key,)) for key in (1, 2, 3, 7)] == [
        {"id": 1, "v": 10}, {"id": 2, "v": 20}, {"id": 3, "v": 30}, None,
    ]
    table.close()
    if kind == "log":
        recovered = LogEngine(tmp_path, name="atomic", snapshot_every=None)
        assert [row for _row_id, row in recovered.scan()] == before
        recovered.close()


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

    sharded = ShardedEngine(shards=2, obs=obs)
    sharded.append(("x",))
    sharded.append(("y",))
    total = sum(
        metrics.gauge(f"storage.shard.rows.{i}").value for i in range(2)
    )
    assert total == 2


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
