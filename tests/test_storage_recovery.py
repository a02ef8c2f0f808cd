"""Kill-and-recover tests (ISSUE 8): restart equals the uninterrupted run.

The acceptance criterion for the durable engines: kill a LogEngine- (or
PeerLog-) backed store mid-update-stream, recover from disk, continue
the stream — every observable (rows, row ids, the triple store's
indexes, triple timestamps, peer epochs, served view answers) must be
bit-equal to an uninterrupted ``MemoryEngine`` run of the same stream.
Recovery cost bounding is pinned too: a snapshot mid-stream shrinks the
replayed WAL tail to the post-snapshot records.

The reopen law drives a random stream of every ``TripleStore`` mutation,
invalid triples among them, with checkpoints and close/reopen at random
points, and holds the durable store to an uninterrupted in-memory one
after every step.
"""

import dataclasses
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.piazza.peer import PDMS
from repro.piazza.execution import DistributedExecutor
from repro.piazza.serving import ViewServer
from repro.piazza.updates import Updategram
from repro.rdf.store import TripleStore
from repro.rdf.triples import Triple
from repro.storage import LogEngine, MemoryEngine, PeerLog, StorageError, decode_delta

from tests.test_storage import drive_engine, engine_fingerprint


# -- engines ----------------------------------------------------------------
def test_table_kill_and_recover_matches_uninterrupted_run(tmp_path):
    durable = LogEngine(tmp_path, name="t", snapshot_every=None)
    oracle = MemoryEngine()
    drive_engine(durable, seed=7, steps=60)
    drive_engine(oracle, seed=7, steps=60)
    durable.close()  # crash: drop the process state, keep the disk

    recovered = LogEngine(tmp_path, name="t", snapshot_every=None)
    assert recovered.recovered
    assert not recovered.truncated_tail
    # continue the same stream on both sides after the restart
    drive_engine(recovered, seed=8, steps=60)
    drive_engine(oracle, seed=8, steps=60)
    assert engine_fingerprint(recovered) == engine_fingerprint(oracle)
    recovered.close()


def test_table_snapshot_bounds_replay(tmp_path):
    no_snap = LogEngine(tmp_path / "a", name="t", snapshot_every=None)
    snap = LogEngine(tmp_path / "b", name="t", snapshot_every=10)
    drive_engine(no_snap, seed=3, steps=80)
    drive_engine(snap, seed=3, steps=80)
    no_snap.close()
    snap.close()
    full = LogEngine(tmp_path / "a", name="t", snapshot_every=None)
    bounded = LogEngine(tmp_path / "b", name="t", snapshot_every=10)
    assert bounded.replayed_records < full.replayed_records
    assert bounded.replayed_records < 10
    assert list(full.scan()) == list(bounded.scan())
    full.close()
    bounded.close()


def test_table_recovers_from_snapshot_plus_tail(tmp_path):
    durable = LogEngine(tmp_path, name="t", snapshot_every=5)
    oracle = MemoryEngine()
    drive_engine(durable, seed=11, steps=70)
    drive_engine(oracle, seed=11, steps=70)
    durable.close()

    recovered = LogEngine(tmp_path, name="t", snapshot_every=5)
    assert recovered.replayed_records < 5
    assert engine_fingerprint(recovered) == engine_fingerprint(oracle)
    recovered.close()


# -- TripleStore ------------------------------------------------------------
def drive_store(store, seed, steps=40):
    rng = random.Random(seed)
    sources = [f"url{i}" for i in range(3)]
    for _ in range(steps):
        kind = rng.random()
        if kind < 0.5:
            store.add_all(
                [
                    Triple(f"s{rng.randint(0, 6)}", f"p{rng.randint(0, 2)}",
                           rng.randint(0, 9), rng.choice(sources))
                    for _ in range(rng.randint(1, 3))
                ]
            )
        else:
            store.replace_source(
                rng.choice(sources),
                [
                    Triple(f"s{rng.randint(0, 6)}", f"p{rng.randint(0, 2)}",
                           rng.randint(0, 9), "x")
                    for _ in range(rng.randint(0, 3))
                ],
            )


def test_triple_store_kill_and_recover_matches_uninterrupted_run(tmp_path):
    durable = TripleStore(engine=LogEngine(tmp_path, name="trip", snapshot_every=7))
    oracle = TripleStore()
    drive_store(durable, seed=5)
    drive_store(oracle, seed=5)
    durable.close()  # crash

    recovered = TripleStore(
        engine=LogEngine(tmp_path, name="trip", snapshot_every=7)
    )
    # recovered state: triples, original timestamps, the logical clock
    assert recovered.all_triples() == oracle.all_triples()
    assert recovered.engine.next_id == oracle.engine.next_id
    assert recovered.sources() == oracle.sources()
    # a subscriber attached after recovery sees identical deltas
    recovered_deltas, oracle_deltas = [], []
    recovered.subscribe_delta(lambda _s, d: recovered_deltas.append(d))
    oracle.subscribe_delta(lambda _s, d: oracle_deltas.append(d))
    drive_store(recovered, seed=6)
    drive_store(oracle, seed=6)
    assert recovered_deltas == oracle_deltas  # includes identical timestamps
    assert recovered.all_triples() == oracle.all_triples()
    assert list(recovered.match(predicate="p1")) == list(oracle.match(predicate="p1"))
    recovered.close()


def store_view(store):
    """Everything a reader can see: every index path, with timestamps."""

    def stamped(triples):
        return [(t, t.timestamp) for t in triples]

    return {
        "all": stamped(store.all_triples()),
        "subject": {s: stamped(store.match(subject=s)) for s in store.subjects()},
        "predicate": {p: stamped(store.match(predicate=p)) for p in store.predicates()},
        "pair": {
            (s, p): stamped(store.match(s, p))
            for s in store.subjects()
            for p in store.predicates()
        },
        "source": {u: stamped(store.match(source=u)) for u in store.sources()},
        "sources": store.sources(),
        "predicates": store.predicates(),
        "len": len(store),
        "next_id": store.engine.next_id,
    }


def test_triple_store_over_log_engine_recovers(tmp_path):
    def engine():
        return LogEngine(tmp_path, name="trip", snapshot_every=5)

    durable = TripleStore(engine=engine())
    oracle = TripleStore()
    for store in (durable, oracle):
        drive_store(store, seed=9, steps=50)
        store.remove("s1", "p1", 3)
        store.remove("s2", "p0", 5)
    assert store_view(durable) == store_view(oracle)
    durable.close()  # crash

    recovered = TripleStore(engine=engine())
    assert recovered.engine.recovered
    assert store_view(recovered) == store_view(oracle)
    # removes by (s, p, o) after recovery resolve through the rebuilt index
    for spo in [(f"s{s}", f"p{p}", o) for s in range(7) for p in range(3) for o in range(10)]:
        assert recovered.remove(*spo) == oracle.remove(*spo)
    drive_store(recovered, seed=10, steps=20)
    drive_store(oracle, seed=10, steps=20)
    assert store_view(recovered) == store_view(oracle)
    recovered.close()


@pytest.mark.parametrize("field", ["subject", "predicate", "source"])
def test_non_str_key_field_raises_and_logs_nothing(tmp_path, field):
    engine = LogEngine(tmp_path, name="trip", snapshot_every=None)
    store = TripleStore(engine=engine)
    store.add(Triple("s", "p", 1, "u"))
    fields = {"subject": "s", "predicate": "p", "object": 2, "source": "u", field: 7}
    with pytest.raises(TypeError):
        store.add_all([Triple(**fields)])
    assert len(engine.wal_records()) == 1
    assert store.engine.next_id == 1
    assert store_view(store)["all"] == [(Triple("s", "p", 1, "u"), 1)]
    store.close()


def test_reopen_resumes_timestamps_past_a_deleted_newest_triple(tmp_path):
    oracle = TripleStore()
    durable = TripleStore(engine=LogEngine(tmp_path, name="trip"))
    for store in (oracle, durable):
        store.add_all([Triple("a", "p", 1, "u"), Triple("b", "p", 2, "u")])
        store.replace_source("u", [Triple("a", "p", 1, "u")])
    durable.close()
    reopened = TripleStore(engine=LogEngine(tmp_path, name="trip"))
    assert oracle.add(Triple("c", "p", 3, "u")).timestamp == 3
    assert reopened.add(Triple("c", "p", 3, "u")).timestamp == 3
    reopened.close()


def assert_failed_add_all_writes_nothing(directory, bad, error):
    store = TripleStore(engine=LogEngine(directory, name="trip", snapshot_every=None))
    deltas = []
    store.subscribe_delta(lambda _s, delta: deltas.append(delta))
    with pytest.raises(error):
        store.add_all([Triple("a", "p", 1, "u"), bad])
    assert (len(store), list(store.match()), deltas) == (0, [], [])
    assert store.engine.wal_records() == []
    store.close()
    assert len(TripleStore(engine=LogEngine(directory, name="trip"))) == 0


def test_failed_add_all_with_a_non_str_key_writes_nothing(tmp_path):
    assert_failed_add_all_writes_nothing(tmp_path, Triple(None, "p", 2, "u"), TypeError)


def test_failed_add_all_with_an_unencodable_object_writes_nothing(tmp_path):
    assert_failed_add_all_writes_nothing(tmp_path, Triple("b", "p", {"x": 1}, "u"), StorageError)


# -- the reopen law -----------------------------------------------------------
subjects = st.sampled_from(["s0", "s1", "s2"])
predicates = st.sampled_from(["p0", "p1"])
sources = st.sampled_from(["u0", "u1", "u2"])
objects = st.integers(0, 3)
valid_triples = st.builds(Triple, subjects, predicates, objects, sources)
bad_key_triples = st.builds(
    lambda triple, field, value: dataclasses.replace(triple, **{field: value}),
    valid_triples,
    st.sampled_from(["subject", "predicate", "source"]),
    st.sampled_from([None, 7]),
)
unencodable_triples = st.builds(
    dataclasses.replace, valid_triples, object=st.sampled_from([{"x": 1}, {1}])
)
invalid_triples = bad_key_triples | unencodable_triples
# One triple in five is invalid, so most batches land and the store fills.
triples = st.integers(0, 4).flatmap(lambda i: invalid_triples if i == 0 else valid_triples)
ops = st.one_of(
    st.tuples(st.just("add"), triples, st.booleans()),
    st.tuples(st.just("add_all"), st.lists(triples, max_size=4)),
    st.tuples(st.just("remove"), subjects, predicates, objects),
    st.tuples(st.just("remove_source"), sources),
    st.tuples(st.just("replace_source"), sources, st.lists(triples, max_size=4)),
    st.just(("checkpoint",)),
    st.just(("reopen",)),
)


def stamped_delta(delta):
    return ([(t, t.timestamp) for t in delta.added], [(t, t.timestamp) for t in delta.removed])


def replay_feed(base, records):
    """``base`` (a stamped ``all`` view) after the WAL's logical deltas."""
    live = dict.fromkeys(base)
    for record in records:
        assert record["kind"] == "delta", record
        delta = decode_delta(record["logical"])
        for t in delta.removed:
            del live[(t, t.timestamp)]
        live.update(dict.fromkeys((t, t.timestamp) for t in delta.added))
    return sorted(live, key=lambda pair: pair[1])


def carries_invalid_triple(op):
    carried = [t for arg in op[1:] for t in (arg if isinstance(arg, list) else [arg])]
    return any(
        not all(isinstance(key, str) for key in (t.subject, t.predicate, t.source))
        or isinstance(t.object, (dict, set))
        for t in carried
        if isinstance(t, Triple)
    )


def apply_op(store, op):
    name, *args = op
    if name == "checkpoint":
        store.checkpoint()
    else:
        getattr(store, name)(*args)


def run_reopen_law(directory, stream):
    got, want = [], []

    def open_durable():
        store = TripleStore(engine=LogEngine(directory, name="law", snapshot_every=None))
        store.subscribe_delta(lambda _s, delta: got.append(stamped_delta(delta)))
        return store

    def disk():
        return tuple(
            path.read_bytes() if path.exists() else None
            for path in (directory / "law.wal", directory / "law.snapshot")
        )

    durable, oracle = open_durable(), TripleStore()
    oracle.subscribe_delta(lambda _s, delta: want.append(stamped_delta(delta)))
    base: list = []  # the stamped view at the last checkpoint
    for op in stream:
        if op[0] == "reopen":
            durable.close()
            durable = open_durable()
            # Owed notifications are process state: a restart forgets them.
            oracle._pending_added.clear()
        else:
            before = (store_view(durable), disk())
            try:
                apply_op(durable, op)
            except (TypeError, StorageError):
                # MemoryEngine accepts any object, so the oracle skips the op.
                assert carries_invalid_triple(op), op
                assert (store_view(durable), disk()) == before, op
            else:
                apply_op(oracle, op)
        if op[0] == "checkpoint":
            base = store_view(durable)["all"]
        view = store_view(durable)
        assert view == store_view(oracle), op
        assert got == want, op
        assert replay_feed(base, durable.engine.wal_records()) == view["all"], op
    durable.close()


@settings(max_examples=100, deadline=None)
@given(st.lists(ops, min_size=10, max_size=40))
@example(
    [
        ("add_all", [Triple("a", "p", 1, "u"), Triple("b", "p", 2, "u")]),
        ("replace_source", "u", [Triple("a", "p", 1, "u")]),
        ("reopen",),
        ("add", Triple("c", "p", 3, "u"), True),
    ]
)
@example([("add_all", [Triple("a", "p", 1, "u"), Triple(None, "p", 2, "u")])])
@example([("add_all", [Triple("a", "p", 1, "u"), Triple("b", "p", {"x": 1}, "u")])])
def test_reopen_law(stream):
    """Every step leaves the durable store equal to the uninterrupted one."""
    with tempfile.TemporaryDirectory() as directory:
        run_reopen_law(Path(directory), stream)


# -- Peer + served views (the acceptance criterion) --------------------------
def build_pdms(log=None):
    pdms = PDMS()
    uw = pdms.add_peer("uw")
    uw.add_relation("course", ["id", "title"])
    if log is not None:
        uw.attach_log(log)
    uw.add_stored("c", ["id", "title"], [(0, "Seed")])
    pdms.add_storage("uw", "c", "uw.course")
    reader = pdms.add_peer("reader")
    reader.add_relation("course", ["id", "title"])
    pdms.add_mapping("m", "q(I, T) :- reader.course(I, T)", "q(I, T) :- uw.course(I, T)", exact=True)
    return pdms


def gram_stream(seed, steps=30):
    rng = random.Random(seed)
    grams = []
    for step in range(steps):
        gram = Updategram()
        if rng.random() < 0.7:
            gram.insert("c", [(rng.randint(1, 40), f"T{rng.randint(0, 9)}")])
        else:
            gram.delete("c", [(rng.randint(1, 40), f"T{rng.randint(0, 9)}")])
        grams.append(gram)
    return grams


QUERY = "ans(T) :- reader.course(C, T)"


def test_peer_kill_and_recover_serves_identical_answers(tmp_path):
    grams = gram_stream(seed=13)
    half = len(grams) // 2

    # uninterrupted memory run: the oracle
    pdms_mem = build_pdms()
    server_mem = ViewServer(DistributedExecutor(pdms_mem))
    server_mem.register_all([("reader", QUERY)])
    for gram in grams:
        pdms_mem.apply_updategram("uw", gram)
    oracle_answers = server_mem.serve(QUERY, "reader")
    assert oracle_answers is not None

    # durable run, killed mid-stream
    log = PeerLog(tmp_path, "uw", snapshot_every=8)
    pdms_durable = build_pdms(log)
    server_durable = ViewServer(DistributedExecutor(pdms_durable))
    server_durable.register_all([("reader", QUERY)])
    for gram in grams[:half]:
        pdms_durable.apply_updategram("uw", gram)
    killed_epoch = pdms_durable.peers["uw"].epoch
    log.close()  # crash: every in-memory structure is gone

    # restart: recover the peer from its log, rebuild topology, re-attach views
    log2 = PeerLog(tmp_path, "uw", snapshot_every=8)
    pdms2 = PDMS()
    uw = pdms2.restore_peer("uw", log2)
    assert uw.epoch == killed_epoch  # epoch fidelity, not just data fidelity
    uw.add_relation("course", ["id", "title"])
    pdms2.add_storage("uw", "c", "uw.course")
    reader = pdms2.add_peer("reader")
    reader.add_relation("course", ["id", "title"])
    pdms2.add_mapping("m", "q(I, T) :- reader.course(I, T)", "q(I, T) :- uw.course(I, T)", exact=True)
    server2 = ViewServer(DistributedExecutor(pdms2))
    server2.register_all([("reader", QUERY)])
    for gram in grams[half:]:
        pdms2.apply_updategram("uw", gram)

    recovered_answers = server2.serve(QUERY, "reader")
    assert recovered_answers == oracle_answers
    assert pdms2.peers["uw"].data == pdms_mem.peers["uw"].data
    assert pdms2.peers["uw"].epoch == pdms_mem.peers["uw"].epoch
    assert pdms2.answer(QUERY) == pdms_mem.answer(QUERY)
    log2.close()


def test_peer_snapshot_bounds_replay(tmp_path):
    grams = gram_stream(seed=21, steps=40)
    log = PeerLog(tmp_path / "a", "uw", snapshot_every=None)
    pdms = build_pdms(log)
    for gram in grams:
        pdms.apply_updategram("uw", gram)
    log.close()
    snap_log = PeerLog(tmp_path / "b", "uw", snapshot_every=6)
    pdms_snap = build_pdms(snap_log)
    for gram in grams:
        pdms_snap.apply_updategram("uw", gram)
    snap_log.close()

    full_state = PeerLog(tmp_path / "a", "uw").recover()
    bounded_state = PeerLog(tmp_path / "b", "uw").recover()
    assert bounded_state.replayed_records < full_state.replayed_records
    assert bounded_state.replayed_records < 6
    # both recover to the same peer regardless of the snapshot cadence
    from repro.piazza.peer import Peer

    full = Peer.restore("uw", PeerLog(tmp_path / "a", "uw"))
    bounded = Peer.restore("uw", PeerLog(tmp_path / "b", "uw"))
    assert full.data == bounded.data
    assert full.epoch == bounded.epoch


def test_recovered_peer_keeps_logging(tmp_path):
    log = PeerLog(tmp_path, "uw")
    pdms = build_pdms(log)
    pdms.apply_updategram("uw", Updategram().insert("c", [(1, "A")]))
    log.close()

    log2 = PeerLog(tmp_path, "uw")
    pdms2 = PDMS()
    pdms2.restore_peer("uw", log2)
    pdms2.peers["uw"].insert("c", [(2, "B")])
    log2.close()

    # a second crash after the post-recovery mutation loses nothing
    state = PeerLog(tmp_path, "uw").recover()
    from repro.piazza.peer import Peer

    final = Peer.restore("uw", PeerLog(tmp_path, "uw"))
    assert {(0, "Seed"), (1, "A"), (2, "B")} == final.data["c"]
    assert state.replayed_records >= 3
