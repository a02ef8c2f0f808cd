"""Kill-and-recover tests (ISSUE 8): restart equals the uninterrupted run.

The acceptance criterion for the durable engines: kill a LogEngine- (or
PeerLog-) backed store mid-update-stream, recover from disk, continue
the stream — every observable (rows, row ids, the triple store's
indexes, triple timestamps, peer epochs, served view answers) must be
bit-equal to an uninterrupted ``MemoryEngine`` run of the same stream.
Recovery cost bounding is pinned too: a snapshot mid-stream shrinks the
replayed WAL tail to the post-snapshot records.
"""

import random

import pytest

from repro.piazza.peer import PDMS
from repro.piazza.execution import DistributedExecutor
from repro.piazza.serving import ViewServer
from repro.piazza.updates import Updategram
from repro.rdf.store import TripleStore
from repro.rdf.triples import Triple
from repro.storage import LogEngine, MemoryEngine, PeerLog, ShardedEngine

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


def test_sharded_log_children_recover_independently(tmp_path):
    def factory(i):
        return LogEngine(tmp_path, name=f"shard{i}", snapshot_every=None)

    durable = ShardedEngine(shards=3, child_factory=factory)
    oracle = MemoryEngine()
    drive_engine(durable, seed=11, steps=70)
    drive_engine(oracle, seed=11, steps=70)
    shard_sizes = durable.shard_sizes()
    durable.close()

    recovered = ShardedEngine(shards=3, child_factory=factory)
    assert recovered.shard_sizes() == shard_sizes
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
    assert recovered._clock == oracle._clock
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
        "clock": store._clock,
    }


def test_triple_store_over_sharded_log_engines_recovers(tmp_path):
    children = []

    def factory(i):
        children.append(LogEngine(tmp_path, name=f"trip{i}", snapshot_every=5))
        return children[-1]

    durable = TripleStore(engine=ShardedEngine(shards=3, child_factory=factory))
    oracle = TripleStore()
    for store in (durable, oracle):
        drive_store(store, seed=9, steps=50)
        store.remove("s1", "p1", 3)
        store.remove("s2", "p0", 5)
    assert store_view(durable) == store_view(oracle)
    durable.close()  # crash

    children.clear()
    recovered = TripleStore(engine=ShardedEngine(shards=3, child_factory=factory))
    assert all(child.recovered for child in children)
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
    assert store._clock == 1
    assert store_view(store)["all"] == [(Triple("s", "p", 1, "u"), 1)]
    store.close()


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
