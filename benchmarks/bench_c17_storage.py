"""Experiment C17 — durable storage: restart recovery.

ISSUE 8 puts the PDMS on pluggable storage engines; this experiment
prices the durable ones at the ROADMAP's 500-peer network scale (120
peers in quick mode, which CI runs as the blocking
``storage-recovery-gate`` job with ``BENCH_C17_QUICK=1``):

* **restart recovery** — every data peer of the network gets a
  :class:`~repro.storage.peerlog.PeerLog`; an
  :func:`~repro.datasets.pdms_gen.update_stream` is applied through
  :meth:`~repro.piazza.peer.PDMS.apply_updategram` (the WAL write
  path); then the whole network is killed and restored peer by peer
  via :meth:`~repro.piazza.peer.Peer.restore`.  Asserted: every
  recovered peer's data sets *and* epoch equal the pre-crash run, and
  snapshotting bounds the replayed WAL tail (strictly fewer replayed
  records than the snapshot-free configuration).  Reported: wall-clock
  recovery time for the full network, per configuration.
* **row-table recovery** — the network's stored rows appended to a
  :class:`~repro.storage.log.LogEngine`, restarted once from the WAL
  and once from a snapshot.  Asserted: every recovered scan is
  row-for-row identical to the :class:`MemoryEngine` oracle, and the
  snapshot leaves nothing to replay.  Reported: recovery time.

WAL/snapshot files go to ``.storage-scratch/`` (gitignored), wiped at
the start of every run.
"""

import os
import shutil
import time
from pathlib import Path

from repro.bench import ResultTable
from repro.datasets.pdms_gen import random_tree_pdms, update_stream
from repro.piazza.peer import Peer
from repro.storage import LogEngine, MemoryEngine, PeerLog

QUICK = os.environ.get("BENCH_C17_QUICK", "") not in ("", "0")
PEERS = 120 if QUICK else 500
UPDATES = 40 if QUICK else 120
HOT_PEERS = 5
SNAPSHOT_EVERY = 4
SEED = 17
SCRATCH = Path(__file__).resolve().parent.parent / ".storage-scratch"


def _fresh_scratch(name: str) -> Path:
    directory = SCRATCH / name
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _network():
    return random_tree_pdms(PEERS, seed=SEED, courses=4, dataless_peers=0)


def _attach_logs(pdms, directory: Path, snapshot_every: int | None):
    """Bring every data peer under a PeerLog, baselining current state."""
    logs = {}
    for name, peer in sorted(pdms.peers.items()):
        if not peer.stored:
            continue
        log = PeerLog(directory, name, snapshot_every=snapshot_every)
        peer.attach_log(log)
        # The peer predates its log: snapshot the existing state so
        # recovery is baseline + stream tail, not an empty peer.
        log.snapshot(peer)
        logs[name] = log
    return logs


def _stored_rows(pdms) -> list[tuple]:
    return [
        (name, relation, row)
        for name, peer in sorted(pdms.peers.items())
        for relation, rows in sorted(peer.data.items())
        for row in sorted(rows)
    ]


def _row_engine(engine, rows):
    """``engine`` holding ``rows`` as ``(peer, relation, row)`` tuples,
    appended one by one (one WAL record each on a durable engine)."""
    for row in rows:
        engine.append(row)
    return engine


def _scan_rows(engine) -> list[tuple]:
    return [row for _row_id, row in engine.scan()]


class TestC17Storage:
    def test_peer_network_restart_recovery(self):
        table = ResultTable(
            "C17a: kill + restore every data peer of the network",
            ["config", "peers", "grams", "wal records", "replayed",
             "recovery (ms)", "ms/peer"],
        )
        replayed_by_config = {}
        recovered_by_config = {}
        for config, snapshot_every in (("no snapshots", None),
                                       ("snapshot every %d" % SNAPSHOT_EVERY,
                                        SNAPSHOT_EVERY)):
            directory = _fresh_scratch(f"peers-{snapshot_every}")
            pdms = _network()
            logs = _attach_logs(pdms, directory, snapshot_every)
            # Concentrate the stream on a few hot peers so the per-peer
            # gram count actually crosses the snapshot cadence.
            hot = sorted(logs)[:HOT_PEERS]
            stream = update_stream(pdms, UPDATES, seed=SEED + 1,
                                   inserts_per_relation=2,
                                   deletes_per_relation=1,
                                   relations_per_step=2,
                                   peers=hot)
            for owner, gram in stream:
                pdms.apply_updategram(owner, gram)
            expected = {
                name: ({rel: set(rows) for rel, rows in peer.data.items()},
                       peer.epoch)
                for name, peer in pdms.peers.items()
                if name in logs
            }
            wal_records = sum(len(log.wal_records()) for log in logs.values())
            for log in logs.values():
                log.close()  # crash: all in-memory peers are gone

            started = time.perf_counter()
            restored = {
                name: Peer.restore(name, PeerLog(directory, name,
                                                 snapshot_every=snapshot_every))
                for name in logs
            }
            recovery_ms = (time.perf_counter() - started) * 1000.0
            replayed = 0
            for name, peer in restored.items():
                data, epoch = expected[name]
                assert peer.data == data, name
                assert peer.epoch == epoch, name
                replayed += len(peer.log.wal_records())
                peer.log.close()
            replayed_by_config[config] = replayed
            recovered_by_config[config] = restored
            table.add_row(config, len(logs), len(stream), wal_records,
                          replayed, recovery_ms, recovery_ms / len(logs))
        # Snapshots bound the tail: strictly fewer records to replay.
        configs = list(replayed_by_config)
        assert replayed_by_config[configs[1]] < replayed_by_config[configs[0]]
        # Both configurations recover to the identical network.
        for name, peer in recovered_by_config[configs[0]].items():
            other = recovered_by_config[configs[1]][name]
            assert peer.data == other.data and peer.epoch == other.epoch
        table.note(
            f"{PEERS}-peer network, {UPDATES} updategrams; every recovered "
            "peer asserted data- and epoch-identical to the pre-crash run"
            + (" (quick mode)" if QUICK else "")
        )
        table.show()

    def test_row_table_restart_recovery(self):
        pdms = _network()
        rows = _stored_rows(pdms)
        oracle = _row_engine(MemoryEngine(), rows)

        table = ResultTable(
            "C17b: row-table restart recovery",
            ["config", "rows", "replayed", "recovery (ms)"],
        )
        replayed = {}
        for config, checkpoint in (("wal replay", False), ("snapshot", True)):
            directory = _fresh_scratch(f"table-{config.replace(' ', '-')}")
            durable = _row_engine(
                LogEngine(directory, name="rows", snapshot_every=None), rows
            )
            if checkpoint:
                durable.checkpoint()
            durable.close()
            started = time.perf_counter()
            recovered = LogEngine(directory, name="rows", snapshot_every=None)
            recovery_ms = (time.perf_counter() - started) * 1000.0
            assert _scan_rows(recovered) == _scan_rows(oracle)
            replayed[config] = recovered.replayed_records
            table.add_row(config, len(recovered), recovered.replayed_records,
                          recovery_ms)
            recovered.close()
        assert replayed["snapshot"] == 0 < replayed["wal replay"]
        table.show()
