"""Pluggable storage engines: durable state under the stores.

Every byte of the reproduction used to live in process-local dicts and
die with the process.  This package puts the triple state of
:class:`~repro.rdf.store.TripleStore` in a swappable
:class:`~repro.storage.engine.StorageEngine`, following the
nexus-style swappable-backend pattern (one schema, many engines):

* :class:`~repro.storage.engine.MemoryEngine` — the seed's dict
  behavior, bitwise-identical and the default; also the parity oracle
  every other engine is pinned against;
* :class:`~repro.storage.log.LogEngine` — append-only WAL where the
  store's :class:`~repro.rdf.triples.Delta` doubles as the log record,
  with periodic snapshots; restart-recovery = snapshot load + replay.

Peers get the same treatment one level up, with the
:class:`~repro.piazza.updates.Updategram` as the log record:
:class:`~repro.storage.peerlog.PeerLog` makes
:meth:`~repro.piazza.peer.PDMS.apply_updategram` the WAL write path and
:meth:`~repro.piazza.peer.Peer.restore` the recovery path.

``docs/storage.md`` is the runnable walkthrough (engine swap, crash,
recover); ``benchmarks/bench_c17_storage.py`` gates recovery equality
in CI.
"""

from repro.storage.engine import MemoryEngine, StorageEngine
from repro.storage.log import LogEngine
from repro.storage.peerlog import PeerLog, RecoveredPeerState
from repro.storage.records import (
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
from repro.storage.wal import (
    CorruptLogError,
    SnapshotFile,
    StorageError,
    WriteAheadLog,
)

__all__ = [
    "CorruptLogError",
    "LogEngine",
    "MemoryEngine",
    "PeerLog",
    "RecoveredPeerState",
    "SnapshotFile",
    "StorageEngine",
    "StorageError",
    "WriteAheadLog",
    "decode_delta",
    "decode_engine_snapshot",
    "decode_peer_snapshot",
    "decode_row",
    "decode_updategram",
    "decode_value",
    "encode_delta",
    "encode_engine_snapshot",
    "encode_peer_snapshot",
    "encode_row",
    "encode_updategram",
    "encode_value",
]
