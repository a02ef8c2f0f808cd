"""The durable engine: append-only WAL + periodic snapshots + replay.

:class:`LogEngine` wraps a :class:`~repro.storage.engine.MemoryEngine`
for live reads (so query paths cost exactly what the default engine
costs) and makes every mutation durable before the owning store's
logical operation returns:

* each outermost :meth:`~repro.storage.engine.StorageEngine.batch` —
  one ``TripleStore.add_all``, one ``remove``, one ``replace_source`` —
  appends **exactly one** WAL record holding the ordered row ops (with
  their row ids, so replay reproduces the original id assignment
  bit-for-bit) plus the logical :class:`~repro.rdf.triples.Delta`
  payload the store annotated — the change record *is* the log record;
  a bare :meth:`append`/:meth:`delete` outside a batch is a record of
  its own (kind ``"ops"``);
* every ``snapshot_every`` records the engine checkpoints: the full
  live state goes to the snapshot file (atomic replace) and the WAL is
  reset, bounding recovery to "load snapshot + replay a short tail";
* constructing a ``LogEngine`` over an existing directory *is*
  recovery: snapshot load, then WAL replay.  A torn final append is
  dropped cleanly (``truncated_tail``); a corrupt complete record
  raises :class:`~repro.storage.wal.CorruptLogError`.

Metrics (on the shared ``repro.obs`` registry): ``storage.wal.appends``
/ ``storage.wal.bytes``, ``storage.snapshot.writes`` /
``storage.snapshot.bytes``, ``storage.replay.records`` and the
``storage.replay.ms`` histogram.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path
from time import perf_counter

from repro.storage.engine import MemoryEngine, StorageEngine
from repro.storage.records import decode_row, encode_row
from repro.storage.wal import SnapshotFile, StorageError, WriteAheadLog
from repro.storage import records as _records


class _LogBatch:
    """Reentrant batch: only the outermost exit commits a record."""

    wants_logical = True

    def __init__(self, engine: "LogEngine"):  # noqa: D107
        self._engine = engine

    def __enter__(self) -> "_LogBatch":
        self._engine._batch_depth += 1
        return self

    def __exit__(self, *exc_info) -> bool:
        self._engine._exit_batch()
        return False

    def annotate(self, kind: str, payload: dict) -> None:
        """Attach the logical change record the batch's record carries."""
        self._engine._annotation = (kind, payload)


class LogEngine(StorageEngine):
    """WAL + snapshot durability over an in-memory row dict."""

    kind = "log"

    def __init__(
        self,
        directory: str | Path,
        name: str = "table",
        snapshot_every: int | None = 256,
        sync: bool = False,
        obs=None,
    ):  # noqa: D107
        from repro import obs as _obs

        self.obs = obs or _obs.default()
        self.name = name
        self.directory = directory if isinstance(directory, Path) else Path(directory)
        self.snapshot_every = snapshot_every
        self._inner = MemoryEngine()
        self._wal = WriteAheadLog(self.directory / f"{name}.wal", sync=sync)
        self._snapshot = SnapshotFile(self.directory / f"{name}.snapshot", sync=sync)
        self._batch_depth = 0
        self._pending_ops: list = []
        self._annotation: tuple | None = None
        self._records_since_snapshot = 0
        metrics = self.obs.metrics
        self._m_appends = metrics.counter("storage.wal.appends")
        self._m_append_bytes = metrics.counter("storage.wal.bytes")
        self._m_snapshots = metrics.counter("storage.snapshot.writes")
        self._m_snapshot_bytes = metrics.counter("storage.snapshot.bytes")
        self._m_replayed = metrics.counter("storage.replay.records")
        self._h_replay = metrics.histogram("storage.replay.ms")
        self.replayed_records = 0
        self.truncated_tail = False
        self.recovered = False
        self._recover()

    # -- recovery ---------------------------------------------------------
    def _recover(self) -> None:
        started = perf_counter()
        payload = self._snapshot.read()
        had_state = payload is not None
        if payload is not None:
            rows, next_id = _records.decode_engine_snapshot(payload)
            for row_id, row in sorted(rows.items()):
                self._inner.insert_at(row_id, row)
            self._inner.reserve(next_id)
        for record in self._wal.records():
            self._replay(record)
            self.replayed_records += 1
            had_state = True
        self.truncated_tail = self._wal.truncated_tail
        self.recovered = had_state
        self._m_replayed.inc(self.replayed_records)
        self._h_replay.observe((perf_counter() - started) * 1000.0)

    def _replay(self, record: dict) -> None:
        for op in record.get("ops", ()):
            tag = op[0]
            row_id = int(op[1])
            if tag == "i":
                self._inner.insert_at(row_id, decode_row(op[2]))
            elif tag == "d":
                self._inner.delete(row_id)
                self._inner.reserve(row_id + 1)
            elif tag == "u":
                self._inner.insert_at(row_id, decode_row(op[2]))
            else:
                raise StorageError(f"unknown WAL op tag {tag!r} in {self.name}")

    # -- the write path ---------------------------------------------------
    def batch(self) -> _LogBatch:  # noqa: D102
        return _LogBatch(self)

    def _record_op(self, op: tuple) -> None:
        if self._batch_depth:
            self._pending_ops.append(op)
        else:
            self._commit([op], None)

    def _exit_batch(self) -> None:
        self._batch_depth -= 1
        if self._batch_depth:
            return
        ops, self._pending_ops = self._pending_ops, []
        annotation, self._annotation = self._annotation, None
        if ops:
            self._commit(ops, annotation)

    def _commit(self, ops: list, annotation: tuple | None) -> None:
        record: dict = {"kind": "ops", "ops": [list(op) for op in ops]}
        if annotation is not None:
            kind, payload = annotation
            record["kind"] = kind
            record["logical"] = payload
        written = self._wal.append(record)
        self._m_appends.inc()
        self._m_append_bytes.inc(written)
        self._records_since_snapshot += 1
        if (
            self.snapshot_every is not None
            and self._records_since_snapshot >= self.snapshot_every
        ):
            self.checkpoint()

    # append and replace encode before they mutate, so a row that cannot
    # be logged leaves the engine as it was.
    def append(self, row: tuple) -> int:  # noqa: D102
        encoded = encode_row(row)
        row_id = self._inner.append(row)
        self._record_op(("i", row_id, encoded))
        return row_id

    def get(self, row_id: int) -> tuple | None:  # noqa: D102
        return self._inner.get(row_id)

    def delete(self, row_id: int) -> tuple | None:  # noqa: D102
        row = self._inner.delete(row_id)
        if row is not None:
            self._record_op(("d", row_id))
        return row

    def replace(self, row_id: int, row: tuple) -> None:  # noqa: D102
        encoded = encode_row(row)
        self._inner.replace(row_id, row)
        self._record_op(("u", row_id, encoded))

    def scan(self) -> Iterator[tuple[int, tuple]]:  # noqa: D102
        return self._inner.scan()

    @property
    def next_id(self) -> int:
        """The id the next :meth:`append` will assign."""
        return self._inner.next_id

    def __len__(self) -> int:
        return len(self._inner)

    # -- snapshots --------------------------------------------------------
    def checkpoint(self) -> None:
        """Snapshot the live state atomically and reset the WAL."""
        payload = _records.encode_engine_snapshot(
            self._inner.rows_by_id(), self._inner.next_id
        )
        written = self._snapshot.write(payload)
        self._wal.reset()
        self._records_since_snapshot = 0
        self._m_snapshots.inc()
        self._m_snapshot_bytes.inc(written)

    def wal_records(self) -> list[dict]:
        """Decode the on-disk WAL (inspection/debugging; see docs/storage.md)."""
        return list(self._wal.records())

    def wal_size_bytes(self) -> int:
        """Current WAL size on disk."""
        return self._wal.size_bytes()

    def close(self) -> None:
        """Close the WAL append handle."""
        self._wal.close()

    def describe(self) -> dict:  # noqa: D102
        return {
            "kind": self.kind,
            "rows": len(self),
            "wal_bytes": self._wal.size_bytes(),
            "snapshot_bytes": self._snapshot.size_bytes(),
            "replayed_records": self.replayed_records,
        }
