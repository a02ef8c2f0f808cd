"""Write-ahead-log and snapshot files: framing, checksums, crash safety.

One record on disk is ``length (4 bytes, big-endian) + crc32 (4 bytes)
+ payload (UTF-8 JSON)``.  The framing gives the two crash guarantees
the recovery layer is built on:

* a **truncated tail** — the process died mid-append, leaving fewer
  bytes than the header promised — is detected and dropped cleanly:
  :meth:`WriteAheadLog.records` yields every complete record, sets
  :attr:`WriteAheadLog.truncated_tail`, and truncates the torn bytes
  from the file (as does the first :meth:`WriteAheadLog.append` to a
  never-read log) so later appends start on a clean frame boundary
  instead of burying good records behind garbage;
* a **complete but corrupt** record (checksum or JSON mismatch — the
  bytes are all there, they are just wrong) raises the typed
  :class:`CorruptLogError` instead of silently replaying garbage.

Snapshots reuse the same framing for a single record and are written
via temp-file + ``os.replace`` so a crash mid-snapshot leaves the old
snapshot intact.  After a successful snapshot the WAL is reset:
recovery is "load snapshot, replay the (short) remaining log".
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from collections.abc import Iterator
from pathlib import Path


class StorageError(Exception):
    """Base error of the storage package."""


class CorruptLogError(StorageError):
    """A complete log/snapshot record failed its checksum or decode."""


_HEADER = struct.Struct(">II")  # payload length, crc32 of payload


def _frame(payload: dict) -> bytes:
    data = json.dumps(payload, ensure_ascii=False, separators=(",", ":")).encode(
        "utf-8"
    )
    return _HEADER.pack(len(data), zlib.crc32(data)) + data


def _read_frames(data: bytes, context: str) -> tuple[list[dict], bool, int]:
    """Decode every complete record.

    Returns ``(records, truncated_tail, valid_bytes)`` where
    ``valid_bytes`` is the length of the clean frame prefix — the offset
    a torn tail must be truncated to before any further append.
    """
    records: list[dict] = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < _HEADER.size:
            return records, True, offset  # partial header: torn final append
        length, checksum = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        if total - start < length:
            return records, True, offset  # partial payload: torn final append
        payload = data[start : start + length]
        if zlib.crc32(payload) != checksum:
            raise CorruptLogError(
                f"{context}: checksum mismatch at byte {offset} "
                f"(record {len(records)})"
            )
        try:
            records.append(json.loads(payload.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CorruptLogError(
                f"{context}: undecodable record {len(records)} at byte "
                f"{offset}: {error}"
            ) from error
        offset = start + length
    return records, False, offset


def _valid_frame_prefix(data: bytes) -> int:
    """Length of the clean frame prefix, by header walk alone.

    A torn append only ever truncates the *final* frame, so walking the
    length headers finds the same boundary as a full decode without
    paying for CRC/JSON — what :meth:`WriteAheadLog.append` needs when
    it opens a log whose tail was never validated by a recovery read.
    """
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < _HEADER.size:
            return offset
        length, _checksum = _HEADER.unpack_from(data, offset)
        if total - (offset + _HEADER.size) < length:
            return offset
        offset += _HEADER.size + length
    return offset


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a rename/creation inside it survives power loss."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WriteAheadLog:
    """Append-only record log with checksummed framing.

    Appends are flushed to the OS per record, so a simulated crash
    (dropping the writing objects and re-opening the path) observes
    every committed record.  ``sync=True`` additionally ``fsync``\\ s
    per append for real-crash durability at a heavy cost.  Constructing
    one touches no file: the first append creates the parent directory.
    """

    def __init__(self, path: str | Path, sync: bool = False):  # noqa: D107
        self.path = path if isinstance(path, Path) else Path(path)
        self.sync = sync
        self.truncated_tail = False
        self._handle = None
        self._tail_validated = False

    def _truncate_to(self, valid: int) -> None:
        """Chop a torn tail so the file ends on a clean frame boundary."""
        with open(self.path, "r+b") as handle:
            handle.truncate(valid)
            if self.sync:
                handle.flush()
                os.fsync(handle.fileno())

    def _ensure_clean_tail(self) -> None:
        """Drop any torn tail before the first append touches the file.

        Without this, appending to a log whose final append was torn
        would write complete records *after* the garbage bytes — the
        next recovery would then hit the garbage mid-stream and raise
        :class:`CorruptLogError`, losing every record after it.
        """
        self._tail_validated = True
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        valid = _valid_frame_prefix(data)
        if valid < len(data):
            self.truncated_tail = True
            self._truncate_to(valid)

    def append(self, payload: dict) -> int:
        """Append one record; returns the bytes written."""
        frame = _frame(payload)
        if self._handle is None:
            if not self._tail_validated:
                self._ensure_clean_tail()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            created = not self.path.exists()
            self._handle = open(self.path, "ab")
            if self.sync and created:
                self._handle.flush()
                _fsync_dir(self.path.parent)
        self._handle.write(frame)
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())
        return len(frame)

    def records(self) -> Iterator[dict]:
        """Yield every complete record in append order.

        A truncated tail (torn final append) is dropped, flagged on
        :attr:`truncated_tail` *and truncated from the file*, so later
        appends start at a clean frame boundary; corruption of a
        *complete* record raises :class:`CorruptLogError`.
        """
        try:
            # A fresh log is empty: one stat, no open (no records, no torn tail).
            data = self.path.read_bytes() if self.path.stat().st_size else b""
        except FileNotFoundError:
            self._tail_validated = True
            return iter(())
        decoded, truncated, valid = _read_frames(data, str(self.path))
        self.truncated_tail = truncated
        if truncated:
            self._truncate_to(valid)
        self._tail_validated = True
        return iter(decoded)

    def reset(self) -> None:
        """Truncate the log to empty (called after a snapshot)."""
        self.close()
        with open(self.path, "wb"):
            pass
        self._tail_validated = True

    def size_bytes(self) -> int:
        """Current on-disk size of the log."""
        return self.path.stat().st_size if self.path.exists() else 0

    def close(self) -> None:
        """Close the append handle (reopened lazily on next append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class SnapshotFile:
    """A single checksummed record, replaced atomically on every write.

    ``sync=True`` additionally ``fsync``\\ s the parent directory after
    the ``os.replace``, so the rename itself — not just the bytes —
    survives a real power loss.
    """

    def __init__(self, path: str | Path, sync: bool = False):  # noqa: D107
        self.path = path if isinstance(path, Path) else Path(path)
        self.sync = sync

    def write(self, payload: dict) -> int:
        """Write the snapshot atomically; returns the bytes written."""
        frame = _frame(payload)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        scratch = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(scratch, "wb") as handle:
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, self.path)
        if self.sync:
            _fsync_dir(self.path.parent)
        return len(frame)

    def read(self) -> dict | None:
        """The snapshot payload, or ``None`` when no snapshot exists.

        A snapshot is written atomically, so *any* incompleteness or
        checksum failure here is corruption, not a torn write:
        :class:`CorruptLogError` either way.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return None
        records, truncated, _valid = _read_frames(data, str(self.path))
        if truncated or len(records) != 1:
            raise CorruptLogError(
                f"{self.path}: snapshot is incomplete "
                f"({len(records)} records, truncated={truncated})"
            )
        return records[0]

    def size_bytes(self) -> int:
        """Current on-disk size of the snapshot."""
        return self.path.stat().st_size if self.path.exists() else 0
