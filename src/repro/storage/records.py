"""Log-record codecs: rows, Updategrams, Deltas and snapshots as JSON.

The durability layer stores *logical change records*: a
:class:`~repro.rdf.triples.Delta` is the payload of a triple store's
WAL record, and a :class:`~repro.piazza.updates.Updategram` is a
:class:`~repro.storage.peerlog.PeerLog` record (``encode → append``
on the write path, ``decode → replay`` on recovery).  Everything is
JSON with one twist: row values keep their Python shape through the
round trip.  Scalars (``None``/bool/int/float/str) pass through
untouched; tuples and lists are tagged (``{"t": [...]}`` /
``{"l": [...]}``) so a tuple-valued column comes back a tuple, not a
list.  ``encode_x``/``decode_x`` are exact inverses — pinned by the
hypothesis round-trip suite in ``tests/test_storage.py``, including
empty grams/deltas and unicode values.

Decoders import their target classes lazily so this module stays
import-light: the storage engines load without the piazza or rdf
packages.
"""

from __future__ import annotations

import json

from repro.storage.wal import StorageError

_SCALARS = (bool, int, float, str)


def encode_value(value: object) -> object:
    """JSON-shape a row value (scalars pass through, sequences tagged)."""
    if value is None or isinstance(value, _SCALARS):
        return value
    if isinstance(value, tuple):
        return {"t": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"l": [encode_value(item) for item in value]}
    raise StorageError(f"cannot encode value of type {type(value).__name__}: {value!r}")


def decode_value(encoded: object) -> object:
    """Inverse of :func:`encode_value`."""
    if isinstance(encoded, dict):
        if "t" in encoded:
            return tuple(decode_value(item) for item in encoded["t"])
        if "l" in encoded:
            return [decode_value(item) for item in encoded["l"]]
        raise StorageError(f"unknown value tag in {sorted(encoded)}")
    return encoded


def encode_row(row: tuple) -> list:
    """Encode one row tuple as a JSON list."""
    return [encode_value(value) for value in row]


def decode_row(encoded: list) -> tuple:
    """Inverse of :func:`encode_row`."""
    return tuple(decode_value(value) for value in encoded)


def sorted_rows(rows) -> list:
    """Deterministic encoding order for a set of rows (sets are unordered)."""
    return sorted(
        (encode_row(row) for row in rows),
        key=lambda encoded: json.dumps(encoded, ensure_ascii=False),
    )


# -- updategrams (the peer log record) -----------------------------------
def encode_updategram(gram) -> dict:
    """Encode an :class:`~repro.piazza.updates.Updategram` payload."""
    return {
        "inserts": {rel: sorted_rows(rows) for rel, rows in gram.inserts.items()},
        "deletes": {rel: sorted_rows(rows) for rel, rows in gram.deletes.items()},
    }


def decode_updategram(payload: dict):
    """Inverse of :func:`encode_updategram`."""
    from repro.piazza.updates import Updategram

    gram = Updategram()
    for relation, rows in payload.get("inserts", {}).items():
        gram.insert(relation, (decode_row(row) for row in rows))
    for relation, rows in payload.get("deletes", {}).items():
        gram.delete(relation, (decode_row(row) for row in rows))
    return gram


# -- deltas (the triple-store log record) ----------------------------------
def _encode_triple(triple) -> list:
    return [
        triple.subject,
        triple.predicate,
        encode_value(triple.object),
        triple.source,
        triple.timestamp,
    ]


def encode_delta(delta) -> dict:
    """Encode a :class:`~repro.rdf.triples.Delta` payload."""
    return {
        "added": [_encode_triple(t) for t in delta.added],
        "removed": [_encode_triple(t) for t in delta.removed],
    }


def decode_delta(payload: dict):
    """Inverse of :func:`encode_delta`."""
    from repro.rdf.triples import Delta, Triple

    def triples(items):
        return tuple(
            Triple(s, p, decode_value(o), source, ts) for s, p, o, source, ts in items
        )

    return Delta(
        added=triples(payload.get("added", ())),
        removed=triples(payload.get("removed", ())),
    )


# -- snapshots ---------------------------------------------------------------
def encode_engine_snapshot(rows: dict[int, tuple], next_id: int) -> dict:
    """Encode a row-engine's full live state (row-id order)."""
    return {
        "kind": "engine-snapshot",
        "next_id": next_id,
        "rows": [[row_id, encode_row(row)] for row_id, row in sorted(rows.items())],
    }


def decode_engine_snapshot(payload: dict) -> tuple[dict[int, tuple], int]:
    """Inverse of :func:`encode_engine_snapshot`."""
    rows = {int(row_id): decode_row(row) for row_id, row in payload.get("rows", ())}
    return rows, int(payload.get("next_id", 0))


def encode_peer_snapshot(
    stored: dict[str, list[str]], data: dict[str, set], epoch: int
) -> dict:
    """Encode a peer's durable state: stored schema, data sets, epoch."""
    return {
        "kind": "peer-snapshot",
        "stored": {rel: list(attrs) for rel, attrs in stored.items()},
        "data": {rel: sorted_rows(rows) for rel, rows in data.items()},
        "epoch": epoch,
    }


def decode_peer_snapshot(payload: dict) -> tuple[dict, dict, int]:
    """Inverse of :func:`encode_peer_snapshot`."""
    stored = {rel: list(attrs) for rel, attrs in payload.get("stored", {}).items()}
    data = {
        rel: {decode_row(row) for row in rows}
        for rel, rows in payload.get("data", {}).items()
    }
    return stored, data, int(payload.get("epoch", 0))
