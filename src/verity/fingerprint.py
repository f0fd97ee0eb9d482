"""Deterministic row identifiers and tuple fingerprints (SHA-256).

This module is the one rule for what crosses from the database to the
ledger: a row's identifier hashes its primary-key values joined to its table
name; the tuple fingerprint hashes the identifier's hex rendering joined to
every non-NULL column value in schema order. NULL columns contribute
nothing, so flipping any column between NULL and a value always changes the
digest. Rows are plain tuples of ``Value``s, aligned to their table's
columns.

A value's bytes are its canonical text (``values.render_value``) in UTF-8,
the same text the CSV writer stores. Fields are joined with the 0x1F unit
separator. Plain concatenation would make ("ab","c") collide with
("a","bc"); text values containing 0x1F are rejected at ingestion, so the
serialized form stays unambiguous.
"""

from __future__ import annotations

import hashlib

from .errors import NullPrimaryKey
from .sqlast import TableDef
from .values import render_value

SEPARATOR = b"\x1f"


def row_id(pk_values, table: str) -> str:
    """64-char hex SHA-256 over the primary key joined to the table name."""
    if not pk_values:
        raise NullPrimaryKey("empty primary key")
    parts = []
    for v in pk_values:
        if v.is_null:
            raise NullPrimaryKey(f"NULL primary key component for table {table!r}")
        parts.append(render_value(v).encode("utf-8"))
    parts.append(table.lower().encode("utf-8"))
    return hashlib.sha256(SEPARATOR.join(parts)).hexdigest()


def fingerprint(rid: str, row) -> str:
    """64-char hex SHA-256 over the row id and all non-NULL column values."""
    parts = [rid.encode("ascii")]
    parts.extend(render_value(v).encode("utf-8") for v in row if not v.is_null)
    return hashlib.sha256(SEPARATOR.join(parts)).hexdigest()


def fingerprint_tuple(td: TableDef, row) -> tuple[str, str]:
    """``(row_id, fingerprint)`` of a full row of table ``td``."""
    rid = row_id(td.key(row), td.name)
    return rid, fingerprint(rid, row)
