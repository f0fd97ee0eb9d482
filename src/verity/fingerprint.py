"""Deterministic row identifiers and tuple fingerprints (SHA-256).

This module is the one rule for what crosses from the database to the
ledger: a row's identifier hashes its primary-key values joined to its table
name; the tuple fingerprint hashes the identifier's hex rendering joined to
every non-NULL column value in schema order. NULL columns contribute
nothing, so flipping any column between NULL and a value always changes the
digest. Rows are plain tuples of ``Value``s, aligned to their table's
columns.

A value's text is its canonical rendering, the same text the CSV writer
stores. That rule lives in ``values``: ``render_value`` is its reference and
``render_texts`` renders a whole row in one pass, which is what is hashed
here. Fields are joined with the 0x1F unit separator and the joined text is
encoded as UTF-8 once; since the separator is ASCII, that equals joining
each field's UTF-8 bytes. Plain concatenation would make ("ab","c") collide
with ("a","bc"); text values containing 0x1F are rejected at ingestion, so
the serialized form stays unambiguous.
"""

from __future__ import annotations

from hashlib import sha256

from .errors import NullPrimaryKey
from .sqlast import TableDef
from .values import render_texts

SEPARATOR = "\x1f"


def row_id(pk_values, table: str) -> str:
    """64-char hex SHA-256 over the primary key joined to the table name."""
    if not pk_values:
        raise NullPrimaryKey("empty primary key")
    texts = render_texts(pk_values)
    if len(texts) != len(pk_values):  # NULLs render to nothing
        raise NullPrimaryKey(f"NULL primary key component for table {table!r}")
    texts.append(table.lower())
    return sha256(SEPARATOR.join(texts).encode("utf-8")).hexdigest()


def fingerprint(rid: str, row) -> str:
    """64-char hex SHA-256 over the row id and all non-NULL column values."""
    texts = render_texts(row)
    texts.insert(0, rid)
    return sha256(SEPARATOR.join(texts).encode("utf-8")).hexdigest()


def fingerprint_tuple(td: TableDef, row) -> tuple[str, str]:
    """``(row_id, fingerprint)`` of a full row of table ``td``."""
    rid = row_id(td.key(row), td.name)
    return rid, fingerprint(rid, row)
