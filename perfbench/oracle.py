"""Expected read results computed by sqlite3 over the fixture CSVs.

The oracle never goes through verity: it parses the schema and CSV files
itself and lets sqlite evaluate the same FROM and WHERE text. A result is
compared by its row count and a digest of the primary-key columns of every
base table in it, which pins down exactly which tuples were joined.
"""

from __future__ import annotations

import csv
import hashlib
import os
import re
import sqlite3
from decimal import Decimal

from streams import PK, REVENUE_SQL, Shape, Stmt

_TABLE_RE = re.compile(r"create table (\w+) \((.*?)primary key", re.S | re.I)
_COLUMN_RE = re.compile(r"(\w+) (integer|decimal|text|date)\b", re.I)


def digest(key_rows) -> str:
    """Order-independent digest of key tuples."""
    lines = sorted("|".join(str(v) for v in row) for row in key_rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def decimal_text(d: Decimal) -> str:
    return format(d.normalize(), "f")


class Oracle:
    def __init__(self, fixture_dir: str):
        with open(os.path.join(fixture_dir, "schema.sql"), encoding="utf-8") as f:
            ddl = f.read()
        self.columns: dict[str, list[str]] = {}
        self.conn = sqlite3.connect(":memory:")
        for table, body in _TABLE_RE.findall(ddl):
            cols = _COLUMN_RE.findall(body)
            self.columns[table] = [c for c, _ in cols]
            # integers get INTEGER affinity so key ranges compare as numbers;
            # everything else stays text, so decimals keep every digit
            decl = ", ".join(
                f"{c} {'integer' if t.lower() == 'integer' else 'text'}" for c, t in cols
            )
            self.conn.execute(f"create table {table} ({decl})")
            with open(os.path.join(fixture_dir, f"{table}.csv"), encoding="utf-8",
                      newline="") as f:
                rows = csv.reader(f)
                next(rows)
                marks = ", ".join("?" * len(cols))
                self.conn.executemany(f"insert into {table} values ({marks})", rows)

    def close(self):
        self.conn.close()

    def shape(self) -> Shape:
        keys = {
            t: [tuple(r) for r in self.conn.execute(
                f"select {', '.join(PK[t])} from {t} order by {', '.join(PK[t])}")]
            for t in self.columns
        }
        lines = dict(self.conn.execute(
            "select l_orderkey, count(*) from lineitem group by l_orderkey"))
        return Shape(keys, lines)

    def key_positions(self, tables) -> list[int]:
        """Where each table's primary-key columns sit in a ``select *`` row."""
        out, offset = [], 0
        for t in tables:
            out += [offset + self.columns[t].index(c) for c in PK[t]]
            offset += len(self.columns[t])
        return out

    def expected(self, stmt: Stmt) -> tuple[int, str]:
        """(row count, key digest) of a read; for the revenue aggregate the
        digest is the exact decimal sum."""
        if stmt.sql == REVENUE_SQL:
            total = sum(
                (Decimal(p) * (1 - Decimal(d)) for p, d in self.conn.execute(
                    "select l_extendedprice, l_discount from lineitem")),
                Decimal(0),
            )
            return 1, decimal_text(total)
        cols = ", ".join(f"{t}.{c}" for t in stmt.tables for c in PK[t])
        sql = f"select {cols} from {', '.join(stmt.tables)}"
        if stmt.where:
            sql += f" where {stmt.where}"
        rows = self.conn.execute(sql).fetchall()
        return len(rows), digest(rows)
