"""Shared fixtures and independent oracles for the test suite.

The SF 0.001 fixture database is generated and bootstrapped once per
session; tests that mutate state work on clones (storage rows and ledger
records are immutable, so clones share them), so the expensive endorsement
crypto runs a single time.
"""

from __future__ import annotations

import io
import itertools
import random
from decimal import Decimal

import pytest

from verity.fixtures import generate_fixture
from verity.ledger import (
    Block,
    LedgerTx,
    SimulatedLedger,
    block_bytes,
    block_hash,
    draft_bytes,
    generate_peers,
)
from verity.storage import Database
from verity.values import NULL, Value
from verity.verifier import Verifier


# --- tiny concrete schemas -----------------------------------------------------

T123_DDL = """
create table t1 (x integer, y integer, a integer, primary key (x));
create table t2 (a integer, s integer, b integer, primary key (a));
create table t3 (c integer, d integer, b integer, primary key (c));
"""


def make_t123(rows1="x,y,a\n1,2,7\n", rows2="a,s,b\n7,8,9\n", rows3="c,d,b\n4,5,9\n"):
    db = Database()
    db.load_ddl(T123_DDL)
    db.load_csv("t1", io.StringIO(rows1))
    db.load_csv("t2", io.StringIO(rows2))
    db.load_csv("t3", io.StringIO(rows3))
    return db


@pytest.fixture
def t123_db():
    return make_t123()


def make_verified(db, peers=5, clock=None):
    ledger = SimulatedLedger(generate_peers(peers), clock=clock or (lambda: 1_700_000_000))
    verifier = Verifier(db, ledger, "peer-1", clock=clock or (lambda: 1_700_000_000))
    verifier.bootstrap()
    return ledger, verifier


# --- the SF 0.001 fixture database, bootstrapped once --------------------------

@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    dest = tmp_path_factory.mktemp("fixture") / "sf0.001"
    counts = generate_fixture(str(dest), preset="0.001", seed=42)
    assert sum(counts.values()) == 8595
    return dest


def load_fixture_db(fixture_dir) -> Database:
    db = Database()
    db.load_ddl((fixture_dir / "schema.sql").read_text())
    for table in db.catalog.names():
        with open(fixture_dir / f"{table}.csv", encoding="utf-8", newline="") as f:
            db.load_csv(table, f)
    return db


@pytest.fixture(scope="session")
def _session_state(fixture_dir):
    db = load_fixture_db(fixture_dir)
    ledger = SimulatedLedger(generate_peers(5))
    verifier = Verifier(db, ledger, "peer-1")
    counts = verifier.bootstrap()
    assert sum(counts.values()) == 8595
    return db, ledger


@pytest.fixture
def fixture_session(_session_state):
    """(db, ledger, verifier) clone of the bootstrapped SF 0.001 state."""
    db, ledger = _session_state
    db2 = db.clone()
    led2 = ledger.clone_in_memory()
    return db2, led2, Verifier(db2, led2, "peer-1")


# --- forged ledger blocks ------------------------------------------------------

def append_forged_block(path, peers, drafts) -> int:
    """Append to the ledger file at ``path`` one block of ``drafts``, hash-linked
    to the file's last block and signed by every peer, as someone holding the
    keys could write it without ``submit`` checking it. Returns its height."""
    with open(path, "rb") as f:
        prev_hash = f.read()[-32:]  # a record ends with its block's hash
    height = SimulatedLedger.load(path, peers).head_height + 1
    txs = []
    for d in drafts:
        payload = draft_bytes(d)
        sigs = tuple((p.peer_id, p.sign(payload)) for p in peers)
        txs.append(LedgerTx(d, peers[0].sign(payload), sigs))
    raw = block_bytes(Block(height, prev_hash, 0, tuple(txs)))
    with open(path, "ab") as f:
        f.write(len(raw).to_bytes(4, "big") + raw + block_hash(raw))
    return height


# --- independent oracle: brute-force SELECT evaluation -------------------------
#
# Deliberately written against plain Python values (no engine imports beyond
# raw rows), so engine bugs cannot hide in a shared evaluator.

def _raw(v):
    # base-table rows hold Value objects; recursive oracle results are
    # already plain python values
    if isinstance(v, Value):
        return None if v.is_null else v.raw
    return v


def brute_force_select(db: Database, q) -> list[tuple]:
    """Cross product of FROM items, filter, project. Supports the same
    subset as the engine, evaluated independently."""
    return brute_force_full(db, q)[0]


def brute_force_full(db, q):
    from verity import sqlast as ast

    sources = []
    for item in q.from_items:
        if isinstance(item, ast.BaseTable):
            td = db.catalog.get(item.name)
            rows = [tuple(r.values) for r in db.rows_of(item.name)]
            sources.append((item.binding, td.column_names(), rows))
        else:
            sub_rows, sub_names = brute_force_full(db, item.subquery)
            sources.append((item.binding, sub_names, sub_rows))
    return _brute_join_project(q, sources)


def _brute_join_project(q, sources):
    from verity import sqlast as ast

    bindings = []
    offset = 0
    for binding, names, _ in sources:
        bindings.append((binding, names, offset))
        offset += len(names)

    def resolve(table, column):
        hits = []
        for b, names, off in bindings:
            if table is not None and b != table:
                continue
            hits.extend(off + i for i, n in enumerate(names) if n == column)
        assert len(hits) == 1, f"ref {table}.{column} hits {hits}"
        return hits[0]

    def ev(e, row):
        if isinstance(e, ast.Literal):
            return _raw(e.value)
        if isinstance(e, ast.ColumnRef):
            return _raw(row[resolve(e.table, e.column)])
        if isinstance(e, ast.BoundCol):
            return _raw(row[e.index])
        if isinstance(e, ast.UnaryMinus):
            v = ev(e.operand, row)
            return None if v is None else -v
        if isinstance(e, ast.BinaryOp):
            a, b = ev(e.left, row), ev(e.right, row)
            if a is None or b is None:
                return None
            if e.op == "/":
                return (Decimal(a) / Decimal(b)).quantize(Decimal("1E-10"))
            if isinstance(a, int) and isinstance(b, int):
                return {"+": a + b, "-": a - b, "*": a * b}[e.op]
            a, b = Decimal(a), Decimal(b)
            r = {"+": a + b, "-": a - b, "*": a * b}[e.op]
            return r.quantize(Decimal("1E-10"))
        raise AssertionError(f"oracle cannot evaluate {e}")

    def pred(p, row):
        if isinstance(p, ast.And):
            return pred(p.left, row) and pred(p.right, row)
        if isinstance(p, ast.Or):
            return pred(p.left, row) or pred(p.right, row)
        if isinstance(p, ast.LikePredicate):
            import re as _re
            v = ev(p.expr, row)
            if v is None:
                return False
            rx = "".join(
                ".*" if ch == "%" else "." if ch == "_" else _re.escape(ch)
                for ch in p.pattern
            )
            hit = _re.fullmatch(rx, v, _re.DOTALL) is not None
            return (not hit) if p.negated else hit
        a, b = ev(p.left, row), ev(p.right, row)
        if a is None or b is None:
            return False
        return {
            "=": a == b, "<>": a != b, "<": a < b,
            "<=": a <= b, ">": a > b, ">=": a >= b,
        }[p.op]

    joined = []
    for combo in itertools.product(*[rows for _, _, rows in sources]):
        row = tuple(v for part in combo for v in part)
        if q.where is None or pred(q.where, row):
            joined.append(row)

    names_out = []
    exprs = []
    for i, item in enumerate(q.projections):
        if isinstance(item.expr, ast.Star):
            for b, names, off in bindings:
                for j, n in enumerate(names):
                    names_out.append(n)
                    exprs.append(ast.BoundCol(off + j))
        else:
            exprs.append(item.expr)
            names_out.append(item.alias or (
                item.expr.column if isinstance(item.expr, ast.ColumnRef) else f"expr_{i}"
            ))

    has_agg = any(any(ast.aggregates(e)) for e in exprs)
    if has_agg:
        def agg_val(node):
            if node.is_count_star:
                return len(joined)
            vals = [ev(node.arg, r) for r in joined]
            vals = [v for v in vals if v is not None]
            if node.func == "count":
                return len(vals)
            if not vals:
                return None
            if node.func == "sum":
                total = sum(vals)
                if any(isinstance(v, Decimal) for v in vals):
                    return Decimal(total).quantize(Decimal("1E-10"))
                return total
            if node.func == "avg":
                return (Decimal(sum(vals)) / len(vals)).quantize(Decimal("1E-10"))
            return max(vals) if node.func == "max" else min(vals)

        def ev_agg(e, row):
            if isinstance(e, ast.Aggregate):
                return agg_val(e)
            if isinstance(e, ast.BinaryOp):
                a, b = ev_agg(e.left, row), ev_agg(e.right, row)
                if a is None or b is None:
                    return None
                if e.op == "/":
                    return (Decimal(a) / Decimal(b)).quantize(Decimal("1E-10"))
                if isinstance(a, int) and isinstance(b, int):
                    return {"+": a + b, "-": a - b, "*": a * b}[e.op]
                r = {"+": Decimal(a) + Decimal(b), "-": Decimal(a) - Decimal(b),
                     "*": Decimal(a) * Decimal(b)}[e.op]
                return r.quantize(Decimal("1E-10"))
            if row is None:
                return None  # no rows: non-aggregate parts are NULL
            return ev(e, row)

        base = joined[0] if joined else None
        out = tuple(
            ev_agg(e, base) if (base is not None or any(ast.aggregates(e))) else None
            for e in exprs
        )
        return [out], names_out

    return [tuple(ev(e, row) for e in exprs) for row in joined], names_out


def rows_to_raw(rows):
    """Engine rows (tuples of Value) to plain-python rows, decimals normalized."""
    out = []
    for row in rows:
        vals = []
        for v in row:
            r = _raw(v)
            if isinstance(r, Decimal):
                r = r.normalize() if r != 0 else Decimal(0)
            vals.append(r)
        out.append(tuple(vals))
    return out


def normalize_raw(rows):
    out = []
    for row in rows:
        vals = []
        for r in row:
            if isinstance(r, Decimal):
                r = r.normalize() if r != 0 else Decimal(0)
            vals.append(r)
        out.append(tuple(vals))
    return out


def as_multiset(rows):
    from collections import Counter
    return Counter(tuple(repr(v) for v in row) for row in rows)


# --- random schema / query generator (seeded) ----------------------------------

class RandomDbGen:
    """Small random databases and supported SELECTs over them."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def make_db(self, max_tables=3, max_rows=8) -> Database:
        rng = self.rng
        db = Database()
        n_tables = rng.randint(1, max_tables)
        for t in range(n_tables):
            cols = [f"k{t}"]
            types = ["integer"]
            for c in range(rng.randint(1, 3)):
                cols.append(f"c{t}_{c}")
                types.append(rng.choice(["integer", "decimal", "text"]))
            ddl = f"create table tab{t} (" + ", ".join(
                f"{c} {ty}" for c, ty in zip(cols, types)
            ) + f", primary key (k{t}))"
            db.create_table(ddl)
            n_rows = rng.randint(0, max_rows)
            used = set()
            for _ in range(n_rows):
                pk = rng.randint(0, 30)
                if pk in used:
                    continue
                used.add(pk)
                values = [Value.integer(pk)]
                for ty in types[1:]:
                    if rng.random() < 0.15:
                        values.append(NULL)
                    elif ty == "integer":
                        values.append(Value.integer(rng.randint(0, 9)))
                    elif ty == "decimal":
                        values.append(Value.decimal(Decimal(rng.randint(0, 500)) / 100))
                    else:
                        values.append(Value.text(rng.choice(["ab", "cd", "abc", "x", ""])))
                from verity.storage import Tuple
                db.apply_row_insert(Tuple(f"tab{t}", tuple(values)))
        return db

    def make_query(self, db: Database, allow_derived=True, depth=0) -> str:
        rng = self.rng
        tables = db.catalog.names()
        n_from = rng.randint(1, min(2, len(tables)) if depth else min(3, len(tables)))
        picked = rng.sample(tables, n_from)
        from_parts = []
        col_pool = []  # (qualifier, column, type)
        for i, t in enumerate(picked):
            td = db.catalog.get(t)
            if allow_derived and depth == 0 and rng.random() < 0.35:
                inner_cols = [c.name for c in td.columns]
                rng.shuffle(inner_cols)
                keep = inner_cols[: rng.randint(1, len(inner_cols))]
                alias = f"d{i}"
                from_parts.append(
                    f"(select {', '.join(keep)} from {t}) as {alias}"
                )
                for c in keep:
                    ty = td.columns[td.col_index(c)].type.value
                    col_pool.append((alias, c, ty))
            else:
                alias = t
                from_parts.append(t)
                for c in td.columns:
                    col_pool.append((alias, c.name, c.type.value))
        projections = []
        for _ in range(rng.randint(1, 3)):
            q, c, ty = rng.choice(col_pool)
            projections.append(f"{q}.{c}")
        if rng.random() < 0.2:
            projections = ["*"]
        where = ""
        if rng.random() < 0.8 and col_pool:
            atoms = []
            for _ in range(rng.randint(1, 2)):
                q, c, ty = rng.choice(col_pool)
                op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
                if ty == "integer":
                    rhs = str(rng.randint(0, 9))
                elif ty == "decimal":
                    rhs = str(Decimal(rng.randint(0, 500)) / 100)
                else:
                    rhs = "'" + rng.choice(["ab", "cd", "abc", "x"]) + "'"
                # sometimes compare against a same-type column instead
                same = [p for p in col_pool if p[2] == ty]
                if rng.random() < 0.4 and same:
                    q2, c2, _ = rng.choice(same)
                    rhs = f"{q2}.{c2}"
                atoms.append(f"{q}.{c} {op} {rhs}")
            glue = " and " if rng.random() < 0.7 else " or "
            where = " where " + glue.join(atoms)
        return f"select {', '.join(projections)} from {', '.join(from_parts)}{where}"
