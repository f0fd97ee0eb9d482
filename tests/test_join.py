"""Joins: the binder and the hash equi-join against the brute-force oracle.

Every case compares the engine's rows with ``brute_force_select`` as lists,
so both the rows and their order (nested-loop order: by the first FROM
item's primary key, then the second's, ...) must agree.
"""

from __future__ import annotations

import io
import operator
import random
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import RandomDbGen, brute_force_select, normalize_raw, rows_to_raw
from verity import sqlast as ast, storage
from verity.errors import EvalError
from verity.parser import parse
from verity.rewriter import change_projection
from verity.storage import Database, Scope, SourcedRows, compile_predicate
from verity.values import NULL, Value

DDL = """
create table a (id integer, x integer, d decimal, s text, dt date, primary key (id));
create table b (id integer, y integer, d decimal, s text, dt date, primary key (id));
create table c (id integer, z integer, primary key (id));
"""

A_ROWS = (
    "id,x,d,s,dt\n"
    "1,1,1.00,p,1995-01-01\n"
    "2,2,2.50,q,1996-06-15\n"
    "3,1,,p,\n"
    "4,,3,r,1995-01-01\n"
    "5,3,2.5,,1997-02-03\n"
)
B_ROWS = (
    "id,y,d,s,dt\n"
    "10,1,1,p,1995-01-01\n"
    "11,0,2.5,q,1995-01-01\n"
    "12,1,,1995-01-01,1996-06-15\n"
    "13,,3.000,p,\n"
    "14,2,1.0,r,1997-02-03\n"
)
C_ROWS = "id,z\n20,1\n21,2\n22,1\n23,\n"


def join_db() -> Database:
    db = Database()
    db.load_ddl(DDL)
    db.load_csv("a", io.StringIO(A_ROWS))
    db.load_csv("b", io.StringIO(B_ROWS))
    db.load_csv("c", io.StringIO(C_ROWS))
    return db


def assert_matches_oracle(db: Database, sql: str, nonempty: bool = True):
    q = parse(sql)
    got = rows_to_raw(db.exec_select(q))
    want = normalize_raw(brute_force_select(db, q))
    assert got == want, sql
    if nonempty:
        assert got, f"case selects nothing: {sql}"


def hash_keys(db: Database, sql: str) -> list[int]:
    """Number of hash-join keys the planner gives each FROM item of ``sql``."""
    q = parse(sql)
    blocks, sources, off = [], [], 0
    for item in q.from_items:
        td = db.catalog.get(item.name)
        blocks.append((item.binding, [(n, off + i) for i, n in enumerate(td.column_names())]))
        sources.append(td)
        off += len(td.columns)
    return [len(s.inner_keys) for s in storage._plan(q.where, Scope(blocks), sources)]


def test_duplicate_keys_on_both_sides():
    # a.x = 1 twice, b.y = 1 twice, c.z = 1 twice: every pairing, in order
    db = join_db()
    sql = "select a.id, b.id from a, b where a.x = b.y"
    assert_matches_oracle(db, sql)
    assert rows_to_raw(db.exec_select(parse(sql))) == [
        (1, 10), (1, 12), (2, 14), (3, 10), (3, 12),
    ]
    assert_matches_oracle(db, "select * from a, b, c where a.x = b.y and b.y = c.z")
    assert hash_keys(db, "select * from a, b, c where a.x = b.y and b.y = c.z") == [0, 1, 1]


def test_null_keys_never_match():
    db = join_db()
    sql = "select a.id, b.id from a, b where a.x = b.y"
    rows = rows_to_raw(db.exec_select(parse(sql)))
    assert all(r[0] != 4 and r[1] != 13 for r in rows)  # a.x, b.y NULL there
    assert_matches_oracle(db, "select a.id, c.id from a, c where c.z = a.x")
    assert_matches_oracle(db, "select * from a, b where a.d = b.d")


def test_integer_equals_decimal_keys():
    # 1 = 1.00 = 1.0, 2.50 = 2.5, 3 = 3.000
    db = join_db()
    assert_matches_oracle(db, "select a.id, b.id from a, b where a.x = b.d")
    assert_matches_oracle(db, "select a.id, b.id from a, b where a.d = b.d")
    rows = rows_to_raw(db.exec_select(parse("select a.id, b.id from a, b where a.d = b.d")))
    assert (4, 13) in rows and (1, 14) in rows and (2, 11) in rows


def test_text_and_date_keys():
    db = join_db()
    assert_matches_oracle(db, "select a.id, b.id from a, b where a.s = b.s")
    assert_matches_oracle(db, "select a.id, b.id from a, b where a.dt = b.dt")
    # TEXT meets DATE as '=' does: b.s holds the text '1995-01-01'
    assert_matches_oracle(db, "select a.id, b.id from a, b where a.dt = b.s")


def test_key_on_derived_table_column():
    db = join_db()
    assert_matches_oracle(
        db, "select a.id, t.k from a, (select id as k, y from b) as t where t.y = a.x"
    )
    assert_matches_oracle(
        db, "select * from (select x, id from a) as t, b where b.y = t.x and b.d > 0"
    )
    # the same through the widened query the verifier runs
    q = parse("select a.id, t.k from a, (select id as k, y from b) as t where t.y = a.x")
    wide = change_projection(q, db.catalog).wide_query
    assert rows_to_raw(db.exec_select(wide)) == normalize_raw(brute_force_select(db, wide))


def test_equality_against_an_expression():
    db = join_db()
    assert_matches_oracle(db, "select a.id, b.id from a, b where a.x = b.y + 1")
    assert_matches_oracle(db, "select a.id, b.id from a, b where b.y * 2 = a.x + 1 - 1")
    assert_matches_oracle(db, "select a.id, c.id from a, c where c.z = -a.x + 2")
    assert hash_keys(db, "select * from a, b where a.x = b.y + 1") == [0, 1]


def test_inequality_and_or_joins_stay_residual():
    db = join_db()
    for sql in (
        "select a.id, b.id from a, b where a.x <> b.y",
        "select a.id, b.id from a, b where a.x = b.y or a.s = b.s",
        "select a.id, b.id from a, b where a.x < b.y and a.s like 'p%'",
        "select a.id, b.id from a, b where a.x + b.y = 2",
    ):
        assert_matches_oracle(db, sql)
        assert hash_keys(db, sql) == [0, 0], sql
    # a hash key and a residual on the same binding
    sql = "select a.id, b.id from a, b where a.x = b.y and a.s <> b.s"
    assert_matches_oracle(db, sql)
    assert hash_keys(db, sql) == [0, 1]


def test_local_conjuncts_filter_before_the_join():
    db = join_db()
    assert_matches_oracle(
        db, "select * from a, b, c where b.s like 'p%' and a.x = b.y and c.z = 1 and a.id < 4"
    )
    assert_matches_oracle(db, "select * from a, b where 1 = 2 and a.x = b.y", nonempty=False)


def test_mixed_integer_text_equality_join_raises():
    for sql in ("select * from a, b where a.x = b.s", "select * from a, b where b.s = a.x"):
        with pytest.raises(EvalError) as cold:
            join_db().exec_select(parse(sql))
        db = join_db()
        db.exec_select(parse("select * from a, b where a.s = b.s"))  # hashes b on s
        assert list(db._table("b").join_index) == [(3,)]
        for _ in range(2):
            with pytest.raises(EvalError) as warm:
                db.exec_select(parse(sql))
            assert str(warm.value) == str(cold.value), sql


def test_a_key_of_both_classes_raises_on_every_probe_as_equality_does():
    db = join_db()
    db.apply_row_insert("b", (Value.integer(15), Value.text("k"), NULL, NULL, NULL))  # b.y TEXT
    cases = [  # (query, the first probe and the build side's other-class value, in = order)
        ("select a.id, b.id from a, b where a.x = b.y", (Value.integer(1), Value.text("k"))),
        ("select a.id, b.id from a, b where b.y = a.x", (Value.text("k"), Value.integer(1))),
        ("select a.id, b.id from a, b where a.s = b.y", (Value.text("p"), Value.integer(1))),
    ]
    equal = compile_predicate(ast.Comparison("=", ast.BoundCol(0), ast.BoundCol(1)))
    for sql, pair in cases:
        with pytest.raises(EvalError) as nested_loop:
            equal(pair)
        for _ in range(2):  # hashed, then probed through b's join index
            with pytest.raises(EvalError) as hashed:
                db.exec_select(parse(sql))
            assert str(hashed.value) == str(nested_loop.value), sql


def test_scope_resolve_runs_per_statement_not_per_row(monkeypatch):
    calls = []
    resolve = Scope.resolve

    def counting(self, table, column):
        calls.append(column)
        return resolve(self, table, column)

    monkeypatch.setattr(Scope, "resolve", counting)

    def resolves(n_rows: int, sql: str) -> int:
        db = Database()
        db.create_table("create table t (k integer, v integer, w text, primary key (k))")
        db.load_csv("t", io.StringIO(
            "k,v,w\n" + "".join(f"{i},{i % 7},w{i}\n" for i in range(n_rows))
        ))
        q = parse(sql)
        wide = change_projection(q, db.catalog).wide_query
        calls.clear()
        assert len(db.exec_select(q)) == n_rows
        assert len(db.exec_select(wide)) == n_rows
        return len(calls)

    for sql in ("select * from t", "select k, v + 1 from t where w like 'w%' or v = 99"):
        assert resolves(10, sql) == resolves(1000, sql), sql


def random_equi_join(rng: random.Random, gen: RandomDbGen) -> tuple[Database, str] | None:
    """A random database from ``gen`` and a ``select *`` equi-join over two
    or more of its tables, about a quarter of them wrapped as derived tables;
    None when the database has only one table."""
    db = gen.make_db(max_tables=3, max_rows=10)
    tables = db.catalog.names()
    if len(tables) < 2:
        return None
    picked = rng.sample(tables, rng.randint(2, len(tables)))
    cols = []  # (FROM position, binding, column, key class)
    from_parts = []
    for j, t in enumerate(picked):
        td = db.catalog.get(t)
        if rng.random() < 0.25:
            keep = [c.name for c in td.columns]
            from_parts.append(f"(select {', '.join(keep)} from {t}) as v{j}")
            binding = f"v{j}"
        else:
            from_parts.append(t)
            binding = t
        for c in td.columns:
            cls = "text" if c.type.value == "text" else "num"
            cols.append((j, binding, c.name, cls))
    conds = []
    for j in range(1, len(picked)):
        inner = [c for c in cols if c[0] == j]
        outer = [c for c in cols if c[0] < j]
        _, b1, c1, cls = rng.choice(inner)
        same = [c for c in outer if c[3] == cls]
        if not same:
            continue
        _, b2, c2, _ = rng.choice(same)
        lhs, rhs = f"{b1}.{c1}", f"{b2}.{c2}"
        if cls == "num" and rng.random() < 0.3:
            rhs += f" + {rng.randint(0, 2)}"
        conds.append(f"{lhs} = {rhs}" if rng.random() < 0.5 else f"{rhs} = {lhs}")
    if rng.random() < 0.5:
        _, b, c, cls = rng.choice(cols)
        conds.append(f"{b}.{c} <> 'x'" if cls == "text" else f"{b}.{c} >= 1")
    rng.shuffle(conds)
    sql = f"select * from {', '.join(from_parts)}"
    if conds:
        sql += " where " + " and ".join(conds)
    return db, sql


def test_random_equi_joins_match_oracle():
    rng = random.Random(0x4A01)
    gen = RandomDbGen(seed=0x4A02)
    checked = 0
    for i in range(300):
        case = random_equi_join(rng, gen)
        if case is None:
            continue
        db, sql = case
        q = parse(sql)
        want = normalize_raw(brute_force_select(db, q))
        for run in ("cold", "warm"):  # the second run reuses the join index
            got = rows_to_raw(db.exec_select(q))
            assert got == want, f"case {i} ({run}): {sql}"
        checked += bool(want)
    assert checked >= 50  # cases that select something


def random_derived_join(rng: random.Random, gen: RandomDbGen) -> tuple[Database, str]:
    """A random database from ``gen`` and a ``select *`` over one to three
    FROM items, each a base table or a derived table: derived tables nest up
    to two deep, join one or two items (often one table with itself), read
    plain and arithmetic outputs of their items, and may filter."""
    db = gen.make_db(max_tables=3, max_rows=6)
    tables = db.catalog.names()
    fresh = iter(range(100))  # a new number per FROM item, for its binding

    def equi_join(parts) -> list[str]:
        conds = []
        for j in range(1, len(parts)):
            inner = [(parts[j][1], c, cls) for c, cls in parts[j][2]]
            same = [(b, c) for _, b, cols in parts[:j] for c, cls in cols
                    if cls == inner[0][2]]
            if same:
                b1, c1 = rng.choice(same)
                conds.append(f"{inner[0][0]}.{inner[0][1]} = {b1}.{c1}")
        return conds

    def from_item(depth: int) -> tuple[str, str, list[tuple[str, str]]]:
        """(FROM text, binding, [(column, key class), ...])"""
        n = next(fresh)
        if depth == 2 or rng.random() < 0.4:
            td = db.catalog.get(rng.choice(tables))
            return (f"{td.name} as b{n}", f"b{n}",
                    [(c.name, "text" if c.type.value == "text" else "num") for c in td.columns])
        parts = [from_item(depth + 1) for _ in range(rng.randint(1, 2))]
        cols = [(b, c, cls) for _, b, cs in parts for c, cls in cs]
        conds = equi_join(parts)
        if rng.random() < 0.3:
            b, c, cls = rng.choice(cols)
            conds.append(f"{b}.{c} <> 'x'" if cls == "text" else f"{b}.{c} >= 1")
        items, out = [], []
        for i, (b, c, cls) in enumerate(rng.sample(cols, rng.randint(1, len(cols)))):
            expr = f"{b}.{c} * 2 + 1" if cls == "num" and rng.random() < 0.3 else f"{b}.{c}"
            items.append(f"{expr} as o{n}_{i}")
            out.append((f"o{n}_{i}", cls))
        where = " where " + " and ".join(conds) if conds else ""
        sql = f"(select {', '.join(items)} from {', '.join(p[0] for p in parts)}{where})"
        return f"{sql} as v{n}", f"v{n}", out

    parts = [from_item(0) for _ in range(rng.randint(1, 3))]
    conds = equi_join(parts)
    where = " where " + " and ".join(conds) if conds else ""
    return db, f"select * from {', '.join(p[0] for p in parts)}{where}"


def assert_sources_are_the_stored_rows(db: Database, q: ast.SelectQuery):
    """The wide query of ``q`` carries, per exposure of its column map, the
    stored row behind each wide row, whose value objects its columns hold."""
    rw = change_projection(q, db.catalog)
    wide = db.exec_select(rw.wide_query)
    assert type(wide) is SourcedRows and len(wide.sources) == len(rw.column_map)
    for e, col in zip(rw.column_map, wide.sources):
        assert len(col) == len(wide)
        for row, src in zip(wide, col):
            assert db.get_row(e.table, e.tabledef.key(src)).values is src
            assert len(src) == e.stop - e.start
            assert all(map(operator.is_, row[e.start:e.stop], src))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_joined_row_is_its_sources_and_a_base_source_is_the_stored_row(seed):
    case = random_equi_join(random.Random(seed), RandomDbGen(seed))
    assume(case is not None)
    db, sql = case
    q = parse(sql)
    exposures = change_projection(q, db.catalog).column_map
    for _ in ("cold", "warm"):  # the second run reuses the join index
        rows = db.exec_select(q)
        assert type(rows) is SourcedRows and len(rows.sources) == len(q.from_items)
        assert all(len(col) == len(rows) for col in rows.sources)
        assert list(rows) == [sum(srcs, ()) for srcs in zip(*rows.sources)]
        for e, col in zip(exposures, rows.sources):
            assert all(db.get_row(e.table, e.tabledef.key(row)).values is row for row in col)
        assert_sources_are_the_stored_rows(db, q)
    for table in db.catalog.names():  # one FROM item: its stored rows, as they are
        for where in ("", f" where k{table[3:]} >= 10"):
            rows = db.exec_select(parse(f"select * from {table}{where}"))
            stored = [row for row in db.rows_of(table) if not where or row[0].raw >= 10]
            assert type(rows) is SourcedRows and len(rows) == len(stored)
            assert all(map(operator.is_, rows, stored))
            assert len(rows.sources) == 1 and all(map(operator.is_, rows.sources[0], stored))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_derived_tables_sources_are_the_stored_rows_behind_it(seed):
    db, sql = random_derived_join(random.Random(seed), RandomDbGen(seed))
    q = parse(sql)
    want = normalize_raw(brute_force_select(db, q))
    for _ in ("cold", "warm"):  # the second run reuses the join index
        rows = db.exec_select(q)
        assert rows_to_raw(rows) == want, sql
        assert len(rows.sources) == len(change_projection(q, db.catalog).column_map)
        assert_sources_are_the_stored_rows(db, q)


def test_sources_cover_each_derived_table_form():
    db = join_db()
    for sql in (
        "select * from (select * from (select id, x from a) as r) as s",  # nested
        "select * from (select a.id, b.y from a, b where a.x = b.y) as r, c "
        "where c.z = r.y",                                                 # over a join
        "select * from (select a.x * 2 + 1 as e, a.d from a where a.id > 1) as r",
        "select * from (select p.id, q.id as qid from a as p, a as q "
        "where p.x = q.x) as r",                                           # a self-join
    ):
        q = parse(sql)
        assert_matches_oracle(db, sql)
        assert_sources_are_the_stored_rows(db, q)


def test_an_aggregating_select_carries_no_sources():
    db = join_db()
    for sql in ("select count(*) from a",
                "select * from (select count(*) from a) as r, b"):
        assert type(db.exec_select(parse(sql))) is list, sql


# --- the join index ------------------------------------------------------------------

def test_the_index_serves_whole_tables_joined_on_plain_columns():
    cases = [
        ("select * from a, b where a.x = b.y", {(1,)}),
        ("select * from a, b where a.x = b.y and a.s = b.s", {(1, 3)}),
        ("select * from a, b where a.x = b.y and a.s <> b.s", {(1,)}),  # a residual
        ("select * from a, b where a.x = b.y and b.d > 0", set()),      # a filter
        ("select * from a, b where a.x = b.y and b.id <= 12", set()),   # a key range
        ("select * from a, b where b.y + 0 = a.x", set()),              # an expression
        ("select * from a, (select * from b) as t where a.x = t.y", set()),  # derived
    ]
    for sql, keys in cases:
        db = join_db()
        for _ in range(2):  # built, then reused
            assert_matches_oracle(db, sql)
            assert set(db._table("b").join_index) == keys, sql
        assert db._table("a").join_index == {}, sql  # the outermost item never probes


def test_an_inner_key_that_raises_stores_no_index():
    db = join_db()
    q = parse("select * from a, b where a.x = b.s + 1")  # text arithmetic on b
    with pytest.raises(EvalError) as first:
        db.exec_select(q)
    with pytest.raises(EvalError) as second:
        db.exec_select(q)
    assert str(first.value) == str(second.value)
    assert db._table("b").join_index == {}


def test_copies_start_with_an_empty_index():
    db = join_db()
    assert_matches_oracle(db, "select * from a, b, c where a.x = b.y and b.y = c.z")
    assert db._table("b").join_index and db._table("c").join_index
    for t in ("b", "c"):
        assert db.clone()._table(t).join_index == {}
        assert db._table(t).copy().join_index == {}


# One long-lived database against a fresh clone (every join index empty):
# after each write of any value kind, or key-changing raw_mutate, every join
# runs on both, so each index the writes should have dropped is probed.
LIVE_DDL = """
create table p (id integer, x integer, s text, primary key (id));
create table q (id integer, y integer, s text, d decimal, primary key (id));
"""
LIVE_JOINS = [parse(sql) for sql in (
    "select * from p, q where p.x = q.y",
    "select * from q, p where q.y = p.x",
    "select p.id, q.id from p, q where p.s = q.s",
    "select * from p, q where p.x = q.d",
    "select * from p, q where q.s = p.x",
    "select * from p, q where p.x = q.y and p.s = q.s",
    "select * from p, p as r where p.x = r.id",
    "select * from p, q, p as r where p.x = q.y and q.id = r.x",
    "select * from p, q where p.id = q.y and q.id >= 2",
    "select * from p, q where p.x = q.y + 1",
)]
_LIVE_VALUE = st.one_of(
    st.just(NULL),
    st.integers(0, 3).map(Value.integer),
    st.sampled_from(["a", "b", "1"]).map(Value.text),
    st.sampled_from(["1", "1.0", "2.5"]).map(lambda t: Value.decimal(Decimal(t))),
)
_LIVE_TABLE, _LIVE_ID = st.sampled_from("pq"), st.integers(0, 5)
LIVE_WRITES = st.one_of(
    st.tuples(st.just("insert"), _LIVE_TABLE, _LIVE_ID, st.lists(_LIVE_VALUE, min_size=3,
                                                                 max_size=3)),
    st.tuples(st.just("update"), _LIVE_TABLE, _LIVE_ID, st.integers(1, 3), _LIVE_VALUE),
    st.tuples(st.just("delete"), _LIVE_TABLE, _LIVE_ID),
    st.tuples(st.just("raw_mutate"), _LIVE_TABLE, _LIVE_ID, st.booleans(), st.integers(0, 7)),
)


def live_write(db: Database, step):
    """Apply one write to ``db``; a write its table cannot take is skipped."""
    kind, table, k, *args = step
    k = (Value.integer(k),)
    width = len(db.catalog.get(table).columns)
    if kind == "insert":
        if not db.has_row(table, k):
            db.apply_row_insert(table, (k[0], *args[0], NULL)[:width])
        return
    if not db.has_row(table, k):
        return
    row = db.get_row(table, k).values
    if kind == "update":
        i = min(args[0], width - 1)
        db.apply_row_update(table, k, row[:i] + (args[1],) + row[i + 1:])
    elif kind == "delete":
        db.apply_row_delete(table, k)
    elif args[0]:  # the primary key, to a key not taken
        if not db.has_row(table, (Value.integer(args[1]),)):
            db.raw_mutate(table, k, "id", Value.integer(args[1]))
    else:  # the column the joins hash on
        db.raw_mutate(table, k, "x" if table == "p" else "y", Value.integer(args[1] % 4))


def live_join(db: Database, q):
    """What a join released or raised, comparable with ==."""
    try:
        return rows_to_raw(db.exec_select(q))
    except EvalError as exc:
        return ("EvalError", str(exc))


@settings(max_examples=60, deadline=None)
@given(writes=st.lists(LIVE_WRITES, min_size=1, max_size=16))
def test_a_long_lived_database_joins_as_a_fresh_clone_does(writes):
    db = Database()
    db.load_ddl(LIVE_DDL)
    db.load_csv("p", io.StringIO("id,x,s\n0,1,a\n1,2,b\n2,1,\n"))
    db.load_csv("q", io.StringIO("id,y,s,d\n0,1,a,1\n1,,b,2.5\n2,2,a,1.0\n"))
    for step in [None, *writes]:
        if step is not None:
            live_write(db, step)
        fresh = db.clone()
        for q in LIVE_JOINS:
            assert live_join(db, q) == live_join(fresh, q), (step, q)
