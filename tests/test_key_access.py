"""Key-ordered storage: the primary-key access path, order kept across
mutations, and ``dump_csv``'s cached lines.

Results are compared as ordered lists or exact bytes: a narrowed SELECT must
return the rows, in the order, and raise the errors of the full scan, and a
dump after any mutation must equal a dump rendered from scratch.
"""

from __future__ import annotations

import io
import random
from decimal import Decimal

import pytest

from conftest import brute_force_select, make_verified, normalize_raw, rows_to_raw
from verity import sqlast as ast
from verity import storage
from verity.errors import EvalError
from verity.parser import parse
from verity.storage import Database, csv_line
from verity.values import NULL, Value, render_value

DDL = """
create table o (k integer, c text, v decimal, primary key (k));
create table l (k integer, n integer, q decimal, primary key (k, n));
create table t (s text, x integer, primary key (s));
create table d (dt date, x integer, primary key (dt));
"""

WORDS = ["", "NULL", "a", "a,b", 'say "hi"', "b", "ba", "c", "x y"]
DATES = [f"199{y}-0{m}-1{d}" for y in range(5, 8) for m in range(1, 4) for d in range(0, 3)]


def random_db(rng: random.Random) -> Database:
    db = Database(null_literal=rng.choice(["", "NULL"]))
    db.load_ddl(DDL)
    keys = rng.sample(range(1, 41), rng.randint(0, 25))
    for k in keys:
        db.apply_row_insert("o", (Value.integer(k), text_or_null(rng), decimal(rng)))
        for n in range(1, rng.randint(1, 4)):
            db.apply_row_insert("l", (Value.integer(k), Value.integer(n), decimal(rng)))
    for s in rng.sample(WORDS, rng.randint(0, len(WORDS))):
        db.apply_row_insert("t", (Value.text(s), Value.integer(rng.randint(0, 9))))
    for dt in rng.sample(DATES, rng.randint(0, len(DATES))):
        db.apply_row_insert("d", (Value.date(dt), Value.integer(rng.randint(0, 9))))
    return db


def text_or_null(rng):
    return NULL if rng.random() < 0.15 else Value.text(rng.choice(WORDS))


def decimal(rng):
    return NULL if rng.random() < 0.15 else Value.decimal(Decimal(rng.randint(0, 500)) / 100)


# --- the key access path ----------------------------------------------------------

def key_literal(rng, table: str) -> str:
    if table in ("o", "l"):
        n = rng.randint(-2, 43)
        return str(n) if rng.random() < 0.7 else f"{n}.{rng.choice([0, 5])}"
    if table == "t":
        return "'" + rng.choice(WORDS + ["aa", "z"]).replace("'", "''") + "'"
    return "'" + rng.choice(DATES + ["1994-12-31", "1999-01-01"]) + "'"


def key_atom(rng, table: str, key: str) -> str:
    op = rng.choice(["=", "<", "<=", ">", ">="])
    lit = key_literal(rng, table)
    return f"{lit} {op} {key}" if rng.random() < 0.3 else f"{key} {op} {lit}"


OTHER_ATOMS = {
    "o": ["o.c = 'a'", "o.v > 1.5", "o.c like 'b%'", "o.v <> 2"],
    "l": ["l.n = 1", "l.q <= 2.5", "l.n > 1"],
    "t": ["t.x < 5", "t.x = 3"],
    "d": ["d.x >= 4"],
}
KEYS = {"o": "o.k", "l": "l.k", "t": "t.s", "d": "d.dt"}


def random_where(rng, table: str) -> str:
    key = KEYS[table]
    atoms = []
    for _ in range(rng.randint(1, 4)):
        r = rng.random()
        if r < 0.6:
            atoms.append(key_atom(rng, table, key))
        elif r < 0.8:
            atoms.append(rng.choice(OTHER_ATOMS[table]))
        else:  # OR must not narrow
            atoms.append(f"({key_atom(rng, table, key)} or {key_atom(rng, table, key)})")
    return " and ".join(atoms)


def random_query(rng) -> str:
    if rng.random() < 0.25:
        return (f"select * from o, l where o.k = l.k and {random_where(rng, 'o')} "
                f"and {random_where(rng, 'l')}")
    table = rng.choice(["o", "l", "t", "d"])
    return f"select * from {table} where {random_where(rng, table)}"


def assert_same_as_oracle(db: Database, sql: str) -> list:
    q = parse(sql)
    got = rows_to_raw(db.exec_select(q))
    assert got == normalize_raw(brute_force_select(db, q)), sql
    return got


def test_key_narrowed_selects_match_the_oracle():
    rng = random.Random(0xC0FFEE)
    nonempty = 0
    for _ in range(40):
        db = random_db(rng)
        for _ in range(15):
            nonempty += bool(assert_same_as_oracle(db, random_query(rng)))
    assert nonempty > 100


@pytest.mark.parametrize("where", [
    "o.k >= 10 and o.k <= 20",
    "o.k > 10.5 and o.k < 20.0",
    "20 >= o.k and 10 < o.k",
    "o.k = 7.0",
    "o.k = 7.5",            # a DECIMAL that no INTEGER key equals
    "o.k > 30 and o.k < 10",  # lo > hi
    "o.k = 999",
    "o.k < 1",
    "o.k >= 1 and o.k <= 40",
    "o.k = 7 or o.k = 9",
    "o.k <> 7",
    "o.v > 1 and o.k = 7",
])
def test_key_bounds_on_an_integer_key(where):
    db = full_db()
    assert_same_as_oracle(db, f"select * from o where {where}")


@pytest.mark.parametrize("sql", [
    "select * from l where l.k = 5",
    "select * from l where l.k >= 5 and l.k < 8 and l.n = 2",
    "select * from l where l.n = 2 and l.k = 5",
    "select * from t where t.s >= 'a' and t.s < 'b'",
    "select * from t where t.s = 'NULL'",
    "select * from t where t.s > ''",
    "select * from d where d.dt >= '1996-01-01' and d.dt <= '1996-03-12'",
    "select * from d where '1996-02-11' = d.dt",
    "select * from o, l where o.k = l.k and o.k >= 3 and o.k <= 6 and l.k < 5",
    "select o.k, l.n from o, l where l.k = o.k and l.k = 4",
])
def test_key_bounds_on_composite_text_and_date_keys(sql):
    db = full_db()
    assert assert_same_as_oracle(db, sql)


def full_db() -> Database:
    db = Database()
    db.load_ddl(DDL)
    for k in range(1, 41):
        db.apply_row_insert("o", (Value.integer(k), Value.text(WORDS[k % len(WORDS)]),
                                        Value.decimal(Decimal(k) / 10)))
        for n in range(1, 4):
            db.apply_row_insert("l", (Value.integer(k), Value.integer(n),
                                            Value.decimal(Decimal(n))))
    for i, s in enumerate(WORDS):
        db.apply_row_insert("t", (Value.text(s), Value.integer(i)))
    for i, dt in enumerate(DATES):
        db.apply_row_insert("d", (Value.date(dt), Value.integer(i % 10)))
    return db


@pytest.mark.parametrize("where,null_rows", [
    ("", 1),
    ("where o.c = 'c'", 1),  # the NULL-key row's c is 'c'
    ("where o.k < 5", 0),
    ("where o.k <= 5 and o.c = 'c'", 0),
    ("where o.k >= 0", 0),
    ("where o.k > 38", 0),
    ("where o.k = 7", 0),
])
def test_a_null_key_sorts_first_and_meets_no_key_bound(where, null_rows):
    db = full_db()
    db.raw_mutate("o", (Value.integer(7),), "k", NULL)  # an attacker's edit
    got = assert_same_as_oracle(db, f"select * from o {where}")
    assert [row[0] for row in got[:null_rows]] == [None] * null_rows
    assert sum(row[0] is None for row in got) == null_rows


def test_a_conjunct_before_the_key_bound_still_sees_every_row():
    # o.c > 5 compares TEXT with INTEGER: the scan raises on the first row it
    # evaluates, so narrowing to o.k = 99999 first would hide the error
    db = full_db()
    with pytest.raises(EvalError):
        db.exec_select(parse("select * from o where o.c > 5 and o.k = 99999"))
    # after the key bound, it is never evaluated on a row: no row matches
    assert db.exec_select(parse("select * from o where o.k = 99999 and o.c > 5")) == []


def test_a_literal_of_another_class_does_not_narrow():
    db = full_db()
    with pytest.raises(EvalError):
        db.exec_select(parse("select * from t where t.s = 5"))
    with pytest.raises(EvalError):
        db.exec_select(parse("select * from o where o.k = 'a'"))


def count_calls(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(storage, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(storage, name, counting)
    return calls


def count_predicate_calls(monkeypatch) -> list:
    """``(node, row)`` of every call of a compiled predicate: each closure
    that ``storage.compile_predicate`` returns records its node per call."""
    calls = []
    original = storage.compile_predicate

    def compiling(node):
        test = original(node)

        def counting(row):
            calls.append((node, row))
            return test(row)
        return counting

    monkeypatch.setattr(storage, "compile_predicate", compiling)
    return calls


def test_point_and_range_selects_evaluate_only_their_rows(monkeypatch):
    # the key bounds pick their rows by bisection; the conjuncts after them
    # are evaluated on those rows alone
    db = full_db()
    evals = count_predicate_calls(monkeypatch)
    assert len(db.exec_select(parse("select * from o where o.k = 7"))) == 1
    assert evals == []
    assert len(db.exec_select(parse("select * from o where o.k = 7 and o.v > 0"))) == 1
    assert len(evals) == 1
    evals.clear()
    sql = "select * from l where l.k >= 3 and l.k <= 4 and l.n > 0"
    assert len(db.exec_select(parse(sql))) == 6
    assert len(evals) == 6
    evals.clear()
    sql = "select * from o where 10 < o.k and o.k < 20 and o.v > 0"
    assert len(db.exec_select(parse(sql))) == 9
    assert len(evals) == 9  # not on the bounds' own keys
    evals.clear()
    db.raw_mutate("o", (Value.integer(7),), "k", NULL)
    assert len(db.exec_select(parse("select * from o where o.k <= 5 and o.v > 0"))) == 5
    assert len(evals) == 5  # nor on the NULL key, which sorts first
    evals.clear()
    # a conjunct before the bound sees every row, and so does the bound
    assert len(db.exec_select(parse("select * from o where o.v > 0 and o.k = 8"))) == 1
    assert len(evals) == 80
    evals.clear()
    assert db.exec_select(parse("select * from o where o.k = 8 or o.k = 9"))
    assert sum(isinstance(p, ast.Or) for p, _ in evals) == 40  # OR does not narrow


# --- mutations: order kept, lines rendered once ----------------------------------

def verified_orders(n: int):
    db = Database()
    db.load_ddl(DDL)
    for k in range(1, n + 1):
        db.apply_row_insert("o", (Value.integer(k), Value.text("c"), Value.decimal(k)))
    _, verifier = make_verified(db)
    return db, verifier


def test_point_update_evaluates_its_predicate_on_at_most_one_row(monkeypatch):
    db, verifier = verified_orders(200)
    evals = count_predicate_calls(monkeypatch)
    summary, _ = verifier.process("update o set v = v + 1 where k = 150")
    assert summary.rows_affected == 1
    assert evals == []  # the key bound picks the row by bisection
    summary, _ = verifier.process("update o set v = v + 1 where k = 150 and c = 'c'")
    assert summary.rows_affected == 1
    assert len(evals) == 1
    evals.clear()
    summary, _ = verifier.process("delete from o where k = 999")
    assert summary.rows_affected == 0
    assert evals == []


def test_updates_keep_key_order_without_resorting(monkeypatch):
    db, verifier = verified_orders(200)
    sort_keys = count_calls(monkeypatch, "_pk_sort_key")
    summary, _ = verifier.process("update o set v = v + 1 where k >= 51 and k <= 150")
    assert summary.rows_affected == 100
    assert len(sort_keys) == 100  # one bisection per replaced row
    keys = [r[0].raw for r in db.exec_select(parse("select * from o"))]
    assert keys == list(range(1, 201))


def test_one_row_update_writeback_renders_one_row(monkeypatch):
    db, verifier = verified_orders(200)
    before = dump(db, "o")
    lines = count_calls(monkeypatch, "_row_line")
    verifier.process("update o set v = v + 1 where k = 7")
    after = dump(db, "o")
    assert len(lines) == 1
    assert after == reference_dump(db, "o")
    assert after != before
    lines.clear()
    verifier.process("update o set v = v + 1 where k >= 10 and k <= 19")
    dump(db, "o")
    assert len(lines) == 10


def dump(db: Database, table: str) -> str:
    out = io.StringIO()
    db.dump_csv(table, out)
    return out.getvalue()


def reference_dump(db: Database, table: str) -> str:
    """The table rendered from scratch in ``db``'s dialect, rows sorted here
    by their key."""
    td, null = db.catalog.get(table), db.null_literal
    rows = sorted(db._table(table).rows.values(),
                  key=lambda r: [r[i].sort_key() for i in td.pk_indices])
    lines = [csv_line(td.column_names(), null)]
    lines += [csv_line([None if v.is_null else render_value(v) for v in row], null)
              for row in rows]
    return "".join(lines)


def assert_lines_cache_only_stored_rows(db: Database, table: str):
    """Right after a dump, the table's cached lines are its stored rows'."""
    t = db._table(table)
    assert {i: row for i, (row, _) in t.csv_lines.items()} == \
        {id(row): row for row in t.rows.values()}


def random_mutation(rng, db: Database):
    table = rng.choice(["o", "l", "t"])
    td = db.catalog.get(table)
    stored = list(db.rows_of(table))
    pk = None
    if stored:
        picked = rng.choice(stored)
        pk = tuple(picked[i] for i in td.pk_indices)
    # "delete" twice: a delete is drawn twice as often as each other operation
    op = rng.choice(["insert", "update", "delete", "raw_mutate", "delete", "select"])
    if op == "select":
        db.exec_select(parse(f"select * from {table}"))
    elif op == "insert" or pk is None:
        row = random_row(rng, table)
        if not db.has_row(table, tuple(row[i] for i in td.pk_indices)):
            db.apply_row_insert(table, row)
    elif op == "delete":
        db.apply_row_delete(table, pk)
    elif op == "update":
        row = random_row(rng, table)
        if rng.random() < 0.7:  # same key; otherwise the key moves
            row = tuple(pk[td.pk_indices.index(i)] if i in td.pk_indices else v
                        for i, v in enumerate(row))
        new_pk = tuple(row[i] for i in td.pk_indices)
        if new_pk == pk or not db.has_row(table, new_pk):
            db.apply_row_update(table, pk, row)
    else:
        col = rng.choice(td.columns)
        value = random_row(rng, table)[td.col_index(col.name)]
        new_pk = tuple(value if td.pk_indices[j] == td.col_index(col.name) else v
                       for j, v in enumerate(pk))
        if new_pk == pk or not db.has_row(table, new_pk):
            db.raw_mutate(table, pk, col.name, value)


def random_row(rng, table: str) -> tuple:
    if table == "o":
        return (Value.integer(rng.randint(1, 60)), text_or_null(rng), decimal(rng))
    if table == "l":
        return (Value.integer(rng.randint(1, 20)), Value.integer(rng.randint(1, 4)), decimal(rng))
    return (Value.text(rng.choice(WORDS + ["d", "e"])), Value.integer(rng.randint(0, 9)))


def test_dumps_after_random_mutations_equal_fresh_dumps():
    rng = random.Random(0xD0D0)
    for _ in range(8):
        db = random_db(rng)
        for step in range(150):
            random_mutation(rng, db)
            if step % 3 == 0:
                table = rng.choice(["o", "l", "t"])
                assert dump(db, table) == reference_dump(db, table)
                assert_lines_cache_only_stored_rows(db, table)
        for table in ("o", "l", "t"):
            assert dump(db, table) == reference_dump(db, table)
            assert_lines_cache_only_stored_rows(db, table)
            clone = db.clone()
            assert dump(clone, table) == reference_dump(db, table)


@pytest.mark.parametrize("read_first", [True, False])
def test_rows_whose_keys_sort_equal_keep_their_stored_order(read_first):
    # INTEGER 1 and DECIMAL 1.0 are two keys of one DECIMAL column (the
    # mutations do not coerce) that sort equal: the later stored comes after
    db = Database()
    db.create_table("create table e (k decimal, v text, primary key (k))")
    one_int, one_dec = Value.integer(1), Value.decimal(Decimal("1.0"))
    if read_first:
        db.exec_select(parse("select * from e"))

    def scan():
        return [(r[0].kind.name, r[1].raw) for r in db.exec_select(parse("select * from e"))]

    for k, v in [(one_int, "a"), (one_dec, "b"), (Value.decimal(Decimal(2)), "z")]:
        db.apply_row_insert("e", (k, Value.text(v)))
    assert scan() == [("INTEGER", "a"), ("DECIMAL", "b"), ("DECIMAL", "z")]
    db.apply_row_update("e", (one_int,), (one_int, Value.text("a2")))
    assert scan() == [("INTEGER", "a2"), ("DECIMAL", "b"), ("DECIMAL", "z")]
    db.apply_row_delete("e", (one_int,))
    db.apply_row_insert("e", (one_int, Value.text("a3")))
    assert scan() == [("DECIMAL", "b"), ("INTEGER", "a3"), ("DECIMAL", "z")]
    db.raw_mutate("e", (one_dec,), "v", Value.text("b2"))
    assert scan() == [("DECIMAL", "b2"), ("INTEGER", "a3"), ("DECIMAL", "z")]
