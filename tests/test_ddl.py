"""CREATE TABLE: what ``Database.create_table`` and ``Database.load_ddl``
make of well-formed, malformed and edge-case schema text.

Each case maps one DDL string to the outcome of ``create_table`` (one
``(name, columns, primary_key)`` or an error class) and of ``load_ddl`` (a
list of them, or an error class). ``create_table`` takes one statement;
``load_ddl`` takes any number, separated by ``;``, and skips empty ones.
"""

import pytest

from verity.errors import (
    BadType,
    DuplicateColumn,
    DuplicateTable,
    SqlSyntaxError,
    UnknownColumn,
)
from verity.fixtures import TPCH_DDL
from verity.storage import Database, TableDef

REGION = ("region", (("r_regionkey", "integer"), ("r_name", "text")), ("r_regionkey",))
T_AB = ("t", (("a", "integer"), ("b", "text")), ("a", "b"))

CASES = [
    # (ddl, create_table outcome, load_ddl outcome)
    ("create table region (r_regionkey integer, r_name text, primary key (r_regionkey))",
     REGION, [REGION]),
    ("create table t (a integer, b text)", T_AB, [T_AB]),  # no PK: every column
    ("create table t (a integer, b text, c text, primary key (c, a))",
     ("t", (("a", "integer"), ("b", "text"), ("c", "text")), ("c", "a")), None),
    ("create table t (a integer, b text);", T_AB, [T_AB]),
    ("CREATE TABLE T (A INTEGER, B DECIMAL, C DATE, PRIMARY KEY (A))",
     ("t", (("a", "integer"), ("b", "decimal"), ("c", "date")), ("a",)), None),
    ("\n  create table t (\n  a integer,\n  b text\n)\n", T_AB, [T_AB]),
    # keyword-named table and columns
    ("create table select (order text, from integer, null date, primary key (order))",
     ("select", (("order", "text"), ("from", "integer"), ("null", "date")), ("order",)),
     None),
    ("create table t (primary key (b), a integer, b date)",
     ("t", (("a", "integer"), ("b", "date")), ("b",)), None),
    ("create table t (a integer, b integer, primary key (a), primary key (b))",
     ("t", (("a", "integer"), ("b", "integer")), ("b",)), None),  # the last PK wins
    # schema errors
    ("create table t (a integer, a text)", DuplicateColumn, None),
    ("create table t (a integer, a integer,", DuplicateColumn, None),  # before the syntax error
    ("create table t (a integer, primary key (b))", UnknownColumn, None),
    ("create table t (a integer, primary key (a, a))", DuplicateColumn, None),
    ("create table t (a varchar)", BadType, None),
    ("create table t (a varchar,", BadType, None),
    ("create table t (a null)", BadType, None),
    ("create table t (primary key (a))", BadType, None),
    ("create table t (primary key (a)) x", SqlSyntaxError, None),  # trailing input first
    # syntax errors
    ("create table t ()", SqlSyntaxError, None),
    ("create table t (a integer) x", SqlSyntaxError, None),
    ("create table t (a integer) @", SqlSyntaxError, None),
    ("create table t", SqlSyntaxError, None),
    ("create view t (a integer)", SqlSyntaxError, None),
    ("table t (a integer)", SqlSyntaxError, None),
    ("create table 5 (a integer)", SqlSyntaxError, None),
    ("create table t (a, b integer)", SqlSyntaxError, None),
    ("create table t (a 5)", SqlSyntaxError, None),
    ("create table t (a integer b text)", SqlSyntaxError, None),
    ("create table t (a integer,)", SqlSyntaxError, None),
    ("create table t (primary integer)", SqlSyntaxError, None),
    ("create table t (a integer, primary key a)", SqlSyntaxError, None),
    ("create table t (a integer, primary key ())", SqlSyntaxError, None),
    ("create table t (a integer ',' b text)", SqlSyntaxError, None),
    ("create table t (a integer) ';'", SqlSyntaxError, None),
    # statement separation: one statement for create_table, any for load_ddl
    ("", SqlSyntaxError, []),
    ("  ;  ; ", SqlSyntaxError, []),
    ("create table t (a integer, b text);;", SqlSyntaxError, [T_AB]),
    (";;create table t (a integer, b text);;;", SqlSyntaxError, [T_AB]),
    ("create table region (r_regionkey integer, r_name text, primary key (r_regionkey));"
     "create table t (a integer, b text)", SqlSyntaxError, [REGION, T_AB]),
    ("create table region (r_regionkey integer, r_name text, primary key (r_regionkey)) "
     "create table t (a integer, b text)", SqlSyntaxError, SqlSyntaxError),
    ("create table t (a integer); create table u (b varchar)", SqlSyntaxError, BadType),
    ("create table t (a integer); create table t (b integer)", SqlSyntaxError, DuplicateTable),
]


def _shape(d: TableDef):
    return d.name, tuple((c.name, c.type.value) for c in d.columns), d.primary_key


def _outcome(call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
        return None
    return call()


@pytest.mark.parametrize("ddl,single,many", CASES, ids=[c[0] or "<empty>" for c in CASES])
def test_create_table_and_load_ddl_outcomes(ddl, single, many):
    if many is None:  # one statement, no separator games: both calls agree
        many = single if isinstance(single, type) else [single]
    db = Database()
    d = _outcome(lambda: db.create_table(ddl), single)
    if d is not None:
        assert _shape(d) == single
        assert db.catalog.get(d.name) is d
    db = Database()
    defs = _outcome(lambda: db.load_ddl(ddl), many)
    if defs is not None:
        assert [_shape(d) for d in defs] == many
        assert db.catalog.names() == [d.name for d in defs]


def test_load_ddl_reads_the_tpch_schema():
    defs = Database().load_ddl(TPCH_DDL)
    assert [d.name for d in defs] == ["region", "nation", "customer", "supplier",
                                      "part", "partsupp", "orders", "lineitem"]
    assert [len(d.columns) for d in defs] == [3, 4, 8, 7, 9, 5, 9, 16]
    assert defs[5].primary_key == ("ps_partkey", "ps_suppkey")
    assert defs[7].primary_key == ("l_orderkey", "l_linenumber")
