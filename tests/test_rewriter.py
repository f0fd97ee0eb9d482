"""Projection widening: golden rewrites, slicing, result reconstruction."""

import io
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import RandomDbGen, as_multiset, make_t123, make_verified, rows_to_raw
from verity import sqlast as ast
from verity.errors import (AmbiguousColumn, UnknownColumn, UnknownTable, UnsupportedFeature,
                           VerityError)
from verity.parser import parse
from verity.rewriter import change_projection, project_results
from verity.storage import Database


def projection_pairs(q: ast.SelectQuery):
    out = []
    for item in q.projections:
        assert isinstance(item.expr, ast.ColumnRef)
        out.append((item.expr.table, item.expr.column))
    return out


def test_golden_flat_join_rewrite():
    # three tables (x,y,a), (a,s,b), (c,d,b): the wide query projects every
    # attribute of every table, FROM/WHERE unchanged
    db = make_t123()
    q = parse("SELECT t1.a, t2.b, t3.c FROM t1, t2, t3 "
              "WHERE t1.a=t2.a AND t2.b=t3.b")
    rw = change_projection(q, db.catalog)
    assert projection_pairs(rw.wide_query) == [
        ("t1", "x"), ("t1", "y"), ("t1", "a"),
        ("t2", "a"), ("t2", "s"), ("t2", "b"),
        ("t3", "c"), ("t3", "d"), ("t3", "b"),
    ]
    assert rw.wide_query.from_items == q.from_items
    assert rw.wide_query.where == q.where


def test_golden_nested_rewrite():
    db = make_t123()
    q = parse("SELECT t1.a, r1.b, t3.c FROM t1, (SELECT a, b FROM t2) AS r1, t3 "
              "WHERE t1.a=r1.a AND r1.b=t3.b")
    rw = change_projection(q, db.catalog)
    assert projection_pairs(rw.wide_query) == [
        ("t1", "x"), ("t1", "y"), ("t1", "a"),
        ("r1", "a"), ("r1", "s"), ("r1", "b"),
        ("t3", "c"), ("t3", "d"), ("t3", "b"),
    ]
    inner = rw.wide_query.from_items[1].subquery
    assert projection_pairs(inner) == [("t2", "a"), ("t2", "s"), ("t2", "b")]
    assert rw.wide_query.where == q.where
    # the column map covers the nested base table in its FROM item's place
    assert [(e.table, e.start, e.stop) for e in rw.column_map] == [
        ("t1", 0, 3), ("t2", 3, 6), ("t3", 6, 9),
    ]


def test_star_over_single_table_is_identity():
    db = make_t123()
    rw = change_projection(parse("select * from t2"), db.catalog)
    assert projection_pairs(rw.wide_query) == [("t2", "a"), ("t2", "s"), ("t2", "b")]
    assert [e for e, _ in rw.original_projection] == [
        ast.BoundCol(0), ast.BoundCol(1), ast.BoundCol(2),
    ]


def test_widening_is_idempotent():
    db = make_t123()
    for sql in (
        "select t1.a, t2.b from t1, t2 where t1.a = t2.a",
        "select t1.a, r1.b, t3.c from t1, (select a, b from t2) as r1, t3 "
        "where t1.a = r1.a and r1.b = t3.b",
        "select r.s from (select a as alpha, s from t2) as r",
    ):
        rw1 = change_projection(parse(sql), db.catalog)
        rw2 = change_projection(rw1.wide_query, db.catalog)
        assert rw1.wide_query.projections == rw2.wide_query.projections


def test_coverage_every_alias_has_column_map_entry():
    db = make_t123()
    q = parse("select t1.a, r1.b, t3.c from t1, (select a, b from t2) as r1, t3 "
              "where t1.a = r1.a and r1.b = t3.b")
    rw = change_projection(q, db.catalog)
    # slices tile the wide row exactly, each base table's columns contiguous
    spans = sorted((e.start, e.stop) for e in rw.column_map)
    assert spans == [(0, 3), (3, 6), (6, 9)]
    for e in rw.column_map:
        assert e.stop - e.start == len(e.tabledef.columns)


def test_exposure_slice_is_the_base_row():
    db = make_t123()
    q = parse("select t1.a, t2.b, t3.c from t1, t2, t3 "
              "where t1.a = t2.a and t2.b = t3.b")
    rw = change_projection(q, db.catalog)
    wide = db.exec_select(rw.wide_query)
    assert len(wide) == 1
    by_table = {e.table: e for e in rw.column_map}
    for table, want in [("t2", [7, 8, 9]), ("t1", [1, 2, 7])]:
        e = by_table[table]
        row = wide[0][e.start:e.stop]
        assert [v.raw for v in row] == want
        assert row in db.rows_of(table)


def test_exposure_slice_is_the_whole_row_for_single_table():
    db = make_t123()
    rw = change_projection(parse("select * from t3"), db.catalog)
    wide = db.exec_select(rw.wide_query)
    e = rw.column_map[0]
    assert tuple(v.raw for v in wide[0][e.start:e.stop]) == (4, 5, 9)


def test_project_results_reconstructs_original_projection():
    db = make_t123()
    q = parse("select t1.a, t2.b, t3.c from t1, t2, t3 "
              "where t1.a = t2.a and t2.b = t3.b")
    rw = change_projection(q, db.catalog)
    wide = db.exec_select(rw.wide_query)
    rows = project_results(wide, rw)
    assert rows_to_raw(rows) == [(7, 9, 4)]


def test_project_results_empty_input():
    db = make_t123()
    q = parse("select t1.a from t1 where t1.x = 999")
    rw = change_projection(q, db.catalog)
    assert project_results([], rw) == []


def test_project_results_aggregate_collapses():
    db = Database()
    db.create_table("create table li (k integer, q decimal, primary key (k))")
    db.load_csv("li", io.StringIO("k,q\n1,2.5\n2,4.25\n3,1\n"))
    q = parse("select (sum(q) as total) from li")
    rw = change_projection(q, db.catalog)
    wide = db.exec_select(rw.wide_query)
    assert len(wide) == 3  # the wide query never collapses
    rows = project_results(wide, rw)
    assert len(rows) == 1
    assert rows[0][0].raw == Decimal("7.75")


def test_expression_projection_recomputed_from_wide_columns():
    db = Database()
    db.create_table("create table li (k integer, price decimal, disc decimal, "
                    "primary key (k))")
    db.load_csv("li", io.StringIO("k,price,disc\n1,100,0.10\n2,50,0\n"))
    q = parse("select (price * (1 - disc) as net) from li")
    rw = change_projection(q, db.catalog)
    wide = db.exec_select(rw.wide_query)
    rows = project_results(wide, rw)
    assert [r[0].raw for r in rows] == [Decimal("90"), Decimal("50")]


def test_unknown_table_and_column_errors():
    db = make_t123()
    with pytest.raises(UnknownTable):
        change_projection(parse("select * from nosuch"), db.catalog)
    with pytest.raises(UnknownColumn):
        change_projection(parse("select t1.zzz from t1"), db.catalog)
    with pytest.raises(AmbiguousColumn):
        change_projection(parse("select b from t2, t3"), db.catalog)


@pytest.mark.parametrize("sql, error", [
    ("select * from nosuch", UnknownTable),
    ("select t9.a from t1", UnknownTable),
    ("select t1.zzz from t1", UnknownColumn),
    ("select t1.a from t1 where zzz = 1", UnknownColumn),
    ("select b from t2, t3", AmbiguousColumn),
    ("select t1.a from t1, t2 where a = 7", AmbiguousColumn),
    ("select r.s from (select a, b from t2) as r", UnknownColumn),
    ("select * from (select a from t2) as r where r.b = 1", UnknownColumn),
])
def test_rewriter_and_engine_reject_bad_names_alike(sql, error):
    db = make_t123()
    q = parse(sql)
    with pytest.raises(error):
        change_projection(q, db.catalog)
    with pytest.raises(error):
        db.exec_select(q)


def test_derived_alias_rename_on_collision():
    # nation joined to itself inside one derived table: both sides expose the
    # same column names, so the widened subquery must disambiguate
    db = Database()
    db.create_table("create table nation (n_nationkey integer, n_name text, "
                    "primary key (n_nationkey))")
    db.load_csv("nation", io.StringIO("n_nationkey,n_name\n1,ALGERIA\n2,BRAZIL\n"))
    q = parse("select r.n_name from "
              "(select n1.n_name from (nation as n1), (nation as n2) "
              "where n1.n_nationkey = n2.n_nationkey) as r")
    rw = change_projection(q, db.catalog)
    # the inner wide query renames every colliding output
    inner = rw.wide_query.from_items[0].subquery
    aliases = [item.alias for item in inner.projections]
    assert aliases[:4] == ["n_nationkey__0", "n_name__0", "n_nationkey__1", "n_name__1"]
    rows = project_results(db.exec_select(rw.wide_query), rw)
    assert rows_to_raw(rows) == [("ALGERIA",), ("BRAZIL",)]
    assert rows == db.exec_select(q)
    # the renamed names belong to the wide query, not to the user's
    hidden = parse("select r.n_name__0 from "
                   "(select n1.n_name from (nation as n1), (nation as n2)) as r")
    with pytest.raises(UnknownColumn):
        change_projection(hidden, db.catalog)


# output aliases that equal a wide column's name: a base column's, one shaped
# like a rename (name__k), or one shaped like the renames of earlier versions
COLLIDING = [
    ("select * from (select a + 0 as s, b + 0 as s__x0 from t2) as r", [(7, 9)]),
    ("select * from (select p.a, q.s + 0 as p__t2__a from t2 as p, t2 as q) as r", [(7, 8)]),
]


@pytest.mark.parametrize("sql, expected", COLLIDING)
def test_derived_outputs_named_like_renamed_columns_verify(sql, expected):
    db = make_t123()
    assert rows_to_raw(db.exec_select(parse(sql))) == expected
    _, verifier = make_verified(db)
    rows, _ = verifier.process(sql)
    assert rows_to_raw(rows) == expected


# a derived table's FROM, and the columns its items may read
DERIVED_SOURCES = [
    ("t1", ["x", "y", "a"]),
    ("t2", ["a", "s", "b"]),
    ("t3", ["c", "d", "b"]),
    ("t2 as p, t2 as q", ["p.a", "p.s", "p.b", "q.a", "q.s", "q.b"]),
]
ALIASES = ["a", "s", "b", "a__0", "s__0", "s__1", "b__2", "s__x0", "p__t2__a", "r__s"]


@st.composite
def derived_queries(draw):
    """``select *`` over one derived table whose outputs take names from
    ``ALIASES``, with an outer WHERE on one output."""
    source, columns = draw(st.sampled_from(DERIVED_SOURCES))
    items, names = [], []
    for _ in range(draw(st.integers(1, 4))):
        col = draw(st.sampled_from(columns))
        alias = draw(st.sampled_from(ALIASES + [None]))
        if draw(st.booleans()):
            alias = alias or draw(st.sampled_from(ALIASES))
            items.append(f"{col} + 0 as {alias}")
        else:
            items.append(col if alias is None else f"{col} as {alias}")
        names.append(alias or col.split(".")[-1])
    op = draw(st.sampled_from(["=", "<>", ">", "<="]))
    where = f"r.{draw(st.sampled_from(names))} {op} {draw(st.sampled_from([1, 7, 8]))}"
    return f"select * from (select {', '.join(items)} from {source}) as r where {where}"


def outcome_of(run):
    try:
        return as_multiset(rows_to_raw(run()))
    except VerityError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(sql=derived_queries())
@example(sql=COLLIDING[0][0] + " where r.s = 7")
@example(sql=COLLIDING[1][0] + " where r.a = 7")
def test_derived_table_names_never_change_results(sql):
    db = make_t123(rows2="a,s,b\n7,8,9\n1,7,8\n8,1,7\n")
    q = parse(sql)

    def pipeline():
        rw = change_projection(q, db.catalog)
        return project_results(db.exec_select(rw.wide_query), rw)

    assert outcome_of(pipeline) == outcome_of(lambda: db.exec_select(q)), sql


def test_aggregate_inside_derived_table_unsupported():
    db = make_t123()
    with pytest.raises(UnsupportedFeature):
        change_projection(
            parse("select m from (select (max(a) as m) from t2) as r"),
            db.catalog,
        )


def test_aliased_expression_output_stays_addressable():
    db = Database()
    db.create_table("create table li (k integer, price decimal, disc decimal, "
                    "primary key (k))")
    db.load_csv("li", io.StringIO("k,price,disc\n1,100,0.10\n2,50,0\n"))
    q = parse("select r.volume from (select (price * (1 - disc) as volume) from li) as r "
              "where r.volume > 60")
    rw = change_projection(q, db.catalog)
    wide = db.exec_select(rw.wide_query)
    rows = project_results(wide, rw)
    assert [r[0].raw for r in rows] == [Decimal("90")]
    # base columns still tile their slice; the extra expression column sits after
    inner = rw.wide_query.from_items[0].subquery
    assert [i.alias for i in inner.projections] == [None, None, None, "volume"]


def test_semantic_preservation_on_random_queries():
    gen = RandomDbGen(seed=77)
    checked = 0
    for i in range(120):
        db = gen.make_db()
        sql = gen.make_query(db, allow_derived=True)
        q = parse(sql)
        rw = change_projection(q, db.catalog)
        wide = db.exec_select(rw.wide_query)
        via_pipeline = as_multiset(rows_to_raw(project_results(wide, rw)))
        direct = as_multiset(rows_to_raw(db.exec_select(q)))
        assert via_pipeline == direct, f"case {i}: {sql}"
        checked += 1
    assert checked == 120
