"""Storage engine: DDL, values, CSV dialect, execution, mutations."""

import io
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    RandomDbGen,
    as_multiset,
    brute_force_select,
    make_t123,
    normalize_raw,
    rows_to_raw,
)
from verity.errors import (
    AmbiguousColumn,
    ArityError,
    BadType,
    DuplicatePrimaryKey,
    DuplicateTable,
    EvalError,
    NoSuchRow,
    UnknownColumn,
    ValueTypeError,
    VerityError,
)
from verity.parser import parse
from verity.storage import Database, csv_line, iter_csv
from verity.values import NULL, Value, ValueType, decimal_str, parse_typed


# --- DDL -----------------------------------------------------------------------

def test_create_table_region():
    db = Database()
    td = db.create_table(
        "CREATE TABLE region (r_regionkey INTEGER, r_name TEXT, r_comment TEXT, "
        "PRIMARY KEY (r_regionkey))"
    )
    assert [c.name for c in td.columns] == ["r_regionkey", "r_name", "r_comment"]
    assert td.primary_key == ("r_regionkey",)


def test_ddl_without_primary_key_uses_all_columns():
    db = Database()
    td = db.create_table("create table t (a integer, b text)")
    assert td.primary_key == ("a", "b")


def test_pk_indices_computed_once_and_not_settable():
    td = Database().create_table("create table t (a integer, b text, c text, primary key (c, a))")
    assert td.pk_indices == (2, 0)
    assert td.pk_indices is td.pk_indices
    with pytest.raises(AttributeError):
        td.pk_indices = (0,)
    assert td.pk_indices == (2, 0)


def test_duplicate_table_rejected():
    db = Database()
    db.create_table("create table region (r integer)")
    with pytest.raises(DuplicateTable):
        db.create_table("create table region (x integer)")


def test_bad_type_rejected():
    db = Database()
    with pytest.raises(BadType):
        db.create_table("create table t (a varchar)")


# --- values ----------------------------------------------------------------------

@pytest.mark.parametrize("text,expect", [
    ("022.500", "22.5"),
    ("-0", "0"),
    ("-0.000", "0"),
    ("0.0400", "0.04"),
    ("10", "10"),
    ("2.0", "2"),
    ("-7.10", "-7.1"),
])
def test_decimal_normalization(text, expect):
    assert decimal_str(Decimal(text)) == expect


# decimal text: sign, up to 34 coefficient digits and an exponent, near zero
# or near the default context's limits (adjusted exponents within +-999999)
_DECIMAL_TEXT = st.one_of(
    st.sampled_from(["1234567890123456789012345678901", "1e999999999", "1e-999999999",
                     "9E+999999", "1E+1000000", "1E-999999", "1E-1000026", "1E-1000027",
                     "0E-999999999", "-0", "1234567890123456789012345678"]),
    st.builds(lambda sign, digits, exp: str(Decimal((sign, tuple(digits), exp))),
              st.integers(0, 1), st.lists(st.integers(0, 9), min_size=1, max_size=34),
              st.integers(-40, 40) | st.integers(-1000030, -999960)
              | st.integers(999960, 1000000) | st.sampled_from([-10**9, 10**9])))


@settings(max_examples=300, deadline=None)
@given(_DECIMAL_TEXT)
def test_every_decimal_parse_typed_accepts_renders_as_itself(text):
    try:
        v = parse_typed(text, ValueType.DECIMAL)
    except ValueTypeError:
        return
    assert Decimal(decimal_str(v.raw)) == v.raw == Decimal(text)


@pytest.mark.parametrize("text", ["1234567890123456789012345678.9", "1e999999999",
                                  "1e-999999999"])
def test_parse_typed_refuses_a_decimal_its_rendering_would_change(text):
    with pytest.raises(ValueTypeError, match="decimal out of range"):
        parse_typed(text, ValueType.DECIMAL)


NOT_ASCII_NUMBERS = ["\u0661", "1_000", " 7 ", "7\n", "\t7", "1_0.5", "\u0661.5"]


@pytest.mark.parametrize("target", [ValueType.INTEGER, ValueType.DECIMAL])
@pytest.mark.parametrize("text", NOT_ASCII_NUMBERS)
def test_parse_typed_reads_numbers_in_ascii_alone(text, target):
    # Decimal() reads each of these as a number, and int() those without a point
    with pytest.raises(ValueTypeError, match="not a plain ASCII"):
        parse_typed(text, target)


@pytest.mark.parametrize("text,target,raw", [
    ("+7", ValueType.INTEGER, 7),
    ("-7", ValueType.INTEGER, -7),
    ("+1.5", ValueType.DECIMAL, Decimal("1.5")),
    ("-2.25", ValueType.DECIMAL, Decimal("-2.25")),
    ("1e3", ValueType.DECIMAL, Decimal(1000)),
    ("1.5E-2", ValueType.DECIMAL, Decimal("0.015")),
])
def test_parse_typed_keeps_sign_and_exponent_forms(text, target, raw):
    assert parse_typed(text, target).raw == raw


def test_text_rejects_unit_separator():
    with pytest.raises(ValueTypeError):
        Value.text("a\x1fb")


def test_date_validation():
    Value.date("1995-03-09")
    with pytest.raises(ValueTypeError):
        Value.date("1995-13-09")
    with pytest.raises(ValueTypeError):
        Value.date("95-03-09")


def test_integer_is_64_bit():
    Value.integer(2**63 - 1)
    with pytest.raises(ValueTypeError):
        Value.integer(2**63)


# --- CSV -------------------------------------------------------------------------

def test_load_csv_counts_and_nulls():
    db = Database()
    db.create_table("create table t (a integer, b text, primary key (a))")
    n = db.load_csv("t", io.StringIO('a,b\n1,hello\n2,\n3,"quoted,comma"\n4,""\n'))
    assert n == 4
    rows = list(db.rows_of("t"))
    assert rows[1][1] is NULL or rows[1][1].is_null       # unquoted empty -> NULL
    assert rows[2][1].raw == "quoted,comma"
    assert rows[3][1].raw == ""                           # quoted empty stays text


def test_load_csv_custom_null_literal():
    db = Database(null_literal="NULL")
    db.create_table("create table t (a integer, b text, primary key (a))")
    db.load_csv("t", io.StringIO('a,b\n1,NULL\n2,"NULL"\n'))
    rows = list(db.rows_of("t"))
    assert rows[0][1].is_null
    assert rows[1][1].raw == "NULL"


def test_load_csv_type_error():
    db = Database()
    db.create_table("create table t (a integer, primary key (a))")
    with pytest.raises(ValueTypeError):
        db.load_csv("t", io.StringIO("a\nnot_a_number\n"))


@pytest.mark.parametrize("field", ["\u0661", "1_000", " 7 "])
def test_load_csv_refuses_a_number_that_is_not_plain_ascii(field):
    db = Database()
    db.create_table("create table t (a integer, b decimal, primary key (a))")
    for text in (f"a,b\n1,2\n{field},3\n", f"a,b\n1,2\n2,{field}\n"):
        with pytest.raises(ValueTypeError, match="^t line 3: not a plain ASCII"):
            db.load_csv("t", io.StringIO(text))
        assert db.row_count("t") == 0


@pytest.mark.parametrize("literal", ["a,b", '"N"', "a\rb", "a\nb", ","])
def test_a_null_literal_that_needs_quotes_is_refused(literal):
    # written raw, NULL would read back as text or as more fields
    with pytest.raises(VerityError) as exc:
        Database(literal)
    assert repr(literal) in str(exc.value)


def test_load_csv_header_mismatch():
    db = Database()
    db.create_table("create table t (a integer, b text)")
    with pytest.raises(ArityError):
        db.load_csv("t", io.StringIO("b,a\n1,x\n"))


def test_load_csv_duplicate_pk():
    db = Database()
    db.create_table("create table t (a integer, primary key (a))")
    with pytest.raises(DuplicatePrimaryKey):
        db.load_csv("t", io.StringIO("a\n1\n1\n"))


def test_csv_quote_escape_round_trip():
    db = Database()
    db.create_table("create table t (a integer, b text, primary key (a))")
    db.load_csv("t", io.StringIO('a,b\n1,"say ""hi"" now"\n2,line\n'))
    out = io.StringIO()
    db.dump_csv("t", out)
    db2 = Database()
    db2.create_table("create table t (a integer, b text, primary key (a))")
    db2.load_csv("t", io.StringIO(out.getvalue()))
    assert list(db2.rows_of("t")) == list(db.rows_of("t"))


def test_csv_crlf_line_endings():
    rows = list(iter_csv(io.StringIO("a,b\r\n1,x\r\n"), ""))
    assert rows == [["a", "b"], ["1", "x"]]


def test_csv_null_round_trip_via_dump():
    db = Database()
    db.create_table("create table t (a integer, b text, primary key (a))")
    db.load_csv("t", io.StringIO("a,b\n1,\n"))
    out = io.StringIO()
    db.dump_csv("t", out)
    assert out.getvalue() == "a,b\n1,\n"


_FIELD = st.none() | st.sampled_from(["", "NULL"]) | st.text(st.sampled_from('aNUL ,"\r\n'))


@settings(max_examples=300, deadline=None)
@given(st.lists(_FIELD, min_size=1, max_size=5), st.sampled_from(["", "NULL"]))
def test_iter_csv_reads_back_the_fields_csv_line_writes(fields, null_literal):
    # None is NULL; text equal to the literal, or empty, is a text value
    line = csv_line(fields, null_literal)
    assert list(iter_csv(io.StringIO(line), null_literal)) == [fields]


def test_a_header_field_equal_to_the_null_literal_names_its_column():
    db = Database(null_literal="b")
    db.create_table("create table t (a integer, b text, primary key (a))")
    db.load_csv("t", io.StringIO('a,b\n1,b\n2,"b"\n'))
    assert [row[1] for row in db.rows_of("t")] == [NULL, Value.text("b")]


def test_clone_keeps_the_null_literal():
    db = Database(null_literal="NULL")
    db.create_table("create table t (a integer, b text, primary key (a))")
    db.load_csv("t", io.StringIO('a,b\n1,NULL\n2,"NULL"\n3,\n'))
    clone = db.clone()
    assert clone.null_literal == "NULL"
    for d in (db, clone):
        out = io.StringIO()
        d.dump_csv("t", out)
        assert out.getvalue() == 'a,b\n1,NULL\n2,"NULL"\n3,""\n'


# --- exec_select -------------------------------------------------------------------

def region_db():
    db = Database()
    db.create_table(
        "create table region (r_regionkey integer, r_name text, r_comment text, "
        "primary key (r_regionkey))"
    )
    db.load_csv("region", io.StringIO(
        "r_regionkey,r_name,r_comment\n"
        "0,africa,aa\n1,america,bb\n2,asia,cc\n3,europe,dd\n4,middle east,ee\n"
    ))
    return db


def test_select_star_five_rows_in_pk_order():
    db = region_db()
    rows = db.exec_select(parse("select * from region"))
    assert len(rows) == 5
    assert [r[0].raw for r in rows] == [0, 1, 2, 3, 4]


def test_always_false_predicate_yields_empty():
    db = make_t123()
    rows = db.exec_select(parse("select * from t1, t2 where 1 = 2"))
    assert rows == []


def test_three_table_join_single_row():
    # t1={(1,2,7)}, t2={(7,8,9)}, t3={(4,5,9)}: the only combination that
    # satisfies t1.a=t2.a and t2.b=t3.b is the full cross product row
    db = make_t123()
    rows = db.exec_select(parse(
        "select * from t1, t2, t3 where t1.a = t2.a and t2.b = t3.b"
    ))
    assert rows_to_raw(rows) == [(1, 2, 7, 7, 8, 9, 4, 5, 9)]


def test_join_on_missing_match_is_empty():
    db = make_t123(rows2="a,s,b\n99,8,9\n")
    rows = db.exec_select(parse(
        "select * from t1, t2, t3 where t1.a = t2.a and t2.b = t3.b"
    ))
    assert rows == []


def test_null_compares_unequal_to_everything():
    db = Database()
    db.create_table("create table t (a integer, b integer, primary key (a))")
    db.load_csv("t", io.StringIO("a,b\n1,\n2,5\n"))
    assert len(db.exec_select(parse("select * from t where b = 5"))) == 1
    rows = db.exec_select(parse("select * from t where b <> 99"))
    assert [r[0].raw for r in rows] == [2]  # NULL <> 99 is not satisfied


def test_like_wildcards():
    db = region_db()
    rows = db.exec_select(parse("select r_name from region where r_name like '%ri%'"))
    assert [r[0].raw for r in rows] == ["africa", "america"]
    rows = db.exec_select(parse("select r_name from region where r_name like 'a_ia'"))
    assert [r[0].raw for r in rows] == ["asia"]
    rows = db.exec_select(parse(
        "select r_name from region where r_name not like '%a'"
    ))
    assert [r[0].raw for r in rows] == ["europe", "middle east"]


def test_date_comparison_is_lexicographic():
    db = Database()
    db.create_table("create table ev (k integer, d date, primary key (k))")
    db.load_csv("ev", io.StringIO("k,d\n1,1995-01-01\n2,1996-06-15\n3,1994-12-31\n"))
    rows = db.exec_select(parse("select k from ev where d >= '1995-01-01' and d < '1996-01-01'"))
    assert [r[0].raw for r in rows] == [1]


def test_arithmetic_integer_division_promotes_to_decimal():
    db = make_t123()
    rows = db.exec_select(parse("select a / 2 from t1"))
    v = rows[0][0]
    assert v.kind is ValueType.DECIMAL
    assert decimal_str(v.raw) == "3.5"


def test_arithmetic_type_mismatch_is_eval_error():
    db = region_db()
    with pytest.raises(EvalError):
        db.exec_select(parse("select r_name + 1 from region"))
    with pytest.raises(EvalError):
        db.exec_select(parse("select * from region where r_name > 3"))


def test_unknown_and_ambiguous_columns():
    db = make_t123()
    with pytest.raises(UnknownColumn):
        db.exec_select(parse("select zzz from t1"))
    with pytest.raises(AmbiguousColumn):
        # both t2 and t3 expose a column named b
        db.exec_select(parse("select b from t2, t3"))


def test_aggregates_over_full_result():
    db = Database()
    db.create_table("create table n (k integer, v decimal, primary key (k))")
    db.load_csv("n", io.StringIO("k,v\n1,1.50\n2,2.25\n3,\n"))
    rows = db.exec_select(parse(
        "select count(*), count(v), (sum(v) as s), (avg(v) as m), min(v), max(v) from n"
    ))
    (cstar, cv, s, m, mn, mx), = rows
    assert cstar.raw == 3 and cv.raw == 2
    assert decimal_str(s.raw) == "3.75"
    assert decimal_str(m.raw) == "1.875"
    assert decimal_str(mn.raw) == "1.5" and decimal_str(mx.raw) == "2.25"


def test_aggregate_on_empty_input():
    db = Database()
    db.create_table("create table n (k integer, v decimal, primary key (k))")
    rows = db.exec_select(parse("select count(*), sum(v) from n"))
    assert rows[0][0].raw == 0
    assert rows[0][1].is_null


def test_derived_table_materialized_first():
    db = make_t123()
    rows = db.exec_select(parse(
        "select r1.s from (select s, b from t2) as r1 where r1.b = 9"
    ))
    assert rows_to_raw(rows) == [(8,)]


# --- mutations ----------------------------------------------------------------------

def test_insert_then_select_by_pk():
    db = region_db()
    db.apply_row_insert("region", (
        Value.integer(7), Value.text("atlantis"), NULL,
    ))
    rows = db.exec_select(parse("select r_name from region where r_regionkey = 7"))
    assert rows[0][0].raw == "atlantis"


def test_update_nonexistent_pk_raises():
    db = region_db()
    with pytest.raises(NoSuchRow):
        db.apply_row_update("region", (Value.integer(99),),
                            (Value.integer(99), Value.text("x"), NULL))


def test_delete_decrements_count():
    db = region_db()
    before = db.row_count("region")
    db.apply_row_delete("region", (Value.integer(0),))
    assert db.row_count("region") == before - 1


def test_raw_mutate_changes_stored_value_quietly():
    db = region_db()
    db.raw_mutate("region", (Value.integer(0),), "r_name", Value.text("XXXX"))
    rows = db.exec_select(parse("select r_name from region where r_regionkey = 0"))
    assert rows[0][0].raw == "XXXX"


def test_pk_uniqueness_after_mutations():
    db = region_db()
    with pytest.raises(DuplicatePrimaryKey):
        db.apply_row_insert("region", (Value.integer(0), Value.text("x"), NULL))
    db.apply_row_delete("region", (Value.integer(0),))
    db.apply_row_insert("region", (Value.integer(0), Value.text("x"), NULL))
    assert db.row_count("region") == 5


def test_clone_is_independent():
    db = region_db()
    db2 = db.clone()
    db2.apply_row_delete("region", (Value.integer(0),))
    assert db.row_count("region") == 5
    assert db2.row_count("region") == 4


# --- brute-force join oracle -----------------------------------------------------

def test_exec_matches_brute_force_on_random_small_joins():
    gen = RandomDbGen(seed=20240803)
    for i in range(60):
        db = gen.make_db()
        sql = gen.make_query(db, allow_derived=False)
        q = parse(sql)
        got = as_multiset(rows_to_raw(db.exec_select(q)))
        want = as_multiset(normalize_raw(brute_force_select(db, q)))
        assert got == want, f"case {i}: {sql}"
