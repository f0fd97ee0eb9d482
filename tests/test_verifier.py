"""Verified pipeline: bootstrap, the four statement flows, detection, audits."""

import hashlib
import io

import pytest
from hypothesis import given, settings, strategies as st

import verity.storage
import verity.verifier
from conftest import make_t123, make_verified, rows_to_raw
from verity.errors import (
    DuplicateColumn,
    DuplicatePrimaryKey,
    DuplicateRowId,
    EvalError,
    LedgerError,
    NonScalarSubquery,
    NullPrimaryKey,
    PkUpdateUnsupported,
    TamperDetected,
    UnknownColumn,
    UnsupportedFeature,
    VerityError,
)
from verity.fingerprint import row_id
from verity.ledger import SimulatedLedger, TxDraft, TxKind, generate_peers
from verity.parser import parse
from verity.sqlast import QueryKind
from verity.storage import Database
from verity.values import NULL, Value
from verity.verifier import CACHED_STATEMENTS, MutationSummary, Verifier


def update_example_db():
    """Tables for the documented scalar-subquery UPDATE:
    UPDATE T1 SET T1.a = (SELECT a FROM T2 WHERE T2.key=1234) WHERE T1.b = 4567
    """
    db = Database()
    db.create_table("create table t1 (id integer, a integer, b integer, primary key (id))")
    db.create_table("create table t2 (key integer, a integer, primary key (key))")
    db.load_csv("t1", io.StringIO("id,a,b\n1,10,4567\n2,20,9\n"))
    db.load_csv("t2", io.StringIO("key,a\n1234,777\n5,888\n"))
    return db


# --- bootstrap -------------------------------------------------------------------

def test_bootstrap_counts_and_ledger_state(t123_db):
    ledger, verifier = make_verified(t123_db)
    assert ledger.get_row_count("t1") == 1
    assert ledger.get_row_count("t2") == 1
    assert len(ledger.scan_active()) == 3


def test_bootstrap_empty_table():
    db = Database()
    db.create_table("create table empty (a integer, primary key (a))")
    ledger, verifier = make_verified(db)
    assert ledger.get_row_count("empty") == 0
    assert ledger.scan_active("empty") == []


def test_rerunning_bootstrap_fails_with_duplicate_row_id(t123_db):
    ledger, verifier = make_verified(t123_db)
    with pytest.raises(DuplicateRowId):
        verifier.bootstrap()


# --- verified SELECT ----------------------------------------------------------------

def test_clean_select_returns_rows_and_report(t123_db):
    _, verifier = make_verified(t123_db)
    rows, report = verifier.process("select * from t1")
    assert rows_to_raw(rows) == [(1, 2, 7)]
    assert report.outcome == "verified"
    assert report.tuples_checked == 1
    assert report.tables_touched == ["t1"]


def test_nested_select_checks_every_source_tuple(t123_db):
    _, verifier = make_verified(t123_db)
    rows, report = verifier.process(
        "SELECT t1.a, r1.b, t3.c FROM t1, (SELECT a, b FROM t2) AS r1, t3 "
        "WHERE t1.a=r1.a AND r1.b=t3.b"
    )
    assert rows_to_raw(rows) == [(7, 9, 4)]
    assert report.tuples_checked == 3  # one tuple from each base table


def test_self_join_checks_each_row_once():
    db = Database()
    db.create_table("create table nation (k integer, name text, primary key (k))")
    db.load_csv("nation", io.StringIO("k,name\n1,india\n2,france\n"))
    _, verifier = make_verified(db)
    rows, report = verifier.process(
        "select n1.name from (nation as n1), (nation as n2) where n1.k = n2.k"
    )
    assert len(rows) == 2
    assert report.tuples_checked == 2  # distinct row ids, not 4


def test_join_fingerprints_each_distinct_row_once(monkeypatch):
    db = Database()
    db.load_ddl("create table c (k integer, primary key (k));"
                "create table o (k integer, ck integer, primary key (k))")
    db.load_csv("c", io.StringIO("k\n1\n2\n"))
    db.load_csv("o", io.StringIO("k,ck\n10,1\n11,1\n12,1\n13,2\n"))
    _, verifier = make_verified(db)
    fingerprinted = []
    fingerprint = verity.verifier.fingerprint
    monkeypatch.setattr(verity.verifier, "fingerprint",
                        lambda rid, tup: fingerprinted.append(rid) or fingerprint(rid, tup))
    rows, report = verifier.process("select * from o, c where o.ck = c.k")
    assert len(rows) == 4
    assert (report.tuples_seen, report.tuples_checked) == (8, 6)
    assert sorted(fingerprinted) == sorted(set(fingerprinted)) and len(fingerprinted) == 6


def test_update_and_delete_reuse_the_fingerprints_their_select_verified(monkeypatch):
    db = Database()
    db.create_table("create table t (k integer, v integer, primary key (k))")
    db.load_csv("t", io.StringIO("k,v\n" + "".join(f"{k},{k}\n" for k in range(100))))
    ledger, verifier = make_verified(db)
    calls = {"fingerprint": 0, "fingerprint_tuple": 0}
    for name in calls:
        original = getattr(verity.verifier, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(verity.verifier, name, counted)

    summary, _ = verifier.process("update t set v = v + 1 where k < 50")
    assert summary.rows_affected == 50
    assert calls == {"fingerprint": 100, "fingerprint_tuple": 0}  # verify old, new
    calls.update(fingerprint=0)
    summary, _ = verifier.process("delete from t where k >= 90")
    assert summary.rows_affected == 10
    assert calls == {"fingerprint": 10, "fingerprint_tuple": 0}  # verify old only
    monkeypatch.undo()
    assert ledger.verify_chain().ok
    assert verifier.audit_full() == ([], [])
    assert verifier.audit_counts() == []


@pytest.mark.parametrize("sql, n", [
    ("update t set v = 0 where k < 2", 2),
    ("update t set v = v + 1 where k >= 3", 4),
    ("delete from t where k < 4", 4),
    ("delete from t where k = 6", 1),
])
def test_update_and_delete_hash_each_target_row_id_once(monkeypatch, sql, n):
    """The row ids the SELECT check computed are the ones the mutation uses."""
    db = Database()
    db.create_table("create table t (k integer, v integer, primary key (k))")
    db.load_csv("t", io.StringIO("k,v\n" + "".join(f"{k},{k}\n" for k in range(7))))
    ledger, verifier = make_verified(db)
    row_ids = []
    original = verity.verifier.row_id
    monkeypatch.setattr(verity.verifier, "row_id",
                        lambda pk, table: row_ids.append(pk) or original(pk, table))
    summary, _ = verifier.process(sql)
    assert summary.rows_affected == n
    assert len(row_ids) == len(set(row_ids)) == n
    monkeypatch.undo()
    assert verifier.audit_full() == ([], [])
    assert verifier.audit_counts() == []


def test_update_commits_the_fingerprint_its_scalar_subquery_verified():
    db = Database()
    db.create_table("create table t (k integer, v integer, primary key (k))")
    db.load_csv("t", io.StringIO("k,v\n1,10\n2,20\n3,30\n"))
    ledger, verifier = make_verified(db)
    rids = [row_id((Value.integer(k),), "t") for k in (1, 2)]
    before = [ledger.get_current(rid).fingerprint for rid in rids]
    blocks = []
    submit = ledger.submit
    ledger.submit = lambda drafts, who: blocks.append(submit(drafts, who)) or blocks[-1]
    summary, report = verifier.process(
        "update t set v = (select v from t where k = 1) where k <= 2")
    assert summary.rows_affected == 2
    assert report.tuples_checked == 2  # row 1 is read twice, verified once
    # the block passed the ledger's validation, which rejects a stale
    # prev_fingerprint, and carries each row's bootstrapped fingerprint
    [block] = blocks
    assert [(tx.draft.row_id, tx.draft.prev_fingerprint) for tx in block.txs] == \
        list(zip(rids, before))
    assert ledger.verify_chain().ok
    rows, _ = verifier.process("select v from t")
    assert [r[0].raw for r in rows] == [10, 10, 30]


def test_tampered_row_detected_and_rows_withheld(t123_db):
    _, verifier = make_verified(t123_db)
    t123_db.raw_mutate("t2", (Value.integer(7),), "s", Value.integer(999))
    with pytest.raises(TamperDetected) as exc:
        verifier.process("select * from t2")
    assert len(exc.value.alerts) == 1
    alert = exc.value.alerts[0]
    assert alert.table == "t2"
    assert alert.expected != alert.computed
    assert exc.value.report.outcome == "tampered"


def test_tamper_outside_where_clause_not_detected(t123_db):
    # detection is access-triggered: rows the query never touches stay unchecked
    db = Database()
    db.create_table("create table t (k integer, v text, primary key (k))")
    db.load_csv("t", io.StringIO("k,v\n1,a\n2,b\n"))
    _, verifier = make_verified(db)
    db.raw_mutate("t", (Value.integer(2),), "v", Value.text("evil"))
    rows, report = verifier.process("select * from t where k = 1")
    assert report.outcome == "verified"
    assert len(rows) == 1


def test_raw_delete_is_invisible_to_select_but_absent_rid_alerts():
    db = Database()
    db.create_table("create table t (k integer, v text, primary key (k))")
    db.load_csv("t", io.StringIO("k,v\n1,a\n"))
    _, verifier = make_verified(db)
    db.apply_row_insert("t", (Value.integer(9), Value.text("dummy")))
    with pytest.raises(TamperDetected) as exc:
        verifier.process("select * from t")
    assert exc.value.alerts[0].expected == "ABSENT"


def test_select_on_deleted_marked_row_alerts():
    db = Database()
    db.create_table("create table t (k integer, v text, primary key (k))")
    db.load_csv("t", io.StringIO("k,v\n1,a\n"))
    _, verifier = make_verified(db)
    verifier.process("delete from t where k = 1")
    # attacker restores the row out of band; its ledger record says deleted
    db.apply_row_insert("t", (Value.integer(1), Value.text("a")))
    with pytest.raises(TamperDetected) as exc:
        verifier.process("select * from t")
    assert exc.value.alerts[0].expected == "DELETED"


def test_released_rows_equal_direct_execution(t123_db):
    _, verifier = make_verified(t123_db)
    sql = "select t1.a, t2.b from t1, t2 where t1.a = t2.a"
    rows, _ = verifier.process(sql)
    assert rows == t123_db.exec_select(parse(sql))


@pytest.mark.parametrize("sql", [
    "select d * 10 from c",
    "select d / 0.1 from c where k = 1",
    "select sum(d) from c",
    "select avg(d) from c",
])
def test_decimal_past_the_exponent_limit_is_an_eval_error(sql):
    db = Database()
    db.create_table("create table c (k integer, d decimal, primary key (k))")
    db.load_csv("c", io.StringIO("k,d\n1,9E+999999\n2,9E+999999\n"))
    _, verifier = make_verified(db, peers=1)
    with pytest.raises(EvalError, match="^decimal overflow"):
        verifier.process(sql)


# --- verified UPDATE -----------------------------------------------------------------

def test_update_example_end_to_end():
    db = update_example_db()
    ledger, verifier = make_verified(db)
    summary, report = verifier.process(
        "UPDATE t1 SET t1.a = (SELECT a FROM t2 WHERE t2.key=1234) WHERE t1.b = 4567"
    )
    assert isinstance(summary, MutationSummary)
    assert summary.rows_affected == 1
    assert summary.ledger_txs == 1
    # subquery tuple + old tuple verified
    assert report.tuples_checked == 2
    assert report.tuples_mutated == 1
    rows = db.exec_select(parse("select a from t1 where id = 1"))
    assert rows[0][0].raw == 777
    # further verified reads still pass (new fingerprint was recorded)
    rows, rep2 = verifier.process("select * from t1")
    assert rep2.outcome == "verified"


def test_update_subquery_two_rows_aborts_with_nothing_committed():
    db = update_example_db()
    db.apply_row_insert("t2", (Value.integer(1235), Value.integer(999)))
    ledger, verifier = make_verified(db)
    head_before = ledger.head_height
    with pytest.raises(NonScalarSubquery):
        verifier.process(
            "UPDATE t1 SET a = (SELECT a FROM t2 WHERE t2.key > 0) WHERE t1.b = 4567"
        )
    assert ledger.head_height == head_before
    assert db.exec_select(parse("select a from t1 where id = 1"))[0][0].raw == 10


def test_update_zero_matches_commits_no_block():
    db = update_example_db()
    ledger, verifier = make_verified(db)
    head = ledger.head_height
    summary, report = verifier.process("update t1 set a = 5 where b = 424242")
    assert summary.rows_affected == 0
    assert summary.block_height is None
    assert ledger.head_height == head


def test_update_primary_key_rejected():
    db = update_example_db()
    _, verifier = make_verified(db)
    with pytest.raises(PkUpdateUnsupported):
        verifier.process("update t1 set id = 99 where b = 4567")


def test_update_expression_references_old_row():
    db = update_example_db()
    _, verifier = make_verified(db)
    verifier.process("update t1 set a = a + 5 where id = 2")
    assert db.exec_select(parse("select a from t1 where id = 2"))[0][0].raw == 25


def test_update_detects_tampered_old_rows():
    db = update_example_db()
    ledger, verifier = make_verified(db)
    db.raw_mutate("t1", (Value.integer(1),), "a", Value.integer(11))
    head = ledger.head_height
    with pytest.raises(TamperDetected):
        verifier.process("update t1 set a = 0 where b = 4567")
    assert ledger.head_height == head  # nothing committed
    assert db.exec_select(parse("select a from t1 where id = 1"))[0][0].raw == 11


def test_update_detects_tampered_subquery_rows():
    db = update_example_db()
    _, verifier = make_verified(db)
    db.raw_mutate("t2", (Value.integer(1234),), "a", Value.integer(0))
    with pytest.raises(TamperDetected):
        verifier.process("update t1 set a = (select a from t2 where t2.key=1234)")


class FailingLedger:
    """Stand-in that accepts reads but rejects every submission."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def submit(self, drafts, submitter):
        raise LedgerError("simulated ledger outage")


def test_ledger_failure_leaves_storage_unchanged():
    db = update_example_db()
    ledger, verifier = make_verified(db)
    broken = Verifier(db, FailingLedger(ledger), "peer-1")
    with pytest.raises(LedgerError):
        broken.process("update t1 set a = 0 where b = 4567")
    assert db.exec_select(parse("select a from t1 where id = 1"))[0][0].raw == 10
    with pytest.raises(LedgerError):
        broken.process("insert into t2 (key, a) values (77, 1)")
    assert db.row_count("t2") == 2
    with pytest.raises(LedgerError):
        broken.process("delete from t1 where id = 1")
    assert db.row_count("t1") == 2


# --- verified INSERT -----------------------------------------------------------------

def test_insert_values_single_row_adjusts_count():
    db = Database()
    db.create_table("create table nation (n_nationkey integer, n_name text, "
                    "n_regionkey integer, n_comment text, primary key (n_nationkey))")
    db.load_csv("nation", io.StringIO(
        "n_nationkey,n_name,n_regionkey,n_comment\n" +
        "".join(f"{i},nation{i},0,c\n" for i in range(25))
    ))
    ledger, verifier = make_verified(db)
    assert ledger.get_row_count("nation") == 25
    summary, report = verifier.process(
        "insert into nation (n_nationkey, n_name, n_regionkey, n_comment) values "
        "( 93793619 ,'algeria', 123454556741 ,'haggle detect slyly agai')"
    )
    assert summary.rows_affected == 1
    assert summary.ledger_txs == 2  # one put + one count adjustment
    assert ledger.get_row_count("nation") == 26
    assert db.row_count("nation") == 26


def test_insert_five_rows_one_block():
    db = Database()
    db.create_table("create table c (k integer, name text, primary key (k))")
    ledger, verifier = make_verified(db)
    summary, _ = verifier.process(
        "insert into c (k, name) values (1,'a'), (2,'b'), (3,'c'), (4,'d'), (5,'e')"
    )
    assert summary.rows_affected == 5
    block_heights = {summary.block_height}
    assert len(block_heights) == 1 and summary.block_height is not None
    assert ledger.get_row_count("c") == 5


def test_insert_unlisted_columns_become_null():
    db = Database()
    db.create_table("create table c (k integer, name text, note text, primary key (k))")
    _, verifier = make_verified(db)
    verifier.process("insert into c (k, name) values (1, 'x')")
    row = next(db.rows_of("c"))
    assert row[2].is_null


@pytest.mark.parametrize("sql", [
    "insert into c (name) values ('x')",                          # key column omitted
    "insert into c (k, name) select v, t from src where id = 2",  # a NULL key selected
    "insert into c (k, name) select v, t from src",               # one NULL in a batch
    "insert into c (k, name) values (null, 'x')",                 # a NULL key literal
])
def test_insert_with_a_null_primary_key_is_refused_before_the_ledger(sql):
    db = Database()
    db.create_table("create table c (k integer, name text, primary key (k))")
    db.create_table("create table src (id integer, v integer, t text, primary key (id))")
    db.load_csv("c", io.StringIO("k,name\n5,e\n"))
    db.load_csv("src", io.StringIO("id,v,t\n1,7,a\n2,,b\n"))
    ledger, verifier = make_verified(db)
    head = ledger.head_height
    with pytest.raises(NullPrimaryKey):
        verifier.process(sql)
    assert ledger.head_height == head
    assert ledger.get_row_count("c") == db.row_count("c") == 1


def _null_literal_db():
    db = Database()
    db.create_table("create table c (k integer, name text, d decimal, primary key (k))")
    db.load_csv("c", io.StringIO("k,name,d\n5,e,1.5\n"))
    return db


def test_null_literal_in_values_stores_null_like_an_omitted_column():
    db_literal, db_omitted = _null_literal_db(), _null_literal_db()
    ledger_literal, v_literal = make_verified(db_literal)
    ledger_omitted, v_omitted = make_verified(db_omitted)
    v_literal.process("insert into c (k, name, d) values (1, null, NULL)")
    v_omitted.process("insert into c (k) values (1)")
    rows, _ = v_literal.process("select name, d from c where k = 1")
    assert rows == [(NULL, NULL)]
    rid = row_id([Value.integer(1)], "c")
    assert ledger_literal.get_current(rid).fingerprint == \
        ledger_omitted.get_current(rid).fingerprint
    assert v_literal.audit_full() == ([], [])


def test_update_set_null_literal_stores_null():
    db = _null_literal_db()
    ledger, verifier = make_verified(db)
    summary, _ = verifier.process("update c set name = null, d = null where k = 5")
    assert summary.rows_affected == 1
    rows, _ = verifier.process("select * from c")
    assert rows == [(Value.integer(5), NULL, NULL)]
    assert verifier.audit_full() == ([], [])


def test_insert_select_verifies_source_and_copies():
    db = make_t123()
    db.create_table("create table archive (a integer, s integer, primary key (a))")
    ledger, verifier = make_verified(db)
    summary, report = verifier.process(
        "insert into archive (a, s) select a, s from t2 where b = 9"
    )
    assert summary.rows_affected == 1
    assert report.tuples_checked == 1  # the t2 source row was verified
    assert ledger.get_row_count("archive") == 1


def test_insert_select_from_tampered_source_aborts():
    db = make_t123()
    db.create_table("create table archive (a integer, s integer, primary key (a))")
    ledger, verifier = make_verified(db)
    db.raw_mutate("t2", (Value.integer(7),), "s", Value.integer(0))
    head = ledger.head_height
    with pytest.raises(TamperDetected):
        verifier.process("insert into archive (a, s) select a, s from t2")
    assert db.row_count("archive") == 0
    assert ledger.head_height == head


def test_insert_into_own_source_table_rejected():
    db = make_t123()
    _, verifier = make_verified(db)
    with pytest.raises(UnsupportedFeature):
        verifier.process("insert into t2 (a, s, b) select a + 100, s, b from t2")


def test_insert_duplicate_pk_rejected_before_ledger():
    db = make_t123()
    ledger, verifier = make_verified(db)
    head = ledger.head_height
    with pytest.raises(DuplicatePrimaryKey):
        verifier.process("insert into t2 (a, s, b) values (7, 0, 0)")
    assert ledger.head_height == head


# --- verified DELETE -----------------------------------------------------------------

def test_delete_marks_and_removes():
    db = Database()
    db.create_table("create table s (k integer, g integer, primary key (k))")
    db.load_csv("s", io.StringIO("k,g\n" + "".join(f"{i},{i % 3}\n" for i in range(12))))
    ledger, verifier = make_verified(db)
    summary, report = verifier.process("delete from s where g = 0")
    assert summary.rows_affected == 4
    assert summary.ledger_txs == 5  # 4 mark-deleted + 1 count adjustment
    assert ledger.get_row_count("s") == 8
    assert db.row_count("s") == 8
    assert report.tuples_checked == 4  # verified before deletion


def test_delete_zero_matches_no_block():
    db = make_t123()
    ledger, verifier = make_verified(db)
    head = ledger.head_height
    summary, _ = verifier.process("delete from t1 where x = 123456")
    assert summary.rows_affected == 0
    assert ledger.head_height == head


def test_delete_of_tampered_row_aborts():
    db = make_t123()
    ledger, verifier = make_verified(db)
    db.raw_mutate("t1", (Value.integer(1),), "y", Value.integer(0))
    with pytest.raises(TamperDetected):
        verifier.process("delete from t1 where x = 1")
    assert db.row_count("t1") == 1  # zero deletions


def test_insert_then_delete_restores_count():
    db = Database()
    db.create_table("create table nation (k integer, name text, primary key (k))")
    db.load_csv("nation", io.StringIO("k,name\n1,india\n"))
    ledger, verifier = make_verified(db)
    verifier.process("insert into nation (k, name) values (93793619, 'algeria')")
    assert ledger.get_row_count("nation") == 2
    summary, _ = verifier.process("delete from nation where k = 93793619")
    assert summary.rows_affected == 1
    assert ledger.get_row_count("nation") == 1


# --- audits ---------------------------------------------------------------------------

def test_audit_counts_clean(t123_db):
    _, verifier = make_verified(t123_db)
    assert verifier.audit_counts() == []


def test_audit_counts_catches_raw_delete():
    db = Database()
    db.create_table("create table li (k integer, v text, primary key (k))")
    db.load_csv("li", io.StringIO("k,v\n" + "".join(f"{i},w\n" for i in range(10))))
    _, verifier = make_verified(db)
    db.apply_row_delete("li", (Value.integer(3),))
    mismatches = verifier.audit_counts()
    assert len(mismatches) == 1
    m = mismatches[0]
    assert (m.table, m.db_count, m.ledger_count) == ("li", 9, 10)


def test_audit_counts_fooled_by_delete_plus_dummy_insert():
    db = Database()
    db.create_table("create table li (k integer, v text, primary key (k))")
    db.load_csv("li", io.StringIO("k,v\n" + "".join(f"{i},w\n" for i in range(10))))
    _, verifier = make_verified(db)
    db.apply_row_delete("li", (Value.integer(3),))
    db.apply_row_insert("li", (Value.integer(99), Value.text("dummy")))
    assert verifier.audit_counts() == []  # the count audit cannot see this


def test_audit_full_catches_delete_plus_dummy_insert():
    db = Database()
    db.create_table("create table li (k integer, v text, primary key (k))")
    db.load_csv("li", io.StringIO("k,v\n" + "".join(f"{i},w\n" for i in range(10))))
    _, verifier = make_verified(db)
    db.apply_row_delete("li", (Value.integer(3),))
    db.apply_row_insert("li", (Value.integer(99), Value.text("dummy")))
    alerts, missing = verifier.audit_full()
    assert len(alerts) == 1 and alerts[0].expected == "ABSENT"
    assert len(missing) == 1


def test_audit_full_clean_state(t123_db):
    _, verifier = make_verified(t123_db)
    alerts, missing = verifier.audit_full()
    assert alerts == [] and missing == []


def test_audit_full_one_mutation_one_alert(t123_db):
    _, verifier = make_verified(t123_db)
    t123_db.raw_mutate("t3", (Value.integer(4),), "d", Value.integer(0))
    alerts, missing = verifier.audit_full()
    assert len(alerts) == 1 and missing == []
    assert alerts[0].table == "t3"


def test_audit_full_flags_superset_of_counts():
    db = Database()
    db.create_table("create table li (k integer, v text, primary key (k))")
    db.load_csv("li", io.StringIO("k,v\n" + "".join(f"{i},w\n" for i in range(10))))
    _, verifier = make_verified(db)
    db.apply_row_delete("li", (Value.integer(3),))
    count_tables = {m.table for m in verifier.audit_counts()}
    alerts, missing = verifier.audit_full()
    full_tables = {a.table for a in alerts} | {m.table for m in missing}
    assert count_tables <= full_tables


# --- alert log --------------------------------------------------------------------------

def test_alert_log_lines(tmp_path, t123_db):
    ledger = SimulatedLedger(generate_peers(5), clock=lambda: 1_700_000_000)
    log = tmp_path / "alerts.log"
    verifier = Verifier(t123_db, ledger, "peer-1", clock=lambda: 1_700_000_000,
                        audit_log=str(log))
    verifier.bootstrap()
    t123_db.raw_mutate("t1", (Value.integer(1),), "y", Value.integer(3))
    with pytest.raises(TamperDetected):
        verifier.process("select * from t1")
    lines = log.read_text().strip().split("\n")
    assert len(lines) == 1
    fields = lines[0].split("\t")
    assert len(fields) == 6
    assert fields[1] == "t1"
    assert fields[5] == hashlib.sha256(b"select * from t1").hexdigest()
    assert fields[0].startswith("2023-11-")  # ISO timestamp from the fixed clock


# --- direct AST entry points and re-insert flow -------------------------------------

def test_verified_ast_entry_points(t123_db):
    _, verifier = make_verified(t123_db)
    rows, report = verifier.process("select * from t1")
    assert report.query_kind is QueryKind.SELECT and len(rows) == 1
    assert report.columns == ["x", "y", "a"]

    summary, report = verifier.process("insert into t1 (x, y, a) values (2, 0, 0)")
    assert report.query_kind is QueryKind.INSERT and summary.rows_affected == 1

    summary, report = verifier.process("update t1 set y = 42 where x = 2")
    assert report.query_kind is QueryKind.UPDATE and summary.rows_affected == 1

    summary, report = verifier.process("delete from t1 where x = 2")
    assert report.query_kind is QueryKind.DELETE and summary.rows_affected == 1
    assert report.columns == []


def test_verified_reinsert_after_delete_reactivates_row_id():
    db = Database()
    db.create_table("create table t (k integer, v text, primary key (k))")
    db.load_csv("t", io.StringIO("k,v\n1,a\n"))
    ledger, verifier = make_verified(db)
    verifier.process("delete from t where k = 1")
    verifier.process("insert into t (k, v) values (1, 'reborn')")
    rows, report = verifier.process("select * from t")
    assert report.outcome == "verified"
    assert rows[0][1].raw == "reborn"
    rid = next(iter(ledger.scan_active("t"))).row_id
    assert [e.height for e in ledger.history(rid)] == sorted(
        e.height for e in ledger.history(rid)
    )
    assert ledger.get_row_count("t") == 1


def test_owner_attribution_per_principal():
    db = Database()
    db.create_table("create table t (k integer, v text, primary key (k))")
    db.load_csv("t", io.StringIO("k,v\n1,a\n"))
    ledger, verifier = make_verified(db)
    verifier.process("update t set v = 'x' where k = 1", principal="peer-3")
    rid = ledger.scan_active("t")[0].row_id
    history = ledger.history(rid)
    assert history[-1].owner == "peer-3"
    assert history[0].owner == "peer-1"  # bootstrap principal


def test_raw_vs_distinct_tuple_counts_on_duplicating_join():
    # a non-key join duplicates wide rows; raw occurrences are reported
    # alongside the distinct row ids actually verified
    db = Database()
    db.create_table("create table a (k integer, g integer, primary key (k))")
    db.create_table("create table b (k integer, g integer, primary key (k))")
    db.load_csv("a", io.StringIO("k,g\n1,0\n2,0\n"))
    db.load_csv("b", io.StringIO("k,g\n1,0\n2,0\n3,1\n"))
    _, verifier = make_verified(db)
    rows, report = verifier.process("select a.k from a, b where a.g = b.g")
    assert len(rows) == 4                 # 2 x 2 join
    assert report.tuples_seen == 8        # 4 rows x 2 exposures
    assert report.tuples_checked == 4     # 2 distinct per table


# --- the statement's report, on every path -------------------------------------------

def test_select_report_names_phases_columns_and_tables_in_order(t123_db):
    _, verifier = make_verified(t123_db)
    _, report = verifier.process("select t2.s, t1.x from t2, t1 where t1.a = t2.a")
    assert list(report.elapsed) == list(verity.verifier.PHASES)
    assert report.query_kind is QueryKind.SELECT
    assert report.columns == ["s", "x"]
    assert report.tables_touched == ["t2", "t1"]
    assert (report.tuples_checked, report.tuples_seen) == (2, 2)
    assert (report.tuples_mutated, report.ledger_txs_committed) == (0, 0)


def test_insert_report_counts_each_put_and_the_row_count_tx(t123_db):
    _, verifier = make_verified(t123_db)
    _, report = verifier.process("insert into t1 (x, y, a) values (2, 0, 7), (3, 0, 7)")
    assert list(report.elapsed) == list(verity.verifier.PHASES)
    assert report.ledger_txs_committed == 3  # two PUTs, one row-count tx
    assert report.tuples_mutated == 2
    assert report.tuples_checked == 0
    assert report.columns == []
    assert report.tables_touched == ["t1"]
    assert report.outcome == "verified"


def test_tamper_in_an_update_subquery_reports_what_was_checked_when_raised():
    db = update_example_db()
    ledger, verifier = make_verified(db)
    db.raw_mutate("t2", (Value.integer(1234),), "a", Value.integer(0))
    with pytest.raises(TamperDetected) as exc:
        verifier.process("update t1 set a = (select max(a) from t2) where b = 4567")
    report = exc.value.report
    assert report.outcome == "tampered"
    assert report.alerts == exc.value.alerts
    assert [a.table for a in report.alerts] == ["t2"]
    assert report.tuples_checked == 2  # both t2 rows; no t1 row was reached
    assert report.tables_touched == ["t1", "t2"]
    assert report.query_kind is QueryKind.UPDATE
    assert (report.tuples_mutated, report.ledger_txs_committed) == (0, 0)
    assert report.elapsed["ledger_commit"] == 0.0


# --- the verified-row memo -------------------------------------------------------------

def memo_db():
    db = Database()
    db.load_ddl("create table c (k integer, name text, primary key (k));"
                "create table o (k integer, ck integer, v integer, primary key (k));"
                "create table l (k integer, ok integer, q integer, primary key (k))")
    db.load_csv("c", io.StringIO("k,name\n1,ann\n2,bob\n3,cy\n"))
    db.load_csv("o", io.StringIO("k,ck,v\n10,1,5\n11,1,6\n12,2,7\n13,3,8\n"))
    db.load_csv("l", io.StringIO("k,ok,q\n100,10,1\n101,10,2\n102,12,3\n103,13,4\n"))
    return db


def count_hashing(monkeypatch) -> dict:
    """Count the verifier's calls of ``fingerprint`` and ``row_id``."""
    calls = {"fingerprint": 0, "row_id": 0}
    for name in calls:
        original = getattr(verity.verifier, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(verity.verifier, name, counted)
    return calls


MEMO_QUERIES = [
    "select * from o",
    "select o.v, c.name from o, c where o.ck = c.k",
    "select r.name from (select k, name from c where k > 1) as r",
    "select l.q, o.v, c.name from l, o, c where l.ok = o.k and o.ck = c.k",
    "select * from o, (select k, name from c) as r where o.ck = r.k",  # base and derived
    "select r.name, o.v from (select k, name from c where k > 1) as r, o where o.ck = r.k",
    "select a.k, b.k from o as a, o as b where a.ck = b.ck",
    "select r.q, r.name from (select l.q, c.name from l, o, c "  # derived over a join
    "where l.ok = o.k and o.ck = c.k) as r",
    "select s.name, s.v2 from (select r.name, r.v * 2 as v2 from "  # nested derived
    "(select c.name, o.v from c, o where o.ck = c.k) as r where r.v > 5) as s",
]
# per table: the key, column, tampered value and stored value a raw_mutate swaps
MEMO_TAMPER = {
    "c": (2, "name", Value.text("bo"), Value.text("bob")),
    "o": (12, "v", Value.integer(70), Value.integer(7)),
    "l": (102, "q", Value.integer(30), Value.integer(3)),
}


@pytest.mark.parametrize("sql", MEMO_QUERIES)
def test_a_repeated_select_reuses_the_verified_rows(monkeypatch, sql):
    db = memo_db()
    _, verifier = make_verified(db)
    calls = count_hashing(monkeypatch)
    first_rows, first = verifier.process(sql)
    assert first.tuples_fingerprinted == first.tuples_checked > 0
    assert calls["fingerprint"] == first.tuples_checked
    calls.update(fingerprint=0, row_id=0)
    rows, report = verifier.process(sql)
    assert calls == {"fingerprint": 0, "row_id": 0}
    assert report.tuples_fingerprinted == 0
    assert rows == first_rows
    assert report.checked == first.checked
    assert (report.tuples_checked, report.tuples_seen) == (first.tuples_checked,
                                                           first.tuples_seen)


@pytest.mark.parametrize("sql", MEMO_QUERIES)
def test_a_warm_verifier_alerts_on_a_raw_mutate_as_a_fresh_one_does(sql):
    db = memo_db()
    ledger, verifier = make_verified(db)
    clean_rows, clean = verifier.process(sql)
    for table in clean.tables_touched:
        key, column, tampered, stored = MEMO_TAMPER[table]
        db.raw_mutate(table, (Value.integer(key),), column, tampered)
        fresh = Verifier(db.clone(), ledger.clone_in_memory(), "peer-1",
                         clock=lambda: 1_700_000_000)
        with pytest.raises(TamperDetected) as expected:
            fresh.process(sql)
        for _ in range(2):  # a tampered row is never memoised: it alerts every time
            with pytest.raises(TamperDetected) as warm:
                verifier.process(sql)
            assert warm.value.alerts == expected.value.alerts
            assert [(a.table, a.expected != a.computed)
                    for a in warm.value.alerts] == [(table, True)]
        db.raw_mutate(table, (Value.integer(key),), column, stored)
        rows, report = verifier.process(sql)
        assert rows == clean_rows
        assert report.tuples_fingerprinted == 1  # only the restored row is new
    assert verifier.audit_full() == ([], [])


def test_a_memoised_row_still_alerts_when_the_ledger_changes():
    """Reuse covers the row id and fingerprint only: the ledger is asked
    about every tuple on every statement."""
    db = memo_db()
    ledger, verifier = make_verified(db)
    verifier.process("select * from c")
    rid = row_id((Value.integer(2),), "c")
    rec = ledger.get_current(rid)
    ledger.submit([TxDraft(TxKind.MARK_DELETED, "c", "peer-1", row_id=rid,
                           prev_fingerprint=rec.fingerprint)], "peer-1")
    with pytest.raises(TamperDetected) as exc:
        verifier.process("select * from c")
    assert [(a.row_id, a.expected, a.computed) for a in exc.value.alerts] == [
        (rid, "DELETED", rec.fingerprint)]
    assert exc.value.report.tuples_fingerprinted == 0


def test_a_null_key_alerts_as_absent_and_is_looked_up_nowhere(monkeypatch):
    """An edit that NULLs a key (no write stores one) alerts on every check
    that reads the row; it used to crash the check with NullPrimaryKey."""
    db = memo_db()
    ledger, verifier = make_verified(db)
    verifier.process("select * from o")  # memoises the row before the edit
    db.raw_mutate("o", (Value.integer(12),), "k", NULL)
    lookups = []
    get_current = ledger.get_current
    monkeypatch.setattr(ledger, "get_current", lambda rid: lookups.append(rid) or
                        get_current(rid))
    for sql in ("select * from o", "select count(*) from o", "select * from o",
                "select * from o, c where o.ck = c.k"):
        lookups.clear()
        with pytest.raises(TamperDetected) as exc:
            verifier.process(sql)
        [alert] = exc.value.alerts
        assert (alert.table, alert.expected) == ("o", "ABSENT")
        assert alert.row_id not in lookups and len(alert.row_id) != 64
        assert alert.row_id in exc.value.report.checked
    alerts, missing = verifier.audit_full()
    assert [(a.table, a.expected) for a in alerts] == [("o", "ABSENT")]
    assert [(m.row_id, m.table) for m in missing] == [(row_id((Value.integer(12),), "o"), "o")]


def test_the_memo_holds_only_stored_rows_and_a_clone_starts_without_it():
    db = memo_db()
    _, verifier = make_verified(db)
    verifier.process("select * from o")
    verifier.process("select r.v from (select o.v, c.name from o, c where o.ck = c.k) as r")
    stored, verified = db._table("o").rows, db.verified_rows("o")
    assert len(verified) == len(stored) == 4
    assert all(verified[id(row)][0] is row for row in stored.values())
    c_verified = db.verified_rows("c")  # filled through the derived table
    assert len(c_verified) == 3
    assert all(c_verified[id(row)][0] is row for row in db.rows_of("c"))
    assert db.clone().verified_rows("o") == {}
    verifier.process("update o set v = 0 where k = 10")  # stores a new, unchecked row
    verifier.process("delete from o where k = 11")
    assert len(stored) == 3
    assert set(verified) == {id(stored[(Value.integer(k),)]) for k in (12, 13)}


# One small table, one long-lived verifier against a fresh verifier (a clone
# of storage and ledger, so an empty memo) for every step.
MEMO_SELECTS = [
    "select * from t",
    "select v, s from t where k < 3",
    "select * from t where k = 2",
    "select a.k, b.v from (t as a), (t as b) where a.k = b.k",
    "select r.v from (select k, v from t where k >= 2) as r",
    "select sum(v) from t",
]
_KEY = st.integers(0, 6)
MEMO_STEPS = st.one_of(
    st.tuples(st.just("select"), st.sampled_from(MEMO_SELECTS)),
    st.tuples(st.just("update"), _KEY, st.integers(-3, 3), st.booleans()),
    st.tuples(st.just("insert"), _KEY),
    st.tuples(st.just("delete"), _KEY),
    st.tuples(st.just("raw_mutate"), _KEY, st.integers(-3, 3)),
    st.tuples(st.just("forge"), _KEY, st.booleans()),
    st.tuples(st.just("audit_full")),
)


def memo_step(verifier: Verifier, step):
    """Run one step; return what it released or raised, comparable with ==."""
    db, ledger = verifier.db, verifier.ledger
    kind, *args = step
    if kind == "raw_mutate" or kind == "forge":
        pk = (Value.integer(args[0]),)
        if not db.has_row("t", pk):
            return None
        if kind == "raw_mutate":
            db.raw_mutate("t", pk, "v", Value.integer(args[1]))
            return None
        rid = row_id(pk, "t")
        rec = ledger.get_current(rid)
        if rec is None or rec.status != "active":
            return None
        draft = (TxDraft(TxKind.MARK_DELETED, "t", "peer-1", row_id=rid,
                         prev_fingerprint=rec.fingerprint) if args[1] else
                 TxDraft(TxKind.UPDATE, "t", "peer-1", row_id=rid, fingerprint="0" * 64,
                         prev_fingerprint=rec.fingerprint))
        return ledger.submit([draft], "peer-1").height
    if kind == "audit_full":
        return verifier.audit_full()
    sql = {
        "select": lambda sql: sql,
        "update": lambda k, v, many: f"update t set v = v + {v} where k {'>=' if many else '='} {k}",
        "insert": lambda k: f"insert into t (k, v, s) values ({k}, {k}, 'n{k}')",
        "delete": lambda k: f"delete from t where k = {k}",
    }[kind](*args)
    try:
        payload, report = verifier.process(sql)
    except TamperDetected as exc:
        return ("tampered", exc.alerts, exc.report.checked, exc.report.tuples_seen)
    except (DuplicatePrimaryKey, LedgerError) as exc:
        return (type(exc).__name__, str(exc))
    return (payload, report.checked, report.tuples_seen, report.tuples_mutated,
            report.ledger_txs_committed)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(MEMO_STEPS, min_size=1, max_size=16))
def test_a_long_lived_verifier_matches_a_fresh_one_at_every_step(steps):
    db = Database()
    db.create_table("create table t (k integer, v integer, s text, primary key (k))")
    db.load_csv("t", io.StringIO("k,v,s\n" + "".join(f"{k},{k},s{k}\n" for k in range(5))))
    ledger, verifier = make_verified(db)
    for step in steps:
        fresh = Verifier(db.clone(), ledger.clone_in_memory(), "peer-1",
                         clock=lambda: 1_700_000_000)
        assert memo_step(verifier, step) == memo_step(fresh, step), step


# --- prepared statements ---------------------------------------------------------------

def count_preparing(monkeypatch) -> dict:
    """Count the verifier's parses, rewrites and storage bindings."""
    calls = {"parse": 0, "change_projection": 0, "prepare": 0}
    for name in ("parse", "change_projection"):
        original = getattr(verity.verifier, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(verity.verifier, name, counted)
    prepare = Database.prepare

    def counted_prepare(self, q):
        calls["prepare"] += 1
        return prepare(self, q)
    monkeypatch.setattr(Database, "prepare", counted_prepare)
    return calls


@pytest.mark.parametrize("sql, preparing", [
    # a derived table is bound as a plan of its own
    (MEMO_QUERIES[5], {"parse": 1, "change_projection": 1, "prepare": 2}),
    ("update o set v = v + 1 where k >= 12", {"parse": 1, "change_projection": 1, "prepare": 1}),
    ("delete from l where k = 103", {"parse": 1, "change_projection": 1, "prepare": 1}),
    ("insert into c (k, name) values (9, 'di')", {"parse": 1, "change_projection": 0,
                                                  "prepare": 0}),
    # a SET subquery is prepared with its statement, beside the target rows
    ("update o set v = (select count(*) from c) where k = 12",
     {"parse": 1, "change_projection": 2, "prepare": 2}),
    ("insert into l (k, ok, q) select k, k, v from o where k = 10",
     {"parse": 1, "change_projection": 1, "prepare": 1}),
])
def test_a_repeated_text_is_parsed_rewritten_and_bound_once(monkeypatch, sql, preparing):
    db = memo_db()
    _, verifier = make_verified(db)
    calls = count_preparing(monkeypatch)
    reports = []
    for _ in range(2):
        try:
            reports.append(verifier.process(sql)[1])
        except DuplicatePrimaryKey:  # the second insert of one key
            pass
    assert calls == preparing
    assert reports[0].query_hash == reports[-1].query_hash == (
        hashlib.sha256(sql.encode("utf-8")).hexdigest())
    if len(reports) == 2:
        assert reports[1].elapsed["parse"] == reports[1].elapsed["rewrite"] == 0.0


def test_a_kept_subquery_reads_the_rows_stored_when_it_runs():
    db = memo_db()
    _, verifier = make_verified(db)
    update = "update o set v = (select count(*) from l where ok = 12) where k = 12"
    insert = "insert into l (k, ok, q) select k, k, v from o where k = 10"
    for sql in (update, insert, "insert into l (k, ok, q) values (104, 12, 0)", update,
                "delete from l where k = 10", "update o set v = 9 where k = 10", insert):
        _, report = verifier.process(sql)
    assert report.tuples_checked == 1  # the source row, checked again
    assert rows_to_raw(verifier.process("select k, v from o where k = 12")[0]) == [(12, 2)]
    assert rows_to_raw(verifier.process("select * from l where k = 10")[0]) == [(10, 10, 9)]


# writes whose SET list, SET expression or INSERT column list does not bind
PREPARE_ERRORS = {
    "update o set nosuch = 1 where k = 12": UnknownColumn,
    "update o set v = nosuch + 1 where k = 12": UnknownColumn,
    "update o set k = 1 where k = 12": PkUpdateUnsupported,
    "update o set v = 1, v = 2 where k = 12": DuplicateColumn,
    "update o set v = (select nosuch from c) where k = 12": UnknownColumn,
    "insert into c (k, k) values (1, 2)": DuplicateColumn,
    "insert into c (name) values ('x')": NullPrimaryKey,
    "insert into c (k, name) select k + 10, name from c": UnsupportedFeature,
}


@pytest.mark.parametrize("sql, error", PREPARE_ERRORS.items())
def test_a_write_that_does_not_bind_raises_before_any_of_its_selects_runs(sql, error):
    """Over a tampered row, such a write raises its binding error, not
    TamperDetected: it is refused while it is prepared, before it reads."""
    db = memo_db()
    _, verifier = make_verified(db)
    for table, (key, column, tampered, _) in MEMO_TAMPER.items():
        db.raw_mutate(table, (Value.integer(key),), column, tampered)
    with pytest.raises(error):
        verifier.process(sql)
    assert len(verifier._statements) == 0


@pytest.mark.parametrize("sql", [
    "select * from n",
    "select n.a, o.v from n, o where n.a = o.k",
    "update n set b = 1 where a = 2",
    "delete from n where a = 2",
])
def test_a_text_that_fails_to_prepare_is_not_kept(sql):
    db = memo_db()
    _, verifier = make_verified(db)
    for bad in (sql, "select nosuch from o", "select * from", "select * from (select k from o)",
                *PREPARE_ERRORS):
        with pytest.raises(VerityError):
            verifier.process(bad)
    assert len(verifier._statements) == 0
    db.create_table("create table n (a integer, b integer, primary key (a))")
    payload, report = verifier.process(sql)  # prepared afresh, against the new table
    assert payload == [] or payload.rows_affected == 0
    assert list(verifier._statements) == [sql]


def test_the_statement_cache_keeps_the_most_recently_used_texts():
    db = memo_db()
    _, verifier = make_verified(db)
    assert verity.verifier.CACHED_STATEMENTS == 128
    texts = [f"select * from o where k = {i}" for i in range(CACHED_STATEMENTS + 3)]
    for sql in texts[:CACHED_STATEMENTS]:
        verifier.process(sql)
    assert list(verifier._statements) == texts[:CACHED_STATEMENTS]
    verifier.process(texts[0])  # used again: now the most recent
    for sql in texts[CACHED_STATEMENTS:]:
        verifier.process(sql)
        assert len(verifier._statements) == CACHED_STATEMENTS
    assert list(verifier._statements) == (texts[4:CACHED_STATEMENTS] + [texts[0]]
                                          + texts[CACHED_STATEMENTS:])


# One long-lived verifier, whose prepared statements and plans serve every
# step, against a new verifier over the same database and ledger, which
# prepares everything afresh.
PLAN_DIRECT = [
    "select * from o where k = 12",
    "select * from c where k >= 2",
    "select k, v from o where k > 10 and k <= 12 and v > 0",
    "select * from l where k < 103 and q > 1",
]
_MEMO_KEY = st.sampled_from([1, 2, 3, 4, 10, 11, 12, 13, 14, 100, 102, 103, 104])
PLAN_STEPS = st.one_of(
    st.tuples(st.just("select"), st.sampled_from(MEMO_QUERIES + PLAN_DIRECT)),
    st.tuples(st.just("update"), st.sampled_from(sorted(MEMO_TAMPER)), _MEMO_KEY,
              st.integers(-2, 2), st.booleans()),
    st.tuples(st.just("insert"), st.sampled_from(sorted(MEMO_TAMPER)), _MEMO_KEY),
    st.tuples(st.just("delete"), st.sampled_from(sorted(MEMO_TAMPER)), _MEMO_KEY),
    st.tuples(st.just("tamper"), st.sampled_from(sorted(MEMO_TAMPER))),
    st.tuples(st.just("update_sub"), st.sampled_from(sorted(MEMO_TAMPER)), _MEMO_KEY,
              st.booleans()),
    st.tuples(st.just("insert_select"), st.sampled_from(sorted(MEMO_TAMPER)), _MEMO_KEY),
)
_WRITES = {
    "update": {
        "c": lambda k, d, many: f"update c set name = 'n{d}' where k {'>=' if many else '='} {k}",
        "o": lambda k, d, many: f"update o set v = v + {d} where k {'>=' if many else '='} {k}",
        "l": lambda k, d, many: f"update l set q = q + {d} where k {'>=' if many else '='} {k}",
    },
    "insert": {
        "c": lambda k: f"insert into c (k, name) values ({k}, 'i{k}')",
        "o": lambda k: f"insert into o (k, ck, v) values ({k}, {k % 4}, {k % 9})",
        "l": lambda k: f"insert into l (k, ok, q) values ({k}, {10 + k % 5}, {k % 7})",
    },
    "delete": {t: (lambda k, t=t: f"delete from {t} where k = {k}") for t in MEMO_TAMPER},
    # a SET subquery and an INSERT source, kept with their statement, read
    # the rows stored when it runs
    "update_sub": {
        "c": lambda k, many: (f"update c set name = (select max(name) from c where k <= {k}) "
                              f"where k {'>=' if many else '='} {k}"),
        "o": lambda k, many: (f"update o set v = (select count(*) from l where ok = {k}) "
                              f"where k {'>=' if many else '='} {k}"),
        "l": lambda k, many: (f"update l set q = (select sum(o.v) from o, c where o.ck = c.k "
                              f"and o.k <= {k}) where k {'>=' if many else '='} {k}"),
    },
    "insert_select": {
        "c": lambda k: f"insert into c (k, name) select k, 'l' from l where k = {k}",
        "o": lambda k: f"insert into o (k, ck, v) select k + 20, k, q from l where k <= {k}",
        "l": lambda k: f"insert into l (k, ok, q) select k, k, v from o where k = {k}",
    },
}


def observed(verifier: Verifier, sql: str):
    """What a verified statement released or raised, comparable with ==."""
    try:
        payload, report = verifier.process(sql)
    except TamperDetected as exc:
        report = exc.report
        return ("tampered", [a.row_id for a in exc.alerts],
                report.tuples_checked, report.tuples_seen)
    except DuplicatePrimaryKey as exc:
        return type(exc).__name__, str(exc)
    if not isinstance(payload, MutationSummary):
        payload = rows_to_raw(payload)
    return payload, report.tuples_checked, report.tuples_seen


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(PLAN_STEPS, min_size=1, max_size=12))
def test_a_long_lived_verifier_behaves_as_a_fresh_one(steps):
    db = memo_db()
    ledger, verifier = make_verified(db)
    plans = {sql: db.prepare(parse(sql)) for sql in PLAN_DIRECT}

    def compare(step):
        fresh = Verifier(db, ledger, "peer-1", clock=lambda: 1_700_000_000)
        for sql in MEMO_QUERIES + PLAN_DIRECT:
            assert observed(verifier, sql) == observed(fresh, sql), (step, sql)
        for sql, plan in plans.items():
            kept, new = db.exec_select(plan), db.exec_select(parse(sql))
            assert (rows_to_raw(kept), kept.sources) == (rows_to_raw(new), new.sources), (
                step, sql)

    compare(None)
    for step in steps:
        kind, *args = step
        if kind == "select":
            verifier.process(args[0])  # may alert after an earlier edit
        elif kind == "tamper":
            table = args[0]
            key, column, tampered, _ = MEMO_TAMPER[table]
            pk = (Value.integer(key),)
            if not db.has_row(table, pk):
                continue
            stored = db.get_row(table, pk).values[db.catalog.get(table).col_index(column)]
            db.raw_mutate(table, pk, column, tampered)
            compare(step)
            db.raw_mutate(table, pk, column, stored)
        else:
            table, *rest = args
            sql = _WRITES[kind][table](*rest)
            # the fresh verifier writes to copies, taken before the kept one writes
            fresh = Verifier(db.clone(), ledger.clone_in_memory(), "peer-1",
                             clock=lambda: 1_700_000_000)
            assert observed(verifier, sql) == observed(fresh, sql), step
        compare(step)


# --- the join index -------------------------------------------------------------------

LOC_JOIN = ("select o_orderkey, c_custkey from lineitem, orders, customer "
            "where l_orderkey = o_orderkey and o_custkey = c_custkey "
            "and l_orderkey >= 100 and l_orderkey <= 103")


@pytest.mark.parametrize("table, column", [
    ("customer", "c_name"),   # not a key: the joined row keeps its place
    ("orders", "o_custkey"),  # a join key: the order now meets another customer
])
def test_a_raw_mutate_after_a_warm_join_index_alerts(fixture_session, table, column):
    db, _, verifier = fixture_session
    for _ in range(2):  # the second run joins through the kept hash tables
        rows, report = verifier.process(LOC_JOIN)
    assert rows and report.outcome == "verified"
    assert db._table("orders").join_index and db._table("customer").join_index
    orderkey, custkey = rows[0]
    if table == "customer":
        pk, value = (custkey,), Value.text("someone else")
    else:
        pk, value = (orderkey,), Value.integer(custkey.raw % 150 + 1)
    db.raw_mutate(table, pk, column, value)
    with pytest.raises(TamperDetected) as exc:
        verifier.process(LOC_JOIN)
    assert [(a.table, a.row_id) for a in exc.value.alerts] == [(table, row_id(pk, table))]


def test_the_join_index_is_built_once_and_rebuilt_only_for_the_written_table(
        fixture_session, monkeypatch):
    db, _, verifier = fixture_session
    table_of = {len(db.catalog.get(t).columns): t for t in ("orders", "customer")}
    builds = []
    hash_rows = verity.storage._hash_rows

    def counted(keys, rows):
        builds.append(table_of[len(rows[0])])
        return hash_rows(keys, rows)
    monkeypatch.setattr(verity.storage, "_hash_rows", counted)
    for _ in range(3):
        verifier.process(LOC_JOIN)
    assert sorted(builds) == ["customer", "orders"]
    builds.clear()
    summary, _ = verifier.process("update customer set c_acctbal = 0 where c_custkey = 7")
    assert summary.rows_affected == 1
    verifier.process(LOC_JOIN)
    verifier.process(LOC_JOIN)
    assert builds == ["customer"]


# --- the tuple check on joins: counts, not times ---------------------------------------

# The join shapes of perfbench's read workload, with (tuples seen, tuples
# checked) on the SF 0.001 fixture.
READ_JOINS = [
    ("select * from supplier, nation where s_nationkey = n_nationkey", 20, 18),
    ("select * from orders, customer where o_custkey = c_custkey", 3000, 1650),
    ("select * from orders, customer where o_custkey = c_custkey "
     "and o_orderkey >= 100 and o_orderkey <= 600", 1002, 645),
    ("select * from customer, nation, region "
     "where c_nationkey = n_nationkey and n_regionkey = r_regionkey", 450, 180),
    ("select * from lineitem, orders, customer "
     "where l_orderkey = o_orderkey and o_custkey = c_custkey "
     "and l_orderkey >= 100 and l_orderkey <= 110", 174, 80),
]


@pytest.mark.parametrize("sql, seen, checked", READ_JOINS)
def test_a_warm_join_hashes_nothing_and_looks_each_row_up_once(
        fixture_session, monkeypatch, sql, seen, checked):
    _, ledger, verifier = fixture_session
    lookups = []
    get_current = ledger.get_current
    monkeypatch.setattr(ledger, "get_current", lambda rid: lookups.append(rid) or
                        get_current(rid))
    calls = count_hashing(monkeypatch)
    for run, hashed in (("cold", checked), ("warm", 0)):  # a clone starts with no memo
        lookups.clear()
        calls.update(fingerprint=0, row_id=0)
        _, report = verifier.process(sql)
        assert (report.tuples_seen, report.tuples_checked) == (seen, checked), run
        assert sorted(lookups) == sorted(report.checked), run
        assert calls == {"fingerprint": hashed, "row_id": hashed}, run
        assert report.tuples_fingerprinted == hashed, run
