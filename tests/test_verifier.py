"""Verified pipeline: bootstrap, the four statement flows, detection, audits."""

import hashlib
import io

import pytest

import verity.verifier
from conftest import make_t123, make_verified, rows_to_raw
from verity.errors import (
    DuplicatePrimaryKey,
    DuplicateRowId,
    LedgerError,
    NonScalarSubquery,
    NullPrimaryKey,
    PkUpdateUnsupported,
    TamperDetected,
    UnsupportedFeature,
)
from verity.fingerprint import row_id
from verity.ledger import SimulatedLedger, generate_peers
from verity.parser import parse
from verity.sqlast import QueryKind
from verity.storage import Database
from verity.values import NULL, Value
from verity.verifier import MutationSummary, Verifier


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
