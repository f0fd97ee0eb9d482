"""Acceptance criteria.

Each test prints one ``ACCEPTANCE <n> (<name>): PASS/FAIL`` line (visible
with ``pytest -s`` or in captured output) and enforces its runtime budget.

Run:  pytest tests/test_acceptance.py -v -s
"""

import datetime
import io
import random
import time
from contextlib import contextmanager
from decimal import Decimal

import pytest

from conftest import (
    RandomDbGen,
    as_multiset,
    brute_force_select,
    normalize_raw,
    rows_to_raw,
)
from verity.bench import run_bench
from verity.errors import NonScalarSubquery, TamperDetected, UnsupportedFeature
from verity.fingerprint import fingerprint, row_id
from verity.ledger import SimulatedLedger, TxDraft, TxKind, generate_peers
from verity.parser import parse
from verity.rewriter import change_projection, project_results
from verity.storage import Database
from verity.values import NULL, Value, ValueType
from test_parser import CORPUS


@contextmanager
def criterion(n: int, name: str, budget_s: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {n} ({name}): FAIL")
        raise
    dt = time.perf_counter() - t0
    if budget_s is not None:
        assert dt < budget_s, f"runtime {dt:.1f}s exceeds the {budget_s:.0f}s budget"
    print(f"\nACCEPTANCE {n} ({name}): PASS [{dt:.1f}s]")


# --- 1. rewrite fidelity ---------------------------------------------------------

def test_criterion_1_rewrite_fidelity():
    with criterion(1, "rewrite fidelity", budget_s=1.0):
        db = Database()
        db.create_table("create table t1 (x integer, y integer, a integer, primary key (x))")
        db.create_table("create table t2 (a integer, s integer, b integer, primary key (a))")
        db.create_table("create table t3 (c integer, d integer, b integer, primary key (c))")

        def pairs(q):
            return [(i.expr.table, i.expr.column) for i in q.projections]

        flat = parse("SELECT t1.a, t2.b, t3.c FROM t1, t2, t3 "
                     "WHERE t1.a=t2.a AND t2.b=t3.b")
        rw = change_projection(flat, db.catalog)
        assert pairs(rw.wide_query) == [
            ("t1", "x"), ("t1", "y"), ("t1", "a"),
            ("t2", "a"), ("t2", "s"), ("t2", "b"),
            ("t3", "c"), ("t3", "d"), ("t3", "b"),
        ]
        assert rw.wide_query.from_items == flat.from_items
        assert rw.wide_query.where == flat.where

        nested = parse("SELECT t1.a, r1.b, t3.c FROM t1, (SELECT a, b FROM t2) AS r1, t3 "
                       "WHERE t1.a=r1.a AND r1.b=t3.b")
        rw = change_projection(nested, db.catalog)
        assert pairs(rw.wide_query) == [
            ("t1", "x"), ("t1", "y"), ("t1", "a"),
            ("r1", "a"), ("r1", "s"), ("r1", "b"),
            ("t3", "c"), ("t3", "d"), ("t3", "b"),
        ]
        inner = rw.wide_query.from_items[1].subquery
        assert pairs(inner) == [("t2", "a"), ("t2", "s"), ("t2", "b")]
        assert rw.wide_query.where == nested.where


# --- 2. fingerprint determinism and sensitivity -------------------------------------

def test_criterion_2_fingerprint_determinism_and_sensitivity():
    with criterion(2, "fingerprint determinism/sensitivity", budget_s=5.0):
        rng = random.Random(0xACCE2)
        kinds_pool = ["integer", "decimal", "text", "date"]

        def rand_value(kind):
            if kind == "integer":
                return Value.integer(rng.randint(-10**9, 10**9))
            if kind == "decimal":
                return Value.decimal(Decimal(rng.randint(-10**7, 10**7)) / 100)
            if kind == "date":
                return Value.date(
                    (datetime.date(1992, 1, 1) +
                     datetime.timedelta(days=rng.randint(0, 2400))).isoformat())
            return Value.text("".join(rng.choice("abc xyz123") for _ in range(rng.randint(0, 15))))

        def different(kind, old):
            while True:
                v = rand_value(kind)
                if v != old:
                    return v

        changed = 0
        for _ in range(1000):
            n = rng.randint(2, 9)
            kinds = ["integer"] + [rng.choice(kinds_pool) for _ in range(n - 1)]
            values = [rand_value("integer")]
            for k in kinds[1:]:
                values.append(NULL if rng.random() < 0.25 else rand_value(k))
            row = tuple(values)
            rid = row_id([values[0]], "bench")
            assert fingerprint(rid, row) == fingerprint(rid, row)  # byte-equal rerun
            fp0 = fingerprint(rid, row)

            idx = rng.randrange(n)
            old = values[idx]
            if idx == 0:
                new = different("integer", old)
            elif old.is_null:
                new = rand_value(kinds[idx])          # NULL -> value
            elif rng.random() < 0.5:
                new = NULL                            # value -> NULL
            else:
                new = different(kinds[idx], old)
            mutated = list(values)
            mutated[idx] = new
            rid2 = row_id([mutated[0]], "bench")
            if fingerprint(rid2, tuple(mutated)) != fp0:
                changed += 1
        assert changed == 1000


# --- 3. tamper detection completeness & soundness ------------------------------------

# Adapted variants of the benchmark statements. Six representative shapes
# are all present: simple select, update with nested scalar subqueries,
# 5-row insert, single-row update, multi-row delete, and a nested count.
# Mutating statements form a storyline whose rows are created, updated, and
# deleted within the suite, leaving the fixture rows intact.
CLEAN_SUITE = [
    "select * from region",
    "select * from nation",
    "select * from customer",
    "select * from supplier",
    "select s_suppkey, n_name, s_name from supplier, nation "
    "where supplier.s_nationkey = nation.n_nationkey",
    "select s_suppkey, n_name, s_name from (( select * from supplier ) as sup ), nation "
    "where sup.s_nationkey = nation.n_nationkey",
    "select sn.s_name, rn.r_name from (( select n_name, s_name from (supplier as sup ), "
    "nation where sup.s_nationkey = nation.n_nationkey) as sn), (( select n_name, r_name "
    "from ( region as reg ), nation where reg.r_regionkey = nation.n_regionkey ) as rn ) "
    "where sn.n_name = rn.n_name",
    "select s_acctbal, s_name, n_name from supplier, nation, region "
    "where s_nationkey = n_nationkey and n_regionkey = r_regionkey and r_name = 'africa'",
    "select (sum(l_extendedprice * l_discount) as revenue) from lineitem "
    "where l_shipdate >= '1994-04-15' and l_shipdate < '1995-04-15' and l_quantity < 20",
    "select l_shipmode, o_orderpriority from lineitem, orders "
    "where o_orderkey = l_orderkey and (l_shipmode = 'ship' or l_shipmode = 'air') "
    "and l_receiptdate >= '1995-01-01' and l_receiptdate < '1995-03-01'",
    "select c_orders.c_custkey, (count(*) as custdist) from (( select c_custkey, "
    "o_orderkey from customer, orders where c_custkey = o_custkey and "
    "o_comment not like '%fi%al%' ) as c_orders)",
    "insert into nation (n_nationkey, n_name, n_regionkey, n_comment) values "
    "( 93793619 ,'algeria', 123454556741 ,'haggle detect slyly agai')",
    "insert into customer ( c_custkey, c_name, c_address, c_nationkey, c_phone, "
    "c_acctbal, c_mktsegment, c_comment ) values (91639739, 'loren', 'lipsum', "
    "93793619, '1234', 234, 'muspil', 'nerol')",
    "insert into customer ( c_custkey  , c_name , c_address , c_nationkey , c_phone , "
    "c_acctbal ,c_mktsegment, c_comment)  values "
    "(91639738 , 'sumpil', 'renol', 93793619 , '9242', 234, 'pilsum', 'rolen') , "
    "( 91639737 , 'abc', 'def', 93793619 , '1234', 234, 'yhbdsra', 'afgsdf'), "
    "(96244913, 'pkjhbc', 'mnhgre', 93793619 , '9543', 234, 'qaxcvf', 'iomnbgf'), "
    "( 96244914, 'yuthgbvfg', 'qgytrevd', 93793619 , '75345', 234, 'liyhvdrt', "
    "'qfgkdyv'), (96244915, 'ramnabfubt', 'njhiyfcvh', 93793619 , '126789', 234, "
    "'summinhsve', 'qgjorutbbs')",
    "update customer set c_name = 'sjadfd', c_address = 'kafawehrnj', "
    "c_phone='7894561265', c_acctbal = 22, c_mktsegment = 'klasjfaw', "
    "c_comment='laksfnwe' where c_custkey = 91639739",
    "insert  into supplier  (s_suppkey, s_name, s_address, s_nationkey, s_phone, "
    "s_acctbal, s_comment) select ( c_custkey + 1000 ), c_name, c_address, "
    "c_nationkey, c_phone, c_acctbal, c_comment from customer "
    "where c_nationkey = 93793619",
    "update supplier set s_nationkey = (select c_nationkey from customer where "
    "c_custkey= 91639739), s_phone = ( select c_phone from customer where "
    "c_custkey= 91639739), s_comment ='askdenrjuhereu', s_acctbal = 2  + 10   "
    "where s_suppkey = 91639739 +1000",
    "update customer set  c_name='ashdehhrbeki' where c_name = 'sjadfd'",
    "delete from supplier where s_nationkey = 93793619",
    "delete from customer where c_nationkey = 93793619",
]


def _mutated_copy(v: Value, col_type: ValueType, rng) -> Value:
    if v.is_null:
        if col_type is ValueType.INTEGER:
            return Value.integer(424242)
        if col_type is ValueType.DECIMAL:
            return Value.decimal(Decimal("424242.42"))
        if col_type is ValueType.DATE:
            return Value.date("1999-12-31")
        return Value.text("injected")
    if v.kind is ValueType.INTEGER:
        return Value.integer(v.raw + 1)
    if v.kind is ValueType.DECIMAL:
        return Value.decimal(v.raw + Decimal("0.01"))
    if v.kind is ValueType.DATE:
        d = datetime.date.fromisoformat(v.raw)
        return Value.date((d + datetime.timedelta(days=1)).isoformat())
    return Value.text(v.raw + "x")


def test_criterion_3_detection_completeness_and_soundness(fixture_session):
    with criterion(3, "tamper detection completeness/soundness", budget_s=120.0):
        db, ledger, verifier = fixture_session

        # soundness: with zero injections, the whole suite verifies
        assert len(CLEAN_SUITE) == 20
        for sql in CLEAN_SUITE:
            payload, report = verifier.process(sql)
            assert report.outcome == "verified", sql

        # completeness: 50 random single-column injections, each detected by
        # the first verified SELECT that touches the row
        rng = random.Random(0xD37EC7)
        tables = db.catalog.names()
        for i in range(50):
            table = rng.choice(tables)
            td = db.catalog.get(table)
            victims = list(db.rows_of(table))
            row = victims[rng.randrange(len(victims))]
            non_pk = [j for j in range(len(td.columns)) if j not in td.pk_indices]
            col_idx = rng.choice(non_pk)
            col = td.columns[col_idx]
            pk = td.key(row)
            original = row[col_idx]
            injected = _mutated_copy(original, col.type, rng)
            assert injected != original

            db.raw_mutate(table, pk, col.name, injected)
            with pytest.raises(TamperDetected) as exc:
                verifier.process(f"select * from {table}")
            assert any(a.table == table for a in exc.value.alerts), f"injection {i}"
            # repair so the next round starts clean
            db.raw_mutate(table, pk, col.name, original)
            rows, report = verifier.process(f"select * from {table} where 1 = 1")
            assert report.outcome == "verified"


# --- 4. the three mutation algorithms end-to-end --------------------------------------

def test_criterion_4_mutation_algorithms_end_to_end(fixture_session):
    with criterion(4, "update/insert/delete end-to-end"):
        db, ledger, verifier = fixture_session

        # scalar-subquery UPDATE on dedicated tables
        db.create_table("create table up1 (id integer, a integer, b integer, "
                        "primary key (id))")
        db.create_table("create table up2 (key integer, a integer, primary key (key))")
        db.load_csv("up1", io.StringIO("id,a,b\n1,10,4567\n2,20,9\n"))
        db.load_csv("up2", io.StringIO("key,a\n1234,777\n5,888\n"))
        for t in ("up1", "up2"):
            td = db.catalog.get(t)
            drafts = []
            from verity.fingerprint import fingerprint_tuple
            for row in db.rows_of(t):
                rid, fp = fingerprint_tuple(td, row)
                drafts.append(TxDraft(TxKind.PUT, t, "peer-1", row_id=rid, fingerprint=fp))
            drafts.append(TxDraft(TxKind.ADJUST_ROW_COUNT, t, "peer-1", delta=len(drafts)))
            ledger.submit(drafts, "peer-1")

        head = ledger.head_height
        summary, _ = verifier.process(
            "UPDATE up1 SET up1.a = (SELECT a FROM up2 WHERE up2.key=1234) "
            "WHERE up1.b = 4567"
        )
        assert ledger.head_height == head + 1          # exactly one block
        assert ledger.get_row_count("up1") == 2        # update keeps counts
        expected_up1 = [(1, 777, 4567), (2, 20, 9)]    # hand-applied mutation
        assert rows_to_raw(db.rows_of("up1")) == expected_up1

        # 5-row VALUES insert into fixture customer
        before = rows_to_raw(db.rows_of("customer"))
        head = ledger.head_height
        summary, _ = verifier.process(CLEAN_SUITE[13])  # the 5-row insert
        assert summary.rows_affected == 5
        assert ledger.head_height == head + 1
        assert ledger.get_row_count("customer") == 155
        assert db.row_count("customer") == 155
        new_keys = {91639737, 91639738, 96244913, 96244914, 96244915}
        after = rows_to_raw(db.rows_of("customer"))
        assert {r[0] for r in after} == {r[0] for r in before} | new_keys
        inserted = [r for r in after if r[0] == 91639738][0]
        assert inserted[1] == "sumpil" and inserted[5] == Decimal(234)

        # multi-row DELETE on fixture supplier
        before_sup = rows_to_raw(db.rows_of("supplier"))
        expected_remaining = [r for r in before_sup if not r[0] > 6]
        head = ledger.head_height
        summary, _ = verifier.process("delete from supplier where s_suppkey > 6")
        assert summary.rows_affected == len(before_sup) - len(expected_remaining) >= 2
        assert ledger.head_height == head + 1
        assert ledger.get_row_count("supplier") == len(expected_remaining)
        assert rows_to_raw(db.rows_of("supplier")) == expected_remaining

        # a SET subquery returning two rows aborts with nothing committed
        head = ledger.head_height
        rows_before = rows_to_raw(db.rows_of("up1"))
        with pytest.raises(NonScalarSubquery):
            verifier.process(
                "update up1 set a = (select a from up2 where key > 0) where b = 4567"
            )
        assert ledger.head_height == head
        assert rows_to_raw(db.rows_of("up1")) == rows_before


# --- 5. delete audits -------------------------------------------------------------------

def test_criterion_5_delete_audits(fixture_session):
    with criterion(5, "illegitimate-delete audits", budget_s=30.0):
        db, ledger, verifier = fixture_session

        victim = list(db.rows_of("lineitem"))[17]
        td = db.catalog.get("lineitem")
        pk = td.key(victim)
        db.apply_row_delete("lineitem", pk)

        mismatches = verifier.audit_counts()
        assert len(mismatches) == 1
        assert mismatches[0].table == "lineitem"
        assert mismatches[0].db_count == mismatches[0].ledger_count - 1

        # dummy insert brings the count back: the count audit is fooled
        dummy = (Value.integer(999999), Value.integer(1), Value.integer(1),
                 Value.integer(1), Value.decimal(Decimal(1)), Value.decimal(Decimal(1)),
                 Value.decimal(Decimal(0)), Value.decimal(Decimal(0)),
                 Value.text("r"), Value.text("o"), Value.date("1999-01-01"),
                 Value.date("1999-01-01"), Value.date("1999-01-02"),
                 Value.text("none"), Value.text("air"), Value.text("dummy"))
        db.apply_row_insert("lineitem", dummy)
        assert verifier.audit_counts() == []

        # the full scan is not fooled
        alerts, missing = verifier.audit_full()
        assert len(alerts) == 1 and alerts[0].expected == "ABSENT"
        assert alerts[0].table == "lineitem"
        assert len(missing) == 1
        deleted_rid = row_id([pk[0], pk[1]], "lineitem")
        assert missing[0].row_id == deleted_rid


# --- 6. chain integrity -------------------------------------------------------------------

def test_criterion_6_chain_integrity(tmp_path):
    with criterion(6, "chain integrity and replay"):
        path = str(tmp_path / "ledger.dat")
        peers = generate_peers(5)
        led = SimulatedLedger(peers, path=path, clock=lambda: 99)
        fp_a, fp_b = "a" * 64, "b" * 64
        for i in range(11):
            rid = f"{i:064x}"
            led.submit([
                TxDraft(TxKind.PUT, "t", "peer-1", row_id=rid, fingerprint=fp_a),
                TxDraft(TxKind.UPDATE, "t", "peer-2", row_id=rid,
                        fingerprint=fp_b, prev_fingerprint=fp_a),
                TxDraft(TxKind.ADJUST_ROW_COUNT, "t", "peer-1", delta=1),
            ], "peer-1")
        assert led.head_height >= 10

        data = open(path, "rb").read()
        spans = []
        i = 0
        while i < len(data):
            n = int.from_bytes(data[i:i + 4], "big")
            spans.append((i, i + 4 + n + 32))
            i += 4 + n + 32
        assert len(spans) == 12  # genesis + 11

        def check_flip(pos, expect_height):
            corrupt = bytearray(data)
            corrupt[pos] ^= 0x40
            bad = str(tmp_path / "bad.dat")
            open(bad, "wb").write(bytes(corrupt))
            rep = SimulatedLedger.load(bad, peers).verify_chain()
            assert not rep.ok, f"flip at {pos} undetected"
            assert rep.first_bad_height == expect_height, (
                f"flip at {pos}: reported {rep.first_bad_height}, wanted {expect_height}"
            )

        rng = random.Random(6)
        # every block: boundary bytes plus a random sample
        for h, (start, stop) in enumerate(spans):
            positions = {start, start + 3, start + 4, stop - 33, stop - 32, stop - 1}
            positions.update(rng.randrange(start, stop) for _ in range(12))
            for pos in sorted(positions):
                check_flip(pos, h)
        # one mid-chain block exhaustively
        start, stop = spans[3]
        for pos in range(start, stop):
            check_flip(pos, 3)

        # replaying the untampered file reconstructs identical world state
        led2 = SimulatedLedger.load(path, peers)
        assert led2.world_state() == led.world_state()
        assert led2.verify_chain().ok
        assert led2.head_height == led.head_height


# --- 7. scaling property ---------------------------------------------------------------

def test_criterion_7_linear_scaling(fixture_session):
    with criterion(7, "linear scaling, constant per-tuple lookup", budget_s=180.0):
        db, ledger, _ = fixture_session
        queries = [
            ("n5", "select * from region"),
            ("n25", "select * from nation"),
            ("n150", "select * from customer"),
            ("n750", "select * from orders where o_orderkey <= 750"),
            ("n1500", "select * from orders"),
        ]
        records, fit = run_bench(db, ledger, queries, runs=5)
        by_id = {r.query_id: r for r in records}
        assert [by_id[q].tuples_checked for q, _ in queries] == [5, 25, 150, 750, 1500]

        assert fit is not None and fit.n_points == 5
        assert fit.r2 >= 0.98, f"R^2 {fit.r2:.4f} below 0.98"

        small = by_id["n5"].lookup_per_tuple
        large = by_id["n1500"].lookup_per_tuple
        ratio = max(small, large) / min(small, large)
        assert ratio < 2.0, f"per-tuple lookup varies {ratio:.2f}x between 5 and 1500 rows"


# --- 8. semantic preservation -----------------------------------------------------------

def test_criterion_8_semantic_preservation():
    with criterion(8, "semantic preservation over 200 random SELECTs", budget_s=60.0):
        gen = RandomDbGen(seed=0x5EED8)
        for i in range(200):
            db = gen.make_db(max_tables=3, max_rows=8)
            sql = gen.make_query(db, allow_derived=True)
            q = parse(sql)
            rw = change_projection(q, db.catalog)
            wide = db.exec_select(rw.wide_query)
            via_pipeline = as_multiset(rows_to_raw(project_results(wide, rw)))
            direct = as_multiset(rows_to_raw(db.exec_select(q)))
            oracle = as_multiset(normalize_raw(brute_force_select(db, q)))
            assert via_pipeline == direct == oracle, f"case {i}: {sql}"


# --- 9. parser corpus -------------------------------------------------------------------

def test_criterion_9_parser_corpus():
    with criterion(9, "parser corpus and explicit unsupported errors"):
        assert len(CORPUS) == 19
        for qid, sql in CORPUS.items():
            parse(sql)  # must not raise

        for sql, feature in [
            ("select a from t where a in (select a from u)", "in"),
            ("select a, count(*) from t group by a", "group"),
            ("select a from t where exists (select 1 from u)", "exists"),
        ]:
            with pytest.raises(UnsupportedFeature) as exc:
                parse(sql)
            assert exc.value.feature == feature
