"""Benchmark harness: record shapes, tuple accounting, repeatability, fits."""


import verity.bench
from conftest import make_verified
from verity.bench import (
    effective_tuples,
    fit_records,
    kind_tag,
    parse_queries_file,
    run_bench,
)
from verity.parser import parse
from verity.sqlast import QueryKind


def test_kind_tags():
    assert kind_tag(parse("select * from t")) == "S"
    assert kind_tag(parse("select * from (select a from t) as r")) == "S(S)"
    assert kind_tag(parse("update t set a = (select b from u)")) == "U(S)"
    assert kind_tag(parse("insert into t (a) select a from u")) == "I(S)"
    assert kind_tag(parse("insert into t (a) values (1)")) == "I"
    assert kind_tag(parse("delete from t")) == "D"


def test_effective_tuples_accounting():
    # SELECT: just the checked rows; UPDATE/DELETE verify the rows they touch;
    # INSERT adds rows that were never checked
    assert effective_tuples(QueryKind.SELECT, 5, 0) == 5
    assert effective_tuples(QueryKind.UPDATE, 3, 1) == 3
    assert effective_tuples(QueryKind.DELETE, 12, 12) == 12
    assert effective_tuples(QueryKind.INSERT, 0, 5) == 5
    assert effective_tuples(QueryKind.INSERT, 6, 6) == 12


def test_parse_queries_file():
    text = """
    # comment
    select * from region
    q_big: select * from lineitem
    -- another comment
    delete from t where a = 1
    """
    qs = parse_queries_file(text)
    assert qs[0] == ("q01", "select * from region")
    assert qs[1] == ("q_big", "select * from lineitem")
    assert qs[2][1].startswith("delete")


def test_mutating_queries_are_repeatable_via_clones(t123_db):
    ledger, _ = make_verified(t123_db)
    records, fit = run_bench(
        t123_db, ledger,
        [("ins", "insert into t1 (x, y, a) values (50, 1, 2)"),
         ("del", "delete from t3 where c = 4"),
         ("sel", "select * from t2")],
        runs=3,
    )
    by_id = {r.query_id: r for r in records}
    assert by_id["ins"].tuples_mutated == 1
    assert by_id["del"].tuples_mutated == 1
    assert by_id["sel"].tuples_checked == 1
    # the shared session state was never touched
    assert t123_db.row_count("t1") == 1
    assert t123_db.row_count("t3") == 1
    assert ledger.get_row_count("t1") == 1


def test_empty_result_query_excluded_from_fit(t123_db):
    ledger, _ = make_verified(t123_db)
    records, fit = run_bench(
        t123_db, ledger,
        [("a", "select * from t1"),
         ("b", "select * from t1, t2 where t1.a = t2.a"),
         ("empty", "select * from t3 where c = 12345")],
        runs=2,
    )
    assert fit is not None
    assert fit.n_points == 2
    empty = [r for r in records if r.query_id == "empty"][0]
    assert empty.tuples_effective == 0
    assert empty.per_tuple is None


def test_fit_is_exact_on_synthetic_records():
    from verity.bench import BenchRecord

    def rec(n, t):
        return BenchRecord("q", "S", [], n, 0, n, t, t, t, t / n if n else None, 0.0, None)

    records = [rec(10, 0.1 + 10 * 0.002), rec(100, 0.1 + 100 * 0.002),
               rec(1000, 0.1 + 1000 * 0.002)]
    fit = fit_records(records)
    assert abs(fit.slope - 0.002) < 1e-12
    assert abs(fit.intercept - 0.1) < 1e-12
    assert fit.r2 > 0.999999


def test_phase_breakdown_recorded(t123_db):
    ledger, _ = make_verified(t123_db)
    records, _ = run_bench(t123_db, ledger, [("q", "select * from t1")], runs=2)
    phases = records[0].mean_phases
    assert set(phases) == {"parse", "rewrite", "db_exec", "ledger_lookup", "ledger_commit"}
    assert all(v >= 0 for v in phases.values())


def test_min_and_median_reported_beside_the_mean(t123_db):
    ledger, _ = make_verified(t123_db)
    records, _ = run_bench(t123_db, ledger, [("q", "select * from t1")], runs=3)
    d = records[0].as_dict()
    assert 0 < d["min_end_to_end_s"] <= d["median_end_to_end_s"]
    assert d["min_end_to_end_s"] <= d["mean_end_to_end_s"]


def test_timed_runs_keep_the_callers_gc_setting(t123_db):
    import gc

    ledger, _ = make_verified(t123_db)
    assert gc.isenabled()
    run_bench(t123_db, ledger, [("q", "select * from t1")], runs=1)
    assert gc.isenabled()
    gc.disable()
    try:
        run_bench(t123_db, ledger, [("q", "select * from t1")], runs=1)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_every_timed_run_starts_without_memoised_rows(t123_db, monkeypatch):
    """Each run verifies fresh clones, so it fingerprints every tuple it
    checks even when the session it clones has verified them already."""
    ledger, verifier = make_verified(t123_db)
    queries = [("a", "select * from t1"), ("b", "select * from t1, t2 where t1.a = t2.a"),
               ("u", "update t3 set d = 1 where c = 4")]
    for _, sql in queries[:2]:
        verifier.process(sql)
    assert verifier.process(queries[1][1])[1].tuples_fingerprinted == 0
    reports = []
    timed_run = verity.bench._timed_run

    def recorded(*args):
        dt, report = timed_run(*args)
        reports.append(report)
        return dt, report
    monkeypatch.setattr(verity.bench, "_timed_run", recorded)
    run_bench(t123_db, ledger, queries, runs=2)
    assert len(reports) == 9
    assert all(r.tuples_fingerprinted == r.tuples_checked > 0 for r in reports)
