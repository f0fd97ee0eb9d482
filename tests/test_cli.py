"""CLI: config resolution, init/exec/tamper/audit/ledger flows, exit codes."""

import json
import os

import pytest

from conftest import append_forged_block
from verity.cli import EXIT_ERROR, EXIT_OK, EXIT_TAMPER, SessionConfig, main, open_session
from verity.errors import VerityError
from verity.fixtures import generate_fixture
from verity.ledger import TxDraft, TxKind, load_peers

TINY_COUNTS = {"customer": 12, "lineitem": 30, "nation": 25, "orders": 10,
               "part": 6, "partsupp": 12, "region": 5, "supplier": 4}


@pytest.fixture
def workdir(tmp_path):
    fx = tmp_path / "fx"
    generate_fixture(str(fx), counts=TINY_COUNTS, seed=3)
    conf = tmp_path / "verity.conf"
    conf.write_text(
        f"ddl = {fx}/schema.sql\n"
        f"csv_dir = {fx}\n"
        f"ledger = {tmp_path}/state/ledger.dat\n"
        "peers = 5\n"
        "principal = peer-1\n"
    )
    return tmp_path, str(conf)


def run(conf, *argv):
    return main(["--config", conf, *argv])


def test_config_parsing(workdir):
    _, conf = workdir
    cfg = SessionConfig.from_file(conf)
    assert cfg.peers == 5
    assert cfg.principal == "peer-1"
    assert cfg.output == "table"


def test_config_missing_keys(tmp_path):
    p = tmp_path / "bad.conf"
    p.write_text("ddl = x\n")
    with pytest.raises(VerityError):
        SessionConfig.from_file(str(p))


@pytest.mark.parametrize("value", ["abc", "0", "-1", "2.5"])
def test_config_peers_must_be_a_positive_integer(tmp_path, value):
    p = tmp_path / "bad.conf"
    p.write_text(f"ddl = x\ncsv_dir = y\nledger = z\npeers = {value}\n")
    with pytest.raises(VerityError) as exc:
        SessionConfig.from_file(str(p))
    assert str(p) in str(exc.value) and "peers" in str(exc.value)


def test_config_env_fallback(workdir, monkeypatch, capsys):
    _, conf = workdir
    monkeypatch.setenv("VERITY_CONFIG", conf)
    assert main(["init"]) == EXIT_OK


def test_init_prints_counts_and_persists(workdir, capsys):
    tmp, conf = workdir
    assert run(conf, "init") == EXIT_OK
    out = capsys.readouterr().out
    assert "region: 5" in out
    assert "nation: 25" in out
    assert f"total: {sum(TINY_COUNTS.values())}" in out
    assert (tmp / "state" / "ledger.dat").exists()
    assert (tmp / "state" / "ledger.dat.peers.json").exists()


def test_init_refuses_to_overwrite(workdir):
    _, conf = workdir
    assert run(conf, "init") == EXIT_OK
    assert run(conf, "init") == EXIT_ERROR
    assert run(conf, "init", "--force") == EXIT_OK


def test_init_missing_csv_warns_and_continues(workdir, capsys):
    tmp, conf = workdir
    os.remove(tmp / "fx" / "supplier.csv")
    assert run(conf, "init") == EXIT_OK
    err = capsys.readouterr().err
    assert "supplier" in err and "empty" in err


def test_init_corrupt_csv_fails_without_partial_ledger(workdir, capsys):
    tmp, conf = workdir
    (tmp / "fx" / "region.csv").write_text("r_regionkey,r_name,r_comment\nxxx,a,b\n")
    assert run(conf, "init") == EXIT_ERROR
    assert not (tmp / "state" / "ledger.dat").exists()


def test_exec_select_exit_0(workdir, capsys):
    _, conf = workdir
    run(conf, "init")
    capsys.readouterr()
    assert run(conf, "exec", "select * from region") == EXIT_OK
    captured = capsys.readouterr()
    assert "africa" in captured.out
    assert "(5 rows)" in captured.out
    assert "verified" in captured.err


@pytest.mark.parametrize("text", ["{not json", '{"peers": [{"id": "peer-1"}]}',
                                  '{"peers": [{"id": "peer-1", "private": "zz"}]}'])
def test_malformed_peers_file_exits_1_naming_it(workdir, capsys, text):
    tmp, conf = workdir
    run(conf, "init")
    peers_file = tmp / "state" / "ledger.dat.peers.json"
    peers_file.write_text(text)
    capsys.readouterr()
    assert run(conf, "exec", "select * from region") == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(peers_file) in err


def test_exec_syntax_error_exit_1(workdir, capsys):
    _, conf = workdir
    run(conf, "init")
    assert run(conf, "exec", "select from region") == EXIT_ERROR
    assert run(conf, "exec", "select * from region where x in (1)") == EXIT_ERROR


def test_exec_a_number_in_non_ascii_digits_exits_1(workdir, capsys):
    _, conf = workdir
    run(conf, "init")
    capsys.readouterr()
    for sql in ("select ² from region", "select 1.² from region"):
        assert run(conf, "exec", sql) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error:")


def test_config_that_is_a_directory_exits_1_naming_it(tmp_path, capsys):
    assert run(str(tmp_path), "exec", "select * from region") == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path) in err


def test_exec_file_that_is_a_directory_exits_1_naming_it(workdir, capsys):
    tmp, conf = workdir
    run(conf, "init")
    capsys.readouterr()
    assert run(conf, "exec", "--file", str(tmp)) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp) in err


def test_config_that_is_not_utf8_exits_1_naming_it(workdir, capsys):
    _, conf = workdir
    with open(conf, "ab") as f:
        f.write(b"principal = \xff\xfe\n")
    assert run(conf, "exec", "select * from region") == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and conf in err


def test_table_csv_that_is_not_utf8_exits_1_naming_the_table(workdir, capsys):
    tmp, conf = workdir
    run(conf, "init")
    (tmp / "fx" / "region.csv").write_bytes(b"r_regionkey,r_name,r_comment\n0,\xff,x\n")
    capsys.readouterr()
    for _ in range(2):  # the table stays unloaded, so each touch fails alike
        assert run(conf, "exec", "select * from region") == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: region") and "UTF-8" in err
    assert run(conf, "exec", "select count(*) from nation") == EXIT_OK


def test_exec_decimal_overflow_is_an_error_not_a_traceback(workdir, capsys):
    _, conf = workdir
    run(conf, "init")
    capsys.readouterr()
    sql = ("select c_acctbal * 100000000000000000000.5 * 100000000000000000000.5 "
           "from customer where c_custkey = 1")
    assert run(conf, "exec", sql) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: decimal overflow")


@pytest.mark.parametrize("sql", [
    "select c_acctbal * 10 from customer where c_custkey = 1",
    "select sum(c_acctbal) from customer",
])
def test_exec_decimal_past_the_exponent_limit_is_an_error_not_a_traceback(workdir, capsys, sql):
    tmp, conf = workdir
    path = tmp / "fx" / "customer.csv"
    lines = path.read_text().splitlines(keepends=True)
    for i in (1, 2):  # c_acctbal of customers 1 and 2
        fields = lines[i].split(",")
        fields[5] = "9E+999999"
        lines[i] = ",".join(fields)
    path.write_text("".join(lines))
    assert run(conf, "init") == EXIT_OK
    capsys.readouterr()
    assert run(conf, "exec", sql) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: decimal overflow")


def test_init_refuses_a_decimal_whose_tamper_would_go_unseen(workdir, capsys):
    # rendered at 28 significant digits, ...901 and ...999 were one number,
    # so a tamper from one to the other kept the row's fingerprint
    tmp, conf = workdir
    path = tmp / "fx" / "customer.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[5] = "1234567890123456789012345678901"  # c_acctbal of customer 1
    lines[1] = ",".join(fields)
    path.write_text("".join(lines))
    assert run(conf, "init") == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: customer line 2: decimal out of range")


@pytest.mark.parametrize("value", ["1e999999999", "1e-999999999",
                                   "1234567890123456789012345678999"])
def test_tamper_refuses_a_decimal_its_csv_could_not_hold(workdir, capsys, value):
    # each would be written back as another number (1e999999999 cannot be
    # written at all); the file keeps its rows
    tmp, conf = workdir
    run(conf, "init")
    before = (tmp / "fx" / "customer.csv").read_bytes()
    capsys.readouterr()
    assert run(conf, "tamper", "customer", "--pk", "1", "--set", f"c_acctbal={value}") == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: customer line 1: decimal out of range")
    assert (tmp / "fx" / "customer.csv").read_bytes() == before


@pytest.mark.parametrize("column,kind", [("c_nationkey", "integer"), ("c_acctbal", "decimal")])
@pytest.mark.parametrize("value", ["\u0661", "1_000", " 7 "])
def test_tamper_refuses_a_number_that_is_not_plain_ascii(workdir, capsys, column, kind, value):
    # each would load as a number and be written back as other text
    tmp, conf = workdir
    run(conf, "init")
    before = (tmp / "fx" / "customer.csv").read_bytes()
    capsys.readouterr()
    assert run(conf, "tamper", "customer", "--pk", "1", "--set", f"{column}={value}") == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: customer line 1: not a plain ASCII {kind}")
    assert (tmp / "fx" / "customer.csv").read_bytes() == before


def test_init_refuses_a_csv_null_that_needs_quotes(tmp_path, capsys):
    (tmp_path / "schema.sql").write_text("create table t (k integer, s text, primary key (k));")
    (tmp_path / "t.csv").write_text("k,s\n1,a\n")
    conf = tmp_path / "verity.conf"
    conf.write_text("ddl = schema.sql\ncsv_dir = .\nledger = ledger.dat\n"
                    "peers = 1\ncsv_null = a,b\n")
    assert run(str(conf), "init") == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'a,b'" in err
    assert not (tmp_path / "ledger.dat").exists()


def test_exec_mutation_persists_across_invocations(workdir, capsys):
    _, conf = workdir
    run(conf, "init")
    assert run(conf, "exec",
               "insert into nation (n_nationkey, n_name, n_regionkey, n_comment) "
               "values (93793619, 'algeria', 0, 'x')") == EXIT_OK
    capsys.readouterr()
    assert run(conf, "exec", "select n_name from nation where n_nationkey = 93793619") == EXIT_OK
    out = capsys.readouterr().out
    assert "algeria" in out
    # and the follow-up delete restores the original count
    assert run(conf, "exec", "delete from nation where n_nationkey = 93793619") == EXIT_OK
    assert run(conf, "audit", "counts") == EXIT_OK


def test_tamper_then_select_exit_2(workdir, capsys):
    _, conf = workdir
    run(conf, "init")
    assert run(conf, "tamper", "customer", "--pk", "3", "--set", "c_acctbal=9999.99") == EXIT_OK
    capsys.readouterr()
    assert run(conf, "exec", "select * from customer") == EXIT_TAMPER
    err = capsys.readouterr().err
    assert "ALERT" in err and "customer" in err
    # alert log got a line
    tmp = os.path.dirname(conf)
    log = os.path.join(tmp, "state", "ledger.dat.alerts.log")
    assert os.path.exists(log)


def test_tamper_delete_then_count_audit(workdir, capsys):
    _, conf = workdir
    run(conf, "init")
    assert run(conf, "tamper", "orders", "--pk", "4", "--delete") == EXIT_OK
    capsys.readouterr()
    assert run(conf, "audit", "counts") == EXIT_TAMPER
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "orders" in out


def test_tamper_delete_plus_dummy_insert_fools_counts_not_full(workdir, capsys):
    _, conf = workdir
    run(conf, "init")
    run(conf, "tamper", "region", "--pk", "4", "--delete")
    assert run(conf, "tamper", "region", "--insert", "77,atlantis,sunken") == EXIT_OK
    capsys.readouterr()
    assert run(conf, "audit", "counts") == EXIT_OK
    assert run(conf, "audit", "full") == EXIT_TAMPER
    captured = capsys.readouterr()
    assert "ALERT" in captured.err
    assert "MISSING" in captured.err


def test_tamper_insert_reads_fields_as_the_csv_loader_does(tmp_path, capsys):
    # with csv_null = NULL, an --insert field NULL is NULL, as in t.csv
    (tmp_path / "schema.sql").write_text(
        "create table t (k integer, n integer, s text, primary key (k));")
    (tmp_path / "t.csv").write_text("k,n,s\n1,NULL,a\n")
    conf = tmp_path / "verity.conf"
    conf.write_text(f"ddl = schema.sql\ncsv_dir = .\nledger = ledger.dat\n"
                    "peers = 1\ncsv_null = NULL\n")
    conf = str(conf)
    assert run(conf, "init") == EXIT_OK
    assert run(conf, "tamper", "t", "--insert", "2,NULL,b") == EXIT_OK
    assert run(conf, "tamper", "t", "--insert", "3,5,NULL") == EXIT_OK
    assert (tmp_path / "t.csv").read_text() == "k,n,s\n1,NULL,a\n2,NULL,b\n3,5,NULL\n"
    capsys.readouterr()
    assert run(conf, "tamper", "t", "--insert", "4,x,c") == EXIT_ERROR
    assert "error: t line 1: " in capsys.readouterr().err


def test_ledger_verify_and_history(workdir, capsys):
    _, conf = workdir
    run(conf, "init")
    run(conf, "exec", "update customer set c_comment = 'edited' where c_custkey = 1")
    capsys.readouterr()
    assert run(conf, "ledger", "verify") == EXIT_OK
    out = capsys.readouterr().out
    assert "chain ok" in out

    from verity.fingerprint import row_id
    from verity.values import Value
    rid = row_id([Value.integer(1)], "customer")
    assert run(conf, "ledger", "history", rid) == EXIT_OK
    out = capsys.readouterr().out
    assert "v1" in out and "v2" in out and "owner=peer-1" in out


def test_ledger_history_of_an_unknown_row_exits_1(workdir, capsys):
    _, conf = workdir
    run(conf, "init")
    capsys.readouterr()
    assert run(conf, "ledger", "history", "no-such-row") == EXIT_ERROR
    assert capsys.readouterr().err == "error: no ledger record for no-such-row\n"


def test_repl_ledger_history_of_an_unknown_row_reports_and_goes_on(workdir, capsys,
                                                                    monkeypatch):
    _, conf = workdir
    run(conf, "init")
    inputs = iter([".ledger history no-such-row", ".tables", ".quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(inputs))
    capsys.readouterr()
    assert run(conf, "repl") == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "error: no ledger record for no-such-row\n"
    assert "region (5 rows)" in captured.out


def test_ledger_verify_detects_file_tampering(workdir, capsys):
    tmp, conf = workdir
    run(conf, "init")
    path = tmp / "state" / "ledger.dat"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    assert run(conf, "ledger", "verify") == EXIT_TAMPER


def test_ledger_verify_reports_a_block_the_state_refuses(workdir, capsys):
    tmp, conf = workdir
    run(conf, "init")
    path = str(tmp / "state" / "ledger.dat")
    draft = TxDraft(TxKind.ADJUST_ROW_COUNT, "region", "peer-1")  # no delta
    height = append_forged_block(path, load_peers(path + ".peers.json"), [draft])
    capsys.readouterr()
    assert run(conf, "ledger", "verify") == EXIT_TAMPER
    assert f"chain BAD at height {height} (head {height})" in capsys.readouterr().out
    assert run(conf, "exec", "select * from region") == EXIT_OK


def test_json_lines_output(workdir, capsys):
    tmp, conf = workdir
    with open(conf, "a") as f:
        f.write("output = json-lines\n")
    run(conf, "init")
    capsys.readouterr()
    assert run(conf, "exec", "select r_regionkey, r_name from region") == EXIT_OK
    out_lines = capsys.readouterr().out.strip().split("\n")
    objs = [json.loads(line) for line in out_lines]
    assert len(objs) == 5
    assert objs[0] == {"r_regionkey": 0, "r_name": "africa"}


def test_bench_command(workdir, tmp_path, capsys):
    tmp, conf = workdir
    run(conf, "init")
    qfile = tmp_path / "queries.txt"
    qfile.write_text(
        "q_region: select * from region\n"
        "q_nation: select * from nation\n"
        "q_join: select * from supplier, nation where s_nationkey = n_nationkey\n"
    )
    out_file = tmp_path / "bench.jsonl"
    capsys.readouterr()
    assert run(conf, "bench", str(qfile), "--runs", "2", "--out", str(out_file)) == EXIT_OK
    out = capsys.readouterr().out
    assert "q_region" in out and "fit:" in out
    header, separator = out.split("\n")[:2]
    assert header == ("id       | kind | tables          | checked | mutated | end-to-end (s) "
                      "| min (s) | median (s) | per tuple (s) | lookup/tuple (s)")
    assert separator == ("---------+------+-----------------+---------+---------+----------------"
                         "+---------+------------+---------------+-----------------")
    lines = [json.loads(l) for l in out_file.read_text().strip().split("\n")]
    assert lines[0]["tuples_checked"] == 5
    assert lines[1]["tuples_checked"] == 25
    assert "fit_r2" in lines[-1]


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_bench_refuses_runs_below_one(workdir, tmp_path, capsys, runs):
    _, conf = workdir
    run(conf, "init")
    qfile = tmp_path / "queries.txt"
    qfile.write_text("q_region: select * from region\n")
    capsys.readouterr()
    assert run(conf, "bench", str(qfile), "--runs", runs) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: --runs must be at least 1, got {runs}\n"


def test_repl_basic_flow(workdir, capsys, monkeypatch):
    _, conf = workdir
    run(conf, "init")
    inputs = iter([
        ".tables",
        ".schema region",
        "select r_name from region where r_regionkey = 0",
        ".ledger verify",
        ".audit counts",
        ".quit",
    ])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(inputs))
    capsys.readouterr()
    assert run(conf, "repl") == EXIT_OK
    out = capsys.readouterr().out
    assert "region (5 rows)" in out
    assert "create table region" in out
    assert "africa" in out
    assert "chain ok" in out
    assert "all tables match" in out


@pytest.mark.parametrize("output", ["table", "json-lines"])
def test_repl_reports_the_tuples_a_repeated_select_fingerprints(workdir, capsys, monkeypatch,
                                                                output):
    _, conf = workdir
    with open(conf, "a") as f:
        f.write(f"output = {output}\n")
    run(conf, "init")
    inputs = iter(["select * from region", "select * from region", ".quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(inputs))
    capsys.readouterr()
    assert run(conf, "repl") == EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    if output == "json-lines":
        blobs = [json.loads(line) for line in lines]
        assert [(b["tuples_checked"], b["tuples_fingerprinted"]) for b in blobs] == [(5, 5),
                                                                                     (5, 0)]
    else:
        assert [line.split(", ")[0] for line in lines] == [
            "-- verified: 5 tuple(s) checked (5 fingerprinted)",
            "-- verified: 5 tuple(s) checked (0 fingerprinted)"]


@pytest.mark.parametrize("assignment,stored,line", [
    ("s=NULL", "NULL", "1,7,NULL"),        # unquoted null literal: NULL
    ("n=NULL", "NULL", "1,NULL,a"),        # NULL in an INTEGER column, no error
    ('s="NULL"', "'NULL'", '1,7,"NULL"'),  # quoted: the text NULL
    ("s=", "''", '1,7,""'),                # empty: the empty text
])
def test_tamper_set_reads_its_value_as_the_csv_loader_does(tmp_path, assignment,
                                                           stored, line):
    (tmp_path / "schema.sql").write_text(
        "create table t (k integer, n integer, s text, primary key (k));")
    (tmp_path / "t.csv").write_text("k,n,s\n1,7,a\n")
    conf = tmp_path / "verity.conf"
    conf.write_text(f"ddl = schema.sql\ncsv_dir = .\nledger = ledger.dat\n"
                    "peers = 1\ncsv_null = NULL\n")
    conf = str(conf)
    assert run(conf, "init") == EXIT_OK
    assert run(conf, "tamper", "t", "--pk", "1", "--set", assignment) == EXIT_OK
    assert (tmp_path / "t.csv").read_text() == f"k,n,s\n{line}\n"
    # the value the next session reads back
    db = open_session(SessionConfig.from_file(conf)).db
    v = next(db.rows_of("t"))["kns".index(assignment[0])]
    assert ("NULL" if v.is_null else repr(v.raw)) == stored


def test_tamper_set_refuses_more_than_one_field(tmp_path, capsys):
    (tmp_path / "schema.sql").write_text(
        "create table t (k integer, s text, primary key (k));")
    (tmp_path / "t.csv").write_text("k,s\n1,a\n")
    conf = tmp_path / "verity.conf"
    conf.write_text("ddl = schema.sql\ncsv_dir = .\nledger = ledger.dat\npeers = 1\n")
    conf = str(conf)
    assert run(conf, "init") == EXIT_OK
    capsys.readouterr()
    assert run(conf, "tamper", "t", "--pk", "1", "--set", "s=a,b") == EXIT_ERROR
    assert "one CSV field" in capsys.readouterr().err
    assert run(conf, "tamper", "t", "--pk", "1", "--set", 's="a,b"') == EXIT_OK
    assert (tmp_path / "t.csv").read_text() == 'k,s\n1,"a,b"\n'


@pytest.mark.parametrize("argv", [
    ("region", "--insert", ""),              # one empty field, region has three
    ("region", "--pk", "", "--delete"),      # one empty field: the NULL key
    ("region", "--pk", "", "--set", "r_name=x"),
    ("region", "--insert", "77,a,b\n78,c,d"),  # two records
    ("region", "--pk", "1,2", "--delete"),   # two fields for a one-column key
    ("region", "--pk", "1", "--set", "r_comment"),  # no "=": not column=value
])
def test_tamper_refuses_what_is_not_one_record_of_the_table(workdir, capsys, argv):
    tmp, conf = workdir
    run(conf, "init")
    before = (tmp / "fx" / "region.csv").read_bytes()
    capsys.readouterr()
    assert run(conf, "tamper", *argv) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")
    assert (tmp / "fx" / "region.csv").read_bytes() == before


def test_tamper_pk_reads_the_null_literal_as_the_csv_loader_does(tmp_path, capsys):
    # with csv_null = NULL, the text key NULL is spelled quoted, as in t.csv
    (tmp_path / "schema.sql").write_text(
        "create table t (k text, s text, primary key (k));")
    (tmp_path / "t.csv").write_text('k,s\n"NULL",a\nb,c\n')
    conf = tmp_path / "verity.conf"
    conf.write_text("ddl = schema.sql\ncsv_dir = .\nledger = ledger.dat\n"
                    "peers = 1\ncsv_null = NULL\n")
    conf = str(conf)
    assert run(conf, "init") == EXIT_OK
    capsys.readouterr()
    assert run(conf, "tamper", "t", "--pk", "NULL", "--delete") == EXIT_ERROR
    assert "error: no row with key (NULL,) in t" in capsys.readouterr().err
    assert run(conf, "tamper", "t", "--pk", '"NULL"', "--set", "s=x") == EXIT_OK
    assert run(conf, "tamper", "t", "--pk", "b", "--delete") == EXIT_OK
    assert (tmp_path / "t.csv").read_text() == 'k,s\n"NULL",x\n'
