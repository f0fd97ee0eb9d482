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


def test_exec_syntax_error_exit_1(workdir, capsys):
    _, conf = workdir
    run(conf, "init")
    assert run(conf, "exec", "select from region") == EXIT_ERROR
    assert run(conf, "exec", "select * from region where x in (1)") == EXIT_ERROR


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
    lines = [json.loads(l) for l in out_file.read_text().strip().split("\n")]
    assert lines[0]["tuples_checked"] == 5
    assert lines[1]["tuples_checked"] == 25
    assert "fit_r2" in lines[-1]


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
    v = next(db.rows_of("t")).values["kns".index(assignment[0])]
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
