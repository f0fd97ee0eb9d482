"""Tables load on first use: which CSVs a command parses and rewrites, and
how a malformed CSV fails. Asserts on counts and file bytes, not times."""

import io
import os

import pytest

from verity.cli import EXIT_ERROR, EXIT_OK, SessionConfig, main, open_session
from verity.errors import ValueTypeError
from verity.fixtures import generate_fixture
from verity.storage import Database

TINY_COUNTS = {"customer": 12, "lineitem": 30, "nation": 25, "orders": 10,
               "part": 6, "partsupp": 12, "region": 5, "supplier": 4}
TABLES = sorted(TINY_COUNTS)
BAD_LINE = 12  # the nation.csv line that ``corrupt_nation`` breaks


@pytest.fixture
def state(tmp_path):
    """(config path, CSV directory) of an initialised tiny database."""
    fx = tmp_path / "fx"
    generate_fixture(str(fx), counts=TINY_COUNTS, seed=3)
    conf = tmp_path / "verity.conf"
    conf.write_text(f"ddl = {fx}/schema.sql\ncsv_dir = {fx}\n"
                    f"ledger = {tmp_path}/ledger.dat\npeers = 3\n")
    assert main(["--config", str(conf), "init"]) == EXIT_OK
    return str(conf), fx


@pytest.fixture
def loads(monkeypatch):
    """The tables ``Database.load_csv`` is called for, in call order."""
    seen = []
    original = Database.load_csv

    def counting(self, table, *args, **kwargs):
        seen.append(table)
        return original(self, table, *args, **kwargs)

    monkeypatch.setattr(Database, "load_csv", counting)
    return seen


def snapshot(fx) -> dict:
    """Bytes and modification time of every CSV file."""
    out = {}
    for name in os.listdir(fx):
        if name.endswith(".csv"):
            path = fx / name
            out[name] = (path.read_bytes(), os.stat(path).st_mtime_ns)
    return out


def changed_files(before: dict, after: dict) -> set:
    return {name for name in before if before[name] != after[name]}


def corrupt_nation(fx):
    path = fx / "nation.csv"
    lines = path.read_text().splitlines(keepends=True)
    line = lines[BAD_LINE - 1]
    lines[BAD_LINE - 1] = "xxx" + line[line.index(","):]  # a key that is no integer
    path.write_text("".join(lines))


def test_cold_select_loads_only_its_table(state, loads, capsys):
    conf, _ = state
    assert main(["--config", conf, "exec", "select * from region"]) == EXIT_OK
    assert "(5 rows)" in capsys.readouterr().out
    assert loads == ["region"]


def test_a_join_loads_the_tables_it_reads(state, loads):
    conf, _ = state
    assert main(["--config", conf, "exec",
                 "select n_name, r_name from nation, region "
                 "where n_regionkey = r_regionkey"]) == EXIT_OK
    assert sorted(loads) == ["nation", "region"]


@pytest.mark.parametrize("argv", [["audit", "counts"], ["audit", "full"],
                                  ["init", "--force"]])
def test_whole_database_commands_load_every_table_once(state, loads, argv):
    conf, _ = state
    assert main(["--config", conf, *argv]) == EXIT_OK
    assert sorted(loads) == TABLES


@pytest.mark.parametrize("argv", [
    ["tamper", "customer", "--pk", "3", "--set", "c_comment=edited"],
    ["exec", "update customer set c_comment = 'edited' where c_custkey = 3"],
])
def test_a_mutation_loads_and_rewrites_only_its_table(state, loads, argv):
    conf, fx = state
    before = snapshot(fx)
    assert main(["--config", conf, *argv]) == EXIT_OK
    assert loads == ["customer"]
    assert changed_files(before, snapshot(fx)) == {"customer.csv"}


def test_writeback_leaves_an_unloaded_table_alone(state, loads):
    conf, fx = state
    session = open_session(SessionConfig.from_file(conf))
    before = snapshot(fx)
    for table in TABLES:
        session.writeback(table)
    assert loads == []
    assert changed_files(before, snapshot(fx)) == set()
    assert not any(session.db.is_loaded(t) for t in TABLES)


def test_clone_of_a_partly_loaded_session_is_complete_and_independent(state):
    conf, fx = state
    db = open_session(SessionConfig.from_file(conf)).db
    assert db.row_count("region") == 5
    clone = db.clone()
    # the clone holds every row and no longer needs the files
    for name in os.listdir(fx):
        if name.endswith(".csv"):
            os.remove(fx / name)
    assert {t: clone.row_count(t) for t in TABLES} == TINY_COUNTS
    assert {t: db.row_count(t) for t in TABLES} == TINY_COUNTS
    # neither sees the other's mutations
    clone.apply_row_delete("nation", (next(clone.rows_of("nation"))[0],))
    db.apply_row_delete("orders", (next(db.rows_of("orders"))[0],))
    assert clone.row_count("nation") == 24 and db.row_count("nation") == 25
    assert db.row_count("orders") == 9 and clone.row_count("orders") == 10


# --- a malformed CSV fails when its table is first touched -----------------------

def test_malformed_csv_fails_only_the_statements_that_read_it(state, capsys):
    conf, fx = state
    corrupt_nation(fx)
    capsys.readouterr()
    assert main(["--config", conf, "exec", "select * from region"]) == EXIT_OK
    assert main(["--config", conf, "exec", "select * from nation"]) == EXIT_ERROR
    assert f"error: nation line {BAD_LINE}: " in capsys.readouterr().err


def test_malformed_csv_fails_every_touch_in_one_session(state, capsys, monkeypatch):
    conf, fx = state
    corrupt_nation(fx)
    nation_before = (fx / "nation.csv").read_bytes()
    inputs = iter([
        "select * from nation",
        "update orders set o_comment = 'edited' where o_orderkey = 1",
        "select count(*) from nation",
        "delete from nation where n_nationkey = 0",
        ".quit",
    ])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(inputs))
    capsys.readouterr()
    assert main(["--config", conf, "repl"]) == EXIT_OK
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 3
    assert all(e == errors[0] for e in errors)
    assert errors[0].startswith(f"error: nation line {BAD_LINE}: ")
    assert "update: 1 row(s) on orders" in captured.out
    assert (fx / "nation.csv").read_bytes() == nation_before


def test_a_failed_first_load_leaves_the_table_unloaded_and_retries(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("k,v\n1,10\n2,oops\n3,30\n")
    db = Database()
    db.load_ddl("create table t (k integer, v integer, primary key (k));")
    db.register_csv("t", str(path))
    for _ in range(2):
        with pytest.raises(ValueTypeError, match="^t line 3: "):
            db.row_count("t")
        assert not db.is_loaded("t")
    path.write_text("k,v\n1,10\n2,20\n3,30\n")
    assert db.row_count("t") == 3 and db.is_loaded("t")


def test_load_csv_adds_all_rows_or_none():
    db = Database()
    db.load_ddl("create table t (k integer, v integer, primary key (k));")
    db.load_csv("t", io.StringIO("k,v\n1,10\n"))
    for csv, error in [
        ("k,v\n2,20\n3,oops\n", "^t line 3: "),
        ('k,v\n2,20\n3,"30\n4,40\n', "^t line 3: unterminated quoted CSV field$"),
    ]:
        with pytest.raises(ValueTypeError, match=error):
            db.load_csv("t", io.StringIO(csv))
        assert [r[0].raw for r in db.rows_of("t")] == [1]


def test_init_and_sessions_share_one_registration_path(state, monkeypatch):
    conf, _ = state
    registered = []
    original = Database.register_csv

    def recording(self, table, *args, **kwargs):
        registered.append(table)
        return original(self, table, *args, **kwargs)

    monkeypatch.setattr(Database, "register_csv", recording)
    open_session(SessionConfig.from_file(conf))
    assert sorted(registered) == TABLES
    registered.clear()
    assert main(["--config", conf, "init", "--force"]) == EXIT_OK
    assert sorted(registered) == TABLES
