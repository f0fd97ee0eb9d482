"""Operator command line.

Subcommands: init, exec, repl, tamper, audit, bench, ledger. All take
``--config <path>``; without it the ``VERITY_CONFIG`` environment variable
is consulted, then ``./verity.conf``. The config file is flat ``key=value``
text (``#`` comments allowed):

    ddl = fixtures/sf0.001/schema.sql
    csv_dir = fixtures/sf0.001
    ledger = state/ledger.dat
    peers = 5
    principal = peer-1
    output = table            # or json-lines
    csv_null =                # CSV text marking NULL (default: empty field)

The CSV directory is the stored database: verified mutations write changed
tables back, and ``tamper`` edits them behind the ledger's back exactly like
an insider with file access would.

Exit codes: 0 verified/ok, 2 tampering detected (or audit findings),
1 any other error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import dataclass

from .bench import parse_queries_file, run_bench
from .errors import TamperDetected, VerityError
from .ledger import SimulatedLedger, generate_peers, load_peers, save_peers
from .storage import Database, Tuple, csv_row, csv_value, iter_csv
from .values import Value, ValueType, parse_typed, render_value
from .verifier import MutationSummary, Verifier

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TAMPER = 2


@dataclass
class SessionConfig:
    ddl: str
    csv_dir: str
    ledger: str
    peers: int = 5
    principal: str = "peer-1"
    output: str = "table"
    csv_null: str = ""
    audit_log: str | None = None

    @classmethod
    def from_file(cls, path: str) -> "SessionConfig":
        kv: dict[str, str] = {}
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise VerityError(f"{path}:{lineno}: expected key = value")
                k, v = line.split("=", 1)
                kv[k.strip()] = v.strip()
        base = os.path.dirname(os.path.abspath(path))

        def _path(p: str) -> str:
            return p if os.path.isabs(p) else os.path.join(base, p)

        missing = [k for k in ("ddl", "csv_dir", "ledger") if k not in kv]
        if missing:
            raise VerityError(f"{path}: missing config keys: {', '.join(missing)}")
        peers = int(kv.get("peers", "5"))
        if peers < 1:
            raise VerityError("peers must be >= 1")
        output = kv.get("output", "table")
        if output not in ("table", "json-lines"):
            raise VerityError("output must be 'table' or 'json-lines'")
        return cls(
            ddl=_path(kv["ddl"]),
            csv_dir=_path(kv["csv_dir"]),
            ledger=_path(kv["ledger"]),
            peers=peers,
            principal=kv.get("principal", "peer-1"),
            output=output,
            csv_null=kv.get("csv_null", ""),
            audit_log=_path(kv["audit_log"]) if "audit_log" in kv else None,
        )


def resolve_config(path_arg: str | None) -> SessionConfig:
    path = path_arg or os.environ.get("VERITY_CONFIG") or "verity.conf"
    if not os.path.exists(path):
        raise VerityError(
            f"config file {path!r} not found (use --config or $VERITY_CONFIG)"
        )
    return SessionConfig.from_file(path)


# --- session assembly -------------------------------------------------------

class Session:
    def __init__(self, cfg: SessionConfig, db: Database, ledger: SimulatedLedger,
                 verifier: Verifier):
        self.cfg = cfg
        self.db = db
        self.ledger = ledger
        self.verifier = verifier

    def writeback(self, table: str):
        """Rewrite ``table``'s CSV from storage. A table never loaded is
        left alone: it has not changed, and its CSV is the only copy of its
        rows, which opening the file for writing would destroy."""
        if not self.db.is_loaded(table):
            return
        path = os.path.join(self.cfg.csv_dir, f"{table}.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            self.db.dump_csv(table, f, self.cfg.csv_null)


def _open_database(cfg: SessionConfig, warn=True) -> Database:
    """The schema, with each table's CSV registered to load on first use."""
    db = Database()
    with open(cfg.ddl, encoding="utf-8") as f:
        db.load_ddl(f.read())
    for table in db.catalog.names():
        path = os.path.join(cfg.csv_dir, f"{table}.csv")
        if not os.path.exists(path):
            if warn:
                print(f"warning: no CSV for table {table!r}; starting empty",
                      file=sys.stderr)
            continue
        db.register_csv(table, path, cfg.csv_null)
    return db


def open_session(cfg: SessionConfig) -> Session:
    db = _open_database(cfg, warn=False)
    peers = load_peers(cfg.ledger + ".peers.json")
    ledger = SimulatedLedger.load(cfg.ledger, peers)
    audit_log = cfg.audit_log or cfg.ledger + ".alerts.log"
    verifier = Verifier(db, ledger, cfg.principal, audit_log=audit_log)
    return Session(cfg, db, ledger, verifier)


# --- output helpers ----------------------------------------------------------

def format_table(headers: list[str], rows: list[tuple]) -> str:
    cells = [[render_value(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    def fmt(row):
        return " | ".join(c.ljust(widths[i]) for i, c in enumerate(row))
    sep = "-+-".join("-" * w for w in widths)
    lines = [fmt(headers), sep]
    lines.extend(fmt(r) for r in cells)
    return "\n".join(lines)


def _json_value(v: Value):
    if v.is_null:
        return None
    if v.kind is ValueType.INTEGER:
        return v.raw
    return render_value(v)


def print_rows(rows, names, output: str):
    if output == "json-lines":
        for row in rows:
            print(json.dumps({n: _json_value(v) for n, v in zip(names, row)}))
    else:
        print(format_table(names, rows))
        print(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")


def print_report(report, output: str):
    if output == "json-lines":
        blob = {
            "kind": report.query_kind.value if report.query_kind else None,
            "outcome": report.outcome,
            "tables": report.tables_touched,
            "tuples_checked": report.tuples_checked,
            "tuples_mutated": report.tuples_mutated,
            "ledger_txs": report.ledger_txs_committed,
            "elapsed": report.elapsed,
        }
        print(json.dumps(blob), file=sys.stderr)
    else:
        phases = ", ".join(f"{k}={v * 1000:.1f}ms" for k, v in report.elapsed.items())
        print(
            f"-- {report.outcome}: {report.tuples_checked} tuple(s) checked, "
            f"{report.tuples_mutated} mutated, {report.ledger_txs_committed} ledger tx(s); "
            f"{phases}",
            file=sys.stderr,
        )


def print_alerts(alerts):
    for a in alerts:
        print(
            f"ALERT table={a.table} row_id={a.row_id} expected={a.expected} "
            f"computed={a.computed}",
            file=sys.stderr,
        )


# --- subcommands --------------------------------------------------------------

def cmd_init(args) -> int:
    cfg = resolve_config(args.config)
    if os.path.exists(cfg.ledger) and not args.force:
        print(f"error: ledger file {cfg.ledger!r} exists (use --force to re-init)",
              file=sys.stderr)
        return EXIT_ERROR
    db = _open_database(cfg, warn=True)
    peers = generate_peers(cfg.peers)
    # bootstrap in memory; persist only if the whole pass succeeds
    ledger = SimulatedLedger(peers)
    verifier = Verifier(db, ledger, cfg.principal)
    counts = verifier.bootstrap()
    os.makedirs(os.path.dirname(os.path.abspath(cfg.ledger)), exist_ok=True)
    ledger.persist_to(cfg.ledger)
    save_peers(peers, cfg.ledger + ".peers.json")
    for table, n in counts.items():
        print(f"{table}: {n}")
    print(f"total: {sum(counts.values())}")
    print(f"ledger: {cfg.ledger} (head height {ledger.head_height}, "
          f"{cfg.peers} peers, quorum {ledger.quorum})")
    return EXIT_OK


def _exec_one(session: Session, sql: str) -> int:
    cfg = session.cfg
    try:
        payload, report = session.verifier.process(sql)
    except TamperDetected as exc:
        print_alerts(exc.alerts)
        if exc.report is not None:
            print_report(exc.report, cfg.output)
        print("tampering detected; results withheld", file=sys.stderr)
        return EXIT_TAMPER
    if isinstance(payload, MutationSummary):
        session.writeback(payload.table)
        print(
            f"{payload.kind.value}: {payload.rows_affected} row(s) on "
            f"{payload.table}, {payload.ledger_txs} ledger tx(s)"
            + (f", block {payload.block_height}" if payload.block_height is not None else "")
        )
    else:
        print_rows(payload, report.columns, cfg.output)
    print_report(report, cfg.output)
    return EXIT_OK


def cmd_exec(args) -> int:
    cfg = resolve_config(args.config)
    if args.file:
        with open(args.file, encoding="utf-8") as f:
            sql = f.read()
    else:
        sql = args.query
    if not sql or not sql.strip():
        print("error: empty query", file=sys.stderr)
        return EXIT_ERROR
    session = open_session(cfg)
    return _exec_one(session, sql)


def cmd_repl(args) -> int:
    cfg = resolve_config(args.config)
    session = open_session(cfg)
    print(f"verity repl; database {cfg.csv_dir}; ledger head height "
          f"{session.ledger.head_height}. Type .quit to exit.")
    while True:
        try:
            line = input("verity> ").strip()
        except EOFError:
            print()
            return EXIT_OK
        except KeyboardInterrupt:
            print()
            continue
        if not line:
            continue
        if line.startswith("."):
            if _repl_meta(session, line) == "quit":
                return EXIT_OK
            continue
        try:
            _exec_one(session, line)
        except VerityError as exc:
            print(f"error: {exc}", file=sys.stderr)


def _repl_meta(session: Session, line: str):
    parts = line.split()
    cmd = parts[0]
    if cmd in (".quit", ".exit"):
        return "quit"
    if cmd == ".tables":
        for t in session.db.catalog.names():
            print(f"{t} ({session.db.row_count(t)} rows)")
    elif cmd == ".schema":
        if len(parts) != 2:
            print("usage: .schema TABLE", file=sys.stderr)
            return None
        try:
            td = session.db.catalog.get(parts[1])
        except VerityError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None
        cols = ", ".join(f"{c.name} {c.type.value}" for c in td.columns)
        print(f"create table {td.name} ({cols}, primary key ({', '.join(td.primary_key)}));")
    elif cmd == ".audit":
        sub = parts[1] if len(parts) > 1 else "counts"
        _audit(session, sub)
    elif cmd == ".ledger":
        sub = parts[1] if len(parts) > 1 else "verify"
        if sub == "verify":
            _verify_chain(session)
        elif sub == "history" and len(parts) == 3:
            _history(session, parts[2])
        else:
            print("usage: .ledger verify | .ledger history <rowid>", file=sys.stderr)
    else:
        print(f"unknown meta command {cmd}; try .tables .schema .audit .ledger .quit",
              file=sys.stderr)
    return None


def _verify_chain(session: Session) -> int:
    rep = session.ledger.verify_chain()
    if rep.ok:
        print(f"chain ok, head height {rep.head_height}")
        return EXIT_OK
    print(f"chain BAD at height {rep.first_bad_height} (head {rep.head_height})")
    return EXIT_TAMPER


def _history(session: Session, rid: str):
    try:
        entries = session.ledger.history(rid)
    except VerityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return
    for i, e in enumerate(entries, 1):
        print(f"v{i} block={e.height} owner={e.owner} fingerprint={e.fingerprint}")


def _audit(session: Session, sub: str) -> int:
    if sub == "counts":
        mismatches = session.verifier.audit_counts()
        if not mismatches:
            print("count audit: all tables match")
            return EXIT_OK
        for m in mismatches:
            print(f"MISMATCH {m.table}: storage={m.db_count} ledger={m.ledger_count}")
        return EXIT_TAMPER
    if sub == "full":
        alerts, missing = session.verifier.audit_full()
        print_alerts(alerts)
        for m in missing:
            print(f"MISSING table={m.table} row_id={m.row_id} "
                  f"(ledger-active, absent from storage)", file=sys.stderr)
        if not alerts and not missing:
            print("full audit: every tuple verified, no missing rows")
            return EXIT_OK
        print(f"full audit: {len(alerts)} alert(s), {len(missing)} missing row(s)")
        return EXIT_TAMPER
    print("usage: audit counts|full", file=sys.stderr)
    return EXIT_ERROR


def cmd_audit(args) -> int:
    cfg = resolve_config(args.config)
    session = open_session(cfg)
    return _audit(session, args.kind)


def cmd_tamper(args) -> int:
    cfg = resolve_config(args.config)
    session = open_session(cfg)
    db = session.db
    td = db.catalog.get(args.table)

    if args.insert is not None:
        fields = next(iter_csv(io.StringIO(args.insert)))
        if len(fields) != len(td.columns):
            print(f"error: {td.name} needs {len(td.columns)} values", file=sys.stderr)
            return EXIT_ERROR
        db.apply_row_insert(Tuple(td.name, csv_row(td, fields, cfg.csv_null, 1)))
        action = "inserted dummy row"
    else:
        if args.pk is None:
            print("error: --pk required", file=sys.stderr)
            return EXIT_ERROR
        pk_parts = next(iter_csv(io.StringIO(args.pk)))
        if len(pk_parts) != len(td.primary_key):
            print(f"error: {td.name} key has {len(td.primary_key)} column(s)",
                  file=sys.stderr)
            return EXIT_ERROR
        pk = tuple(
            parse_typed(raw, td.columns[td.col_index(c)].type)
            for (raw, _), c in zip(pk_parts, td.primary_key)
        )
        if args.delete:
            db.apply_row_delete(td.name, pk)
            action = "deleted row"
        elif args.set:
            col, _, val = args.set.partition("=")
            col = col.strip()
            idx = td.col_index(col)
            # the value is one CSV field, read as the CSV loader reads it
            fields = [f for line in iter_csv(io.StringIO(val)) for f in line] or [("", False)]
            if len(fields) != 1:
                print("error: --set takes one CSV field; quote a value with a comma",
                      file=sys.stderr)
                return EXIT_ERROR
            db.raw_mutate(td.name, pk, col,
                          csv_value(fields[0], td.columns[idx].type, cfg.csv_null))
            action = f"mutated column {col}"
        else:
            print("error: one of --set/--delete/--insert required", file=sys.stderr)
            return EXIT_ERROR

    session.writeback(td.name)
    print(f"tamper: {action} in {td.name} (ledger untouched)")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = resolve_config(args.config)
    session = open_session(cfg)
    with open(args.queries, encoding="utf-8") as f:
        queries = parse_queries_file(f.read())
    if not queries:
        print("error: no queries in file", file=sys.stderr)
        return EXIT_ERROR
    records, fit = run_bench(session.db, session.ledger, queries,
                             runs=args.runs, principal=cfg.principal)
    headers = ["id", "kind", "tables", "checked", "mutated", "end-to-end (s)",
               "min (s)", "median (s)", "per tuple (s)", "lookup/tuple (s)"]
    rows = []
    for r in records:
        rows.append((
            r.query_id, r.kind_tag, ",".join(r.tables), str(r.tuples_checked),
            str(r.tuples_mutated), f"{r.mean_end_to_end:.4f}",
            f"{r.min_end_to_end:.4f}", f"{r.median_end_to_end:.4f}",
            f"{r.per_tuple:.6f}" if r.per_tuple is not None else "-",
            f"{r.lookup_per_tuple:.6f}" if r.lookup_per_tuple is not None else "-",
        ))
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    print(" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    print("-+-".join("-" * w for w in widths))
    for row in rows:
        print(" | ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    if fit:
        print(f"fit: time = {fit.slope:.6f} s/tuple * n + {fit.intercept:.6f} s "
              f"(R^2 = {fit.r2:.4f} over {fit.n_points} queries)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            for r in records:
                f.write(json.dumps(r.as_dict()) + "\n")
            if fit:
                f.write(json.dumps({
                    "fit_slope": fit.slope, "fit_intercept": fit.intercept,
                    "fit_r2": fit.r2, "fit_points": fit.n_points,
                }) + "\n")
    return EXIT_OK


def cmd_ledger(args) -> int:
    cfg = resolve_config(args.config)
    session = open_session(cfg)
    if args.action == "verify":
        return _verify_chain(session)
    if args.action == "history":
        if not args.row_id:
            print("error: row id required", file=sys.stderr)
            return EXIT_ERROR
        _history(session, args.row_id)
        return EXIT_OK
    return EXIT_ERROR


# --- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="verity",
                                 description="tamper-evidence gateway for SQL data")
    ap.add_argument("--config", help="path to key=value config file")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="load DDL+CSVs, fingerprint everything, start the ledger")
    p.add_argument("--force", action="store_true", help="overwrite an existing ledger")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("exec", help="run one verified statement")
    p.add_argument("query", nargs="?", help="SQL text")
    p.add_argument("--file", help="read the statement from a file")
    p.set_defaults(func=cmd_exec)

    p = sub.add_parser("repl", help="interactive verified shell")
    p.set_defaults(func=cmd_repl)

    p = sub.add_parser("tamper", help="raw out-of-band mutation (attack simulation)")
    p.add_argument("table")
    p.add_argument("--pk", help="primary key value(s), comma-separated")
    p.add_argument("--set", help="column=value")
    p.add_argument("--delete", action="store_true")
    p.add_argument("--insert", help="full row, comma-separated in schema order")
    p.set_defaults(func=cmd_tamper)

    p = sub.add_parser("audit", help="illegitimate-delete audits")
    p.add_argument("kind", choices=["counts", "full"])
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("bench", help="run a queries file, report scaling")
    p.add_argument("queries")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--out", help="write json-lines records here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ledger", help="inspect the chain")
    p.add_argument("action", choices=["verify", "history"])
    p.add_argument("row_id", nargs="?")
    p.set_defaults(func=cmd_ledger)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
