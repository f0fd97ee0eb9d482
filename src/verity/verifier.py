"""The verification gateway.

Every statement runs through the same pipeline: parse, widen, execute the
wide query, fingerprint-check every distinct base tuple it touched against
the ledger, and only then release results or apply mutations.

The write protocol is stated in row changes: UPDATE, INSERT and DELETE hand
``Verifier._commit_and_apply`` a ``(row id, old row, new row)`` per changed
row, and it alone turns them into ledger drafts, commits those as one block
strictly before storage is touched, then applies the changes; so a ledger
rejection leaves the database unchanged. A row's previous fingerprint is the
one its SELECT just verified.

Detection is access-triggered: a tuple tampered out-of-band fails its
fingerprint check the first time any verified query touches it, and every
time after. Every check, a SELECT's and the full audit's, runs through
``_verify_rows``. The two audits catch what access alone cannot: count
mismatches from illegitimate deletes, and (full scan) unknown fingerprints
plus ledger-active rows that vanished from storage.

A check looks every tuple up in the ledger, but it computes a tuple's row
id and fingerprint only when the stored row behind it is not in its table's
``verified`` memo: the pair the ledger last confirmed for that very row
object. A stored row is immutable and any write, tampering included, stores
a new tuple object with no entry, so reuse returns exactly what hashing the
row again would, and the ledger lookup still decides.

Callers must not run two verified operations concurrently: the pipeline is
an externally-serialized facade, which is also what closes the
check-to-use window between verification and release.
"""

from __future__ import annotations

import datetime
import hashlib
import operator
import time
from dataclasses import dataclass, field

from . import sqlast as ast
from .errors import (
    ArityError,
    DuplicateColumn,
    DuplicatePrimaryKey,
    NonScalarSubquery,
    NullPrimaryKey,
    PkUpdateUnsupported,
    TamperDetected,
    UnsupportedFeature,
)
from .fingerprint import fingerprint, fingerprint_tuple, row_id
from .ledger import SimulatedLedger, TxDraft, TxKind
from .parser import parse
from .rewriter import change_projection, project_results
from .sqlast import QueryKind, classify
from .storage import Database, Scope, TableDef, compile_expr
from .values import NULL, coerce

PHASES = ("parse", "rewrite", "db_exec", "ledger_lookup", "ledger_commit")


@dataclass
class TamperAlert:
    row_id: str
    table: str
    expected: str   # fingerprint hex, or "ABSENT" / "DELETED"
    computed: str
    query_hash: str
    timestamp: int


@dataclass
class VerificationReport:
    """One statement's record. ``Verifier.process`` creates it, its stages
    fill it in as they run, and it is what ``process`` returns, or what
    ``TamperDetected.report`` carries."""

    query_hash: str
    query_kind: QueryKind | None = None
    tables_touched: list[str] = field(default_factory=list)
    tuples_seen: int = 0         # raw tuple occurrences before memoization
    tuples_fingerprinted: int = 0  # of those checked, the ones hashed, not reused
    tuples_mutated: int = 0
    ledger_txs_committed: int = 0
    elapsed: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    outcome: str = "verified"  # "verified" | "tampered"
    alerts: list = field(default_factory=list)
    columns: list[str] = field(default_factory=list)  # a SELECT's output names
    # row id -> its verified fingerprint
    checked: dict[str, str] = field(default_factory=dict, repr=False)

    @property
    def tuples_checked(self) -> int:
        """Distinct row ids verified."""
        return len(self.checked)

    def touch_table(self, name: str):
        if name not in self.tables_touched:
            self.tables_touched.append(name)


@dataclass
class MutationSummary:
    kind: QueryKind
    table: str
    rows_affected: int
    ledger_txs: int
    block_height: int | None


@dataclass
class CountMismatch:
    table: str
    db_count: int
    ledger_count: int


@dataclass
class MissingRow:
    row_id: str
    table: str


class _Timer:
    def __init__(self, report: VerificationReport, phase: str):
        self.report = report
        self.phase = phase

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.report.elapsed[self.phase] += time.perf_counter() - self.t0


class Verifier:
    def __init__(self, db: Database, ledger: SimulatedLedger, principal: str = "peer-1",
                 clock=None, audit_log: str | None = None):
        self.db = db
        self.ledger = ledger
        self.principal = principal
        self.clock = clock or (lambda: int(time.time()))
        self.audit_log = audit_log

    # --- bootstrap -----------------------------------------------------------

    def bootstrap(self) -> dict[str, int]:
        """Fingerprint every tuple of every table and record row counts.

        One block per table; the ledger's duplicate check makes a second
        bootstrap (or a row-id collision) fail loudly.
        """
        counts: dict[str, int] = {}
        for table in self.db.catalog.names():
            td = self.db.catalog.get(table)
            drafts = [TxDraft(TxKind.PUT, table, self.principal, *fingerprint_tuple(td, row))
                      for row in self.db.rows_of(table)]
            counts[table] = n = len(drafts)
            drafts.append(TxDraft(TxKind.ADJUST_ROW_COUNT, table, self.principal, delta=n))
            self.ledger.submit(drafts, self.principal)
        return counts

    # --- statement entry points ----------------------------------------------

    def process(self, sql_text: str, principal: str | None = None):
        """Parse, dispatch, verify. Returns (payload, report); the payload is
        a row list for SELECT and a MutationSummary otherwise. Raises
        TamperDetected (with all alerts) instead of releasing anything."""
        report = VerificationReport(hashlib.sha256(sql_text.encode("utf-8")).hexdigest())
        with _Timer(report, "parse"):
            q = parse(sql_text)
        report.query_kind = kind = classify(q)
        if kind is QueryKind.SELECT:
            rows, rw, _ = self._select(q, report)
            report.columns = rw.output_names
            return rows, report
        write = {QueryKind.UPDATE: self._update, QueryKind.INSERT: self._insert,
                 QueryKind.DELETE: self._delete}[kind]
        td = self.db.catalog.get(q.table)
        report.touch_table(td.name)
        return write(q, td, report, principal or self.principal), report

    # --- the verified SELECT pipeline ----------------------------------------

    def _select(self, q: ast.SelectQuery, report: VerificationReport):
        """``(rows, rewrite, row ids)``: the user's result rows, released only
        once every base tuple behind them verified, and, per exposure of
        ``rewrite.column_map``, the row id of each wide row's tuple."""
        with _Timer(report, "rewrite"):
            rw = change_projection(q, self.db.catalog)
        with _Timer(report, "db_exec"):
            wide_rows = self.db.exec_select(rw.wide_query)
        with _Timer(report, "ledger_lookup"):
            row_ids = []
            for exposure in rw.column_map:
                report.touch_table(exposure.table)
                row_ids.append(self._verify_rows(report, exposure.tabledef, wide_rows,
                                                 exposure.start))
        if report.alerts:
            report.outcome = "tampered"
            self._log_alerts(report.alerts)
            raise TamperDetected(report.alerts, report)
        with _Timer(report, "db_exec"):
            rows = project_results(wide_rows, rw)
        return rows, rw, row_ids

    # --- UPDATE, INSERT, DELETE ------------------------------------------------

    def _update(self, q: ast.UpdateQuery, td: TableDef, report: VerificationReport,
                principal: str) -> MutationSummary:
        set_cols = []  # the column index of each assignment
        for a in q.assignments:
            idx = td.col_index(a.column)  # UnknownColumn on bad names
            if a.column in td.primary_key:
                raise PkUpdateUnsupported(f"cannot SET primary-key column {a.column!r}")
            if idx in set_cols:
                raise DuplicateColumn(f"column {a.column!r} assigned twice")
            set_cols.append(idx)

        # scalar subqueries run through the verified SELECT pipeline first
        scalars: dict[int, ast.Literal] = {}
        for i, a in enumerate(q.assignments):
            if isinstance(a.value, ast.ScalarSubquery):
                rows, _, _ = self._select(a.value.query, report)
                if len(rows) != 1 or len(rows[0]) != 1:
                    raise NonScalarSubquery(
                        f"SET subquery for {a.column!r} returned "
                        f"{len(rows)} row(s); exactly one value required"
                    )
                scalars[i] = ast.Literal(rows[0][0])

        old_rows = self._target_rows(td, q.where, report)

        scope = Scope([(td.name, [(n, i) for i, n in enumerate(td.column_names())])])
        setters = [(idx, td.columns[idx].type,
                    compile_expr(scalars[i] if i in scalars else scope.bind(a.value)))
                   for i, (idx, a) in enumerate(zip(set_cols, q.assignments))]
        changes = []
        for rid, old in old_rows:
            new = list(old)
            for idx, typ, expr in setters:
                new[idx] = coerce(expr(old), typ)
            changes.append((rid, old, tuple(new)))
        return self._commit_and_apply(report, QueryKind.UPDATE, td, principal, changes)

    def _insert(self, q: ast.InsertQuery, td: TableDef, report: VerificationReport,
                principal: str) -> MutationSummary:
        col_idx = []
        for c in q.columns:
            idx = td.col_index(c)
            if idx in col_idx:
                raise DuplicateColumn(f"column {c!r} listed twice")
            col_idx.append(idx)
        for pk_col in td.primary_key:
            if pk_col not in q.columns:
                raise NullPrimaryKey(f"insert must provide primary-key column {pk_col!r}")

        if isinstance(q.source, ast.SelectSource):
            if any(isinstance(item, ast.BaseTable) and item.name == td.name
                   for sel in ast.iter_selects(q.source.query) for item in sel.from_items):
                raise UnsupportedFeature(
                    f"INSERT ... SELECT reading its own target table {td.name!r}"
                )
            src_rows, _, _ = self._select(q.source.query, report)
        else:
            src_rows = [tuple(compile_expr(e)(()) for e in row_exprs)
                        for row_exprs in q.source.rows]

        new_rows = []
        for r in src_rows:
            if len(r) != len(q.columns):
                raise ArityError(
                    f"insert supplies {len(r)} values for {len(q.columns)} columns"
                )
            values = [NULL] * len(td.columns)
            for v, idx in zip(r, col_idx):
                values[idx] = coerce(v, td.columns[idx].type)
            new_rows.append(tuple(values))

        batch_pks = set()
        changes = []
        for values in new_rows:
            pk = td.key(values)
            if any(v.is_null for v in pk):
                raise NullPrimaryKey(f"NULL primary key in insert into {td.name}")
            if pk in batch_pks:
                raise DuplicatePrimaryKey(f"duplicate key {pk} within insert batch")
            batch_pks.add(pk)
            if self.db.has_row(td.name, pk):
                raise DuplicatePrimaryKey(f"key {pk} already present in {td.name}")
            changes.append((row_id(pk, td.name), None, values))
        return self._commit_and_apply(report, QueryKind.INSERT, td, principal, changes)

    def _delete(self, q: ast.DeleteQuery, td: TableDef, report: VerificationReport,
                principal: str) -> MutationSummary:
        changes = [(rid, old, None) for rid, old in self._target_rows(td, q.where, report)]
        return self._commit_and_apply(report, QueryKind.DELETE, td, principal, changes)

    def _target_rows(self, td: TableDef, where,
                     report: VerificationReport) -> list[tuple[str, tuple]]:
        """``(row id, row)`` of every row of ``td`` that ``where`` selects, in
        key order, each verified by the SELECT pipeline (its fingerprint is
        ``report.checked[row id]``) under the row id that check computed: a
        ``select *`` of one table keeps its wide rows, in order."""
        q = ast.SelectQuery((ast.ProjectionItem(ast.Star(), None),),
                            (ast.BaseTable(td.name, None),), where)
        rows, _, (rids,) = self._select(q, report)
        return list(zip(rids, rows))

    def _commit_and_apply(self, report: VerificationReport, kind: QueryKind, td: TableDef,
                          principal: str, changes: list) -> MutationSummary:
        """The write protocol's one commit. ``changes`` holds ``(row id, old
        row, new row)`` per changed row of ``td``, no old row for an insert and
        no new one for a delete. Their drafts and any row-count change go to the
        ledger as one block before storage changes, so a ledger rejection
        leaves storage as it was."""
        table = td.name
        drafts, delta = [], 0
        for rid, old, new in changes:
            tx_kind = (TxKind.PUT if old is None else
                       TxKind.MARK_DELETED if new is None else TxKind.UPDATE)
            drafts.append(TxDraft(tx_kind, table, principal, row_id=rid,
                                  fingerprint=None if new is None else fingerprint(rid, new),
                                  prev_fingerprint=None if old is None else report.checked[rid]))
            delta += (old is None) - (new is None)
        height = None
        if drafts:
            if delta:
                drafts.append(TxDraft(TxKind.ADJUST_ROW_COUNT, table, principal, delta=delta))
            with _Timer(report, "ledger_commit"):
                height = self.ledger.submit(drafts, principal).height
            report.ledger_txs_committed += len(drafts)
        with _Timer(report, "db_exec"):
            for _, old, new in changes:
                if old is None:
                    self.db.apply_row_insert(table, new)
                elif new is None:
                    self.db.apply_row_delete(table, td.key(old))
                else:
                    self.db.apply_row_update(table, td.key(old), new)
        report.tuples_mutated = len(changes)
        return MutationSummary(kind, table, len(changes), len(drafts), height)

    # --- audits ----------------------------------------------------------------

    def audit_counts(self) -> list[CountMismatch]:
        """Compare per-table storage row counts with the ledger counts."""
        out = []
        for table in self.db.catalog.names():
            db_n = self.db.row_count(table)
            led_n = self.ledger.get_row_count(table)
            if db_n != led_n:
                out.append(CountMismatch(table, db_n, led_n))
        return out

    def audit_full(self) -> tuple[list[TamperAlert], list[MissingRow]]:
        """Fingerprint-check every stored tuple, then check every
        ledger-active row id for presence in storage."""
        report = VerificationReport(hashlib.sha256(b"audit:full").hexdigest())
        missing: list[MissingRow] = []
        for table in self.db.catalog.names():
            self._verify_rows(report, self.db.catalog.get(table), list(self.db.rows_of(table)))
            missing += [MissingRow(rec.row_id, table) for rec in self.ledger.scan_active(table)
                        if rec.row_id not in report.checked]
        if report.alerts:
            self._log_alerts(report.alerts)
        return report.alerts, missing

    # --- helpers ----------------------------------------------------------------

    def _verify_rows(self, report: VerificationReport, td: TableDef, rows: list,
                     start: int = 0) -> list[str]:
        """The one tuple check; returns the row id of each of ``rows``, in
        order. Each of ``rows`` holds a row of table ``td`` at
        ``[start, start + width)``; each distinct row id among them is
        checked once per statement (``report.checked`` keeps its
        fingerprint) by a ledger lookup. A fingerprint the ledger does not
        hold as that row's active one adds an alert naming what the ledger
        expected: "ABSENT", "DELETED" or its fingerprint.

        The row id and fingerprint come from the table's ``verified`` memo
        when the slice is a stored row with an entry, or (a join's slice)
        holds the very value objects of one; otherwise they are computed,
        and the entry is stored once the ledger confirms the fingerprint as
        the row's active one."""
        stop = start + len(td.columns)
        checked = report.checked
        stored_rows, verified = self.db.verified_rows(td.name)
        report.tuples_seen += len(rows)
        rids = []
        for wide in rows:
            row = wide[start:stop]
            entry = verified.get(id(row))  # an entry holds its row: this one
            if entry is None:
                pk = td.key(row)
                stored = stored_rows.get(pk)
                if stored is not None and all(map(operator.is_, stored, row)):
                    entry = verified.get(id(stored))
                else:
                    stored = None
            if entry is None:
                rid = row_id(pk, td.name)
            else:
                _, rid, fp = entry
            rids.append(rid)
            if rid in checked:
                continue
            if entry is None:
                fp = fingerprint(rid, row)
                report.tuples_fingerprinted += 1
            checked[rid] = fp
            rec = self.ledger.get_current(rid)
            if rec is None:
                expected = "ABSENT"
            elif rec.status != "active":
                expected = "DELETED"
            elif rec.fingerprint != fp:
                expected = rec.fingerprint
            else:
                if entry is None and stored is not None:
                    verified[id(stored)] = (stored, rec.row_id, rec.fingerprint)
                continue
            report.alerts.append(TamperAlert(rid, td.name, expected, fp,
                                             report.query_hash, self.clock()))
        return rids

    def _log_alerts(self, alerts):
        if not self.audit_log:
            return
        with open(self.audit_log, "a", encoding="utf-8") as f:
            for a in alerts:
                ts = datetime.datetime.fromtimestamp(
                    a.timestamp, tz=datetime.timezone.utc
                ).isoformat()
                f.write(f"{ts}\t{a.table}\t{a.row_id}\t{a.expected}\t{a.computed}"
                        f"\t{a.query_hash}\n")
