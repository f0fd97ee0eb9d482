"""The verification gateway.

Every statement runs through the same pipeline: parse, widen, execute the
wide query, fingerprint-check every distinct base tuple it touched against
the ledger, and only then release results or apply mutations.

The write protocol lives in ``Verifier._commit_and_apply``, shared by UPDATE,
INSERT and DELETE: the touched tuples' fingerprints commit as one ledger block
strictly before storage is touched, so a ledger rejection leaves the database
unchanged. A row's previous fingerprint is the one its SELECT just verified.

Detection is access-triggered: a tuple tampered out-of-band fails its
fingerprint check the first time any verified query touches it. Every
check, a SELECT's and the full audit's, runs through ``_verify_rows``. The two
audits catch what access alone cannot: count mismatches from illegitimate
deletes, and (full scan) unknown fingerprints plus ledger-active rows that
vanished from storage.

Callers must not run two verified operations concurrently: the pipeline is
an externally-serialized facade, which is also what closes the
check-to-use window between verification and release.
"""

from __future__ import annotations

import datetime
import hashlib
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
from .ledger import LedgerInterface, TxDraft, TxKind
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
    query_kind: QueryKind | None
    tables_touched: list[str]
    tuples_checked: int      # distinct row ids verified
    tuples_seen: int         # raw tuple occurrences before memoization
    tuples_mutated: int
    ledger_txs_committed: int
    elapsed: dict
    outcome: str  # "verified" | "tampered"
    alerts: list = field(default_factory=list)
    columns: list[str] = field(default_factory=list)  # a SELECT's output names

    @property
    def end_to_end(self) -> float:
        return sum(self.elapsed.values())


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


class _Ctx:
    """Per-statement accumulator: timings, verified fingerprints, alerts."""

    def __init__(self, query_text: str):
        self.kind = None
        self.elapsed = {p: 0.0 for p in PHASES}
        self.checked: dict[str, str] = {}  # row id -> its verified fingerprint
        self.seen = 0
        self.alerts: list[TamperAlert] = []
        self.tables: list[str] = []
        self.mutated = 0
        self.txs = 0
        self.query_hash = hashlib.sha256(query_text.encode("utf-8")).hexdigest()

    def touch_table(self, name: str):
        if name not in self.tables:
            self.tables.append(name)


class _Timer:
    def __init__(self, ctx: _Ctx, phase: str):
        self.ctx = ctx
        self.phase = phase

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.ctx.elapsed[self.phase] += time.perf_counter() - self.t0


class Verifier:
    def __init__(self, db: Database, ledger: LedgerInterface, principal: str = "peer-1",
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
            drafts = []
            for row in self.db.rows_of(table):
                rid, fp = fingerprint_tuple(td, row)
                drafts.append(TxDraft(TxKind.PUT, table, self.principal,
                                      row_id=rid, fingerprint=fp))
            counts[table] = n = len(drafts)
            drafts.append(TxDraft(TxKind.ADJUST_ROW_COUNT, table, self.principal, delta=n))
            self.ledger.submit(drafts, self.principal)
        return counts

    # --- statement entry points ----------------------------------------------

    def process(self, sql_text: str, principal: str | None = None):
        """Parse, dispatch, verify. Returns (payload, report); the payload is
        a row list for SELECT and a MutationSummary otherwise. Raises
        TamperDetected (with all alerts) instead of releasing anything."""
        ctx = _Ctx(sql_text)
        with _Timer(ctx, "parse"):
            q = parse(sql_text)
        ctx.kind = kind = classify(q)
        if kind is QueryKind.SELECT:
            rows, rw, _ = self._select(q, ctx)
            return rows, self._report(kind, ctx, columns=rw.output_names)
        write = {QueryKind.UPDATE: self._update, QueryKind.INSERT: self._insert,
                 QueryKind.DELETE: self._delete}[kind]
        td = self.db.catalog.get(q.table)
        ctx.touch_table(td.name)
        summary = write(q, td, ctx, principal or self.principal)
        return summary, self._report(kind, ctx)

    # --- the verified SELECT pipeline ----------------------------------------

    def _select(self, q: ast.SelectQuery, ctx: _Ctx):
        """``(rows, rewrite, row ids)``: the user's result rows, released only
        once every base tuple behind them verified, and, per exposure of
        ``rewrite.column_map``, the row id of each wide row's tuple."""
        with _Timer(ctx, "rewrite"):
            rw = change_projection(q, self.db.catalog)
        with _Timer(ctx, "db_exec"):
            wide_rows = self.db.exec_select(rw.wide_query)
        with _Timer(ctx, "ledger_lookup"):
            row_ids = []
            for exposure in rw.column_map:
                ctx.touch_table(exposure.table)
                row_ids.append(self._verify_rows(ctx, exposure.tabledef, wide_rows,
                                                 exposure.start))
        if ctx.alerts:
            self._log_alerts(ctx.alerts)
            raise TamperDetected(ctx.alerts, self._report(ctx.kind, ctx, outcome="tampered"))
        with _Timer(ctx, "db_exec"):
            rows = project_results(wide_rows, rw)
        return rows, rw, row_ids

    # --- UPDATE, INSERT, DELETE ------------------------------------------------

    def _update(self, q: ast.UpdateQuery, td: TableDef, ctx: _Ctx,
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
                rows, _, _ = self._select(a.value.query, ctx)
                if len(rows) != 1 or len(rows[0]) != 1:
                    raise NonScalarSubquery(
                        f"SET subquery for {a.column!r} returned "
                        f"{len(rows)} row(s); exactly one value required"
                    )
                scalars[i] = ast.Literal(rows[0][0])

        old_rows = self._target_rows(td, q.where, ctx)

        scope = Scope([(td.name, [(n, i) for i, n in enumerate(td.column_names())])])
        setters = [(idx, td.columns[idx].type,
                    compile_expr(scalars[i] if i in scalars else scope.bind(a.value)))
                   for i, (idx, a) in enumerate(zip(set_cols, q.assignments))]
        drafts, ops = [], []
        for rid, pk, old in old_rows:
            new = list(old)
            for idx, typ, expr in setters:
                v = expr(old)
                new[idx] = v if v.is_null else coerce(v, typ)
            new = tuple(new)
            drafts.append(TxDraft(TxKind.UPDATE, td.name, principal, row_id=rid,
                                  fingerprint=fingerprint(rid, new),
                                  prev_fingerprint=ctx.checked[rid]))
            ops.append((td.name, pk, new))
        return self._commit_and_apply(ctx, QueryKind.UPDATE, td.name, principal, drafts,
                                      self.db.apply_row_update, ops)

    def _insert(self, q: ast.InsertQuery, td: TableDef, ctx: _Ctx,
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
            src_rows, _, _ = self._select(q.source.query, ctx)
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
                values[idx] = v if v.is_null else coerce(v, td.columns[idx].type)
            new_rows.append(tuple(values))

        batch_pks = set()
        drafts, ops = [], []
        for values in new_rows:
            pk = td.key(values)
            if any(v.is_null for v in pk):
                raise NullPrimaryKey(f"NULL primary key in insert into {td.name}")
            if pk in batch_pks:
                raise DuplicatePrimaryKey(f"duplicate key {pk} within insert batch")
            batch_pks.add(pk)
            if self.db.has_row(td.name, pk):
                raise DuplicatePrimaryKey(f"key {pk} already present in {td.name}")
            rid = row_id(pk, td.name)
            drafts.append(TxDraft(TxKind.PUT, td.name, principal, row_id=rid,
                                  fingerprint=fingerprint(rid, values)))
            ops.append((td.name, values))
        return self._commit_and_apply(ctx, QueryKind.INSERT, td.name, principal, drafts,
                                      self.db.apply_row_insert, ops)

    def _delete(self, q: ast.DeleteQuery, td: TableDef, ctx: _Ctx,
                principal: str) -> MutationSummary:
        old_rows = self._target_rows(td, q.where, ctx)
        drafts = [TxDraft(TxKind.MARK_DELETED, td.name, principal, row_id=rid,
                          prev_fingerprint=ctx.checked[rid]) for rid, _, _ in old_rows]
        ops = [(td.name, pk) for _, pk, _ in old_rows]
        return self._commit_and_apply(ctx, QueryKind.DELETE, td.name, principal, drafts,
                                      self.db.apply_row_delete, ops)

    def _target_rows(self, td: TableDef, where, ctx: _Ctx) -> list[tuple[str, tuple, tuple]]:
        """``(row id, primary key, row)`` of every row of ``td`` that ``where``
        selects, in key order, each verified by the SELECT pipeline, so its
        verified fingerprint is ``ctx.checked[row id]``. The row ids are the
        ones that check computed: a ``select *`` of one table keeps its wide
        rows, in order."""
        q = ast.SelectQuery((ast.ProjectionItem(ast.Star(), None),),
                            (ast.BaseTable(td.name, None),), where)
        rows, _, (rids,) = self._select(q, ctx)
        return [(rid, td.key(row), row) for rid, row in zip(rids, rows)]

    def _commit_and_apply(self, ctx: _Ctx, kind: QueryKind, table: str, principal: str,
                          drafts: list, apply, ops: list) -> MutationSummary:
        """The write protocol's one commit: ``drafts``, one per changed row,
        plus the row-count change of an INSERT or DELETE, go to the ledger as
        one block; only then does ``apply(*op)`` run for each op. A ledger
        rejection therefore leaves storage unchanged."""
        height = None
        if drafts:
            delta = {QueryKind.INSERT: len(ops), QueryKind.DELETE: -len(ops)}.get(kind)
            if delta:
                drafts.append(TxDraft(TxKind.ADJUST_ROW_COUNT, table, principal, delta=delta))
            with _Timer(ctx, "ledger_commit"):
                height = self.ledger.submit(drafts, principal).height
            ctx.txs += len(drafts)
        with _Timer(ctx, "db_exec"):
            for op in ops:
                apply(*op)
        ctx.mutated = len(ops)
        return MutationSummary(kind, table, len(ops), len(drafts), height)

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
        ctx = _Ctx("audit:full")
        missing: list[MissingRow] = []
        for table in self.db.catalog.names():
            self._verify_rows(ctx, self.db.catalog.get(table), list(self.db.rows_of(table)))
            missing += [MissingRow(rec.row_id, table) for rec in self.ledger.scan_active(table)
                        if rec.row_id not in ctx.checked]
        if ctx.alerts:
            self._log_alerts(ctx.alerts)
        return ctx.alerts, missing

    # --- helpers ----------------------------------------------------------------

    def _verify_rows(self, ctx: _Ctx, td: TableDef, rows: list, start: int = 0) -> list[str]:
        """The one tuple check; returns the row id of each of ``rows``, in
        order. Each of ``rows`` holds a row of table ``td`` at
        ``[start, start + width)``; each distinct row id among them is
        fingerprinted once per statement (``ctx.checked`` keeps its
        fingerprint) and looked up in the ledger. A fingerprint the ledger
        does not hold as that row's active one adds an alert naming what the
        ledger expected: "ABSENT", "DELETED" or its fingerprint."""
        stop = start + len(td.columns)
        checked = ctx.checked
        ctx.seen += len(rows)
        rids = []
        for wide in rows:
            row = wide[start:stop]
            rid = row_id(td.key(row), td.name)
            rids.append(rid)
            if rid in checked:
                continue
            fp = checked[rid] = fingerprint(rid, row)
            rec = self.ledger.get_current(rid)
            if rec is None:
                expected = "ABSENT"
            elif rec.status != "active":
                expected = "DELETED"
            elif rec.fingerprint != fp:
                expected = rec.fingerprint
            else:
                continue
            ctx.alerts.append(TamperAlert(rid, td.name, expected, fp,
                                          ctx.query_hash, self.clock()))
        return rids

    def _report(self, kind, ctx: _Ctx, outcome: str = "verified",
                columns: list[str] | None = None) -> VerificationReport:
        return VerificationReport(
            query_kind=kind,
            tables_touched=list(ctx.tables),
            tuples_checked=len(ctx.checked),
            tuples_seen=ctx.seen,
            tuples_mutated=ctx.mutated,
            ledger_txs_committed=ctx.txs,
            elapsed=dict(ctx.elapsed),
            outcome=outcome,
            alerts=list(ctx.alerts),
            columns=columns or [],
        )

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
