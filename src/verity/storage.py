"""Embedded relational engine: catalog, typed in-memory tables, execution of
the supported SQL subset, and CSV ingestion.

A SELECT runs in three steps. Derived tables are materialized first. A
binder pass then resolves every column name once, to a position in the
joined row, through ``Scope``: the one resolver of column names in queries,
which the rewriter uses too, so both reject a bad name with the same error.
The binder also gives each WHERE conjunct to the deepest FROM item it reads:
conjuncts over one item filter that item's rows once; an ``=`` between an
expression over an item and one over earlier items becomes a hash-join key
(the item's filtered rows are hashed on it and probed by each earlier row);
the rest are checked on each joined row. The join keeps nested-loop order:
rows come out sorted by the first item's primary key, then the second's,
and so on. Hash tables live for one statement. No cost model.

Each base table keeps its rows in key order, and a mutation keeps that
order by bisecting on its row's key instead of re-sorting. That order is the
one access path: when a base table's leading filters compare the first
primary-key column with a literal of its comparison class (numeric with
numeric, TEXT/DATE with TEXT/DATE; ``=``, ``<``, ``<=``, ``>``, ``>=``), the
table's rows are narrowed by bisection to the key range they select, and
only the filters after them are evaluated, on that range alone. A key
filter placed after another kind of filter, or inside an OR, narrows
nothing, so every evaluated filter still sees, and raises on, the rows the
full scan would show it. ``dump_csv`` renders each
row's CSV line once and reuses it while that row object stays stored.

Tables load on first use. ``register_csv`` names a table's CSV file, and
the first call that touches the table (a read, a mutation, a row count, an
audit, a clone) parses it through ``load_csv``; a statement on one table
parses that table's CSV alone. A malformed CSV therefore fails the first
statement that touches its table, not the opening of the session, and fails
every later touch with the same error: a table is installed only once all
of its CSV has parsed, so none is ever half loaded.

Mutations go through ``apply_row_insert``, ``apply_row_update`` and
``apply_row_delete``, which the verified pipeline calls once the ledger has
committed, or ``raw_mutate``, which sets one column of a stored row. Called
without the verifier (``verity tamper``), they are the out-of-band backdoor
that simulates an insider editing stored data. None of them knows anything
about the ledger.

Single-writer: mutating calls must be externally serialized. Concurrent
read-only ``exec_select`` calls between mutations are fine.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from decimal import Decimal, DivisionByZero, InvalidOperation
from functools import cached_property

from . import sqlast as ast
from .errors import (
    AmbiguousColumn,
    ArityError,
    BadType,
    DuplicateColumn,
    DuplicatePrimaryKey,
    DuplicateTable,
    EvalError,
    NoSuchRow,
    NullPrimaryKey,
    SqlSyntaxError,
    UnknownColumn,
    UnknownTable,
    ValueTypeError,
)
from .lexer import EOF, IDENT, OP, Token, tokenize
from .values import NULL, Value, ValueType, coerce, parse_typed, quantize_decimal, render_value

Row = tuple  # tuple[Value, ...]


# --- schema ------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnDef:
    name: str
    type: ValueType


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...]

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def col_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise UnknownColumn(f"{self.name} has no column {name!r}")

    @cached_property
    def pk_indices(self) -> tuple[int, ...]:
        # computed once: every stored row's key is read through it; the
        # frozen dataclass refuses assignment, so callers cannot set it
        return tuple(self.col_index(c) for c in self.primary_key)


@dataclass(frozen=True)
class Tuple:
    """A full row of one base table, values aligned to the table's columns."""
    table: str
    values: tuple


class Catalog:
    def __init__(self):
        self.tables: dict[str, TableDef] = {}

    def define(self, d: TableDef):
        if d.name in self.tables:
            raise DuplicateTable(f"table {d.name!r} already exists")
        self.tables[d.name] = d

    def get(self, name: str) -> TableDef:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise UnknownTable(f"no such table: {name}") from None

    def names(self) -> list[str]:
        return list(self.tables)


def parse_create_table(ddl_text: str) -> TableDef:
    """Parse one ``CREATE TABLE name (col type, ..., PRIMARY KEY (...))``.

    Tables declared without PRIMARY KEY get all columns, in schema order,
    as a composite key.
    """
    toks = tokenize(ddl_text)
    pos = 0

    def peek() -> Token:
        return toks[min(pos, len(toks) - 1)]

    def take(expect_type=None, expect_value=None) -> Token:
        nonlocal pos
        t = peek()
        if expect_type and t.type != expect_type:
            raise SqlSyntaxError(f"expected {expect_type}, found {t.value!r}", t.pos)
        if expect_value and t.value != expect_value:
            raise SqlSyntaxError(f"expected {expect_value!r}, found {t.value!r}", t.pos)
        pos += 1
        return t

    take(IDENT, "create")
    take(IDENT, "table")
    name = take(IDENT).value
    take(OP, "(")
    columns: list[ColumnDef] = []
    pk: tuple[str, ...] = ()
    while True:
        t = take(IDENT)
        if t.value == "primary":
            take(IDENT, "key")
            take(OP, "(")
            pk_cols = [take(IDENT).value]
            while peek().value == ",":
                take(OP, ",")
                pk_cols.append(take(IDENT).value)
            take(OP, ")")
            pk = tuple(pk_cols)
        else:
            col_type = ValueType.from_ddl(take(IDENT).value)
            if any(c.name == t.value for c in columns):
                raise DuplicateColumn(f"duplicate column {t.value!r} in {name}")
            columns.append(ColumnDef(t.value, col_type))
        if peek().value == ",":
            take(OP, ",")
            continue
        break
    take(OP, ")")
    if peek().value == ";":
        take(OP, ";")
    if peek().type != EOF:
        raise SqlSyntaxError("trailing input after CREATE TABLE", peek().pos)
    if not columns:
        raise BadType(f"table {name!r} has no columns")
    if not pk:
        pk = tuple(c.name for c in columns)
    names = {c.name for c in columns}
    for c in pk:
        if c not in names:
            raise UnknownColumn(f"PRIMARY KEY names unknown column {c!r}")
    if len(set(pk)) != len(pk):
        raise DuplicateColumn("duplicate column in PRIMARY KEY")
    return TableDef(name, tuple(columns), pk)


# --- table storage -----------------------------------------------------------

class _Table:
    """One base table: its rows by primary key and, once first asked for,
    the same rows in key order. A mutation keeps that order by bisecting on
    its row's key, so it costs O(log n) comparisons plus a list move, never
    a re-sort. Rows whose keys sort equal (only possible when one key column
    holds values of two types) keep the order in which they were stored."""

    def __init__(self, d: TableDef):
        self.d = d
        self.rows: dict[tuple, Row] = {}  # pk values -> full row
        self._order: list[Row] | None = None   # the rows, in key order
        self._keys: list[tuple] | None = None  # their sort keys, aligned
        # Database.dump_csv's cache: id(row) -> (row, line), rendered with
        # csv_null. An entry holds its row, so the id cannot be reused
        # while the entry exists.
        self.csv_lines: dict[int, tuple[Row, str]] = {}
        self.csv_null: str | None = None

    def copy(self) -> "_Table":
        """Independent copy sharing the (immutable) row objects."""
        t = _Table(self.d)
        t.rows = dict(self.rows)
        if self._order is not None:
            t._order, t._keys = list(self._order), list(self._keys)
        return t

    def pk_of(self, row: Row) -> tuple:
        return tuple(row[i] for i in self.d.pk_indices)

    def sorted_rows(self) -> list[Row]:
        if self._order is None:
            keyed = sorted(((_pk_sort_key(pk), row) for pk, row in self.rows.items()),
                           key=operator.itemgetter(0))
            self._keys = [k for k, _ in keyed]
            self._order = [row for _, row in keyed]
        return self._order

    def key_rows(self, local: list) -> tuple[list[Row], int]:
        """``(rows, n)``: the rows, in key order, that satisfy the first ``n``
        conjuncts of ``local`` (bound to this table's rows), the longest
        prefix that compares the first key column with a literal of its
        comparison class. Found by bisection, they satisfy those conjuncts
        without evaluating them, and such a conjunct can never raise. Later
        conjuncts are not looked at: a conjunct placed after another kind
        must still see, and may raise on, every row the scan shows it."""
        rows = self.sorted_rows()
        col = self.d.pk_indices[0]
        cls = _KEY_CLASS[self.d.columns[col].type]
        keys, first = self._keys, operator.itemgetter(0)
        lo, hi, n = 0, len(keys), 0
        for conj in local:
            bound = _key_bound(conj, col, cls)
            if bound is None:
                break
            n += 1
            op, probe = bound
            if op in ("=", ">="):
                lo = max(lo, bisect_left(keys, probe, key=first))
            elif op == ">":
                lo = max(lo, bisect_right(keys, probe, key=first))
            else:  # past the NULL keys, which sort first and compare false
                lo = max(lo, bisect_left(keys, (1,), key=first))
            if op in ("=", "<="):
                hi = min(hi, bisect_right(keys, probe, key=first))
            elif op == "<":
                hi = min(hi, bisect_left(keys, probe, key=first))
        if n == 0:
            return rows, 0
        return rows[lo:hi], n

    def insert(self, row: Row):
        pk = self.pk_of(row)
        if any(v.is_null for v in pk):
            raise NullPrimaryKey(f"NULL primary key in {self.d.name}")
        if pk in self.rows:
            raise DuplicatePrimaryKey(f"duplicate primary key {pk} in {self.d.name}")
        self._add(pk, row)

    def get(self, pk: tuple) -> Row:
        try:
            return self.rows[pk]
        except KeyError:
            raise NoSuchRow(f"no row with key {pk} in {self.d.name}") from None

    def replace(self, pk: tuple, row: Row):
        old = self.get(pk)
        new_pk = self.pk_of(row)
        if new_pk != pk:
            if new_pk in self.rows:
                raise DuplicatePrimaryKey(f"duplicate primary key {new_pk} in {self.d.name}")
            self._remove(pk)
            self._add(new_pk, row)
            return
        self.rows[pk] = row
        if self._order is not None:
            self._order[self._position(pk, old)] = row

    def delete(self, pk: tuple):
        self.get(pk)
        self._remove(pk)

    def _add(self, pk: tuple, row: Row):
        self.rows[pk] = row
        if self._order is not None:
            k = _pk_sort_key(pk)
            i = bisect_right(self._keys, k)  # after equal keys: stored later
            self._keys.insert(i, k)
            self._order.insert(i, row)

    def _remove(self, pk: tuple):
        row = self.rows.pop(pk)
        if self._order is not None:
            i = self._position(pk, row)
            del self._keys[i]
            del self._order[i]

    def _position(self, pk: tuple, row: Row) -> int:
        """Index of the stored ``row``, whose key is ``pk``, in the key order."""
        i = bisect_left(self._keys, _pk_sort_key(pk))
        while self._order[i] is not row:  # past rows whose keys sort equal
            i += 1
        return i


def _pk_sort_key(pk: tuple):
    return tuple(v.sort_key() for v in pk)


# each narrowing comparison, and the one it becomes with its operands swapped
_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _key_bound(conj, col: int, cls: int):
    """``(op, probe)`` when ``conj`` compares column ``col`` with a literal of
    comparison class ``cls``, as ``col op literal``; ``probe`` is the
    literal's sort key. None otherwise."""
    if not isinstance(conj, ast.Comparison) or conj.op not in _FLIPPED:
        return None
    op, left, right = conj.op, conj.left, conj.right
    if isinstance(right, ast.BoundCol) and isinstance(left, ast.Literal):
        op, left, right = _FLIPPED[op], right, left
    if not (isinstance(left, ast.BoundCol) and left.index == col
            and isinstance(right, ast.Literal)):
        return None
    v = right.value
    if v.is_null or _KEY_CLASS[v.kind] != cls:
        return None
    return op, v.sort_key()


# --- binding -----------------------------------------------------------------

class Scope:
    """The one resolver of column names in queries, over the FROM items of
    one SELECT.

    Each block is ``(binding, [(name, position), ...])``: the names a FROM
    item makes visible, in star-expansion order, and the positions in the
    row they stand for. ``Database`` binds names to positions in its joined
    rows; the rewriter binds them to positions in the wide row, where a
    derived table's visible names need not be contiguous.
    """

    def __init__(self, blocks: list[tuple[str, list[tuple[str, int]]]]):
        self.blocks = blocks
        self.by_binding = dict(blocks)

    def resolve(self, table: str | None, column: str) -> int:
        if table is not None:
            if table not in self.by_binding:
                raise UnknownTable(f"no table or alias {table!r} in scope")
            hits = [pos for n, pos in self.by_binding[table] if n == column]
            if not hits:
                raise UnknownColumn(f"{table!r} has no column {column!r}")
            if len(hits) > 1:
                raise AmbiguousColumn(f"{table}.{column} matches several columns")
            return hits[0]
        hits = [pos for _, cols in self.blocks for n, pos in cols if n == column]
        if not hits:
            raise UnknownColumn(f"no column {column!r} in scope")
        if len(hits) > 1:
            raise AmbiguousColumn(f"column {column!r} is ambiguous")
        return hits[0]

    def all_columns(self) -> list[tuple[str, int]]:
        """Every visible (name, position), in the order ``*`` expands to."""
        return [col for _, cols in self.blocks for col in cols]

    def bind(self, node):
        """``node`` ready to evaluate: every column reference resolved to its
        position and every LIKE pattern compiled."""
        def leaf(c):
            if isinstance(c, ast.BoundCol):
                return c
            return ast.BoundCol(self.resolve(c.table, c.column))

        def like(p, expr):
            return _Like(expr, _like_regex(p.pattern), p.negated)

        return map_columns(node, leaf, like)


@dataclass(frozen=True)
class _Like:
    """A bound LIKE predicate, its pattern compiled once."""
    expr: object
    regex: re.Pattern
    negated: bool


def map_columns(node, leaf, like=None):
    """Copy of an expression or predicate with every column (``ColumnRef`` or
    ``BoundCol``) replaced by ``leaf(column)``. A LIKE predicate stays SQL
    unless ``like`` is given, when it becomes ``like(predicate, mapped
    operand)``."""
    def walk(node):
        if isinstance(node, (ast.ColumnRef, ast.BoundCol)):
            return leaf(node)
        if isinstance(node, ast.BinaryOp):
            return ast.BinaryOp(node.op, walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryMinus):
            return ast.UnaryMinus(walk(node.operand))
        if isinstance(node, ast.Aggregate):
            return node if node.arg is None else ast.Aggregate(node.func, walk(node.arg))
        if isinstance(node, ast.Comparison):
            return ast.Comparison(node.op, walk(node.left), walk(node.right))
        if isinstance(node, ast.LikePredicate):
            if like is not None:
                return like(node, walk(node.expr))
            return ast.LikePredicate(walk(node.expr), node.pattern, node.negated)
        if isinstance(node, _Like):
            return _Like(walk(node.expr), node.regex, node.negated)
        if isinstance(node, (ast.And, ast.Or)):
            return type(node)(walk(node.left), walk(node.right))
        return node

    return walk(node)


def _columns(node) -> set[int]:
    """Positions of the bound columns ``node`` reads."""
    out: set[int] = set()
    map_columns(node, lambda c: out.add(c.index) or c)
    return out


def _shift(node, offset: int):
    """Bound ``node`` re-addressed to rows that start at wide position ``offset``."""
    return map_columns(node, lambda c: ast.BoundCol(c.index - offset))


def _like_regex(pattern: str) -> re.Pattern:
    parts = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("".join(parts), re.DOTALL)


def _conjuncts(p) -> list:
    if p is None:
        return []
    if isinstance(p, ast.And):
        return _conjuncts(p.left) + _conjuncts(p.right)
    return [p]


# --- expression evaluation (bound trees only) --------------------------------

def eval_expr(e, row: Row, agg_values: dict | None = None) -> Value:
    if isinstance(e, ast.BoundCol):
        return row[e.index]
    if isinstance(e, ast.Literal):
        return e.value
    if isinstance(e, ast.ColumnRef):
        raise EvalError(f"column reference {e.column!r} not allowed here")
    if isinstance(e, ast.UnaryMinus):
        v = eval_expr(e.operand, row, agg_values)
        if v.is_null:
            return NULL
        if v.kind is ValueType.INTEGER:
            return Value.integer(-v.raw)
        if v.kind is ValueType.DECIMAL:
            return Value.decimal(-v.raw)
        raise EvalError(f"cannot negate {v.kind.value}")
    if isinstance(e, ast.BinaryOp):
        a = eval_expr(e.left, row, agg_values)
        b = eval_expr(e.right, row, agg_values)
        return _arith(e.op, a, b)
    if isinstance(e, ast.Aggregate):
        if agg_values is not None and e in agg_values:
            return agg_values[e]
        raise EvalError("aggregate not allowed in a row-level expression")
    raise EvalError(f"cannot evaluate {e!r}")


_NUMERIC = (ValueType.INTEGER, ValueType.DECIMAL)
_STRINGY = (ValueType.TEXT, ValueType.DATE)


def _arith(op: str, a: Value, b: Value) -> Value:
    if a.is_null or b.is_null:
        return NULL
    if a.kind not in _NUMERIC or b.kind not in _NUMERIC:
        raise EvalError(f"arithmetic needs numeric operands, got {a.kind.value}/{b.kind.value}")
    if a.kind is ValueType.INTEGER and b.kind is ValueType.INTEGER and op != "/":
        x = {"+": a.raw + b.raw, "-": a.raw - b.raw, "*": a.raw * b.raw}[op]
        return Value.integer(x)
    da = Decimal(a.raw) if a.kind is ValueType.INTEGER else a.raw
    db = Decimal(b.raw) if b.kind is ValueType.INTEGER else b.raw
    try:
        if op == "+":
            r = da + db
        elif op == "-":
            r = da - db
        elif op == "*":
            r = da * db
        elif op == "/":
            r = da / db
        else:
            raise EvalError(f"unknown operator {op!r}")
    except (DivisionByZero, InvalidOperation):
        raise EvalError("division by zero") from None
    return Value.decimal(quantize_decimal(r))


def compare_values(op: str, a: Value, b: Value) -> bool:
    """Typed comparison; any NULL operand makes every comparison false."""
    if a.is_null or b.is_null:
        return False
    if a.kind in _NUMERIC and b.kind in _NUMERIC:
        x, y = a.raw, b.raw
    elif a.kind in _STRINGY and b.kind in _STRINGY:
        x, y = a.raw, b.raw
    else:
        raise EvalError(f"cannot compare {a.kind.value} with {b.kind.value}")
    if op == "=":
        return x == y
    if op == "<>":
        return x != y
    if op == "<":
        return x < y
    if op == "<=":
        return x <= y
    if op == ">":
        return x > y
    if op == ">=":
        return x >= y
    raise EvalError(f"unknown comparison {op!r}")


def eval_predicate(p, row: Row) -> bool:
    if isinstance(p, ast.Comparison):
        return compare_values(p.op, eval_expr(p.left, row), eval_expr(p.right, row))
    if isinstance(p, _Like):
        v = eval_expr(p.expr, row)
        if v.is_null:
            return False
        if v.kind not in _STRINGY:
            raise EvalError("LIKE applies to text values")
        hit = p.regex.fullmatch(v.raw) is not None
        return not hit if p.negated else hit
    if isinstance(p, ast.And):
        return eval_predicate(p.left, row) and eval_predicate(p.right, row)
    if isinstance(p, ast.Or):
        return eval_predicate(p.left, row) or eval_predicate(p.right, row)
    raise EvalError(f"cannot evaluate predicate {p!r}")


# --- joins -------------------------------------------------------------------

# Hash-key class of a non-NULL value: values compare only within a class.
_KEY_CLASS = {ValueType.INTEGER: 0, ValueType.DECIMAL: 0, ValueType.TEXT: 1, ValueType.DATE: 1}


@dataclass
class _Step:
    """One FROM binding, joined onto the rows of the bindings before it.

    ``local`` and ``inner_keys`` read the binding's own rows; ``outer_keys``
    and ``residual`` read the wide row joined so far.
    """
    rows: list[Row] = field(default_factory=list)    # the binding's rows, in order
    local: list = field(default_factory=list)        # conjuncts over this binding only
    inner_keys: list = field(default_factory=list)   # hash keys over this binding, each
    outer_keys: list = field(default_factory=list)   # equal to one over earlier bindings
    inner_left: list = field(default_factory=list)   # the inner key was the left operand
    residual: list = field(default_factory=list)     # every other conjunct


def _plan(where, scope: Scope, sources: list) -> list[_Step]:
    """Bind the WHERE clause and give each conjunct to the deepest binding it
    reads: as a filter of that binding's rows when it reads no other, as a
    hash-join key when it equates an expression over that binding with one
    over earlier bindings, as a residual predicate otherwise.

    Each source is a base ``_Table`` or a list of rows. A base table's rows
    are narrowed to the key range its leading filters select (``key_rows``);
    the filters after those are evaluated on every row in that range."""
    # each block's positions are contiguous, from its first
    start = [cols[0][1] for _, cols in scope.blocks]
    depth_of = [d for d, (_, cols) in enumerate(scope.blocks) for _ in cols]

    def depths(node) -> set[int]:
        return {depth_of[i] for i in _columns(node)}

    steps = [_Step() for _ in sources]
    for conj in _conjuncts(where):
        bound = scope.bind(conj)
        read = depths(bound)
        d = max(read, default=0)
        step, off = steps[d], start[d]
        if read <= {d}:
            step.local.append(_shift(bound, off))
            continue
        if isinstance(bound, ast.Comparison) and bound.op == "=":
            left, right = depths(bound.left), depths(bound.right)
            if left == {d} and max(right) < d:
                step.inner_keys.append(_shift(bound.left, off))
                step.outer_keys.append(bound.right)
                step.inner_left.append(True)
                continue
            if right == {d} and max(left) < d:
                step.inner_keys.append(_shift(bound.right, off))
                step.outer_keys.append(bound.left)
                step.inner_left.append(False)
                continue
        step.residual.append(bound)
    for step, src in zip(steps, sources):
        if isinstance(src, _Table):
            step.rows, n = src.key_rows(step.local)
            del step.local[:n]
        else:
            step.rows = src
    return steps


def _join(steps: list[_Step]) -> list[Row]:
    """Joined rows, in nested-loop order: by the first binding's row order,
    then the second's, and so on."""
    joined: list[Row] = [()]
    for step in steps:
        rows = step.rows
        if step.local:
            rows = [r for r in rows if all(eval_predicate(c, r) for c in step.local)]
        if not rows:
            return []
        matches = _hash_matches(step, rows) if step.inner_keys else (lambda acc: rows)
        residual = step.residual
        out: list[Row] = []
        for acc in joined:
            wide = [acc + row for row in matches(acc)]
            if residual:
                wide = [w for w in wide if all(eval_predicate(c, w) for c in residual)]
            out.extend(wide)
        if not out:
            return []
        joined = out
    return joined


def _hash_matches(step: _Step, rows: list[Row]):
    """Hash ``rows`` on the step's inner keys; return the probe that finds, in
    row order, the rows matching an outer row's keys.

    Keys are (class, raw) pairs, so INTEGER 1 meets DECIMAL 1.00 and TEXT
    meets DATE as ``=`` does; a NULL key meets nothing. A probe whose key
    class differs from a build-side key raises the error ``=`` raises."""
    table: dict[tuple, list[Row]] = {}
    classes: list[dict] = [{} for _ in step.inner_keys]  # per key: class -> a value
    for row in rows:
        key = []
        for e, seen in zip(step.inner_keys, classes):
            v = eval_expr(e, row)
            if v.is_null:
                break
            c = _KEY_CLASS[v.kind]
            seen.setdefault(c, v)
            key.append((c, v.raw))
        else:
            table.setdefault(tuple(key), []).append(row)

    def matches(acc: Row):
        key = []
        for e, seen, inner_left in zip(step.outer_keys, classes, step.inner_left):
            v = eval_expr(e, acc)
            if v.is_null:
                return ()
            c = _KEY_CLASS[v.kind]
            for other_c, other in seen.items():
                if other_c != c:  # raises EvalError, as comparing the two would
                    compare_values("=", *((other, v) if inner_left else (v, other)))
            key.append((c, v.raw))
        return table.get(tuple(key), ())

    return matches


# --- the database ------------------------------------------------------------

class Database:
    def __init__(self):
        self.catalog = Catalog()
        self._tables: dict[str, _Table] = {}
        # tables registered with a CSV not yet loaded: name -> (path, null literal)
        self._csv_sources: dict[str, tuple[str, str]] = {}

    # schema & loading

    def create_table(self, ddl_text: str) -> TableDef:
        d = parse_create_table(ddl_text)
        self.catalog.define(d)
        self._tables[d.name] = _Table(d)
        return d

    def load_ddl(self, ddl_text: str) -> list[TableDef]:
        defs = []
        for stmt in ddl_text.split(";"):
            if stmt.strip():
                defs.append(self.create_table(stmt))
        return defs

    def register_csv(self, table: str, path: str, null_literal: str = ""):
        """Have ``table`` loaded from the CSV file at ``path`` when something
        first touches it (``_table``), not now."""
        self._csv_sources[self.catalog.get(table).name] = (path, null_literal)

    def is_loaded(self, table: str) -> bool:
        """False while ``table``'s registered CSV has not been loaded."""
        return self.catalog.get(table).name not in self._csv_sources

    def load_csv(self, table: str, stream, null_literal: str = "") -> int:
        """Add the rows of a CSV stream to ``table``, all or none: they go
        into a copy of the table, which replaces it only once every line has
        parsed. A table that loads ends its ``register_csv`` registration."""
        d = self.catalog.get(table)
        t = self._tables[d.name].copy()

        def records():
            try:
                yield from iter_csv(stream)
            except ValueTypeError as exc:  # names its line, not its table
                raise ValueTypeError(f"{table} {exc}") from None

        reader = records()
        try:
            header = next(reader)
        except StopIteration:
            raise ArityError(f"{table}: CSV is empty, header row required") from None
        header_names = [h for h, _ in header]
        if header_names != t.d.column_names():
            raise ArityError(
                f"{table}: CSV header {header_names} does not match schema {t.d.column_names()}"
            )
        n = 0
        for lineno, fields in enumerate(reader, start=2):
            if len(fields) != len(t.d.columns):
                raise ArityError(f"{table} line {lineno}: expected {len(t.d.columns)} fields")
            t.insert(csv_row(t.d, fields, null_literal, lineno))
            n += 1
        self._tables[d.name] = t
        self._csv_sources.pop(d.name, None)
        return n

    def dump_csv(self, table: str, stream, null_literal: str = ""):
        """Write the table as CSV, rows in key order. Each row's line is
        rendered once and reused while that row object stays stored and the
        null literal stays the same, so a dump after a mutation renders only
        the rows the mutation stored."""
        t = self._table(table)
        cached = t.csv_lines if t.csv_null == null_literal else {}
        kept: dict[int, tuple[Row, str]] = {}
        out = [csv_line(t.d.column_names(), null_literal)]
        for row in t.sorted_rows():
            entry = cached.get(id(row))
            if entry is None:
                entry = (row, _row_line(row, null_literal))
            kept[id(row)] = entry
            out.append(entry[1])
        t.csv_lines, t.csv_null = kept, null_literal
        stream.write("".join(out))

    def _table(self, name: str) -> _Table:
        """The one way to a table's storage. A table registered with a CSV is
        loaded here on first use; when that CSV does not load, the table
        stays unloaded and every touch raises the same error again."""
        name = self.catalog.get(name).name
        source = self._csv_sources.get(name)
        if source is not None:
            path, null_literal = source
            with open(path, encoding="utf-8", newline="") as f:
                self.load_csv(name, f, null_literal)
        return self._tables[name]

    # reads

    def row_count(self, table: str) -> int:
        return len(self._table(table).rows)

    def rows_of(self, table: str):
        t = self._table(table)
        for row in t.sorted_rows():
            yield Tuple(t.d.name, row)

    def get_row(self, table: str, pk: tuple) -> Tuple:
        t = self._table(table)
        return Tuple(t.d.name, t.get(tuple(pk)))

    def has_row(self, table: str, pk: tuple) -> bool:
        return tuple(pk) in self._table(table).rows

    def exec_select(self, q: ast.SelectQuery) -> list[Row]:
        return self._select(q)[1]

    def _select(self, q: ast.SelectQuery) -> tuple[list[str], list[Row]]:
        """Output names and rows of ``q``. Derived tables run first; then
        every name is bound once, before the join touches a row."""
        blocks, sources, off = [], [], 0
        for item in q.from_items:
            if isinstance(item, ast.BaseTable):
                source = self._table(item.name)
                names = source.d.column_names()
            else:
                names, source = self._select(item.subquery)
            blocks.append((item.binding, [(n, off + i) for i, n in enumerate(names)]))
            sources.append(source)
            off += len(names)
        scope = Scope(blocks)
        steps = _plan(q.where, scope, sources)
        names, exprs = _outputs(q.projections, scope)
        return names, project_rows(exprs, _join(steps), off)

    # verified-pipeline mutations

    def apply_row_insert(self, tup: Tuple):
        t = self._table(tup.table)
        if len(tup.values) != len(t.d.columns):
            raise ArityError(f"{tup.table}: expected {len(t.d.columns)} values")
        t.insert(tuple(tup.values))

    def apply_row_update(self, table: str, pk: tuple, new_values: tuple):
        t = self._table(table)
        if len(new_values) != len(t.d.columns):
            raise ArityError(f"{table}: expected {len(t.d.columns)} values")
        t.replace(tuple(pk), tuple(new_values))

    def apply_row_delete(self, table: str, pk: tuple):
        self._table(table).delete(tuple(pk))

    # attacker backdoor: mutates storage with no ledger interaction

    def raw_mutate(self, table: str, pk: tuple, column: str, new_value: Value):
        t = self._table(table)
        idx = t.d.col_index(column)
        if not new_value.is_null:
            new_value = coerce(new_value, t.d.columns[idx].type)
        row = list(t.get(tuple(pk)))
        row[idx] = new_value
        t.replace(tuple(pk), tuple(row))

    # misc

    def clone(self) -> "Database":
        """Independent copy, every table loaded. Rows are tuples of immutable
        Values, so the row objects themselves can be shared."""
        db = Database()
        for name, d in self.catalog.tables.items():
            db.catalog.tables[name] = d
            db._tables[name] = self._table(name).copy()
        return db


def _outputs(items, scope: Scope) -> tuple[list[str], list]:
    """Output names and bound output expressions of a projection list."""
    names: list[str] = []
    exprs: list = []
    for i, item in enumerate(items):
        if isinstance(item.expr, ast.Star):
            for n, idx in scope.all_columns():
                names.append(n)
                exprs.append(ast.BoundCol(idx))
            continue
        exprs.append(scope.bind(item.expr))
        names.append(ast.output_name(item, i))
    return names, exprs


def project_rows(exprs: list, rows: list[Row], width: int) -> list[Row]:
    """Bound output expressions evaluated over ``width``-wide rows, in order.

    Bare aggregates collapse the result to one row, whose non-aggregate
    expressions take their values from the first row (NULL when there is
    none). Plain column outputs are picked by position; a row that already
    is its output is passed on as it is.
    """
    aggs = dict.fromkeys(node for e in exprs for node in ast.aggregates(e))
    if aggs:
        agg_values = {node: eval_aggregate(node, rows) for node in aggs}
        base = rows[0] if rows else (NULL,) * width
        return [tuple(eval_expr(e, base, agg_values) for e in exprs)]
    if all(isinstance(e, ast.BoundCol) for e in exprs):
        positions = [e.index for e in exprs]
        if positions == list(range(width)):
            return list(rows)
        if len(positions) == 1:
            i = positions[0]
            return [(row[i],) for row in rows]
        pick = operator.itemgetter(*positions)
        return [pick(row) for row in rows]
    return [tuple(eval_expr(e, row) for e in exprs) for row in rows]


def eval_aggregate(agg: ast.Aggregate, rows: list[Row]) -> Value:
    if agg.is_count_star:
        return Value.integer(len(rows))
    vals = [eval_expr(agg.arg, r) for r in rows]
    vals = [v for v in vals if not v.is_null]
    if agg.func == "count":
        return Value.integer(len(vals))
    if not vals:
        return NULL
    if agg.func in ("sum", "avg"):
        if any(v.kind not in _NUMERIC for v in vals):
            raise EvalError(f"{agg.func} needs numeric input")
        total = Decimal(0)
        all_int = True
        for v in vals:
            if v.kind is ValueType.INTEGER:
                total += v.raw
            else:
                all_int = False
                total += v.raw
        if agg.func == "sum":
            return Value.integer(int(total)) if all_int else Value.decimal(quantize_decimal(total))
        return Value.decimal(quantize_decimal(total / len(vals)))
    # max / min
    best = vals[0]
    for v in vals[1:]:
        op = ">" if agg.func == "max" else "<"
        if compare_values(op, v, best):
            best = v
    return best


# --- CSV ----------------------------------------------------------------------
#
# Dialect: comma-separated, double-quote quoting with "" escape, \n or \r\n
# line endings. Fields come back as (text, quoted) pairs: only unquoted
# fields are eligible to be NULL markers.

def iter_csv(stream):
    """The records of a CSV stream, each a list of ``(text, quoted)`` fields.
    A quoted field left open raises ValueTypeError naming its record's line,
    counted from 1 as records, not as physical lines."""
    data = stream.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    i, n = 0, len(data)
    lineno = 0
    while i < n:
        lineno += 1
        fields: list[tuple[str, bool]] = []
        while True:
            if i < n and data[i] == '"':
                i += 1
                buf = []
                while True:
                    if i >= n:
                        raise ValueTypeError(f"line {lineno}: unterminated quoted CSV field")
                    if data[i] == '"':
                        if i + 1 < n and data[i + 1] == '"':
                            buf.append('"')
                            i += 2
                            continue
                        i += 1
                        break
                    buf.append(data[i])
                    i += 1
                fields.append(("".join(buf), True))
            else:
                j = i
                while j < n and data[j] not in (",", "\n", "\r"):
                    j += 1
                fields.append((data[i:j], False))
                i = j
            if i < n and data[i] == ",":
                i += 1
                continue
            break
        if i < n and data[i] == "\r":
            i += 1
        if i < n and data[i] == "\n":
            i += 1
        yield fields


def csv_value(field: tuple[str, bool], col_type: ValueType, null_literal: str) -> Value:
    """The value of one CSV ``(text, quoted)`` field in a column of
    ``col_type``: NULL when the field is unquoted and equal to
    ``null_literal``, else the text parsed as ``col_type``, so a quoted field
    spells a text equal to the null literal."""
    raw, quoted = field
    if not quoted and raw == null_literal:
        return NULL
    return parse_typed(raw, col_type)


def csv_row(d: TableDef, fields, null_literal: str, lineno: int) -> Row:
    """The row of table ``d`` that one CSV line's fields stand for, one field
    per column (``csv_value``). A field that does not parse raises
    ValueTypeError naming ``d`` and ``lineno``."""
    try:
        return tuple([csv_value(f, col.type, null_literal)
                      for f, col in zip(fields, d.columns)])
    except ValueTypeError as exc:
        raise ValueTypeError(f"{d.name} line {lineno}: {exc}") from None


def write_csv_row(stream, fields, null_literal: str = ""):
    stream.write(csv_line(fields, null_literal))


def _row_line(row: Row, null_literal: str) -> str:
    """The CSV line of a stored row."""
    return csv_line([None if v.is_null else render_value(v) for v in row], null_literal)


def csv_line(fields, null_literal: str = "") -> str:
    # None marks NULL and is written as the (unquoted) null literal; a real
    # text value that would collide with it gets quoted.
    out = []
    for f in fields:
        if f is None:
            out.append(null_literal)
            continue
        if f == null_literal or f == "" or any(ch in f for ch in (",", '"', "\n", "\r")):
            out.append('"' + f.replace('"', '""') + '"')
        else:
            out.append(f)
    return ",".join(out) + "\n"
