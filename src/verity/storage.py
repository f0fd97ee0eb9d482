"""Embedded relational engine: catalog, typed in-memory tables, execution of
the supported SQL subset, and CSV ingestion. Storage reads no SQL text: its
tables come from ``parser.parse_table_def`` and ``parser.parse_ddl``, and
queries arrive as parsed ASTs.

A SELECT runs in four steps. Derived tables are materialized first. The
binder then resolves every column name once, to a position in the joined
row, through ``Scope``: the one resolver of column names in queries, which
the rewriter uses too. The planner (``_plan``) gives each bound WHERE
conjunct to the deepest FROM item it reads: conjuncts over one item filter
that item's rows once; an ``=`` between an expression over an item and one
over earlier items becomes a hash-join key; the rest are checked on each
joined row. Last, every conjunct, key and output expression compiles once
into a closure that runs per row (``compile_predicate``, ``compile_expr``).
Inside an arithmetic tree the closures pass raw ints and Decimals and build
a Value only for the result. Every typed check still runs per row, since a
stored value may have another kind than its column's declared type, and
compiling never raises: an expression that cannot evaluate raises on the
first row that evaluates it. The join keeps nested-loop order: rows come out
by the first item's primary key, then the second's, and so on. No cost model.

Each base table keeps its rows in key order, which a mutation keeps by
bisecting on its row's key. That order is the one access path: when a base
table's leading filters compare the first primary-key column with a literal
of its comparison class (numeric with numeric, TEXT/DATE with TEXT/DATE;
``=``, ``<``, ``<=``, ``>``, ``>=``), the table's rows are narrowed by
bisection to the key range they select, and only the later filters are
evaluated, on that range alone. A key filter after another kind of filter,
or inside an OR, narrows nothing, so every evaluated filter still sees, and
raises on, the rows the full scan would show it. ``dump_csv`` renders each
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
from decimal import Decimal, DivisionByZero, InvalidOperation, Overflow
from functools import reduce

from . import sqlast as ast
from .errors import (
    AmbiguousColumn,
    ArityError,
    DuplicatePrimaryKey,
    DuplicateTable,
    EvalError,
    NoSuchRow,
    NullPrimaryKey,
    UnknownColumn,
    UnknownTable,
    ValueTypeError,
    VerityError,
)
from .parser import parse_ddl, parse_table_def
from .sqlast import TableDef
from .values import (DECIMAL_OVERFLOW, INT64_MAX, INT64_MIN, NULL, Value, ValueType, coerce,
                     parse_typed, quantize_decimal, render_value)

Row = tuple  # tuple[Value, ...]


# --- catalog -----------------------------------------------------------------

@dataclass(frozen=True)
class Tuple:
    """``get_row``'s result: a full row of one base table. Every other
    caller passes rows as plain tuples of values."""
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


# --- table storage -----------------------------------------------------------

class _Table:
    """One base table: its rows by primary key and, once first asked for,
    the same rows in key order. A mutation keeps that order by bisecting on
    its row's key, so it costs O(log n) comparisons plus a list move, never
    a re-sort. Rows whose keys sort equal (only possible when one key column
    holds values of two types) keep the order in which they were stored.

    A stored row is an immutable tuple of immutable values, and every write
    (``insert``, ``replace``, so ``raw_mutate`` too, and ``load_csv``)
    stores a new tuple object. Two caches rely on that, both keyed by
    ``id(row)`` and holding the row itself, so the id cannot be reused while
    the entry exists: ``csv_lines``, the row's line (``Database.dump_csv``),
    and ``verified``, the row id and fingerprint the ledger last confirmed
    for the row (filled by the verifier's tuple check). ``replace`` and
    ``_remove`` drop both entries of the row they drop, so each cache holds
    stored rows only. A copy starts with both empty."""

    def __init__(self, d: TableDef):
        self.d = d
        self.rows: dict[tuple, Row] = {}  # pk values -> full row
        self._order: list[Row] | None = None   # the rows, in key order
        self._keys: list[tuple] | None = None  # their sort keys, aligned
        # id(row) -> (row, its CSV line)
        self.csv_lines: dict[int, tuple[Row, str]] = {}
        # id(row) -> (row, row id, fingerprint) the ledger last confirmed
        self.verified: dict[int, tuple[Row, str, str]] = {}

    def copy(self) -> "_Table":
        """Independent copy sharing the (immutable) row objects."""
        t = _Table(self.d)
        t.rows = dict(self.rows)
        if self._order is not None:
            t._order, t._keys = list(self._order), list(self._keys)
        return t

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
        pk = self.d.key(row)
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
        new_pk = self.d.key(row)
        if new_pk != pk:
            if new_pk in self.rows:
                raise DuplicatePrimaryKey(f"duplicate primary key {new_pk} in {self.d.name}")
            self._remove(pk)
            self._add(new_pk, row)
            return
        self.rows[pk] = row
        self.csv_lines.pop(id(old), None)
        self.verified.pop(id(old), None)
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
        self.csv_lines.pop(id(row), None)
        self.verified.pop(id(row), None)
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
        """``node`` with every column reference resolved to its position."""
        return map_columns(node, lambda c: c if isinstance(c, ast.BoundCol)
                           else ast.BoundCol(self.resolve(c.table, c.column)))


def map_columns(node, leaf):
    """Copy of an expression or predicate with every column (``ColumnRef`` or
    ``BoundCol``) replaced by ``leaf(column)``."""
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
            return ast.LikePredicate(walk(node.expr), node.pattern, node.negated)
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
    wild = {"%": ".*", "_": "."}
    return re.compile("".join(wild.get(ch) or re.escape(ch) for ch in pattern), re.DOTALL)


def _conjuncts(p) -> list:
    if isinstance(p, ast.And):
        return _conjuncts(p.left) + _conjuncts(p.right)
    return [] if p is None else [p]


# --- compiled evaluation -----------------------------------------------------
#
# Closures over raw values: an int, a Decimal, None for NULL, or the Value
# itself for TEXT and DATE, whose raw strings do not tell the two apart.

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_COMPARE = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _value(x) -> Value:
    """The Value of a raw value."""
    if type(x) is int:
        return Value(ValueType.INTEGER, x)
    if type(x) is Decimal:
        return Value(ValueType.DECIMAL, x)
    return NULL if x is None else x


def _fail(message: str):
    def fail(row):
        raise EvalError(message)
    return fail


def _const(v: Value):
    x = v if type(v.raw) is str else v.raw
    return lambda row: x


def compile_expr(e, aggs: dict | None = None):
    """Closure: row -> the Value of bound ``e``; ``aggs`` values its aggregates."""
    if isinstance(e, ast.BoundCol):
        return operator.itemgetter(e.index)
    f = _raw(e, aggs)
    return lambda row: _value(f(row))


def _raw(e, aggs: dict | None = None):
    """Closure: row -> the raw value of bound expression ``e``."""
    if isinstance(e, ast.BoundCol):
        def col(row, i=e.index):
            v = row[i]
            return v if type(v.raw) is str else v.raw
        return col
    if isinstance(e, ast.Literal):
        return _const(e.value)
    if isinstance(e, ast.UnaryMinus):
        f = _raw(e.operand, aggs)
        def negate(row):
            x = f(row)
            if type(x) is Value:
                raise EvalError(f"cannot negate {x.kind.value}")
            if type(x) is int and x == INT64_MIN:
                raise ValueTypeError(f"not a 64-bit integer: {-x!r}")
            return None if x is None else -x
        return negate
    if isinstance(e, ast.BinaryOp):
        return _binop(e.op, _raw(e.left, aggs), _raw(e.right, aggs))
    if isinstance(e, ast.Aggregate):
        if aggs is not None and e in aggs:
            return _const(aggs[e])
        return _fail("aggregate not allowed in a row-level expression")
    if isinstance(e, ast.ColumnRef):
        return _fail(f"column reference {e.column!r} not allowed here")
    return _fail(f"cannot evaluate {e!r}")


def _binop(op: str, left, right):
    """Arithmetic on raw values: NULL if either is; an int64 from two ints
    except for ``/``; else a Decimal quantized to 10 fractional digits."""
    fn, int_op = _OPS[op], op != "/"
    def binop(row):
        a, b = left(row), right(row)
        if a is None or b is None:
            return None
        ta, tb = type(a), type(b)
        if ta is int and tb is int and int_op:
            x = fn(a, b)
            if INT64_MIN <= x <= INT64_MAX:
                return x
            raise ValueTypeError(f"not a 64-bit integer: {x!r}")
        if ta is Value or tb is Value:
            a, b = _value(a).kind.value, _value(b).kind.value
            raise EvalError(f"arithmetic needs numeric operands, got {a}/{b}")
        try:
            r = fn(Decimal(a) if ta is int else a, b)
        except (DivisionByZero, InvalidOperation):
            raise EvalError("division by zero") from None
        except Overflow:  # an exponent past the context's Emax
            raise EvalError(DECIMAL_OVERFLOW) from None
        return quantize_decimal(r)
    return binop


def _compare(fn, a, b) -> bool:
    """``fn`` over raw values: false on NULL; numbers meet numbers, TEXT/DATE
    meets TEXT/DATE, and any other pair raises."""
    if a is None or b is None:
        return False
    text = type(a) is Value
    if text is not (type(b) is Value):
        a, b = _value(a).kind.value, _value(b).kind.value
        raise EvalError(f"cannot compare {a} with {b}")
    return fn(a.raw, b.raw) if text else fn(a, b)


def compile_predicate(p):
    """Closure: row -> the truth of bound predicate ``p``."""
    if isinstance(p, ast.Comparison):
        fn, left, right = _COMPARE[p.op], _raw(p.left), _raw(p.right)
        return lambda row: _compare(fn, left(row), right(row))
    if isinstance(p, ast.LikePredicate):
        f, regex, negated = _raw(p.expr), _like_regex(p.pattern), p.negated
        def like(row):
            x = f(row)
            if x is None:
                return False
            if type(x) is not Value:
                raise EvalError("LIKE applies to text values")
            return (regex.fullmatch(x.raw) is not None) is not negated
        return like
    if isinstance(p, (ast.And, ast.Or)):
        left, right = compile_predicate(p.left), compile_predicate(p.right)
        if isinstance(p, ast.And):
            return lambda row: left(row) and right(row)
        return lambda row: left(row) or right(row)
    return _fail(f"cannot evaluate predicate {p!r}")


def _all(conjuncts: list):
    """One closure testing ``conjuncts`` in order, as AND does; None for none."""
    tests = [compile_predicate(c) for c in conjuncts]
    return reduce(lambda f, g: lambda row: f(row) and g(row), tests) if tests else None


# --- joins -------------------------------------------------------------------

# Comparison class of a non-NULL value: values compare only within a class.
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
            rows = list(filter(_all(step.local), rows))
        if not rows:
            return []
        matches = _hash_matches(step, rows) if step.inner_keys else (lambda acc: rows)
        residual = _all(step.residual)
        out: list[Row] = []
        for acc in joined:
            wide = [acc + row for row in matches(acc)]
            if residual:
                wide = list(filter(residual, wide))
            out.extend(wide)
        if not out:
            return []
        joined = out
    return joined


def _hash_matches(step: _Step, rows: list[Row]):
    """Hash ``rows`` on the step's inner keys; return the probe that finds, in
    row order, the rows matching an outer row's keys.

    Keys are (is TEXT/DATE, raw) pairs, so INTEGER 1 meets DECIMAL 1.00 and
    TEXT meets DATE as ``=`` does; a NULL key meets nothing. A probe whose
    key class differs from a build-side key raises the error ``=`` raises."""
    inner, outer = list(map(_raw, step.inner_keys)), list(map(_raw, step.outer_keys))
    table: dict[tuple, list[Row]] = {}
    seen: list[dict] = [{} for _ in inner]  # per key: class -> a value
    for row in rows:
        key = []
        for f, classes in zip(inner, seen):
            x = f(row)
            if x is None:
                break
            text = type(x) is Value
            classes.setdefault(text, x)
            key.append((text, x.raw if text else x))
        else:
            table.setdefault(tuple(key), []).append(row)

    def matches(acc: Row):
        key = []
        for f, classes, inner_left in zip(outer, seen, step.inner_left):
            x = f(acc)
            if x is None:
                return ()
            text = type(x) is Value
            for other_text, other in classes.items():
                if other_text is not text:  # raises EvalError, as comparing the two would
                    _compare(operator.eq, *((other, x) if inner_left else (x, other)))
            key.append((text, x.raw if text else x))
        return table.get(tuple(key), ())

    return matches


# --- the database ------------------------------------------------------------

class Database:
    def __init__(self, null_literal: str = ""):
        # how this database's CSV files spell NULL: an unquoted field equal
        # to it reads as NULL, and NULL is written as it, so it needs no quotes
        if any(ch in null_literal for ch in _CSV_SPECIAL):
            raise VerityError(f"CSV null literal {null_literal!r} holds a comma, quote, CR or LF")
        self.null_literal = null_literal
        self.catalog = Catalog()
        self._tables: dict[str, _Table] = {}
        # tables registered with a CSV not yet loaded: name -> path
        self._csv_sources: dict[str, str] = {}

    # schema & loading

    def create_table(self, ddl_text: str) -> TableDef:
        """Define the table of one CREATE TABLE statement."""
        return self._define(parse_table_def(ddl_text))

    def load_ddl(self, ddl_text: str) -> list[TableDef]:
        """Define the tables of a schema: CREATE TABLE statements separated
        by ``;``. A schema that does not parse defines none of them."""
        return [self._define(d) for d in parse_ddl(ddl_text)]

    def _define(self, d: TableDef) -> TableDef:
        self.catalog.define(d)
        self._tables[d.name] = _Table(d)
        return d

    def register_csv(self, table: str, path: str):
        """Have ``table`` loaded from the CSV file at ``path`` when something
        first touches it (``_table``), not now."""
        self._csv_sources[self.catalog.get(table).name] = path

    def is_loaded(self, table: str) -> bool:
        """False while ``table``'s registered CSV has not been loaded."""
        return self.catalog.get(table).name not in self._csv_sources

    def load_csv(self, table: str, stream) -> int:
        """Add the rows of a CSV stream to ``table``, all or none: they go
        into a copy of the table, which replaces it only once every line has
        parsed. A table that loads ends its ``register_csv`` registration."""
        d = self.catalog.get(table)
        t = self._tables[d.name].copy()

        def records():
            try:
                yield from iter_csv(stream, self.null_literal)
            except ValueTypeError as exc:  # names its line, not its table
                raise ValueTypeError(f"{table} {exc}") from None
            except UnicodeDecodeError as exc:
                raise ValueTypeError(f"{table}: CSV is not UTF-8 text ({exc.reason})") from None

        reader = records()
        try:
            header = next(reader)
        except StopIteration:
            raise ArityError(f"{table}: CSV is empty, header row required") from None
        # a header field equal to the null literal names a column like any other
        header = [self.null_literal if h is None else h for h in header]
        if header != t.d.column_names():
            raise ArityError(f"{table}: CSV header {header} does not match schema "
                             f"{t.d.column_names()}")
        n = 0
        for lineno, fields in enumerate(reader, start=2):
            if len(fields) != len(t.d.columns):
                raise ArityError(f"{table} line {lineno}: expected {len(t.d.columns)} fields")
            try:
                row = tuple([csv_value(f, col.type) for f, col in zip(fields, t.d.columns)])
            except ValueTypeError as exc:
                raise ValueTypeError(f"{d.name} line {lineno}: {exc}") from None
            t.insert(row)
            n += 1
        self._tables[d.name] = t
        self._csv_sources.pop(d.name, None)
        return n

    def dump_csv(self, table: str, stream):
        """Write the table as CSV, rows in key order. Each row's line is
        rendered the first time the row is dumped and kept in the table's
        ``csv_lines`` while that row object stays stored, so a dump after a
        mutation renders only the rows the mutation stored."""
        t, null = self._table(table), self.null_literal
        out = [csv_line(t.d.column_names(), null)]
        for row in t.sorted_rows():
            entry = t.csv_lines.get(id(row))
            if entry is None:
                entry = t.csv_lines[id(row)] = (row, _row_line(row, null))
            out.append(entry[1])
        stream.write("".join(out))

    def _table(self, name: str) -> _Table:
        """The one way to a table's storage. A table registered with a CSV is
        loaded here on first use; when that CSV does not load, the table
        stays unloaded and every touch raises the same error again."""
        name = self.catalog.get(name).name
        path = self._csv_sources.get(name)
        if path is not None:
            with open(path, encoding="utf-8", newline="") as f:
                self.load_csv(name, f)
        return self._tables[name]

    # reads

    def row_count(self, table: str) -> int:
        return len(self._table(table).rows)

    def rows_of(self, table: str):
        """The table's rows, plain tuples of values, in key order."""
        yield from self._table(table).sorted_rows()

    def get_row(self, table: str, pk: tuple) -> Tuple:
        t = self._table(table)
        return Tuple(t.d.name, t.get(tuple(pk)))

    def has_row(self, table: str, pk: tuple) -> bool:
        return tuple(pk) in self._table(table).rows

    def verified_rows(self, table: str) -> tuple[dict[tuple, Row], dict[int, tuple]]:
        """``(rows by primary key, verified)`` of ``table``: the stored rows,
        and its memo of what the ledger last confirmed for them (see
        ``_Table``), which the verifier reads and fills."""
        t = self._table(table)
        return t.rows, t.verified

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

    def apply_row_insert(self, table: str, row: tuple):
        t = self._table(table)
        if len(row) != len(t.d.columns):
            raise ArityError(f"{table}: expected {len(t.d.columns)} values")
        t.insert(tuple(row))

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
        row = list(t.get(tuple(pk)))
        row[idx] = coerce(new_value, t.d.columns[idx].type)
        t.replace(tuple(pk), tuple(row))

    # misc

    def clone(self) -> "Database":
        """Independent copy in the same dialect, every table loaded. Rows are
        tuples of immutable Values, so the row objects themselves are shared."""
        db = Database(self.null_literal)
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
        aggs = {node: _aggregate(node, rows) for node in aggs}
        base = rows[0] if rows else (NULL,) * width
        return [tuple([compile_expr(e, aggs)(base) for e in exprs])]
    if all(isinstance(e, ast.BoundCol) for e in exprs):
        positions = [e.index for e in exprs]
        if positions == list(range(width)):
            return list(rows)
        if len(positions) == 1:
            i = positions[0]
            return [(row[i],) for row in rows]
        pick = operator.itemgetter(*positions)
        return [pick(row) for row in rows]
    outs = [compile_expr(e) for e in exprs]
    return [tuple([f(row) for f in outs]) for row in rows]


def _aggregate(agg: ast.Aggregate, rows: list[Row]) -> Value:
    """``agg`` over ``rows``: its argument on every row, then one Value."""
    if agg.is_count_star:
        return Value.integer(len(rows))
    vals = [x for x in map(_raw(agg.arg), rows) if x is not None]
    if agg.func == "count":
        return Value.integer(len(vals))
    if not vals:
        return NULL
    if agg.func in ("sum", "avg"):
        if any(type(x) is Value for x in vals):
            raise EvalError(f"{agg.func} needs numeric input")
        try:
            total = sum(vals, Decimal(0))
        except Overflow:
            raise EvalError(DECIMAL_OVERFLOW) from None
        if agg.func == "avg":
            return Value.decimal(quantize_decimal(total / len(vals)))
        if all(type(x) is int for x in vals):
            return Value.integer(int(total))
        return Value.decimal(quantize_decimal(total))
    fn, best = operator.gt if agg.func == "max" else operator.lt, vals[0]
    for x in vals[1:]:
        if _compare(fn, x, best):
            best = x
    return _value(best)


# --- CSV ----------------------------------------------------------------------
#
# Dialect: comma-separated, double-quote quoting with "" escape, \n or \r\n
# line endings. A field is its text, or None for NULL, which is written as
# the null literal, unquoted: only an unquoted field reads as NULL.
_CSV_SPECIAL = (",", '"', "\n", "\r")  # a field holding one is quoted


def iter_csv(stream, null_literal: str):
    """The records of a CSV text stream, each a list of fields. A quoted
    field left open raises ValueTypeError naming its record's line, counted
    from 1 as records, not as physical lines."""
    data = stream.read()
    i, n = 0, len(data)
    lineno = 0
    while i < n:
        lineno += 1
        fields: list[str | None] = []
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
                fields.append("".join(buf))
            else:
                j = i
                while j < n and data[j] not in (",", "\n", "\r"):
                    j += 1
                text = data[i:j]
                fields.append(None if text == null_literal else text)
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


def csv_value(field: str | None, col_type: ValueType) -> Value:
    """The value of one CSV field in a column of ``col_type``."""
    return NULL if field is None else parse_typed(field, col_type)


def _row_line(row: Row, null_literal: str) -> str:
    """The CSV line of a stored row."""
    return csv_line([None if v.is_null else render_value(v) for v in row], null_literal)


def csv_line(fields, null_literal: str) -> str:
    """One CSV record, newline-terminated: ``fields`` as ``iter_csv`` reads
    them back, None written as the (unquoted) null literal."""
    out = []
    for f in fields:
        if f is None:
            out.append(null_literal)
        elif f == null_literal or f == "" or any(ch in f for ch in _CSV_SPECIAL):
            out.append('"' + f.replace('"', '""') + '"')
        else:
            out.append(f)
    return ",".join(out) + "\n"
