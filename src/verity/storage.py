"""Embedded relational engine: catalog, typed in-memory tables, execution of
the supported SQL subset, and CSV ingestion. Storage reads no SQL text: its
tables come from ``parser.parse_table_def`` and ``parser.parse_ddl``, and
queries arrive as parsed ASTs.

A SELECT is prepared, then run. ``prepare`` binds it to the catalog alone:
it resolves every column name once, to a position in the joined row,
through ``Scope``: the one resolver of column names in queries, which the
rewriter uses too. The planner (``_plan``) gives each bound WHERE conjunct
to the deepest FROM item it reads: conjuncts over one item filter that
item's rows once; an ``=`` between an expression over an item and one over
earlier items becomes a hash-join key; the rest are checked on each joined
row. Every conjunct and key compiles once into a closure that runs per row
(``compile_predicate``, ``compile_expr``), and the output expressions into
one closure over the joined rows (``projection``). Inside an arithmetic
tree the closures pass raw ints and Decimals and build a Value only for the
result. Every typed check still runs per row, since a stored value may have
another kind than its column's declared type, and compiling never raises:
an expression that cannot evaluate raises on the first row that evaluates
it. The resulting ``SelectPlan`` holds no table and no row, so it can run
again after any write. ``exec_select`` runs a plan: derived tables first,
then the join, on the rows stored at that moment. The join keeps
nested-loop order: rows come out by the first item's primary key, then the
second's, and so on. No cost model. A SELECT that does not aggregate also
returns each row's why-provenance (``SourcedRows.sources``): the stored row
object each base-table occurrence, derived tables' included, gave to it.
The verifier checks those stored rows.

Each base table keeps its rows in key order from its first row: every
insert, update and delete, ``load_csv``'s included, keeps it by bisecting on
its row's key, and nothing ever sorts a table. That order is the one access
path: when a base table's leading filters compare the first primary-key
column with a literal of its comparison class (numeric with numeric,
TEXT/DATE with TEXT/DATE; ``=``, ``<``, ``<=``, ``>``, ``>=``), the table's
rows are narrowed by bisection to the key range they select, and only the
later filters are evaluated, on that range alone. A key filter after
another kind of filter, or inside an OR, narrows nothing, so every evaluated
filter still sees, and raises on, the rows the full scan would show it. A
hash join over all of a base table's rows on plain columns keeps its hash
table in the table (``join_index``) until the table's next write, so a join
that touches few rows does not hash the whole table again. ``dump_csv``
renders each row's CSV line once and reuses it while that row object stays
stored.

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
from dataclasses import dataclass
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
    """One base table: its rows by primary key and the same rows in key
    order (``order``), from its first row on. Every write keeps that order
    by bisecting on its row's key, so it costs O(log n) comparisons plus a
    list move, never a sort. Rows whose keys sort equal (only possible when
    one key column holds values of two types) keep the order in which they
    were stored.

    A stored row is an immutable tuple of immutable values, and every write
    (``insert``, ``replace``, so ``raw_mutate`` too, and ``load_csv``)
    stores a new tuple object. The table keeps three caches. Two are keyed
    by ``id(row)`` and hold the row itself, so the id cannot be reused while
    the entry exists: ``csv_lines``, the row's line (``Database.dump_csv``),
    and ``verified``, the row id and fingerprint the ledger last confirmed
    for the row (filled by the verifier's tuple check). ``replace`` and
    ``_remove`` drop both entries of the row they drop, so each holds
    stored rows only. The third, ``join_index``, maps a tuple of column
    positions to the hash table and key classes ``_hash_matches`` built on
    those columns over all of the table's rows; ``_add``, ``_remove`` and
    ``replace``, so every write, clear all of it, since a stale entry would
    join the rows a write replaced and hide their tampering. A copy starts
    with all three empty."""

    def __init__(self, d: TableDef):
        self.d = d
        self.rows: dict[tuple, Row] = {}  # pk values -> full row
        self.order: list[Row] = []   # the rows, in key order
        self._keys: list[tuple] = []  # their sort keys, aligned
        # id(row) -> (row, its CSV line)
        self.csv_lines: dict[int, tuple[Row, str]] = {}
        # id(row) -> (row, row id, fingerprint) the ledger last confirmed
        self.verified: dict[int, tuple[Row, str, str]] = {}
        # key column positions -> (hash table, key classes) over every row
        self.join_index: dict[tuple[int, ...], tuple[dict, list[dict]]] = {}

    def copy(self) -> "_Table":
        """Independent copy sharing the (immutable) row objects."""
        t = _Table(self.d)
        t.rows, t.order, t._keys = dict(self.rows), list(self.order), list(self._keys)
        return t

    def key_rows(self, bounds: tuple) -> list[Row]:
        """The rows, in key order, whose first key column satisfies every
        ``(op, probe)`` of ``bounds`` (``_key_bounds``), found by bisection:
        they satisfy the conjuncts those bounds stand for without evaluating
        them, and such a conjunct can never raise. With no bounds, the
        table's own row list, which the caller must not change."""
        if not bounds:
            return self.order
        keys, first = self._keys, operator.itemgetter(0)
        lo, hi = 0, len(keys)
        for op, probe in bounds:
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
        return self.order[lo:hi]

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
        self.join_index.clear()
        self.order[self._position(pk, old)] = row

    def delete(self, pk: tuple):
        self.get(pk)
        self._remove(pk)

    def _add(self, pk: tuple, row: Row):
        self.rows[pk] = row
        self.join_index.clear()
        k = _pk_sort_key(pk)
        i = bisect_right(self._keys, k)  # after equal keys: stored later
        self._keys.insert(i, k)
        self.order.insert(i, row)

    def _remove(self, pk: tuple):
        row = self.rows.pop(pk)
        self.csv_lines.pop(id(row), None)
        self.verified.pop(id(row), None)
        self.join_index.clear()
        i = self._position(pk, row)
        del self._keys[i]
        del self.order[i]

    def _position(self, pk: tuple, row: Row) -> int:
        """Index of the stored ``row``, whose key is ``pk``, in the key order."""
        i = bisect_left(self._keys, _pk_sort_key(pk))
        while self.order[i] is not row:  # past rows whose keys sort equal
            i += 1
        return i


def _pk_sort_key(pk: tuple):
    return tuple(v.sort_key() for v in pk)


# each narrowing comparison, and the one it becomes with its operands swapped
_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _key_bounds(local: list, d: TableDef) -> tuple:
    """``(op, probe)`` of each conjunct in the longest prefix of ``local``
    (bound to rows of table ``d``) that compares the first key column with a
    literal of its comparison class. Later conjuncts are not looked at: a
    conjunct placed after another kind must still see, and may raise on,
    every row the scan shows it."""
    col = d.pk_indices[0]
    cls = _KEY_CLASS[d.columns[col].type]
    bounds = []
    for conj in local:
        bound = _key_bound(conj, col, cls)
        if bound is None:
            break
        bounds.append(bound)
    return tuple(bounds)


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


@dataclass(frozen=True, slots=True)
class SelectPlan:
    """A SELECT bound to the catalog (``Database.prepare``), which
    ``Database.exec_select`` runs. It holds only what the query's text and
    the catalog decide: the output names, one ``_Step`` per FROM item (a
    derived table's plan nested in its step's ``source``) and the
    projection compiled from its bound output expressions. It holds no
    table, no stored row and no hash table, and no run changes it, so one
    plan serves any number of runs, each on the rows stored when it runs."""
    names: tuple          # output names
    steps: tuple          # one _Step per FROM item, in order
    project: object       # joined rows -> output rows (``projection``)
    aggregates: bool      # the projection collapses the rows to one


@dataclass(frozen=True, slots=True)
class _Step:
    """One FROM binding of a plan, joined onto the rows of the bindings
    before it: what binding decided, never what a run found. Each run takes
    the binding's rows afresh from ``source``.

    ``bounds``, ``local`` and ``inner_keys`` read the binding's own rows;
    ``outer_keys`` and ``residual`` read the wide row joined so far. Keys are
    raw-value closures (``_raw``); ``local`` and ``residual`` are compiled
    predicates, None when there is no such conjunct."""
    source: str | SelectPlan  # a base table's name, or a derived table's plan
    bounds: tuple             # a base table's leading key conjuncts (``key_rows``)
    local: object             # the binding's other conjuncts over its own rows
    inner_keys: tuple         # hash keys over this binding, each
    outer_keys: tuple         # equal to one over earlier bindings
    inner_left: tuple         # the inner key was the left operand
    residual: object          # every other conjunct
    index_cols: tuple | None  # join_index key: all of a table's rows, plain-column keys


def _plan(where, scope: Scope, sources: list) -> tuple[_Step, ...]:
    """Bind the WHERE clause and give each conjunct to the deepest binding it
    reads: as a filter of that binding's rows when it reads no other, as a
    hash-join key when it equates an expression over that binding with one
    over earlier bindings, as a residual predicate otherwise.

    Each source is a base table's ``TableDef`` or a derived table's
    ``SelectPlan``. A base table's leading filters on its first key column
    become the ``bounds`` that ``key_rows`` narrows its rows to; its filters
    after those are evaluated on every row in that range. A base table with
    no filter at all joins all of its rows, so a hash join on its plain
    columns keeps its hash table in the table's ``join_index``."""
    # each block's positions are contiguous, from its first
    start = [cols[0][1] for _, cols in scope.blocks]
    depth_of = [d for d, (_, cols) in enumerate(scope.blocks) for _ in cols]

    def depths(node) -> set[int]:
        return {depth_of[i] for i in _columns(node)}

    local = [[] for _ in sources]
    keys = [[] for _ in sources]  # (inner key, outer key, the inner key was left)
    residual = [[] for _ in sources]
    for conj in _conjuncts(where):
        bound = scope.bind(conj)
        read = depths(bound)
        d = max(read, default=0)
        if read <= {d}:
            local[d].append(_shift(bound, start[d]))
            continue
        if isinstance(bound, ast.Comparison) and bound.op == "=":
            left, right = depths(bound.left), depths(bound.right)
            if left == {d} and max(right) < d:
                keys[d].append((_shift(bound.left, start[d]), bound.right, True))
                continue
            if right == {d} and max(left) < d:
                keys[d].append((_shift(bound.right, start[d]), bound.left, False))
                continue
        residual[d].append(bound)
    return tuple(map(_step, sources, local, keys, residual))


def _step(source, local: list, keys: list, residual: list) -> _Step:
    """The step of one binding, its conjuncts placed by ``_plan``."""
    inner = [k for k, _, _ in keys]
    index_cols = None
    if isinstance(source, SelectPlan):
        bounds = ()
    else:
        bounds = _key_bounds(local, source)
        if not local and inner and all(isinstance(k, ast.BoundCol) for k in inner):
            index_cols = tuple(k.index for k in inner)
        source = source.name
    return _Step(source, bounds, _all(local[len(bounds):]), tuple(map(_raw, inner)),
                 tuple(_raw(o) for _, o, _ in keys), tuple(left for _, _, left in keys),
                 _all(residual), index_cols)


class SourcedRows(list):
    """A SELECT's rows with their why-provenance: ``sources[k][i]`` is the
    stored row object that base-table occurrence ``k`` gave to row ``i``.
    Occurrences are numbered in FROM order, a derived table's flattened in
    its place: the order of the rewriter's ``column_map``."""

    __slots__ = ("sources",)

    def __init__(self, rows, sources: list[list[Row]]):
        super().__init__(rows)
        self.sources = sources


def _join(steps: tuple, sources: list) -> tuple[list[Row], list[list[Row]]]:
    """``(rows, picked)``: the joined rows, in nested-loop order (by the
    first binding's row order, then the second's, and so on), and per
    binding the row it gave to each, so each row is the concatenation of
    its picked rows. ``sources`` holds each step's source for this run: a
    base ``_Table`` or a derived table's rows. One binding's rows come back
    as they are, in a list the caller must not change."""
    joined = _rows(steps[0], sources[0])
    picked = [joined]
    for step, source in zip(steps[1:], sources[1:]):
        rows = _rows(step, source) if joined else ()
        if not rows:
            return [], [[] for _ in steps]
        matches = _hash_matches(step, source, rows) if step.inner_keys else (lambda acc: rows)
        residual = step.residual
        out, mine, parents = [], [], []
        for i, acc in enumerate(joined):
            for row in matches(acc):
                wide = acc + row
                if residual is None or residual(wide):
                    out.append(wide)
                    mine.append(row)
                    parents.append(i)
        picked = [list(map(col.__getitem__, parents)) for col in picked]
        picked.append(mine)
        joined = out
    return joined, picked


def _trace(rows: SourcedRows, picked: list[Row]) -> list[list[Row]]:
    """The sources of ``picked``, rows of a derived table's ``rows``: each of
    those is a distinct object, found by its id."""
    at = {id(row): i for i, row in enumerate(rows)}
    pos = [at[id(row)] for row in picked]
    return [list(map(col.__getitem__, pos)) for col in rows.sources]


def _rows(step: _Step, source) -> list[Row]:
    """The step's rows in this run: a base table's narrowed to its key
    bounds, then those that pass its other local conjuncts."""
    rows = source.key_rows(step.bounds) if isinstance(source, _Table) else source
    return rows if step.local is None else list(filter(step.local, rows))


def _hash_matches(step: _Step, source, rows: list[Row]):
    """Hash ``rows`` on the step's inner keys; return the probe that finds, in
    row order, the rows matching an outer row's keys.

    When ``rows`` are all of a base table's rows and every inner key is a
    plain column (``step.index_cols``), the hash table is the one kept in
    that table's ``join_index`` under those columns: built by the first
    join that needs it, reused until the table's next write clears it. Any
    other step hashes its rows for this statement alone.

    Keys are (is TEXT/DATE, raw) pairs, so INTEGER 1 meets DECIMAL 1.00 and
    TEXT meets DATE as ``=`` does; a NULL key meets nothing. A probe whose
    key class differs from a build-side key raises the error ``=`` raises:
    per key, the classes a probe may have are decided once, here."""
    if step.index_cols is None:
        table, seen = _hash_rows(step.inner_keys, rows)
    else:
        index = source.join_index
        if step.index_cols not in index:
            index[step.index_cols] = _hash_rows(step.inner_keys, rows)
        table, seen = index[step.index_cols]
    # per key: (outer key, the probe classes no build-side class differs
    # from, the build side's value of each class, the inner key was left)
    keys = [(f, frozenset(c for c in (False, True) if (not c) not in classes), classes, left)
            for f, classes, left in zip(step.outer_keys, seen, step.inner_left)]

    def matches(acc: Row):
        key = []
        for f, fits, classes, inner_left in keys:
            x = f(acc)
            if x is None:
                return ()
            text = type(x) is Value
            if text not in fits:  # raises EvalError, as comparing the two would
                other = classes[not text]
                _compare(operator.eq, *((other, x) if inner_left else (x, other)))
            key.append((text, x.raw if text else x))
        return table.get(tuple(key), ())

    return matches


def _hash_rows(keys: tuple, rows: list[Row]) -> tuple[dict, list[dict]]:
    """``(table, classes)``: ``rows`` hashed on ``keys``, raw-value closures
    (``_raw``), each row under its tuple of key pairs, in row order, rows
    with a NULL key left out; and, per key, one value of each key class it
    held."""
    table: dict[tuple, list[Row]] = {}
    seen: list[dict] = [{} for _ in keys]  # per key: class -> a value
    for row in rows:
        key = []
        for f, classes in zip(keys, seen):
            x = f(row)
            if x is None:
                break
            text = type(x) is Value
            classes.setdefault(text, x)
            key.append((text, x.raw if text else x))
        else:
            table.setdefault(tuple(key), []).append(row)
    return table, seen


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
        for row in t.order:
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
        yield from self._table(table).order

    def get_row(self, table: str, pk: tuple) -> Tuple:
        t = self._table(table)
        return Tuple(t.d.name, t.get(tuple(pk)))

    def has_row(self, table: str, pk: tuple) -> bool:
        return tuple(pk) in self._table(table).rows

    def verified_rows(self, table: str) -> dict[int, tuple]:
        """``table``'s memo of what the ledger last confirmed for its stored
        rows (see ``_Table``), which the verifier reads and fills."""
        return self._table(table).verified

    def prepare(self, q: ast.SelectQuery) -> SelectPlan:
        """``q`` bound to the catalog, for ``exec_select`` to run any number
        of times: every name resolved once to a position in the joined row,
        every WHERE conjunct placed (``_plan``) and every expression
        compiled, derived tables prepared in their place. Binding reads the
        catalog only, never a table or its rows, so it loads no CSV, and a
        query that does not bind raises here, before any row is read."""
        blocks, sources, off = [], [], 0
        for item in q.from_items:
            if isinstance(item, ast.BaseTable):
                source = self.catalog.get(item.name)
                names = source.column_names()
            else:
                source = self.prepare(item.subquery)
                names = source.names
            blocks.append((item.binding, [(n, off + i) for i, n in enumerate(names)]))
            sources.append(source)
            off += len(names)
        scope = Scope(blocks)
        steps = _plan(q.where, scope, sources)
        exprs, names = zip(*_outputs(q.projections, scope))
        return SelectPlan(names, steps, projection(exprs, off),
                          any(any(ast.aggregates(e)) for e in exprs))

    def exec_select(self, q) -> list[Row]:
        """The rows of ``q``, in order: a ``SelectQuery``, prepared here, or
        a ``SelectPlan`` from ``prepare``, which runs as it was bound, on the
        rows stored now. Unless ``q`` aggregates, they are ``SourcedRows``,
        holding the stored rows behind each."""
        return self._run(q if isinstance(q, SelectPlan) else self.prepare(q))

    def _run(self, plan: SelectPlan) -> list[Row]:
        """The rows of a plan. Its base tables come from ``_table``, loaded on
        first touch, and its derived tables run, in FROM order; then the
        join. A SELECT that aggregates, or reads a derived table that does,
        carries no sources."""
        sources = [self._table(s.source) if isinstance(s.source, str) else self._run(s.source)
                   for s in plan.steps]
        joined, picked = _join(plan.steps, sources)
        rows = plan.project(joined)
        if plan.aggregates or not all(isinstance(s, (_Table, SourcedRows)) for s in sources):
            return list(rows)
        occurrences = []
        for source, mine in zip(sources, picked):
            occurrences += [mine] if isinstance(source, _Table) else _trace(source, mine)
        return SourcedRows(rows, occurrences)

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


def _outputs(items, scope: Scope) -> list[tuple]:
    """``(bound expression, output name)`` of each output of a projection list."""
    out = []
    for i, item in enumerate(items):
        if isinstance(item.expr, ast.Star):
            out += [(ast.BoundCol(pos), n) for n, pos in scope.all_columns()]
        else:
            out.append((scope.bind(item.expr), ast.output_name(item, i)))
    return out


def projection(exprs, width: int):
    """Closure: ``width``-wide rows -> the output rows of bound ``exprs``, in
    order, as an iterable: the rows themselves when each row already is its
    output. Plain column outputs are picked by position. Bare aggregates
    collapse the rows to one, whose non-aggregate expressions take their
    values from the first row (NULL when there is none)."""
    exprs = tuple(exprs)
    aggs = tuple(dict.fromkeys(node for e in exprs for node in ast.aggregates(e)))
    if aggs:
        def aggregate(rows):
            values = {node: _aggregate(node, rows) for node in aggs}
            base = rows[0] if rows else (NULL,) * width
            return [tuple([compile_expr(e, values)(base) for e in exprs])]
        return aggregate
    if not all(isinstance(e, ast.BoundCol) for e in exprs):
        outs = tuple(map(compile_expr, exprs))
        return lambda rows: (tuple([f(row) for f in outs]) for row in rows)
    positions = tuple(e.index for e in exprs)
    if positions == tuple(range(width)):
        return lambda rows: rows
    if len(positions) == 1:
        i = positions[0]
        return lambda rows: [(row[i],) for row in rows]
    pick = operator.itemgetter(*positions)
    return lambda rows: map(pick, rows)


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
