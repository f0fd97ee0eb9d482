"""AST for the supported SQL subset, plus the canonical pretty-printer.

The node set mirrors the grammar: SELECT with comma joins and derived
tables, UPDATE with scalar subqueries in SET, INSERT from VALUES or from a
SELECT, and DELETE; CREATE TABLE yields a ``TableDef``. WHERE trees never
contain subqueries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import UnknownColumn
from .values import Value, ValueType, decimal_str

AGGREGATE_FUNCS = ("sum", "count", "avg", "max", "min")

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*", "/")


# --- expressions -----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ColumnRef:
    table: str | None
    column: str


@dataclass(frozen=True, slots=True)
class Literal:
    value: Value


@dataclass(frozen=True, slots=True)
class BinaryOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class UnaryMinus:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Aggregate:
    func: str          # sum | count | avg | max | min
    arg: "Expr | None"  # None only for count(*)

    @property
    def is_count_star(self) -> bool:
        return self.arg is None


@dataclass(frozen=True, slots=True)
class BoundCol:
    """Column reference resolved by ``storage.Scope`` to a position in a row."""
    index: int


Expr = ColumnRef | Literal | BinaryOp | UnaryMinus | Aggregate | BoundCol


# --- predicates ------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Comparison:
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class LikePredicate:
    expr: Expr
    pattern: str
    negated: bool = False


@dataclass(frozen=True, slots=True)
class And:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Predicate"
    right: "Predicate"


Predicate = Comparison | LikePredicate | And | Or


# --- queries ---------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Star:
    pass


@dataclass(frozen=True, slots=True)
class ProjectionItem:
    expr: Expr | Star
    alias: str | None = None


def output_name(item: ProjectionItem, i: int) -> str:
    """Name of the ``i``-th output column: the item's alias, else the name of
    the column it projects, else ``expr_<i>``."""
    if item.alias:
        return item.alias
    if isinstance(item.expr, ColumnRef):
        return item.expr.column
    return f"expr_{i}"


@dataclass(frozen=True, slots=True)
class BaseTable:
    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True, slots=True)
class DerivedTable:
    subquery: "SelectQuery"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias


FromItem = BaseTable | DerivedTable


@dataclass(frozen=True, slots=True)
class SelectQuery:
    projections: tuple[ProjectionItem, ...]
    from_items: tuple[FromItem, ...]
    where: Predicate | None = None


@dataclass(frozen=True, slots=True)
class ScalarSubquery:
    query: SelectQuery


@dataclass(frozen=True, slots=True)
class Assignment:
    column: str
    value: Expr | ScalarSubquery


@dataclass(frozen=True, slots=True)
class UpdateQuery:
    table: str
    assignments: tuple[Assignment, ...]
    where: Predicate | None = None


@dataclass(frozen=True, slots=True)
class ValuesSource:
    rows: tuple[tuple[Expr, ...], ...]


@dataclass(frozen=True, slots=True)
class SelectSource:
    query: SelectQuery


@dataclass(frozen=True, slots=True)
class InsertQuery:
    table: str
    columns: tuple[str, ...]
    source: ValuesSource | SelectSource


@dataclass(frozen=True, slots=True)
class DeleteQuery:
    table: str
    where: Predicate | None = None


Query = SelectQuery | InsertQuery | UpdateQuery | DeleteQuery


class QueryKind(Enum):
    SELECT = "select"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


def classify(q: Query) -> QueryKind:
    """Kind of the outermost statement (nesting does not matter)."""
    if isinstance(q, SelectQuery):
        return QueryKind.SELECT
    if isinstance(q, InsertQuery):
        return QueryKind.INSERT
    if isinstance(q, UpdateQuery):
        return QueryKind.UPDATE
    if isinstance(q, DeleteQuery):
        return QueryKind.DELETE
    raise TypeError(f"not a query: {q!r}")


# --- schema ----------------------------------------------------------------

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

    def key(self, row: tuple) -> tuple:
        """The primary-key values of a full row of this table, in key order."""
        return tuple([row[i] for i in self.pk_indices])


# --- tree walking ----------------------------------------------------------

def iter_selects(q: Query):
    """Yield every SelectQuery node in the tree, parents before children."""
    if isinstance(q, SelectQuery):
        yield q
        for item in q.from_items:
            if isinstance(item, DerivedTable):
                yield from iter_selects(item.subquery)
    elif isinstance(q, UpdateQuery):
        for a in q.assignments:
            if isinstance(a.value, ScalarSubquery):
                yield from iter_selects(a.value.query)
    elif isinstance(q, InsertQuery):
        if isinstance(q.source, SelectSource):
            yield from iter_selects(q.source.query)


def has_nested_select(q: Query) -> bool:
    """True if the statement contains a SELECT beneath its outermost level."""
    n = sum(1 for _ in iter_selects(q))
    if isinstance(q, SelectQuery):
        return n > 1
    return n > 0


def aggregates(e):
    """The aggregate calls in expression ``e``, left to right."""
    if isinstance(e, Aggregate):
        yield e
    elif isinstance(e, BinaryOp):
        yield from aggregates(e.left)
        yield from aggregates(e.right)
    elif isinstance(e, UnaryMinus):
        yield from aggregates(e.operand)


# --- rendering -------------------------------------------------------------

def render(q: Query) -> str:
    """Canonical SQL text. ``parse(render(parse(s)))`` is structurally equal
    to ``parse(s)`` for every supported statement."""
    if isinstance(q, SelectQuery):
        return _render_select(q)
    if isinstance(q, InsertQuery):
        cols = ", ".join(q.columns)
        if isinstance(q.source, ValuesSource):
            rows = ", ".join(
                "(" + ", ".join(render_expr(e) for e in row) + ")" for row in q.source.rows
            )
            return f"insert into {q.table} ({cols}) values {rows}"
        return f"insert into {q.table} ({cols}) {_render_select(q.source.query)}"
    if isinstance(q, UpdateQuery):
        sets = ", ".join(
            f"{a.column} = ({_render_select(a.value.query)})"
            if isinstance(a.value, ScalarSubquery)
            else f"{a.column} = {render_expr(a.value)}"
            for a in q.assignments
        )
        sql = f"update {q.table} set {sets}"
        if q.where is not None:
            sql += f" where {render_predicate(q.where)}"
        return sql
    if isinstance(q, DeleteQuery):
        sql = f"delete from {q.table}"
        if q.where is not None:
            sql += f" where {render_predicate(q.where)}"
        return sql
    raise TypeError(f"not a query: {q!r}")


def _render_select(q: SelectQuery) -> str:
    parts = []
    for p in q.projections:
        if isinstance(p.expr, Star):
            parts.append("*")
        else:
            s = render_expr(p.expr)
            if p.alias:
                s += f" as {p.alias}"
            parts.append(s)
    frm = ", ".join(_render_from(f) for f in q.from_items)
    sql = f"select {', '.join(parts)} from {frm}"
    if q.where is not None:
        sql += f" where {render_predicate(q.where)}"
    return sql


def _render_from(f: FromItem) -> str:
    if isinstance(f, BaseTable):
        return f"{f.name} as {f.alias}" if f.alias else f.name
    return f"({_render_select(f.subquery)}) as {f.alias}"


def render_expr(e: Expr) -> str:
    if isinstance(e, ColumnRef):
        return f"{e.table}.{e.column}" if e.table else e.column
    if isinstance(e, Literal):
        return _render_literal(e.value)
    if isinstance(e, BinaryOp):
        return f"({render_expr(e.left)} {e.op} {render_expr(e.right)})"
    if isinstance(e, UnaryMinus):
        return f"(- {render_expr(e.operand)})"
    if isinstance(e, Aggregate):
        return f"{e.func}(*)" if e.is_count_star else f"{e.func}({render_expr(e.arg)})"
    if isinstance(e, BoundCol):
        return f"#{e.index}"
    raise TypeError(f"not an expression: {e!r}")


def _render_literal(v: Value) -> str:
    if v.is_null:
        return "null"
    if v.kind is ValueType.INTEGER:
        return str(v.raw)
    if v.kind is ValueType.DECIMAL:
        return decimal_str(v.raw)
    # TEXT and DATE render as single-quoted strings
    return "'" + str(v.raw).replace("'", "''") + "'"


def render_predicate(p: Predicate) -> str:
    if isinstance(p, Comparison):
        return f"({render_expr(p.left)} {p.op} {render_expr(p.right)})"
    if isinstance(p, LikePredicate):
        op = "not like" if p.negated else "like"
        pat = p.pattern.replace("'", "''")
        return f"({render_expr(p.expr)} {op} '{pat}')"
    if isinstance(p, And):
        return f"({render_predicate(p.left)} and {render_predicate(p.right)})"
    if isinstance(p, Or):
        return f"({render_predicate(p.left)} or {render_predicate(p.right)})"
    raise TypeError(f"not a predicate: {p!r}")
