"""Projection-expansion rewriting.

Every SELECT is widened, innermost first, to project all attributes of all
base tables it touches. The widened query keeps the FROM structure and
qualifications of the original (bare column references come back qualified);
the rewrite records where each base table's columns land in the wide result
(``column_map``) and how to rebuild the user's requested output from a wide
row (``original_projection``).

A widened derived table exposes every column of its underlying base tables.
Exposed names that would collide (a table joined to itself inside one
derived table, say) are disambiguated as ``alias__table__column``. Original
projection items that are expressions stay addressable by the enclosing
query: they are re-appended, aliased, after the base columns.

Aggregates are supported only in the outermost projection; the wide query
never collapses rows, which is exactly what lets every contributing base
tuple be fingerprint-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import sqlast as ast
from .errors import AmbiguousColumn, UnknownColumn, UnknownTable, UnsupportedFeature
from .storage import Catalog, Row, TableDef, Tuple, project_rows


@dataclass(frozen=True)
class TableExposure:
    """One base-table occurrence in the wide result.

    ``alias_path`` walks from the outermost FROM binding down to the base
    table's own binding; wide columns [start, stop) hold the table's
    attributes in schema order.
    """

    table: str
    alias_path: tuple[str, ...]
    start: int
    stop: int
    tabledef: TableDef


@dataclass
class RewrittenSelect:
    wide_query: ast.SelectQuery
    column_map: list[TableExposure]
    original_projection: list[tuple]  # (bound expr, output name)

    @property
    def table_list(self) -> list[tuple[str, tuple[str, ...]]]:
        return [(e.table, e.alias_path) for e in self.column_map]

    @property
    def output_names(self) -> list[str]:
        return [name for _, name in self.original_projection]


def change_projection(q: ast.SelectQuery, catalog: Catalog) -> RewrittenSelect:
    """Widen ``q`` bottom-up and map its original projection onto the wide result."""
    level = _widen(q, catalog, as_derived=False)
    original = []
    for i, item in enumerate(q.projections):
        if isinstance(item.expr, ast.Star):
            for name, idx in _visible_in_order(level):
                original.append((ast.BoundCol(idx), name))
            continue
        bound = _bind_expr(item.expr, level)
        name = item.alias or (
            item.expr.column if isinstance(item.expr, ast.ColumnRef) else f"expr_{i}"
        )
        original.append((bound, name))
    return RewrittenSelect(level.wide, level.exposures, original)


def tuples_of(wide_row: Row, exposure: TableExposure) -> Tuple:
    """Base-table tuple reconstructed from one wide row."""
    return Tuple(exposure.table, tuple(wide_row[exposure.start:exposure.stop]))


def project_results(wide_rows: list[Row], rw: RewrittenSelect) -> list[Row]:
    """Evaluate the user's original projection over the wide rows.

    Row order is preserved; bare aggregates collapse the set to one row.
    """
    exprs = [e for e, _ in rw.original_projection]
    return project_rows(exprs, wide_rows, len(rw.wide_query.projections))


# --- internals ---------------------------------------------------------------

@dataclass
class _Level:
    """Bookkeeping for one widened SELECT."""

    wide: ast.SelectQuery | None = None
    exposures: list[TableExposure] = field(default_factory=list)
    out_names: list[str] = field(default_factory=list)
    # binding -> original visible name -> wide positions
    visible: dict[str, dict[str, list[int]]] = field(default_factory=dict)
    # binding -> [(visible name, wide idx)] in the order the user sees them
    # (schema order for base tables, original projection order for derived)
    visible_order: dict[str, list] = field(default_factory=dict)
    binding_order: list[str] = field(default_factory=list)
    # per wide position: owning binding and the name the child exposes there
    pos_binding: list[str] = field(default_factory=list)
    pos_child_name: list[str] = field(default_factory=list)
    # this level's original output, as (name, wide idx), for the parent query
    orig_outputs: list[tuple[str, int]] = field(default_factory=list)

    def resolve_original(self, table: str | None, column: str) -> int:
        if table is not None:
            if table not in self.visible:
                raise UnknownTable(f"no table or alias {table!r} in this query")
            hits = self.visible[table].get(column, [])
            if not hits:
                raise UnknownColumn(f"{table!r} has no column {column!r}")
            if len(hits) > 1:
                raise AmbiguousColumn(f"{table}.{column} matches several columns")
            return hits[0]
        hits = []
        for b in self.binding_order:
            hits.extend(self.visible[b].get(column, []))
        if not hits:
            raise UnknownColumn(f"no column {column!r} in this query")
        if len(hits) > 1:
            raise AmbiguousColumn(f"column {column!r} is ambiguous")
        return hits[0]


def _visible_in_order(level: _Level) -> list[tuple[str, int]]:
    """All originally-visible (name, wide idx) pairs, in the order a star
    projection must produce them."""
    pairs = []
    for b in level.binding_order:
        pairs.extend(level.visible_order[b])
    return pairs


def _widen(q: ast.SelectQuery, catalog: Catalog, as_derived: bool) -> _Level:
    level = _Level()
    new_from: list = []
    # mangle base: alias path + table for base columns (None for derived pass-through)
    mangle_base: list[tuple[str, ...] | None] = []
    offset = 0

    for item in q.from_items:
        if isinstance(item, ast.BaseTable):
            td = catalog.get(item.name)
            binding = item.binding
            names = td.column_names()
            level.exposures.append(
                TableExposure(td.name, (binding,), offset, offset + len(names), td)
            )
            vis: dict[str, list[int]] = {}
            for i, n in enumerate(names):
                vis.setdefault(n, []).append(offset + i)
                level.pos_binding.append(binding)
                level.pos_child_name.append(n)
                mangle_base.append((binding, td.name, n))
            level.visible[binding] = vis
            level.visible_order[binding] = [(n, offset + i) for i, n in enumerate(names)]
            level.binding_order.append(binding)
            new_from.append(item)
            offset += len(names)
        else:
            child = _widen(item.subquery, catalog, as_derived=True)
            binding = item.alias
            for e in child.exposures:
                level.exposures.append(
                    TableExposure(
                        e.table, (binding,) + e.alias_path,
                        offset + e.start, offset + e.stop, e.tabledef,
                    )
                )
            vis = {}
            for name, idx in child.orig_outputs:
                vis.setdefault(name, []).append(offset + idx)
            level.visible[binding] = vis
            level.visible_order[binding] = [
                (name, offset + idx) for name, idx in child.orig_outputs
            ]
            level.binding_order.append(binding)
            for n in child.out_names:
                level.pos_binding.append(binding)
                level.pos_child_name.append(n)
                mangle_base.append(None)
            new_from.append(ast.DerivedTable(child.wide, binding))
            offset += len(child.out_names)

    if len(set(level.binding_order)) != len(level.binding_order):
        raise AmbiguousColumn("duplicate FROM binding")

    # Original projection bookkeeping; expression outputs become extra wide
    # columns when this query sits in derived position.
    extras: list[tuple] = []  # (requalified expr, out name)
    for i, item in enumerate(q.projections):
        if isinstance(item.expr, ast.Star):
            level.orig_outputs.extend(_visible_in_order(level))
            continue
        name = item.alias or (
            item.expr.column if isinstance(item.expr, ast.ColumnRef) else f"expr_{i}"
        )
        if isinstance(item.expr, ast.ColumnRef):
            idx = level.resolve_original(item.expr.table, item.expr.column)
            level.orig_outputs.append((name, idx))
            continue
        if as_derived:
            if ast.expr_has_aggregate(item.expr):
                raise UnsupportedFeature("aggregate inside a nested subquery")
            bound = _requalify_expr(item.expr, level)
            level.orig_outputs.append((name, offset + len(extras)))
            extras.append((bound, name))
        else:
            # outermost level: the original projection is evaluated over the
            # wide rows by project_results; no extra column needed
            level.orig_outputs.append((name, -1))

    # resolve output-name collisions (only observable in derived position)
    names_all = level.pos_child_name + [n for _, n in extras]
    renames: dict[int, str] = {}
    if as_derived:
        counts: dict[str, int] = {}
        for n in names_all:
            counts[n] = counts.get(n, 0) + 1
        for ci, name in enumerate(level.pos_child_name):
            if counts[name] > 1:
                mb = mangle_base[ci]
                renames[ci] = "__".join(mb) if mb else f"{level.pos_binding[ci]}__{name}"
        for ei, (_, name) in enumerate(extras):
            if counts[name] > 1:
                renames[len(level.pos_child_name) + ei] = f"{name}__x{ei}"

    wide_items: list[ast.ProjectionItem] = []
    for ci, name in enumerate(level.pos_child_name):
        alias = renames.get(ci)
        wide_items.append(
            ast.ProjectionItem(ast.ColumnRef(level.pos_binding[ci], name), alias)
        )
        level.out_names.append(alias or name)
    for ei, (expr, name) in enumerate(extras):
        alias = renames.get(len(level.pos_child_name) + ei) or name
        wide_items.append(ast.ProjectionItem(expr, alias))
        level.out_names.append(alias)
        level.pos_binding.append("")
        level.pos_child_name.append(alias)

    new_where = _requalify_predicate(q.where, level) if q.where is not None else None
    level.wide = ast.SelectQuery(tuple(wide_items), tuple(new_from), new_where)
    return level


def _locate(level: _Level, wide_idx: int) -> tuple[str, str]:
    """(binding, exposed child name) addressing a wide column of this level."""
    return level.pos_binding[wide_idx], level.pos_child_name[wide_idx]


def _requalify_expr(e, level: _Level):
    """Rewrite column refs into qualified refs against the widened children."""
    if isinstance(e, ast.ColumnRef):
        idx = level.resolve_original(e.table, e.column)
        binding, name = _locate(level, idx)
        return ast.ColumnRef(binding, name)
    if isinstance(e, ast.BinaryOp):
        return ast.BinaryOp(e.op, _requalify_expr(e.left, level), _requalify_expr(e.right, level))
    if isinstance(e, ast.UnaryMinus):
        return ast.UnaryMinus(_requalify_expr(e.operand, level))
    if isinstance(e, ast.Aggregate):
        arg = None if e.arg is None else _requalify_expr(e.arg, level)
        return ast.Aggregate(e.func, arg)
    return e


def _requalify_predicate(p, level: _Level):
    if isinstance(p, ast.Comparison):
        return ast.Comparison(p.op, _requalify_expr(p.left, level), _requalify_expr(p.right, level))
    if isinstance(p, ast.LikePredicate):
        return ast.LikePredicate(_requalify_expr(p.expr, level), p.pattern, p.negated)
    if isinstance(p, ast.And):
        return ast.And(_requalify_predicate(p.left, level), _requalify_predicate(p.right, level))
    if isinstance(p, ast.Or):
        return ast.Or(_requalify_predicate(p.left, level), _requalify_predicate(p.right, level))
    return p


def _bind_expr(e, level: _Level):
    """Replace column refs with wide-row positions (for project_results)."""
    if isinstance(e, ast.ColumnRef):
        return ast.BoundCol(level.resolve_original(e.table, e.column))
    if isinstance(e, ast.BinaryOp):
        return ast.BinaryOp(e.op, _bind_expr(e.left, level), _bind_expr(e.right, level))
    if isinstance(e, ast.UnaryMinus):
        return ast.UnaryMinus(_bind_expr(e.operand, level))
    if isinstance(e, ast.Aggregate):
        return ast.Aggregate(e.func, None if e.arg is None else _bind_expr(e.arg, level))
    return e
