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

Names are resolved by ``storage.Scope``, the engine's own resolver: each
level builds one ``Scope`` over the wide positions its FROM items expose,
and ``storage.map_columns`` rewrites its column references, qualified for
the wide query and positional for ``project_results``. The wide query stays
plain SQL, so any engine that runs the subset can run it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import sqlast as ast
from .errors import UnsupportedFeature
from .storage import Catalog, Row, Scope, TableDef, Tuple, map_columns, project_rows


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
    def output_names(self) -> list[str]:
        return [name for _, name in self.original_projection]


def change_projection(q: ast.SelectQuery, catalog: Catalog) -> RewrittenSelect:
    """Widen ``q`` bottom-up and map its original projection onto the wide result."""
    level = _widen(q, catalog, as_derived=False)
    return RewrittenSelect(level.wide, level.exposures, level.outputs)


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
    """One widened SELECT."""

    wide: ast.SelectQuery
    exposures: list[TableExposure]
    # the original projection over the wide row, as (bound expr, output name);
    # in derived position every expr is a BoundCol, the position a parent reads
    outputs: list[tuple]


def _widen(q: ast.SelectQuery, catalog: Catalog, as_derived: bool) -> _Level:
    blocks: list = []      # the Scope blocks of the names the user's query sees
    refs: list = []        # per wide position: the ColumnRef that reads it
    mangled: list = []     # per wide position: its name should it collide
    exposures: list = []
    from_items: list = []
    for item in q.from_items:
        off = len(refs)
        if isinstance(item, ast.BaseTable):
            td = catalog.get(item.name)
            names = td.column_names()
            exposures.append(TableExposure(td.name, (item.binding,), off, off + len(names), td))
            blocks.append((item.binding, [(n, off + i) for i, n in enumerate(names)]))
            mangled += ["__".join((item.binding, td.name, n)) for n in names]
            from_items.append(item)
        else:
            child = _widen(item.subquery, catalog, as_derived=True)
            exposures += [
                TableExposure(e.table, (item.alias,) + e.alias_path,
                              off + e.start, off + e.stop, e.tabledef)
                for e in child.exposures
            ]
            blocks.append((item.alias, [(n, off + b.index) for b, n in child.outputs]))
            names = [ast.output_name(p, i) for i, p in enumerate(child.wide.projections)]
            mangled += [f"{item.alias}__{n}" for n in names]
            from_items.append(ast.DerivedTable(child.wide, item.alias))
        refs += [ast.ColumnRef(item.binding, n) for n in names]
    scope = Scope(blocks)

    def requalify(node):
        return map_columns(node, lambda c: refs[scope.resolve(c.table, c.column)])

    # WHERE first, then the projection: the order in which the engine binds
    where = requalify(q.where) if q.where is not None else None

    # In derived position, expression outputs become extra wide columns, so
    # that the enclosing query can read them.
    outputs: list[tuple] = []
    extras: list[tuple] = []  # (requalified expr, output name)
    for i, item in enumerate(q.projections):
        if isinstance(item.expr, ast.Star):
            outputs += [(ast.BoundCol(pos), n) for n, pos in scope.all_columns()]
            continue
        name = ast.output_name(item, i)
        if as_derived and not isinstance(item.expr, ast.ColumnRef):
            if any(ast.aggregates(item.expr)):
                raise UnsupportedFeature("aggregate inside a nested subquery")
            outputs.append((ast.BoundCol(len(refs) + len(extras)), name))
            extras.append((requalify(item.expr), name))
        else:
            outputs.append((scope.bind(item.expr), name))

    # colliding output names get renamed; only an enclosing query sees them
    counts = Counter([r.column for r in refs] + [n for _, n in extras] if as_derived else [])
    wide_items = [
        ast.ProjectionItem(ref, m if counts[ref.column] > 1 else None)
        for ref, m in zip(refs, mangled)
    ] + [
        ast.ProjectionItem(e, f"{n}__x{ei}" if counts[n] > 1 else n)
        for ei, (e, n) in enumerate(extras)
    ]
    return _Level(ast.SelectQuery(tuple(wide_items), tuple(from_items), where), exposures, outputs)
