"""Projection-expansion rewriting.

Every SELECT is widened, innermost first, to project all attributes of all
base tables it touches. The widened query keeps the FROM structure and
qualifications of the original (bare column references come back qualified);
the rewrite records where each base table's columns land in the wide result
(``column_map``) and how to rebuild the user's requested output from a wide
row (``original_projection``).

A widened derived table exposes every column of its underlying base tables.
Exposed names that would collide (a table joined to itself inside one
derived table, say) are renamed: each column that shares its name takes the
first ``name__k`` (k = 0, 1, ...) that no column of that wide projection
has. Original projection items that are expressions stay addressable by the
enclosing query: they are re-appended, aliased, after the base columns.

Aggregates are supported only in the outermost projection; the wide query
never collapses rows, which is exactly what lets every contributing base
tuple be fingerprint-checked.

Names are resolved by ``storage.Scope``, the engine's own resolver: each
level builds one ``Scope`` over the wide positions its FROM items expose,
and ``storage.map_columns`` rewrites its column references, qualified for
the wide query and positional for the original projection, which compiles
once, with the rewrite, into the closure ``project_results`` runs
(``storage.projection``). The wide query stays plain SQL, so any engine
that runs the subset can run it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count

from . import sqlast as ast
from .errors import UnsupportedFeature
from .storage import Catalog, Row, Scope, TableDef, map_columns, projection


@dataclass(frozen=True, slots=True)
class TableExposure:
    """One base-table occurrence in the wide result, in FROM order with a
    derived table's occurrences in its place: wide columns [start, stop)
    hold the table's attributes in schema order, those of the stored row
    that ``storage.SourcedRows.sources`` names for the occurrence."""

    table: str
    start: int
    stop: int
    tabledef: TableDef


@dataclass(frozen=True, slots=True)
class RewrittenSelect:
    """A widened SELECT. It depends on the query and the catalog only, so
    one rewrite may serve every run of its statement: nothing changes it."""

    wide_query: ast.SelectQuery
    column_map: tuple[TableExposure, ...]
    # the original projection over the wide row, as (bound expr, output name);
    # in derived position every expr is a BoundCol, the position a parent reads
    original_projection: tuple[tuple, ...]
    project: object  # wide rows -> the user's rows (``projection``); None if derived

    @property
    def output_names(self) -> list[str]:
        """The user's output names, in a new list on every call."""
        return [name for _, name in self.original_projection]


def change_projection(q: ast.SelectQuery, catalog: Catalog) -> RewrittenSelect:
    """Widen ``q`` bottom-up and map its original projection onto the wide result."""
    return _widen(q, catalog, as_derived=False)


def project_results(wide_rows: list[Row], rw: RewrittenSelect) -> list[Row]:
    """The user's original projection of the wide rows, in a new list, in
    order; bare aggregates collapse them to one row."""
    return list(rw.project(wide_rows))


# --- internals ---------------------------------------------------------------

def _widen(q: ast.SelectQuery, catalog: Catalog, as_derived: bool) -> RewrittenSelect:
    blocks: list = []      # the Scope blocks of the names the user's query sees
    refs: list = []        # per wide position: the ColumnRef that reads it
    exposures: list = []
    from_items: list = []
    for item in q.from_items:
        off = len(refs)
        if isinstance(item, ast.BaseTable):
            td = catalog.get(item.name)
            names = td.column_names()
            exposures.append(TableExposure(td.name, off, off + len(names), td))
            blocks.append((item.binding, [(n, off + i) for i, n in enumerate(names)]))
            from_items.append(item)
        else:
            child = _widen(item.subquery, catalog, as_derived=True)
            exposures += [TableExposure(e.table, off + e.start, off + e.stop, e.tabledef)
                          for e in child.column_map]
            blocks.append((item.alias, [(n, off + b.index) for b, n in child.original_projection]))
            names = [ast.output_name(p, i) for i, p in enumerate(child.wide_query.projections)]
            from_items.append(ast.DerivedTable(child.wide_query, item.alias))
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

    # in derived position, each wide column whose name another one shares
    # takes the first name__k no wide column has; only an enclosing query
    # sees these names
    exprs = refs + [e for e, _ in extras]
    names = [r.column for r in refs] + [n for _, n in extras]
    counts, taken = Counter(names), set(names)
    for i, n in enumerate(names):
        if as_derived and counts[n] > 1:
            names[i] = next(m for k in count() if (m := f"{n}__{k}") not in taken)
            taken.add(names[i])
    wide_items = [ast.ProjectionItem(e, None if getattr(e, "column", None) == n else n)
                  for e, n in zip(exprs, names)]
    project = None if as_derived else projection([e for e, _ in outputs], len(wide_items))
    return RewrittenSelect(ast.SelectQuery(tuple(wide_items), tuple(from_items), where),
                           tuple(exposures), tuple(outputs), project)
