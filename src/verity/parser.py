"""Recursive-descent parser for the supported SQL subset, and for the
CREATE TABLE statements of a schema: the one SQL parser of the package.

Inner SELECTs are reduced to complete AST nodes before their enclosing
statement finishes parsing, so every nested query is available bottom-up.
``parse`` and ``parse_table_def`` take one statement; a trailing ``;`` is
allowed. ``parse_ddl`` takes a schema: CREATE TABLE statements separated by
``;`` tokens, where empty statements are skipped. Names in DDL may be any
identifier, keywords included (``create table t (order text)``).

Features the engine deliberately does not handle (IN, ANY, EXISTS,
GROUP BY, HAVING, joins spelled with JOIN keywords, DISTINCT, UNION,
ORDER BY, LIMIT, BETWEEN, a prefix NOT, LIKE NULL) are rejected up front as
UnsupportedFeature rather than surfacing as confusing syntax errors.
"""

from __future__ import annotations

from .errors import BadType, DuplicateColumn, SqlSyntaxError, UnknownColumn, UnsupportedFeature
from .lexer import EOF, IDENT, NUMBER, OP, STRING, Token, tokenize
from .sqlast import (
    AGGREGATE_FUNCS,
    Aggregate,
    And,
    Assignment,
    BaseTable,
    BinaryOp,
    ColumnDef,
    ColumnRef,
    Comparison,
    DeleteQuery,
    DerivedTable,
    Expr,
    InsertQuery,
    LikePredicate,
    Literal,
    Or,
    Predicate,
    ProjectionItem,
    Query,
    ScalarSubquery,
    SelectQuery,
    SelectSource,
    Star,
    TableDef,
    UnaryMinus,
    UpdateQuery,
    ValuesSource,
)
from .values import NULL, Value, ValueType, parse_typed

# Unsupported keywords rejected before parsing; these are reserved words.
_UNSUPPORTED = {
    "in", "any", "exists", "group", "having", "join", "left", "right",
    "full", "outer", "inner", "cross", "on", "distinct", "union", "order",
    "limit", "offset", "between", "is",
}

_KEYWORDS = {
    "select", "from", "where", "as", "and", "or", "not", "like",
    "insert", "into", "values", "update", "set", "delete", "null",
} | _UNSUPPORTED


def parse(sql_text: str) -> Query:
    """Parse one statement into a Query AST."""
    tokens = tokenize(sql_text)
    for t in tokens:
        if t.type == IDENT and t.value in _UNSUPPORTED:
            raise UnsupportedFeature(t.value, t.pos)
    p = _Parser(tokens)
    q = p.parse_statement()
    p.finish()
    return q


def parse_table_def(ddl_text: str) -> TableDef:
    """Parse one CREATE TABLE statement."""
    p = _Parser(tokenize(ddl_text))
    parts = p.parse_create_table()
    p.finish()
    return _table_def(*parts)


def parse_ddl(ddl_text: str) -> list[TableDef]:
    """Parse a schema: the CREATE TABLE statements of ``ddl_text``."""
    p = _Parser(tokenize(ddl_text))
    defs = []
    while not p.at_end():
        if p.accept_op(";"):
            continue
        parts = p.parse_create_table()
        if not p.at_end():
            p.expect_op(";")
        defs.append(_table_def(*parts))
    return defs


def _table_def(name: str, columns: list[ColumnDef], pk: tuple[str, ...]) -> TableDef:
    """The table a parsed CREATE TABLE declares. One declared without
    PRIMARY KEY gets all its columns, in schema order, as a composite key."""
    if not columns:
        raise BadType(f"table {name!r} has no columns")
    pk = pk or tuple(c.name for c in columns)
    names = {c.name for c in columns}
    for c in pk:
        if c not in names:
            raise UnknownColumn(f"PRIMARY KEY names unknown column {c!r}")
    if len(set(pk)) != len(pk):
        raise DuplicateColumn("duplicate column in PRIMARY KEY")
    return TableDef(name, tuple(columns), pk)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # --- token plumbing ---

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if t.type != EOF:
            self.pos += 1
        return t

    def at_end(self) -> bool:
        return self.peek().type == EOF

    def at_kw(self, *words: str) -> bool:
        t = self.peek()
        return t.type == IDENT and t.value in words

    def accept_kw(self, word: str) -> bool:
        if self.at_kw(word):
            self.advance()
            return True
        return False

    def expect_kw(self, word: str) -> Token:
        if not self.at_kw(word):
            self.fail(f"expected {word.upper()}", {word.upper()})
        return self.advance()

    def at_op(self, *ops: str) -> bool:
        t = self.peek()
        return t.type == OP and t.value in ops

    def accept_op(self, op: str) -> bool:
        if self.at_op(op):
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> Token:
        if not self.at_op(op):
            self.fail(f"expected '{op}'", {op})
        return self.advance()

    def expect_name(self, what: str = "identifier", reserved=_KEYWORDS) -> str:
        t = self.peek()
        if t.type != IDENT or t.value in reserved:
            self.fail(f"expected {what}", {"<identifier>"})
        self.advance()
        return t.value

    def comma_list(self, item) -> list:
        """``item ("," item)*``: what each call of ``item`` parsed, in order."""
        items = [item()]
        while self.accept_op(","):
            items.append(item())
        return items

    def finish(self):
        """End a one-statement call: an optional ``;``, then end of input."""
        self.accept_op(";")
        if not self.at_end():
            raise SqlSyntaxError(
                "multiple statements are not supported; one statement per call",
                self.peek().pos,
                expected={"<end of input>"},
            )

    def opt_where(self) -> Predicate | None:
        """An optional ``WHERE predicate``: the predicate, or None."""
        return self.parse_predicate() if self.accept_kw("where") else None

    def fail(self, message: str, expected=()):
        t = self.peek()
        found = t.value if t.type != EOF else "<end of input>"
        raise SqlSyntaxError(f"{message}, found {found!r}", t.pos, expected)

    # --- statements ---

    def parse_statement(self) -> Query:
        if self.at_kw("select"):
            return self.parse_select()
        if self.at_kw("insert"):
            return self.parse_insert()
        if self.at_kw("update"):
            return self.parse_update()
        if self.at_kw("delete"):
            return self.parse_delete()
        self.fail("expected a statement", {"SELECT", "INSERT", "UPDATE", "DELETE"})

    def parse_select(self) -> SelectQuery:
        self.expect_kw("select")
        projections = self.comma_list(self.parse_projection_item)
        self.expect_kw("from")
        from_items = self.comma_list(self.parse_from_item)
        q = SelectQuery(tuple(projections), tuple(from_items), self.opt_where())
        self._check_aliases(q)
        return q

    def _check_aliases(self, q: SelectQuery):
        seen = set()
        for f in q.from_items:
            b = f.binding
            if b in seen:
                raise SqlSyntaxError(f"duplicate table alias {b!r} in FROM", self.peek().pos)
            seen.add(b)

    def parse_projection_item(self) -> ProjectionItem:
        if self.accept_op("*"):
            return ProjectionItem(Star(), None)
        # The corpus writes aliased projections as `(expr as alias)`; accept
        # that parenthesized form and normalize it to plain expr-with-alias.
        if self.at_op("("):
            mark = self.pos
            self.advance()
            try:
                expr = self.parse_expr()
            except SqlSyntaxError:
                self.pos = mark
            else:
                if self.at_alias():
                    self.accept_kw("as")
                    alias = self.expect_name("projection alias")
                    self.expect_op(")")
                    return ProjectionItem(expr, alias)
                if self.accept_op(")") and not self.at_op("+", "-", "*", "/"):
                    # plain parenthesized expression, e.g. `( l_suppkey )`
                    return ProjectionItem(expr, self._opt_alias())
                self.pos = mark
        expr = self.parse_expr()
        return ProjectionItem(expr, self._opt_alias())

    def at_alias(self) -> bool:
        """Whether an alias follows: ``AS``, or a name that is no keyword."""
        t = self.peek()
        return t.type == IDENT and (t.value == "as" or t.value not in _KEYWORDS)

    def _opt_alias(self) -> str | None:
        if not self.at_alias():
            return None
        self.accept_kw("as")
        return self.expect_name("alias")

    def parse_from_item(self):
        if self.at_op("("):
            self.advance()
            if self.at_kw("select"):
                sub = self.parse_select()
                self.expect_op(")")
                self.accept_kw("as")
                alias = self.expect_name("derived-table alias")
                return DerivedTable(sub, alias)
            # parenthesized table reference: `(nation as n1)` or `((select..) as x)`
            inner = self.parse_from_item()
            self.expect_op(")")
            if self.at_alias():
                alias = self._opt_alias()
                if isinstance(inner, BaseTable):
                    if inner.alias is not None:
                        self.fail("table already has an alias")
                    return BaseTable(inner.name, alias)
                self.fail("derived table already has an alias")
            return inner
        name = self.expect_name("table name")
        return BaseTable(name, self._opt_alias())

    def parse_insert(self) -> InsertQuery:
        self.expect_kw("insert")
        self.expect_kw("into")
        table = self.expect_name("table name")
        self.expect_op("(")
        columns = self.comma_list(lambda: self.expect_name("column name"))
        self.expect_op(")")
        if self.at_kw("values"):
            self.advance()
            rows = self.comma_list(self._parse_values_row)
            return InsertQuery(table, tuple(columns), ValuesSource(tuple(rows)))
        if self.at_kw("select"):
            return InsertQuery(table, tuple(columns), SelectSource(self.parse_select()))
        self.fail("expected VALUES or SELECT", {"VALUES", "SELECT"})

    def _parse_values_row(self) -> tuple[Expr, ...]:
        self.expect_op("(")
        exprs = self.comma_list(self.parse_expr)
        self.expect_op(")")
        return tuple(exprs)

    def parse_update(self) -> UpdateQuery:
        self.expect_kw("update")
        table = self.expect_name("table name")
        self.expect_kw("set")
        assignments = self.comma_list(lambda: self._parse_assignment(table))
        return UpdateQuery(table, tuple(assignments), self.opt_where())

    def _parse_assignment(self, table: str) -> Assignment:
        column = self.expect_name("column name")
        if self.accept_op("."):
            # qualified form `t.col`: the qualifier must be the target table
            if column != table:
                self.fail(f"SET column qualifier must be {table!r}")
            column = self.expect_name("column name")
        self.expect_op("=")
        if self.at_op("(") and self.peek(1).type == IDENT and self.peek(1).value == "select":
            self.advance()
            sub = self.parse_select()
            self.expect_op(")")
            return Assignment(column, ScalarSubquery(sub))
        return Assignment(column, self.parse_expr())

    def parse_delete(self) -> DeleteQuery:
        self.expect_kw("delete")
        self.expect_kw("from")
        table = self.expect_name("table name")
        return DeleteQuery(table, self.opt_where())

    def parse_create_table(self) -> tuple[str, list[ColumnDef], tuple[str, ...]]:
        """``CREATE TABLE name (element, ...)``, each element a column
        ``name type`` or ``PRIMARY KEY (name, ...)``: the table's name, its
        columns and the key it declares (the last one; () for none)."""
        self.expect_kw("create")
        self.expect_kw("table")
        name = self.expect_name("table name", reserved=())
        columns: list[ColumnDef] = []
        pk: list[str] = []

        def element():
            if self.accept_kw("primary"):
                self.expect_kw("key")
                self.expect_op("(")
                pk[:] = self.comma_list(lambda: self.expect_name("column name", reserved=()))
                self.expect_op(")")
                return
            col = self.expect_name("column name", reserved=())
            col_type = ValueType.from_ddl(self.expect_name("column type", reserved=()))
            if any(c.name == col for c in columns):
                raise DuplicateColumn(f"duplicate column {col!r} in {name}")
            columns.append(ColumnDef(col, col_type))

        self.expect_op("(")
        self.comma_list(element)
        self.expect_op(")")
        return name, columns, tuple(pk)

    # --- predicates ---

    def parse_predicate(self) -> Predicate:
        left = self.parse_and()
        while self.accept_kw("or"):
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Predicate:
        left = self.parse_atom()
        while self.accept_kw("and"):
            left = And(left, self.parse_atom())
        return left

    def parse_atom(self) -> Predicate:
        # A '(' here may open a nested predicate or a parenthesized
        # arithmetic expression; try the predicate reading first.
        if self.at_op("("):
            mark = self.pos
            self.advance()
            try:
                inner = self.parse_predicate()
                self.expect_op(")")
                return inner
            except SqlSyntaxError:
                self.pos = mark
        if self.at_kw("not"):  # two-valued predicates: NOT would misread NULL
            raise UnsupportedFeature("not", self.peek().pos)
        left = self.parse_expr()
        if self.at_kw("not"):
            self.advance()
            self.expect_kw("like")
            return LikePredicate(left, self._like_pattern(), negated=True)
        if self.accept_kw("like"):
            return LikePredicate(left, self._like_pattern(), negated=False)
        for op in ("<>", "<=", ">=", "=", "<", ">"):
            if self.accept_op(op):
                return Comparison(op, left, self.parse_expr())
        self.fail("expected a comparison operator", {"=", "<>", "<", "<=", ">", ">=", "LIKE"})

    def _like_pattern(self) -> str:
        t = self.peek()
        if self.at_kw("null"):
            raise UnsupportedFeature("like null", t.pos)
        if t.type != STRING:
            self.fail("expected a string pattern after LIKE", {"<string>"})
        self.advance()
        return t.value

    # --- expressions ---

    def parse_expr(self) -> Expr:
        left = self.parse_term()
        while self.at_op("+", "-"):
            op = self.advance().value
            left = BinaryOp(op, left, self.parse_term())
        return left

    def parse_term(self) -> Expr:
        left = self.parse_factor()
        while self.at_op("*", "/"):
            op = self.advance().value
            left = BinaryOp(op, left, self.parse_factor())
        return left

    def parse_factor(self) -> Expr:
        t = self.peek()
        if self.accept_op("-"):
            return UnaryMinus(self.parse_factor())
        if self.accept_op("+"):
            return self.parse_factor()
        if self.accept_op("("):
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if t.type == NUMBER:
            self.advance()
            if "." in t.value:
                return Literal(parse_typed(t.value, ValueType.DECIMAL))
            return Literal(Value.integer(int(t.value)))
        if t.type == STRING:
            self.advance()
            return Literal(Value.text(t.value))
        if self.accept_kw("null"):
            return Literal(NULL)
        if t.type == IDENT and t.value in AGGREGATE_FUNCS and self.peek(1).type == OP and self.peek(1).value == "(":
            func = self.advance().value
            self.expect_op("(")
            if func == "count" and self.accept_op("*"):
                self.expect_op(")")
                return Aggregate(func, None)
            arg = self.parse_expr()
            self.expect_op(")")
            return Aggregate(func, arg)
        if t.type == IDENT and t.value not in _KEYWORDS:
            name = self.advance().value
            if self.accept_op("."):
                return ColumnRef(name, self.expect_name("column name"))
            return ColumnRef(None, name)
        self.fail("expected an expression", {"<expression>"})
