"""The compiled evaluator against the tree walker it replaced.

``oracle_eval_expr``, ``oracle_arith``, ``oracle_compare``,
``oracle_eval_predicate`` and ``oracle_eval_aggregate`` are the per-row tree
walker that ``storage.compile_expr``, ``storage.compile_predicate`` and the
aggregates of ``storage.projection`` replaced, kept here as the reference.
Two adaptations: a LIKE node is the parser's ``LikePredicate``, its regex
compiled by ``storage._like_regex``, and the quantize is written out, since
``values.quantize_decimal`` now raises EvalError where the walker let
``decimal.InvalidOperation`` escape.

Every generated case must give an equal Value under both (same kind, same
raw type, same text) or raise the same exception type with the same
message. The one intended difference: a decimal result that cannot keep 10
fractional digits in 28 significant digits, where the walker raised
``decimal.InvalidOperation``, or whose exponent passes the context's limit,
where it raised ``decimal.Overflow``, now raises EvalError.
"""

import io
from decimal import ROUND_HALF_EVEN, Decimal, DivisionByZero, InvalidOperation, Overflow

import pytest
from hypothesis import given, settings, strategies as st

from verity import sqlast as ast
from verity.errors import EvalError
from verity.parser import parse
from verity.storage import Database, _like_regex, compile_expr, compile_predicate, projection
from verity.values import INT64_MAX, INT64_MIN, NULL, Value, ValueType

WIDTH = 4

# --- the reference: the tree walker, as it was -------------------------------

_NUMERIC = (ValueType.INTEGER, ValueType.DECIMAL)
_STRINGY = (ValueType.TEXT, ValueType.DATE)


def _quantize(d: Decimal) -> Decimal:
    return d.quantize(Decimal("1E-10"), rounding=ROUND_HALF_EVEN)


def oracle_eval_expr(e, row, agg_values=None) -> Value:
    if isinstance(e, ast.BoundCol):
        return row[e.index]
    if isinstance(e, ast.Literal):
        return e.value
    if isinstance(e, ast.ColumnRef):
        raise EvalError(f"column reference {e.column!r} not allowed here")
    if isinstance(e, ast.UnaryMinus):
        v = oracle_eval_expr(e.operand, row, agg_values)
        if v.is_null:
            return NULL
        if v.kind is ValueType.INTEGER:
            return Value.integer(-v.raw)
        if v.kind is ValueType.DECIMAL:
            return Value.decimal(-v.raw)
        raise EvalError(f"cannot negate {v.kind.value}")
    if isinstance(e, ast.BinaryOp):
        a = oracle_eval_expr(e.left, row, agg_values)
        b = oracle_eval_expr(e.right, row, agg_values)
        return oracle_arith(e.op, a, b)
    if isinstance(e, ast.Aggregate):
        if agg_values is not None and e in agg_values:
            return agg_values[e]
        raise EvalError("aggregate not allowed in a row-level expression")
    raise EvalError(f"cannot evaluate {e!r}")


def oracle_arith(op, a, b) -> Value:
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
    return Value.decimal(_quantize(r))


def oracle_compare(op, a, b) -> bool:
    if a.is_null or b.is_null:
        return False
    if a.kind in _NUMERIC and b.kind in _NUMERIC:
        x, y = a.raw, b.raw
    elif a.kind in _STRINGY and b.kind in _STRINGY:
        x, y = a.raw, b.raw
    else:
        raise EvalError(f"cannot compare {a.kind.value} with {b.kind.value}")
    return {"=": x == y, "<>": x != y, "<": x < y, "<=": x <= y,
            ">": x > y, ">=": x >= y}[op]


def oracle_eval_predicate(p, row) -> bool:
    if isinstance(p, ast.Comparison):
        return oracle_compare(p.op, oracle_eval_expr(p.left, row),
                              oracle_eval_expr(p.right, row))
    if isinstance(p, ast.LikePredicate):
        v = oracle_eval_expr(p.expr, row)
        if v.is_null:
            return False
        if v.kind not in _STRINGY:
            raise EvalError("LIKE applies to text values")
        hit = _like_regex(p.pattern).fullmatch(v.raw) is not None
        return not hit if p.negated else hit
    if isinstance(p, ast.And):
        return oracle_eval_predicate(p.left, row) and oracle_eval_predicate(p.right, row)
    if isinstance(p, ast.Or):
        return oracle_eval_predicate(p.left, row) or oracle_eval_predicate(p.right, row)
    raise EvalError(f"cannot evaluate predicate {p!r}")


def oracle_eval_aggregate(agg, rows) -> Value:
    if agg.is_count_star:
        return Value.integer(len(rows))
    vals = [oracle_eval_expr(agg.arg, r) for r in rows]
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
            if v.kind is not ValueType.INTEGER:
                all_int = False
            total += v.raw
        if agg.func == "sum":
            return Value.integer(int(total)) if all_int else Value.decimal(_quantize(total))
        return Value.decimal(_quantize(total / len(vals)))
    best = vals[0]
    for v in vals[1:]:
        if oracle_compare(">" if agg.func == "max" else "<", v, best):
            best = v
    return best


def oracle_project(exprs, rows, width):
    aggs = dict.fromkeys(node for e in exprs for node in ast.aggregates(e))
    if aggs:
        agg_values = {node: oracle_eval_aggregate(node, rows) for node in aggs}
        base = rows[0] if rows else (NULL,) * width
        return [tuple(oracle_eval_expr(e, base, agg_values) for e in exprs)]
    return [tuple(oracle_eval_expr(e, row) for e in exprs) for row in rows]


# --- generated inputs ----------------------------------------------------------

_INTS = st.one_of(
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -2, -1, 0, 1, 2, 3, INT64_MAX - 1, INT64_MAX]),
    st.integers(-1000, 1000), st.integers(INT64_MIN, INT64_MAX))
_DECIMALS = st.one_of(
    st.sampled_from(["0", "0.00", "-0", "1", "0.5", "-2.25", "0.12345678901234567",
                     "1E+20", "123456789012345678", "99999999999999999.99999999995",
                     "1234567890123456789012345678901.5", "-0.00000000005",
                     "0.00000000015", "9E+999999"]).map(Decimal),
    st.decimals(allow_nan=False, allow_infinity=False, places=2,
                min_value=-10**6, max_value=10**6),
    st.builds(lambda sign, digits, exp: Decimal((sign, tuple(digits), exp)),
              st.integers(0, 1), st.lists(st.integers(0, 9), min_size=1, max_size=32),
              st.integers(-20, 12)))
_TEXTS = st.text("ab%_1", max_size=4)
_DATES = st.sampled_from(["1995-01-01", "1998-09-02", "1992-02-29"])

_BY_KIND = {
    ValueType.INTEGER: _INTS.map(Value.integer),
    ValueType.DECIMAL: _DECIMALS.map(Value.decimal),
    ValueType.TEXT: _TEXTS.map(Value.text),
    ValueType.DATE: _DATES.map(Value.date),
}
ANY_VALUE = st.one_of(st.just(NULL), *_BY_KIND.values())
# a column's type, and values of it, NULL, or now and then of another kind
COLUMN_TYPES = st.lists(st.sampled_from(list(_BY_KIND)), min_size=WIDTH, max_size=WIDTH)


def rows_of(types, min_size=0):
    cell = [st.one_of(*[_BY_KIND[t]] * 6, st.just(NULL), ANY_VALUE) for t in types]
    return st.lists(st.tuples(*cell), min_size=min_size, max_size=6)


# columns and literals, and now and then a node that cannot evaluate on a row
LEAVES = st.one_of(
    *[st.integers(0, WIDTH - 1).map(ast.BoundCol)] * 4,
    *[ANY_VALUE.map(ast.Literal)] * 2,
    st.sampled_from([ast.ColumnRef(None, "c"), ast.Aggregate("sum", ast.BoundCol(0))]))


def _expr_tree(children):
    return st.one_of(
        st.builds(ast.BinaryOp, st.sampled_from(ast.ARITHMETIC_OPS), children, children),
        st.builds(ast.UnaryMinus, children))


EXPRS = st.recursive(LEAVES, _expr_tree, max_leaves=5)


def _predicate_tree(children):
    return st.one_of(st.builds(ast.And, children, children),
                     st.builds(ast.Or, children, children))


OPERANDS = st.one_of(LEAVES, EXPRS)
PREDICATES = st.recursive(
    st.one_of(st.builds(ast.Comparison, st.sampled_from(ast.COMPARISON_OPS), OPERANDS, OPERANDS),
              st.builds(ast.LikePredicate, OPERANDS, st.text("ab%_1", max_size=4),
                        st.booleans())),
    _predicate_tree, max_leaves=4)

# aggregate arguments lean to numbers, so that sums and extremes get computed
NUMBERS = st.one_of(_BY_KIND[ValueType.INTEGER], _BY_KIND[ValueType.DECIMAL])
NUMERIC_EXPRS = st.recursive(
    st.one_of(*[st.integers(0, WIDTH - 1).map(ast.BoundCol)] * 3, NUMBERS.map(ast.Literal)),
    _expr_tree, max_leaves=3)
NUMERIC_TYPES = st.lists(
    st.sampled_from([ValueType.INTEGER, ValueType.DECIMAL] * 3 + list(_BY_KIND)),
    min_size=WIDTH, max_size=WIDTH)
AGGREGATES = st.one_of(
    *[st.builds(ast.Aggregate, st.sampled_from(ast.AGGREGATE_FUNCS), NUMERIC_EXPRS)] * 3,
    st.builds(ast.Aggregate, st.sampled_from(ast.AGGREGATE_FUNCS), EXPRS),
    st.just(ast.Aggregate("count", None)))
AGGREGATE_OUTPUTS = st.one_of(
    AGGREGATES, EXPRS,
    st.builds(ast.BinaryOp, st.sampled_from(ast.ARITHMETIC_OPS), AGGREGATES, EXPRS))


# --- comparing outcomes ----------------------------------------------------------

def canon(x):
    if isinstance(x, Value):
        return (x.kind, type(x.raw), str(x.raw))
    if isinstance(x, (list, tuple)):
        return [canon(y) for y in x]
    return x


def outcome(fn):
    try:
        return "ok", canon(fn())
    except (InvalidOperation, Overflow):
        return "overflow", None
    except Exception as exc:
        return type(exc), str(exc)


def assert_same(oracle, compiled):
    expected, got = outcome(oracle), outcome(compiled)
    if expected[0] == "overflow":
        assert got[0] is EvalError and got[1].startswith("decimal overflow"), got
    else:
        assert got == expected


@settings(max_examples=600, deadline=None)
@given(data=st.data(), exprs=st.lists(EXPRS, min_size=1, max_size=3))
def test_expressions_match_the_tree_walker(data, exprs):
    rows = data.draw(COLUMN_TYPES.flatmap(rows_of))
    assert_same(lambda: oracle_project(exprs, rows, WIDTH),
                lambda: list(projection(exprs, WIDTH)(rows)))
    for row in rows:
        for e in exprs:
            assert_same(lambda: oracle_eval_expr(e, row), lambda: compile_expr(e)(row))


@settings(max_examples=600, deadline=None)
@given(data=st.data(), p=PREDICATES)
def test_predicates_match_the_tree_walker(data, p):
    rows = data.draw(COLUMN_TYPES.flatmap(rows_of))
    test = compile_predicate(p)
    assert_same(lambda: [oracle_eval_predicate(p, row) for row in rows],
                lambda: [test(row) for row in rows])
    for row in rows:
        assert_same(lambda: oracle_eval_predicate(p, row), lambda: test(row))


@settings(max_examples=600, deadline=None)
@given(data=st.data(), exprs=st.lists(AGGREGATE_OUTPUTS, min_size=1, max_size=3))
def test_aggregates_match_the_tree_walker(data, exprs):
    rows = data.draw(st.one_of(NUMERIC_TYPES.flatmap(rows_of),
                               NUMERIC_TYPES.flatmap(lambda types: rows_of(types, 2))))
    assert_same(lambda: oracle_project(exprs, rows, WIDTH),
                lambda: list(projection(exprs, WIDTH)(rows)))


def test_an_expression_that_cannot_evaluate_raises_on_its_first_row_only():
    bad = [ast.ColumnRef(None, "c"), ast.BinaryOp("+", ast.Literal(Value.text("a")),
                                                  ast.Literal(Value.integer(1)))]
    assert list(projection(bad, WIDTH)([])) == []
    assert list(projection([ast.Aggregate("sum", bad[1])], WIDTH)([])) == [(NULL,)]
    with pytest.raises(EvalError, match="arithmetic needs numeric operands, got text/integer"):
        list(projection(bad[1:], WIDTH)([(NULL,) * WIDTH]))


def test_sum_and_avg_add_in_row_order():
    # at 28 digits, 1 - 1E+30 rounds to -1E+30: only row order gives 1
    rows = [(Value.decimal(Decimal(d)),) for d in ("1E+30", "-1E+30", "1")]
    for agg in (ast.Aggregate("sum", ast.BoundCol(0)), ast.Aggregate("avg", ast.BoundCol(0))):
        for ordered in (rows, rows[::-1]):
            got = list(projection([agg], 1)(ordered))
            assert canon(got) == canon(oracle_project([agg], ordered, 1))
    assert list(projection([ast.Aggregate("sum", ast.BoundCol(0))], 1)(rows)) == [
        (Value.decimal(Decimal(1)),)]


# --- decimal overflow ------------------------------------------------------------

def decimal_db(*values: str) -> Database:
    db = Database()
    db.load_ddl("create table c (k integer, d decimal, primary key (k))")
    db.load_csv("c", io.StringIO("k,d\n" + "".join(f"{i},{v}\n" for i, v in enumerate(values))))
    return db


@pytest.mark.parametrize("sql", [
    "select d * 100000000000000000000.5 * 100000000000000000000.5 from c",
    "select * from c where d * 100000000000000000000.5 > 0",
    "select sum(d) from c",
    "select avg(d) from c",
])
def test_a_decimal_result_past_28_digits_is_an_eval_error(sql):
    db = decimal_db("1E+20", "711.56")
    with pytest.raises(EvalError, match="decimal overflow"):
        db.exec_select(parse(sql))


def test_a_decimal_result_within_28_digits_still_evaluates():
    db = decimal_db("99999999999999999.5", "0.25")
    assert db.exec_select(parse("select sum(d) from c")) == [
        (Value.decimal(Decimal("99999999999999999.75")),)]
    assert db.exec_select(parse("select avg(d) from c")) == [
        (Value.decimal(Decimal("49999999999999999.875")),)]
