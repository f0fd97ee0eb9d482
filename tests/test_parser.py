"""Parser: grammar subset, corpus coverage, rejection of unsupported features."""

import pytest

from verity import sqlast as ast
from verity.errors import SqlSyntaxError, UnsupportedFeature
from verity.lexer import IDENT, tokenize
from verity.parser import parse
from verity.sqlast import QueryKind, classify, render
from verity.values import ValueType

# The benchmark-suite statements that use only supported features
# (numbered as in the source query list).
CORPUS = {
    "Q2": "select * from region;",
    "Q3": "select * from supplier;",
    "Q4": "select * from nation;",
    "Q5": "update customer set c_name = 'sjadfd', c_address = 'kafawehrnj', "
          "c_phone='7894561265', c_acctbal = 22, c_mktsegment = 'klasjfaw', "
          "c_comment='laksfnwe' where c_custkey = 91639739;",
    "Q6": "insert into nation (n_nationkey, n_name, n_regionkey, n_comment) values "
          "( 93793619 ,'algeria', 123454556741 ,'haggle detect slyly agai');",
    "Q9": "delete from nation where n_nationkey = 93793619;",
    "Q11": "update supplier set s_nationkey = (select c_nationkey from customer where "
           "c_custkey= 91639739), s_phone = ( select c_phone from customer where "
           "c_custkey= 91639739), s_comment ='askdenrjuhereu', s_acctbal = 2  + 10   "
           "where s_suppkey = 91639739 +1000;",
    "Q18": "insert into customer ( c_custkey  , c_name , c_address , c_nationkey , "
           "c_phone , c_acctbal ,c_mktsegment, c_comment)  values "
           "(91639738 , 'sumpil', 'renol', 93793619 , '9242', 234, 'pilsum', 'rolen') , "
           "( 91639737 , 'abc', 'def', 93793619 , '1234', 234, 'yhbdsra', 'afgsdf'), "
           "(96244913, 'pkjhbc', 'mnhgre', 93793619 , '9543', 234, 'qaxcvf', 'iomnbgf'), "
           "( 96244914, 'yuthgbvfg', 'qgytrevd', 93793619 , '75345', 234, 'liyhvdrt', "
           "'qfgkdyv'), (96244915, 'ramnabfubt', 'njhiyfcvh', 93793619 , '126789', 234, "
           "'summinhsve', 'qgjorutbbs');",
    "Q19": "update customer set  c_name='ashdehhrbeki' where c_name = 'sjadfd';",
    "Q21": "delete from customer where c_nationkey = 93793619;",
    "Q22": "insert  into supplier  (s_suppkey, s_name, s_address, s_nationkey, s_phone, "
           "s_acctbal, s_comment) select ( c_custkey + 1000 ), c_name, c_address, "
           "c_nationkey, c_phone, c_acctbal, c_comment from customer "
           "where c_nationkey = 93793619;",
    "Q25": "select * from customer;",
    "Q26": "delete from supplier where s_nationkey = 93793619;",
    "Q32": "select s_suppkey, n_name, s_name from supplier, nation "
           "where supplier.s_nationkey = nation.n_nationkey;",
    "Q33": "select s_suppkey, n_name, s_name from (( select * from supplier ) as sup ), "
           "nation where sup.s_nationkey = nation.n_nationkey;",
    "Q35": "select sn.s_name, rn.r_name from (( select n_name, s_name from "
           "(supplier as sup ), nation where sup.s_nationkey = nation.n_nationkey) as sn), "
           "(( select n_name, r_name from ( region as reg ), nation where "
           "reg.r_regionkey = nation.n_regionkey ) as rn ) where sn.n_name = rn.n_name;",
    "Q40": "select c_orders.c_custkey, (count(*) as custdist) from (( select c_custkey, "
           "o_orderkey from customer, orders where c_custkey = o_custkey and "
           "o_comment not like '%fi%al%' ) as c_orders);",
    "Q41": "delete from supplier where s_suppkey > 20000;",
    "Q43": "select * from lineitem;",
}


def test_minimal_select():
    q = parse("select * from region")
    assert isinstance(q, ast.SelectQuery)
    assert isinstance(q.projections[0].expr, ast.Star)
    assert q.from_items == (ast.BaseTable("region", None),)
    assert q.where is None


def test_nested_select_with_derived_table_and_conjuncts():
    q = parse(
        "SELECT t1.a, r1.b, t3.c FROM t1, (SELECT a, b FROM t2) AS r1, t3 "
        "WHERE t1.a=r1.a AND r1.b=t3.b"
    )
    assert isinstance(q, ast.SelectQuery)
    derived = [f for f in q.from_items if isinstance(f, ast.DerivedTable)]
    assert len(derived) == 1 and derived[0].alias == "r1"
    assert isinstance(q.where, ast.And)
    assert isinstance(q.where.left, ast.Comparison)
    assert isinstance(q.where.right, ast.Comparison)


def test_unsupported_in_is_not_a_syntax_error():
    with pytest.raises(UnsupportedFeature) as exc:
        parse("select a from t where a in (select a from u)")
    assert exc.value.feature == "in"


@pytest.mark.parametrize("sql,feature", [
    ("select * from t where exists (select 1 from u)", "exists"),
    ("select a from t group by a", "group"),
    ("select a from t having a > 1", "having"),
    ("select * from t left outer join u on t.a = u.a", "left"),
    ("select * from t where a > any (select a from u)", "any"),
    ("select distinct a from t", "distinct"),
    ("select a from t order by a", "order"),
])
def test_unsupported_features_rejected_explicitly(sql, feature):
    with pytest.raises(UnsupportedFeature) as exc:
        parse(sql)
    assert exc.value.feature == feature


def test_syntax_error_carries_position_and_expected():
    with pytest.raises(SqlSyntaxError) as exc:
        parse("select from region")
    assert exc.value.position == 7
    assert exc.value.expected


def test_multiple_statements_rejected():
    with pytest.raises(SqlSyntaxError):
        parse("select * from region; select * from nation")


def test_identifiers_fold_to_lowercase_but_strings_keep_case():
    q = parse("SELECT R_Name FROM REGION WHERE r_name = 'ASIA'")
    item = q.projections[0].expr
    assert item == ast.ColumnRef(None, "r_name")
    assert q.from_items[0].name == "region"
    assert q.where.right.value.raw == "ASIA"


def test_classify_dispatches_on_outermost_kind():
    update_nested = parse(
        "update t1 set a = (select a from t2 where t2.key = 1234) where t1.b = 4567"
    )
    assert classify(update_nested) is QueryKind.UPDATE
    assert classify(parse("select * from t")) is QueryKind.SELECT
    assert classify(parse("delete from t")) is QueryKind.DELETE
    assert classify(parse("insert into t (a) values (1)")) is QueryKind.INSERT


def test_update_scalar_subquery_shape():
    q = parse("update t1 set t1.a = (select a from t2 where t2.key=1234) where t1.b = 4567")
    assert q.table == "t1"
    assert len(q.assignments) == 1
    a = q.assignments[0]
    assert a.column == "a"
    assert isinstance(a.value, ast.ScalarSubquery)


def test_insert_values_multi_row():
    q = parse("insert into t (a, b) values (1, 'x'), (2, 'y')")
    assert isinstance(q.source, ast.ValuesSource)
    assert len(q.source.rows) == 2
    assert q.columns == ("a", "b")


def test_insert_from_select():
    q = parse("insert into t (a) select b from u where b > 3")
    assert isinstance(q.source, ast.SelectSource)


def test_parenthesized_base_table_alias():
    q = parse("select n1.n_name from (nation as n1), (nation as n2) "
              "where n1.n_nationkey = n2.n_nationkey")
    assert q.from_items[0] == ast.BaseTable("nation", "n1")
    assert q.from_items[1] == ast.BaseTable("nation", "n2")


def test_parenthesized_projection_alias_normalized():
    q = parse("select (sum (volume) as mkt_share) from allnations")
    item = q.projections[0]
    assert item.alias == "mkt_share"
    assert item.expr == ast.Aggregate("sum", ast.ColumnRef(None, "volume"))


def test_arithmetic_and_aggregate_expressions():
    q = parse("select (sum(l_extendedprice * (1 - l_discount)) as revenue) from lineitem")
    agg = q.projections[0].expr
    assert agg.func == "sum"
    assert isinstance(agg.arg, ast.BinaryOp) and agg.arg.op == "*"
    lit = parse("select * from t where d > 0.04 - 0.01").where.right
    assert lit.op == "-"


def test_number_literals_typed():
    q = parse("select * from t where a = 22 and b = 0.05")
    left, right = q.where.left, q.where.right
    assert left.right.value.kind is ValueType.INTEGER
    assert right.right.value.kind is ValueType.DECIMAL


def test_like_and_not_like():
    q = parse("select * from t where a like '%ab%' and b not like 'x_'")
    assert q.where.left == ast.LikePredicate(ast.ColumnRef(None, "a"), "%ab%", False)
    assert q.where.right == ast.LikePredicate(ast.ColumnRef(None, "b"), "x_", True)


def test_or_of_parenthesized_conjunctions():
    q = parse(
        "select * from t where (n1 = 'india' and n2 = 'france') "
        "or (n1 = 'france' and n2 = 'india')"
    )
    assert isinstance(q.where, ast.Or)
    assert isinstance(q.where.left, ast.And)


def test_derived_table_requires_alias():
    with pytest.raises(SqlSyntaxError):
        parse("select * from (select a from t)")


def test_duplicate_alias_in_from_rejected():
    with pytest.raises(SqlSyntaxError):
        parse("select * from t as x, u as x")


def test_delete_never_contains_nested_select():
    q = parse("delete from nation where n_nationkey = 93793619")
    assert not ast.has_nested_select(q)


@pytest.mark.parametrize("sql, rendered", [
    ("insert into c (k, name) values (1, null)", "insert into c (k, name) values (1, null)"),
    ("update c set name = NULL where k = 1", "update c set name = null where (k = 1)"),
    ("select * from c where name = null", "select * from c where (name = null)"),
    ("select k + null, - null from c", "select (k + null), (- null) from c"),
])
def test_null_literal_parses_and_round_trips(sql, rendered):
    q = parse(sql)
    assert render(q) == rendered
    assert parse(rendered) == q


@pytest.mark.parametrize("qid", sorted(CORPUS))
def test_corpus_parses(qid):
    q = parse(CORPUS[qid])
    assert q is not None


@pytest.mark.parametrize("qid", sorted(CORPUS))
def test_corpus_render_round_trip(qid):
    q = parse(CORPUS[qid])
    assert parse(render(q)) == q


@pytest.mark.parametrize("qid", sorted(CORPUS))
def test_nesting_depth_preserved(qid):
    sql = CORPUS[qid]
    select_tokens = sum(
        1 for t in tokenize(sql) if t.type == IDENT and t.value == "select"
    )
    node_count = _count_select_nodes(parse(sql))
    assert node_count == select_tokens


def _count_select_nodes(q) -> int:
    return sum(1 for _ in ast.iter_selects(q))
