"""Seeded statement streams for the three workloads.

Each workload repeats one cycle of statements. The seed fixes the order of
the cycle and every key or key range in it, never its composition: every
seed runs the same statement shapes on the same tables, so figures from
different seeds measure the same mix. verity receives only the generated
SQL text; the read workload's tamper probes edit its storage directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Primary-key columns of the fixture schema (verity.fixtures.TPCH_DDL).
PK = {
    "region": ("r_regionkey",),
    "nation": ("n_nationkey",),
    "customer": ("c_custkey",),
    "supplier": ("s_suppkey",),
    "part": ("p_partkey",),
    "partsupp": ("ps_partkey", "ps_suppkey"),
    "orders": ("o_orderkey",),
    "lineitem": ("l_orderkey", "l_linenumber"),
}

# A text column per table that a tamper probe may overwrite.
TAMPER_COLUMN = {
    "region": "r_comment",
    "nation": "n_comment",
    "customer": "c_comment",
    "supplier": "s_comment",
    "part": "p_comment",
    "partsupp": "ps_comment",
    "orders": "o_comment",
    "lineitem": "l_comment",
}

SCAN_TABLES = ("region", "nation", "supplier", "customer", "part", "partsupp",
               "orders", "lineitem")
# Full scans cheap enough to repeat for a tamper probe.
TAMPER_SCANS = ("region", "nation", "supplier", "customer", "part", "partsupp")
POINT_TABLES = ("orders", "orders", "orders", "customer", "part", "supplier",
                "partsupp", "lineitem")
REVENUE_SQL = "select sum(l_extendedprice * (1 - l_discount)) from lineitem"
COLD_SQL = "select * from region"
MUTATION_KINDS = ("update", "range_update", "insert", "delete")

# Write-workload sizes per cycle.
ORDER_UPDATES = 6
CUSTOMER_UPDATES = 4
POINT_SELECTS = 4
INSERTS = 2
ROWS_PER_INSERT = 4
RANGE_UPDATES = 2
RANGE_UPDATE_ROWS = 200
ZIPF_S = 1.1
# Keys of inserted orders start here, far above any fixture key.
FRESH_KEY_BASE = 10_000_000


@dataclass(frozen=True)
class Stmt:
    """One generated statement and what its result must be."""

    sql: str
    kind: str                        # scan, agg, point, join2, join3, select,
                                     # update, range_update, insert, delete, cold
    tables: tuple[str, ...] = ()     # FROM list of a read, in order
    where: str = ""                  # its WHERE text, shared with the oracle
    expect: int | None = None        # rows affected, or rows a write-side SELECT returns
    tamper: tuple | None = None      # (table, pk) a tamper probe may edit first

    @property
    def is_mutation(self) -> bool:
        return self.kind in MUTATION_KINDS


@dataclass(frozen=True)
class Shape:
    """What the streams need to know about the fixture data."""

    keys: dict            # table -> sorted list of primary-key tuples
    lines_per_order: dict  # o_orderkey -> number of lineitem rows


def _eq(table: str, key: tuple) -> str:
    return " and ".join(f"{c} = {v}" for c, v in zip(PK[table], key))


def _range(rng: random.Random, keys: list, width: int) -> tuple[int, int]:
    width = max(1, min(width, len(keys)))
    i = rng.randrange(len(keys) - width + 1)
    return keys[i][0], keys[i + width - 1][0]


def _read(sql_from: str, kind: str, tables: tuple, where: str = "", tamper=None) -> Stmt:
    sql = f"select * from {sql_from}" + (f" where {where}" if where else "")
    return Stmt(sql, kind, tables, where, tamper=tamper)


def read_cycle(shape: Shape, seed: int) -> list[Stmt]:
    """28 verified SELECTs: scans, the revenue aggregate, point reads, and
    2- and 3-way joins. Two restricted ``orders, customer`` joins and four
    restricted ``lineitem, orders, customer`` joins cost about the same, so
    the tail percentile falls inside that group rather than on its edge."""
    rng = random.Random(f"read:{seed}")
    k = shape.keys
    out = []
    for t in SCAN_TABLES:
        tamper = (t, rng.choice(k[t])) if t in TAMPER_SCANS else None
        out.append(_read(t, "scan", (t,), tamper=tamper))
    out.append(Stmt(REVENUE_SQL, "agg", ("lineitem",)))
    for t in POINT_TABLES:
        key = rng.choice(k[t])
        out.append(_read(t, "point", (t,), _eq(t, key), tamper=(t, key)))

    sn = ("supplier", "nation")
    sn_where = "s_nationkey = n_nationkey"
    out.append(_read("supplier, nation", "join2", sn, sn_where,
                     tamper=("supplier", rng.choice(k["supplier"]))))
    lo, hi = _range(rng, k["supplier"], len(k["supplier"]) // 2)
    out.append(_read("supplier, nation", "join2", sn,
                     f"{sn_where} and s_suppkey >= {lo} and s_suppkey <= {hi}"))

    oc = ("orders", "customer")
    oc_where = "o_custkey = c_custkey"
    out.append(_read("orders, customer", "join2", oc, oc_where))
    for _ in range(2):
        lo, hi = _range(rng, k["orders"], len(k["orders"]) // 10)
        out.append(_read("orders, customer", "join2", oc,
                         f"{oc_where} and o_orderkey >= {lo} and o_orderkey <= {hi}"))

    cnr = ("customer", "nation", "region")
    cnr_where = "c_nationkey = n_nationkey and n_regionkey = r_regionkey"
    out.append(_read("customer, nation, region", "join3", cnr, cnr_where,
                     tamper=("customer", rng.choice(k["customer"]))))
    lo, hi = _range(rng, k["customer"], len(k["customer"]) // 5)
    out.append(_read("customer, nation, region", "join3", cnr,
                     f"{cnr_where} and c_custkey >= {lo} and c_custkey <= {hi}"))

    loc = ("lineitem", "orders", "customer")
    loc_where = "l_orderkey = o_orderkey and o_custkey = c_custkey"
    for _ in range(4):
        lo, hi = _lineitem_range(rng, shape, max(1, len(k["lineitem"]) * 2 // 1000))
        out.append(_read("lineitem, orders, customer", "join3", loc,
                         f"{loc_where} and l_orderkey >= {lo} and l_orderkey <= {hi}"))
    rng.shuffle(out)
    return out


def _lineitem_range(rng: random.Random, shape: Shape, target: int) -> tuple[int, int]:
    """An o_orderkey range whose orders hold exactly ``target`` lineitems
    (or the first range to exceed it, if none does), so that every seed
    joins the same number of rows."""
    orders = [key[0] for key in shape.keys["orders"]]
    starts = list(range(len(orders)))
    rng.shuffle(starts)
    best = None
    for i in starts:
        j, lines = i, 0
        while j < len(orders) and lines < target:
            lines += shape.lines_per_order.get(orders[j], 0)
            j += 1
        if lines == target:
            return orders[i], orders[j - 1]
        if best is None and lines > target:
            best = (orders[i], orders[j - 1])
    return best or (orders[0], orders[-1])


def _zipf_keys(rng: random.Random, keys: list, n: int) -> list:
    ranked = list(keys)
    rng.shuffle(ranked)
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=n)


def write_cycle(shape: Shape, seed: int, cycle: int) -> list[Stmt]:
    """Cycle ``cycle`` of the write workload: point SELECTs, Zipf-skewed
    single-row UPDATEs, INSERTs of fresh orders and the DELETEs of those
    same rows, and two 200-row range UPDATEs. Every cycle of a seed touches the same
    keys, except that each cycle inserts and deletes keys of its own."""
    rng = random.Random(f"write:{seed}")
    k = shape.keys
    out = [
        Stmt(f"select * from orders where {_eq('orders', key)}", "select", expect=1)
        for key in (rng.choice(k["orders"]) for _ in range(POINT_SELECTS // 2))
    ]
    out += [
        Stmt(f"select * from customer where {_eq('customer', key)}", "select", expect=1)
        for key in (rng.choice(k["customer"]) for _ in range(POINT_SELECTS // 2))
    ]
    out += [
        Stmt(f"update orders set o_totalprice = o_totalprice + 1 where {_eq('orders', key)}",
             "update", expect=1)
        for key in _zipf_keys(rng, k["orders"], ORDER_UPDATES)
    ]
    out += [
        Stmt(f"update customer set c_acctbal = c_acctbal + 1 where {_eq('customer', key)}",
             "update", expect=1)
        for key in _zipf_keys(rng, k["customer"], CUSTOMER_UPDATES)
    ]
    for _ in range(RANGE_UPDATES):
        lo, hi = _range(rng, k["orders"], min(RANGE_UPDATE_ROWS, len(k["orders"]) // 2))
        out.append(Stmt(
            f"update orders set o_totalprice = o_totalprice + 1 "
            f"where o_orderkey >= {lo} and o_orderkey <= {hi}",
            "range_update", expect=hi - lo + 1,
        ))
    custkeys = [rng.choice(k["customer"])[0] for _ in range(INSERTS)]
    rng.shuffle(out)

    for j, custkey in enumerate(custkeys):
        first = FRESH_KEY_BASE + (cycle * INSERTS + j) * ROWS_PER_INSERT
        last = first + ROWS_PER_INSERT - 1
        rows = ", ".join(
            f"({key}, {custkey}, 'o', 100.25, '1995-03-15', '3-medium', "
            f"'clerk#000000001', 0, 'inserted by the write workload')"
            for key in range(first, last + 1)
        )
        insert = Stmt(
            "insert into orders (o_orderkey, o_custkey, o_orderstatus, o_totalprice, "
            "o_orderdate, o_orderpriority, o_clerk, o_shippriority, o_comment) "
            f"values {rows}",
            "insert", expect=ROWS_PER_INSERT,
        )
        delete = Stmt(f"delete from orders where o_orderkey >= {first} and o_orderkey <= {last}",
                      "delete", expect=ROWS_PER_INSERT)
        at = rng.randrange(len(out) + 1)
        out.insert(at, insert)
        out.insert(rng.randrange(at + 1, len(out) + 1), delete)
    return out


def cold_cycle() -> list[Stmt]:
    """The cold_start operation: ``verity exec`` of a 5-row scan. It is the
    same for every seed; the seed has nothing to vary in it."""
    return [Stmt(COLD_SQL, "cold", ("region",), expect=5)]
