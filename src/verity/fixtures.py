"""Deterministic TPC-H-shaped fixture generator.

Produces the eight familiar tables (region, nation, customer, supplier,
part, partsupp, orders, lineitem) as CSV files plus a schema DDL file.
Row counts are configurable; the scale-factor presets carry the standard
per-table counts for SF 0.001 / 0.002 / 0.005 / 0.01. Same seed, same
counts, byte-identical output.

This is shaped data for exercising the gateway, not official benchmark
data: values are synthetic, foreign keys are coherent so joins match.

Run directly:  python -m verity.fixtures --preset 0.001 --dest fixtures/sf0.001
"""

from __future__ import annotations

import argparse
import datetime
import os
import random
from decimal import Decimal

from .parser import parse_ddl
from .storage import csv_line

TPCH_DDL = """\
create table region (r_regionkey integer, r_name text, r_comment text,
    primary key (r_regionkey));
create table nation (n_nationkey integer, n_name text, n_regionkey integer,
    n_comment text, primary key (n_nationkey));
create table customer (c_custkey integer, c_name text, c_address text,
    c_nationkey integer, c_phone text, c_acctbal decimal, c_mktsegment text,
    c_comment text, primary key (c_custkey));
create table supplier (s_suppkey integer, s_name text, s_address text,
    s_nationkey integer, s_phone text, s_acctbal decimal, s_comment text,
    primary key (s_suppkey));
create table part (p_partkey integer, p_name text, p_mfgr text, p_brand text,
    p_type text, p_size integer, p_container text, p_retailprice decimal,
    p_comment text, primary key (p_partkey));
create table partsupp (ps_partkey integer, ps_suppkey integer,
    ps_availqty integer, ps_supplycost decimal, ps_comment text,
    primary key (ps_partkey, ps_suppkey));
create table orders (o_orderkey integer, o_custkey integer, o_orderstatus text,
    o_totalprice decimal, o_orderdate date, o_orderpriority text, o_clerk text,
    o_shippriority integer, o_comment text, primary key (o_orderkey));
create table lineitem (l_orderkey integer, l_partkey integer, l_suppkey integer,
    l_linenumber integer, l_quantity decimal, l_extendedprice decimal,
    l_discount decimal, l_tax decimal, l_returnflag text, l_linestatus text,
    l_shipdate date, l_commitdate date, l_receiptdate date, l_shipinstruct text,
    l_shipmode text, l_comment text, primary key (l_orderkey, l_linenumber));
"""

# each table's CSV header: its columns, in the order TPCH_DDL declares them
_HEADERS = {d.name: d.column_names() for d in parse_ddl(TPCH_DDL)}

SF_PRESETS = {
    "0.001": {"customer": 150, "lineitem": 6005, "nation": 25, "orders": 1500,
              "part": 200, "partsupp": 700, "region": 5, "supplier": 10},
    "0.002": {"customer": 300, "lineitem": 11957, "nation": 25, "orders": 3000,
              "part": 400, "partsupp": 1500, "region": 5, "supplier": 20},
    "0.005": {"customer": 750, "lineitem": 30201, "nation": 25, "orders": 7500,
              "part": 1000, "partsupp": 3900, "region": 5, "supplier": 50},
    "0.01": {"customer": 1500, "lineitem": 60175, "nation": 25, "orders": 15000,
             "part": 2000, "partsupp": 8000, "region": 5, "supplier": 100},
}

REGIONS = ["africa", "america", "asia", "europe", "middle east"]

# (name, region key) in nation-key order
NATIONS = [
    ("algeria", 0), ("argentina", 1), ("brazil", 1), ("canada", 1),
    ("egypt", 4), ("ethiopia", 0), ("france", 3), ("germany", 3),
    ("india", 2), ("indonesia", 2), ("iran", 4), ("iraq", 4),
    ("japan", 2), ("jordan", 4), ("kenya", 0), ("morocco", 0),
    ("mozambique", 0), ("peru", 1), ("china", 2), ("romania", 3),
    ("saudi arabia", 4), ("vietnam", 2), ("russia", 3),
    ("united kingdom", 3), ("united states", 1),
]

WORDS = [
    "haggle", "slyly", "final", "packages", "deposits", "blithely", "regular",
    "accounts", "carefully", "quickly", "pending", "requests", "ironic",
    "theodolites", "foxes", "bold", "express", "instructions", "waters",
    "detect", "agai", "about", "above", "unusual", "platelets", "cajole",
    "furiously", "asymptotes", "daring", "stable",
]

SEGMENTS = ["automobile", "building", "furniture", "machinery", "household"]
PRIORITIES = ["1-urgent", "2-high", "3-medium", "4-not specified", "5-low"]
CONTAINERS = ["sm case", "sm box", "med bag", "med box", "lg case", "lg box",
              "jumbo pack", "wrap bag"]
TYPE_SIZES = ["small", "medium", "large", "economy", "standard", "promo"]
TYPE_COATS = ["anodized", "burnished", "plated", "polished", "brushed"]
TYPE_METALS = ["tin", "nickel", "brass", "steel", "copper"]
SHIPMODES = ["air", "ship", "truck", "mail", "rail", "fob", "reg air"]
INSTRUCTIONS = ["deliver in person", "collect cod", "none", "take back return"]

_EPOCH = datetime.date(1992, 1, 1)


class FixtureWriter:
    def __init__(self, dest_dir: str, counts: dict[str, int], seed: int = 42):
        self.dest = dest_dir
        self.counts = counts
        self.rng = random.Random(seed)

    def _comment(self, lo=2, hi=6):
        return " ".join(self.rng.choice(WORDS) for _ in range(self.rng.randint(lo, hi)))

    def _maybe_null_comment(self, p=0.03):
        return None if self.rng.random() < p else self._comment()

    def _money(self, lo_cents: int, hi_cents: int) -> str:
        return str(Decimal(self.rng.randint(lo_cents, hi_cents)) / 100)

    def _date(self, lo_day=0, hi_day=2400) -> str:
        return (_EPOCH + datetime.timedelta(days=self.rng.randint(lo_day, hi_day))).isoformat()

    def _write(self, table: str, rows):
        path = os.path.join(self.dest, f"{table}.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            # NULL is an empty field: csv_null's default
            f.write(csv_line(_HEADERS[table], ""))
            n = 0
            for row in rows:
                f.write(csv_line([None if v is None else str(v) for v in row], ""))
                n += 1
        return n

    def generate(self) -> dict[str, int]:
        os.makedirs(self.dest, exist_ok=True)
        with open(os.path.join(self.dest, "schema.sql"), "w", encoding="utf-8") as f:
            f.write(TPCH_DDL)

        c = self.counts
        written = {}
        written["region"] = self._write(
            "region",
            ([k, REGIONS[k % len(REGIONS)] if k < len(REGIONS) else f"region {k}",
              self._comment()] for k in range(c["region"])),
        )
        written["nation"] = self._write(
            "nation",
            ([k,
              NATIONS[k][0] if k < len(NATIONS) else f"nation {k}",
              NATIONS[k][1] if k < len(NATIONS) else k % c["region"],
              self._maybe_null_comment()] for k in range(c["nation"])),
        )
        n_nations = c["nation"]
        written["customer"] = self._write(
            "customer",
            ([k, f"customer#{k:09d}", self._comment(1, 3),
              self.rng.randrange(n_nations),
              "".join(str(self.rng.randint(0, 9)) for _ in range(10)),
              self._money(-99999, 999999), self.rng.choice(SEGMENTS),
              self._maybe_null_comment()] for k in range(1, c["customer"] + 1)),
        )
        written["supplier"] = self._write(
            "supplier",
            ([k, f"supplier#{k:09d}", self._comment(1, 3),
              self.rng.randrange(n_nations),
              "".join(str(self.rng.randint(0, 9)) for _ in range(10)),
              self._money(-99999, 999999), self._maybe_null_comment()]
             for k in range(1, c["supplier"] + 1)),
        )
        written["part"] = self._write(
            "part",
            ([k, self._comment(2, 4), f"manufacturer#{self.rng.randint(1, 5)}",
              f"brand#{self.rng.randint(11, 55)}",
              f"{self.rng.choice(TYPE_SIZES)} {self.rng.choice(TYPE_COATS)} "
              f"{self.rng.choice(TYPE_METALS)}",
              self.rng.randint(1, 50), self.rng.choice(CONTAINERS),
              self._money(90000, 200000), self._comment(1, 3)]
             for k in range(1, c["part"] + 1)),
        )

        ps_pairs = self._partsupp_pairs(c["part"], c["supplier"], c["partsupp"])
        written["partsupp"] = self._write(
            "partsupp",
            ([pk, sk, self.rng.randint(1, 9999), self._money(100, 100000),
              self._comment(1, 4)] for pk, sk in ps_pairs),
        )

        order_dates = {}
        def orders_rows():
            for k in range(1, c["orders"] + 1):
                d = self._date(0, 2310)
                order_dates[k] = d
                yield [k, self.rng.randint(1, c["customer"]),
                       self.rng.choice(["f", "o", "p"]), self._money(100000, 40000000),
                       d, self.rng.choice(PRIORITIES),
                       f"clerk#{self.rng.randint(1, 1000):09d}", 0, self._comment()]
        written["orders"] = self._write("orders", orders_rows())

        lines_per_order = self._distribute_lines(c["orders"], c["lineitem"])
        def lineitem_rows():
            for okey in range(1, c["orders"] + 1):
                base = datetime.date.fromisoformat(order_dates[okey])
                for ln in range(1, lines_per_order[okey - 1] + 1):
                    pk, sk = self.rng.choice(ps_pairs)
                    ship = base + datetime.timedelta(days=self.rng.randint(1, 121))
                    commit = base + datetime.timedelta(days=self.rng.randint(30, 90))
                    receipt = ship + datetime.timedelta(days=self.rng.randint(1, 30))
                    yield [okey, pk, sk, ln,
                           str(Decimal(self.rng.randint(1, 50))),
                           self._money(90000, 10000000),
                           str(Decimal(self.rng.randint(0, 10)) / 100),
                           str(Decimal(self.rng.randint(0, 8)) / 100),
                           self.rng.choice(["r", "a", "n"]),
                           self.rng.choice(["o", "f"]),
                           ship.isoformat(), commit.isoformat(), receipt.isoformat(),
                           self.rng.choice(INSTRUCTIONS), self.rng.choice(SHIPMODES),
                           self._comment(1, 4)]
        written["lineitem"] = self._write("lineitem", lineitem_rows())
        return written

    def _partsupp_pairs(self, n_parts: int, n_supps: int, total: int):
        per_part = total // n_parts
        extra = total % n_parts
        pairs = []
        for pk in range(1, n_parts + 1):
            want = per_part + (1 if pk <= extra else 0)
            want = min(want, n_supps)
            supps = self.rng.sample(range(1, n_supps + 1), want)
            pairs.extend((pk, sk) for sk in sorted(supps))
        # rounding against n_supps caps can leave a shortfall; top up with
        # unused (part, supplier) combinations
        used = set(pairs)
        pk = 1
        while len(pairs) < total:
            for sk in range(1, n_supps + 1):
                if (pk, sk) not in used:
                    pairs.append((pk, sk))
                    used.add((pk, sk))
                    break
            pk = pk % n_parts + 1
        return pairs[:total]

    def _distribute_lines(self, n_orders: int, total: int) -> list[int]:
        counts = [self.rng.randint(1, 7) for _ in range(n_orders)]
        diff = total - sum(counts)
        i = 0
        while diff != 0:
            if diff > 0 and counts[i % n_orders] < 100:
                counts[i % n_orders] += 1
                diff -= 1
            elif diff < 0 and counts[i % n_orders] > 1:
                counts[i % n_orders] -= 1
                diff += 1
            i += 1
        return counts


def generate_fixture(dest_dir: str, counts: dict[str, int] | None = None,
                     preset: str = "0.001", seed: int = 42) -> dict[str, int]:
    counts = counts or SF_PRESETS[preset]
    return FixtureWriter(dest_dir, counts, seed).generate()


def main(argv=None):
    ap = argparse.ArgumentParser(description="generate TPC-H-shaped CSV fixtures")
    ap.add_argument("--preset", default="0.001", choices=sorted(SF_PRESETS))
    ap.add_argument("--dest", required=True)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)
    written = generate_fixture(args.dest, preset=args.preset, seed=args.seed)
    for table, n in sorted(written.items()):
        print(f"{table}: {n}")
    print(f"total: {sum(written.values())}")


if __name__ == "__main__":
    main()
