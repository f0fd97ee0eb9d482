"""Fixture generator: preset counts, determinism, loadability, join coherence."""

import hashlib

from verity.fixtures import SF_PRESETS, generate_fixture
from verity.parser import parse

from conftest import load_fixture_db


def test_sf_presets_total_counts():
    assert sum(SF_PRESETS["0.001"].values()) == 8595
    assert sum(SF_PRESETS["0.002"].values()) == 17207
    assert sum(SF_PRESETS["0.005"].values()) == 43431
    assert sum(SF_PRESETS["0.01"].values()) == 86805


def test_generated_counts_match_preset(fixture_dir):
    db = load_fixture_db(fixture_dir)
    for table, want in SF_PRESETS["0.001"].items():
        assert db.row_count(table) == want


def test_generation_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    counts = {"customer": 10, "lineitem": 40, "nation": 25, "orders": 12,
              "part": 8, "partsupp": 16, "region": 5, "supplier": 4}
    generate_fixture(str(a), counts=counts, seed=7)
    generate_fixture(str(b), counts=counts, seed=7)
    for f in sorted(p.name for p in a.iterdir()):
        assert (a / f).read_bytes() == (b / f).read_bytes(), f


def test_different_seed_differs(tmp_path):
    counts = {"customer": 10, "lineitem": 40, "nation": 25, "orders": 12,
              "part": 8, "partsupp": 16, "region": 5, "supplier": 4}
    generate_fixture(str(tmp_path / "a"), counts=counts, seed=7)
    generate_fixture(str(tmp_path / "b"), counts=counts, seed=8)
    assert (tmp_path / "a" / "customer.csv").read_bytes() != \
           (tmp_path / "b" / "customer.csv").read_bytes()


def test_foreign_keys_cohere(fixture_dir):
    db = load_fixture_db(fixture_dir)
    # every join path used by the benchmark queries yields matches
    joins = [
        ("select * from nation, region where n_regionkey = r_regionkey", 25),
        ("select * from supplier, nation where s_nationkey = n_nationkey", 10),
        ("select * from partsupp, part where ps_partkey = p_partkey", 700),
        ("select * from lineitem, partsupp where l_partkey = ps_partkey "
         "and l_suppkey = ps_suppkey", 6005),
    ]
    for sql, want in joins:
        assert len(db.exec_select(parse(sql))) == want, sql


def test_region_names_match_query_literals(fixture_dir):
    db = load_fixture_db(fixture_dir)
    rows = db.exec_select(parse("select r_name from region"))
    names = {r[0].raw for r in rows}
    assert {"africa", "america", "asia", "europe", "middle east"} == names
    rows = db.exec_select(parse("select n_name from nation where n_name = 'india'"))
    assert len(rows) == 1


def test_sum_l_quantity_matches_independent_csv_sum(fixture_dir, fixture_session):
    # independent oracle: sum the CSV column directly, no engine involved
    from decimal import Decimal
    import csv as _csv

    with open(fixture_dir / "lineitem.csv", newline="") as f:
        reader = _csv.DictReader(f)
        want = sum(Decimal(row["l_quantity"]) for row in reader)

    _, _, verifier = fixture_session
    rows, report = verifier.process("select (sum(l_quantity) as total) from lineitem")
    assert rows[0][0].raw == want
    assert report.tuples_checked == 6005


def test_bootstrap_records_every_fixture_tuple(fixture_session):
    _, ledger, _ = fixture_session
    assert len(ledger.scan_active()) == 8595
    assert ledger.get_row_count("region") == 5
    assert ledger.get_row_count("nation") == 25
    assert ledger.get_row_count("lineitem") == 6005


# SHA-256 of every file of the SF 0.001, seed 42 fixture that the benchmark
# and the session fixtures run on: any change to the generated data shows here
SF0001_SEED42_DIGESTS = {
    "customer.csv": "87cfd9aaeef824dc0e1b72048b03803781a8d448ee23a0c9eee411d1649a107a",
    "lineitem.csv": "facf0aa6154db624af9906a5af47f9e26826a7efacc18ee4167eecd98da37c74",
    "nation.csv": "deae00a377986e7c28101f31d17e0e923bf7c0621db544aec32b4e9a95e5fd13",
    "orders.csv": "69ec67db6f54085ddb7282924d139a1735319a2250df0e426c5684e6d2a9046f",
    "part.csv": "7712a1987b55de9dd0c9b11c03b18dbfac1bd42c34aabb68a075b5727a24a4fa",
    "partsupp.csv": "ed139d7302f8cc3ea656830ed33600de8ea759f92cddde8a08dc6ca4963c61f6",
    "region.csv": "ceef3d1cf8cb177038cf74d689fbd14941923547a946f5f340b3fe946ab66b8d",
    "schema.sql": "a594feecb51915dc64c968fd97211ef3fd8d50b6d9f8c85ef78093e900e3ea2f",
    "supplier.csv": "2c54870bec40c117b550ffe4a6748ba086e1b30188edf4d0187aec198a5a2b5b",
}


def test_sf0001_seed42_fixture_is_byte_identical(fixture_dir):
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in fixture_dir.iterdir()}
    assert digests == SF0001_SEED42_DIGESTS
