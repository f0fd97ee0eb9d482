"""Fingerprints: golden digests, determinism, sensitivity, NULL handling.

Golden constants were computed with a command-line sha256sum over the
documented byte layout (fields joined by 0x1F), independently of this
package, and are frozen here.
"""

import hashlib
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_verified
from verity.errors import NullPrimaryKey
from verity.fingerprint import fingerprint, fingerprint_tuple, row_id
from verity.fixtures import generate_fixture
from verity.parser import parse, parse_table_def
from verity.storage import Database
from verity.values import INT64_MAX, INT64_MIN, NULL, Value, ValueType, render_value

# printf '1234\x1ft1' | sha256sum
GOLDEN_RID_T1 = "66ad75ab1bc42cb64f5bca6fa6f828f06fe2649682d69c2aa171719449c52ed9"
# printf '1234\x1ft2' | sha256sum
GOLDEN_RID_T2 = "e48471cdb15887af7a5991bc1ca6b8b6d4e824df18038bc2ab33ab6a641197c4"
# printf '0\x1fregion' | sha256sum
GOLDEN_RID_REGION0 = "fa9de4212042946cae2b4829803cb67414ed79b65fb828c101bb94dafa6af92a"
# printf '<rid>\x1f0\x1fAFRICA\x1flar deposits. blithely' | sha256sum
GOLDEN_FP_REGION0 = "c7a2b751a19f51da11fa60c635e743f28b826ac4e9fac03c8f633d0dcf0ef6d0"
# printf '7\x1ftn' | sha256sum
GOLDEN_RID_TN7 = "14e1927ea4b09e16af07ae677f7606fe67d382f4ef7fc544b2768f8dfcaa6767"
# printf '<rid>\x1f7\x1fx' | sha256sum  (NULL column contributes nothing)
GOLDEN_FP_TN7 = "c5d00d59e773b2422aeb1778a06495492265b1ee6aa4ceca8bf7d786da5d5a39"
# printf -- '-7\x1f22.5\x1fitems' | sha256sum  (decimal normalized from 022.500)
GOLDEN_RID_COMPOSITE = "4caf0fed953f7ddef00757b8058c2661c10c8d7db0bddf55590d276e46273308"
# SHA-256 over the sorted (row id, fingerprint) pairs a bootstrap of the tiny
# fixture below records, frozen when the digests were first computed
GOLDEN_TINY_LEDGER = "be480acfb3563acb5ee3795906f99858203c52ef03e58d0232cb188bbe0d7bc1"
TINY_COUNTS = {"customer": 12, "lineitem": 30, "nation": 25, "orders": 10,
               "part": 6, "partsupp": 12, "region": 5, "supplier": 4}


def test_fingerprint_value_encodings():
    """Each kind of value is hashed as its canonical text: the row id's hex
    digits, then the value, joined by 0x1F."""
    rid = row_id([Value.integer(1)], "t")
    for v, text in [(Value.integer(-7), b"-7"), (Value.decimal(Decimal("022.500")), b"22.5"),
                    (Value.text("asia"), b"asia"), (Value.date("1995-03-09"), b"1995-03-09")]:
        want = hashlib.sha256(rid.encode("ascii") + b"\x1f" + text).hexdigest()
        assert fingerprint(rid, (v,)) == want


def test_row_id_golden():
    assert row_id([Value.integer(1234)], "t1") == GOLDEN_RID_T1


def test_row_id_differs_by_table():
    assert row_id([Value.integer(1234)], "t2") == GOLDEN_RID_T2
    assert GOLDEN_RID_T1 != GOLDEN_RID_T2


def test_row_id_deterministic():
    a = row_id([Value.integer(1234)], "t1")
    b = row_id([Value.integer(1234)], "t1")
    assert a == b == GOLDEN_RID_T1


def test_row_id_composite_key_with_decimal_normalization():
    rid = row_id([Value.integer(-7), Value.decimal(Decimal("022.500"))], "items")
    assert rid == GOLDEN_RID_COMPOSITE


def test_row_id_table_name_case_folded():
    assert row_id([Value.integer(1234)], "T1") == GOLDEN_RID_T1


def test_row_id_null_pk_rejected():
    with pytest.raises(NullPrimaryKey):
        row_id([NULL], "t1")
    with pytest.raises(NullPrimaryKey):
        row_id([], "t1")


def test_fingerprint_golden_region_row():
    rid = row_id([Value.integer(0)], "region")
    assert rid == GOLDEN_RID_REGION0
    row = (Value.integer(0), Value.text("AFRICA"), Value.text("lar deposits. blithely"))
    assert fingerprint(rid, row) == GOLDEN_FP_REGION0


def test_fingerprint_null_columns_skipped():
    rid = row_id([Value.integer(7)], "tn")
    assert rid == GOLDEN_RID_TN7
    row = (Value.integer(7), NULL, Value.text("x"))
    assert fingerprint(rid, row) == GOLDEN_FP_TN7


def test_fingerprint_all_null_except_pk():
    rid = row_id([Value.integer(7)], "tn")
    only_pk = fingerprint(rid, (Value.integer(7), NULL, NULL))
    # identical to hashing rid + pk bytes alone
    want = hashlib.sha256(rid.encode() + b"\x1f" + b"7").hexdigest()
    assert only_pk == want


def test_changing_any_column_changes_fingerprint():
    rid = row_id([Value.integer(1)], "t")
    fp = fingerprint(rid, (Value.integer(1), Value.text("a"), Value.integer(5)))
    assert fingerprint(rid, (Value.integer(1), Value.text("b"), Value.integer(5))) != fp
    assert fingerprint(rid, (Value.integer(1), Value.text("a"), Value.integer(6))) != fp


def _random_schema_and_tuple(rng):
    n_cols = rng.randint(2, 8)
    kinds = ["integer"] + [rng.choice(["integer", "decimal", "text", "date"])
                           for _ in range(n_cols - 1)]
    values = [Value.integer(rng.randint(-10**6, 10**6))]
    for k in kinds[1:]:
        if rng.random() < 0.2:
            values.append(NULL)
        elif k == "integer":
            values.append(Value.integer(rng.randint(-10**9, 10**9)))
        elif k == "decimal":
            values.append(Value.decimal(Decimal(rng.randint(-10**6, 10**6)) / 100))
        elif k == "date":
            values.append(Value.date(f"19{rng.randint(90, 99)}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}"))
        else:
            values.append(Value.text("".join(rng.choice("abcxyz ") for _ in range(rng.randint(0, 12)))))
    return kinds, values


def _different_value(rng, kind, old):
    while True:
        if kind == "integer":
            v = Value.integer(rng.randint(-10**9, 10**9))
        elif kind == "decimal":
            v = Value.decimal(Decimal(rng.randint(-10**6, 10**6)) / 100)
        elif kind == "date":
            v = Value.date(f"19{rng.randint(90, 99)}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}")
        else:
            v = Value.text("".join(rng.choice("abcxyz ") for _ in range(rng.randint(0, 12))))
        if v != old:
            return v


def test_determinism_and_single_column_sensitivity_1000_cases():
    rng = random.Random(0xF1D0)
    changed = 0
    for _ in range(1000):
        kinds, values = _random_schema_and_tuple(rng)
        row = tuple(values)
        rid = row_id([values[0]], "rt")
        fp1 = fingerprint(rid, row)
        fp2 = fingerprint(rid, row)
        assert fp1 == fp2

        idx = rng.randrange(len(values))
        old = values[idx]
        if idx == 0:
            new = _different_value(rng, "integer", old)
        elif old.is_null:
            new = _different_value(rng, kinds[idx], None)   # NULL -> value
        elif rng.random() < 0.5:
            new = NULL                                       # value -> NULL
        else:
            new = _different_value(rng, kinds[idx], old)
        mutated = list(values)
        mutated[idx] = new
        rid2 = row_id([mutated[0]], "rt")
        fp_mut = fingerprint(rid2, tuple(mutated))
        if fp_mut != fp1:
            changed += 1
    assert changed == 1000


def test_fingerprint_tuple_convenience():
    td = parse_table_def("create table region (r_regionkey integer, r_name text, "
                         "r_comment text, primary key (r_regionkey))")
    row = (Value.integer(0), Value.text("AFRICA"), Value.text("lar deposits. blithely"))
    rid, fp = fingerprint_tuple(td, row)
    assert rid == GOLDEN_RID_REGION0
    assert fp == GOLDEN_FP_REGION0


def test_bootstrapped_ledger_digests_are_unchanged(tmp_path):
    """Every row id and fingerprint a bootstrap records, NULLs, DECIMALs and
    DATEs included, read back through the ledger: a change to how a row
    becomes its id or fingerprint shows here whatever the API looks like."""
    generate_fixture(str(tmp_path), counts=TINY_COUNTS, seed=42)
    db = Database()
    db.load_ddl((tmp_path / "schema.sql").read_text())
    for table in db.catalog.names():
        db.register_csv(table, str(tmp_path / f"{table}.csv"))
    ledger, _ = make_verified(db, peers=1)
    kinds = {v.kind for t in db.catalog.names()
             for row in db.exec_select(parse(f"select * from {t}")) for v in row}
    assert {ValueType.NULL, ValueType.DECIMAL, ValueType.DATE} <= kinds
    pairs = sorted((rec.row_id, rec.fingerprint) for rec in ledger.scan_active())
    assert len(pairs) == sum(TINY_COUNTS.values())
    digest = hashlib.sha256("".join(r + f for r, f in pairs).encode("ascii")).hexdigest()
    assert digest == GOLDEN_TINY_LEDGER


# --- byte-layout parity ------------------------------------------------------
# The reference rule, frozen here as it stood before rows were rendered in one
# pass: each value's canonical text (``render_value``, with its DECIMAL rule
# copied so a change to ``decimal_str`` shows too) in UTF-8, joined with 0x1F.
# NULL columns contribute nothing; a NULL key component is refused.

def _reference_text(v):
    if v.kind is ValueType.DECIMAL:
        return "0" if v.raw == 0 else format(v.raw.normalize(), "f")
    return render_value(v)


def _reference_row_id(pk_values, table):
    if not pk_values or any(v.is_null for v in pk_values):
        raise NullPrimaryKey("reference")
    parts = [_reference_text(v).encode("utf-8") for v in pk_values]
    parts.append(table.lower().encode("utf-8"))
    return hashlib.sha256(b"\x1f".join(parts)).hexdigest()


def _reference_fingerprint(rid, row):
    parts = [rid.encode("ascii")]
    parts.extend(_reference_text(v).encode("utf-8") for v in row if not v.is_null)
    return hashlib.sha256(b"\x1f".join(parts)).hexdigest()


_INT64 = st.one_of(st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]),
                   st.integers(INT64_MIN, INT64_MAX))
# sign, coefficient digits (leading and trailing zeros allowed) and exponent:
# covers negative zero, 0E-5, 1.500E+3 and 901.00
_DECIMAL = st.builds(lambda sign, digits, exp: Decimal((sign, tuple(digits), exp)),
                     st.integers(0, 1), st.lists(st.integers(0, 9), min_size=1, max_size=20),
                     st.integers(-30, 30))
_TEXT = st.text(st.characters(blacklist_characters="\x1f", blacklist_categories=("Cs",)),
                max_size=20)
_NON_NULL = st.one_of(
    _INT64.map(Value.integer),
    _DECIMAL.map(Value.decimal),
    _TEXT.map(Value.text),
    st.dates().map(lambda d: Value.date(d.isoformat())),
)
_ANY = st.one_of(st.just(NULL), _NON_NULL)


@settings(max_examples=400, deadline=None)
@given(pk=st.lists(_NON_NULL, min_size=1, max_size=4), table=_TEXT,
       row=st.lists(_ANY, max_size=12))
def test_row_id_and_fingerprint_match_the_reference_layout(pk, table, row):
    rid = row_id(pk, table)
    assert rid == _reference_row_id(pk, table)
    assert fingerprint(rid, tuple(row)) == _reference_fingerprint(rid, tuple(row))


@settings(max_examples=100, deadline=None)
@given(pk=st.lists(_ANY, min_size=1, max_size=4).filter(lambda p: NULL in p))
def test_any_null_key_component_is_refused(pk):
    with pytest.raises(NullPrimaryKey):
        row_id(pk, "t")
