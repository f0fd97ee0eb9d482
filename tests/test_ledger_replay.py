"""Ledger replay: ``SimulatedLedger.load`` rebuilds the world state and the
chain report of a ledger that ``submit`` wrote and someone then damaged,
keeps the caller's garbage-collector setting, and decodes each framed block
exactly once. The pinned results were taken from the replay that kept every
decoded block."""

import gc
import hashlib

import pytest

from conftest import append_forged_block, make_verified
from verity import ledger as ledger_mod
from verity.errors import LedgerCorrupt
from verity.fixtures import generate_fixture
from verity.ledger import SimulatedLedger, TxDraft, TxKind, block_hash
from verity.storage import Database

TINY_COUNTS = {"customer": 12, "lineitem": 30, "nation": 25, "orders": 10,
               "part": 6, "partsupp": 12, "region": 5, "supplier": 4}
UNDECODABLE = b"\x07 not a block"  # a bad presence tag
TAIL = (1000).to_bytes(4, "big") + b"cut short"  # a frame longer than the file
# SHA-256 of ``canonical(world_state())`` after the replay below
GOLDEN_WORLD_STATE = "67a8523d2bf960201268d1e8b2a75894e2e6fbd6fd140ded532d5a7e6df631e4"
GOLDEN_COUNTS = {"customer": 12, "lineitem": 27, "nation": 25, "orders": 10,
                 "part": 6, "partsupp": 12, "region": 6, "supplier": 4}


def canonical(state) -> bytes:
    """The world state as plain text: every record, history included, in
    row-id order, then every row count in table order."""
    records, counts = state
    lines = [repr((r.row_id, r.table, r.status, r.fingerprint, r.owner, r.version,
                   [(h.fingerprint, h.owner, h.height) for h in r.history]))
             for _, r in sorted(records.items())]
    lines += [repr(item) for item in sorted(counts.items())]
    return "\n".join(lines).encode("utf-8")


@pytest.fixture(scope="module")
def damaged(tmp_path_factory):
    """(path, peers, frames) of a ledger file: a tiny bootstrap, two UPDATEs
    and a DELETE, then a block that does not decode, a block the world-state
    rule refuses (a stale UPDATE), a valid row-count block, and a cut tail.
    ``frames`` counts the framed blocks, the cut tail not among them."""
    tmp = tmp_path_factory.mktemp("replay")
    generate_fixture(str(tmp / "fx"), counts=TINY_COUNTS, seed=42)
    db = Database()
    db.load_ddl((tmp / "fx" / "schema.sql").read_text())
    for table in db.catalog.names():
        db.register_csv(table, str(tmp / "fx" / f"{table}.csv"))
    led, verifier = make_verified(db, peers=1)
    path = str(tmp / "ledger.dat")
    led.persist_to(path)
    for sql in ("update region set r_comment = 'calm' where r_regionkey = 1",
                "update nation set n_comment = 'dry' where n_regionkey = 2",
                "delete from lineitem where l_orderkey = 1"):
        verifier.process(sql)
    with open(path, "ab") as f:
        f.write(len(UNDECODABLE).to_bytes(4, "big") + UNDECODABLE + block_hash(UNDECODABLE))
    rid = next(r.row_id for r in led.scan_active("region"))
    stale = TxDraft(TxKind.UPDATE, "region", "peer-1", rid, "f" * 64, prev_fingerprint="0" * 64)
    append_forged_block(path, led.peers, [stale])
    grow = TxDraft(TxKind.ADJUST_ROW_COUNT, "region", "peer-1", delta=1)
    frames = append_forged_block(path, led.peers, [grow]) + 1
    with open(path, "ab") as f:
        f.write(TAIL)
    return path, led.peers, frames


def test_replay_of_a_damaged_ledger_gives_the_pinned_state(damaged):
    path, peers, frames = damaged
    led = SimulatedLedger.load(path, peers)
    rep = led.verify_chain()
    first_bad = frames - 3  # the block that does not decode
    assert (rep.ok, rep.first_bad_height, rep.head_height) == (False, first_bad, frames - 1)
    records, counts = led.world_state()
    assert counts == GOLDEN_COUNTS  # the valid block after the bad ones is applied
    assert len(records) == sum(TINY_COUNTS.values())
    assert sum(r.version > 1 for r in records.values()) == 9  # 6 updated, 3 deleted
    assert sum(r.status == "deleted" for r in records.values()) == 3
    assert hashlib.sha256(canonical((records, counts))).hexdigest() == GOLDEN_WORLD_STATE
    clone = led.clone_in_memory()
    assert clone.verify_chain() == rep and clone.world_state() == (records, counts)


def test_replay_keeps_each_block_as_it_was_written(damaged, tmp_path):
    path, peers, _ = damaged
    copy = str(tmp_path / "copy.dat")
    SimulatedLedger.load(path, peers).persist_to(copy)
    with open(path, "rb") as f, open(copy, "rb") as g:
        assert f.read()[:-len(TAIL)] == g.read()  # every block but the cut tail


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("empty", [False, True], ids=["ledger", "empty-file"])
def test_load_leaves_the_callers_gc_setting(damaged, tmp_path, enabled, empty):
    path, peers, _ = damaged
    if empty:
        path = str(tmp_path / "empty.dat")
        open(path, "wb").close()
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if empty:
            with pytest.raises(LedgerCorrupt, match="empty ledger file"):
                SimulatedLedger.load(path, peers)
        else:
            SimulatedLedger.load(path, peers)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_load_decodes_each_framed_block_once_with_gc_paused(damaged, monkeypatch):
    path, peers, frames = damaged
    seen = []
    decode = ledger_mod.decode_block

    def counting(raw):
        seen.append(gc.isenabled())
        return decode(raw)

    monkeypatch.setattr(ledger_mod, "decode_block", counting)
    SimulatedLedger.load(path, peers)
    assert len(seen) == frames
    assert not any(seen)
