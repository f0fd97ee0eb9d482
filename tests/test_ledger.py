"""Ledger: endorsement, quorum, world state, chain verification, persistence."""

import re

import pytest

from conftest import append_forged_block
from verity.errors import (
    DuplicateRowId,
    EndorsementFailed,
    LedgerCorrupt,
    LedgerError,
    StaleState,
    UnknownRowId,
    UnknownTable,
)
from verity.ledger import (
    GENESIS_PREV,
    SimulatedLedger,
    TxDraft,
    TxKind,
    block_bytes,
    decode_block,
    generate_peers,
    load_peers,
    quorum_size,
    save_peers,
)

FP1 = "a" * 64
FP2 = "b" * 64
FP3 = "c" * 64
RID = "1" * 64


def fresh(n_peers=5, path=None):
    return SimulatedLedger(generate_peers(n_peers), path=path, clock=lambda: 12345)


def put(led, rid=RID, fp=FP1, table="t", owner="peer-1"):
    return led.submit(
        [TxDraft(TxKind.PUT, table, owner, row_id=rid, fingerprint=fp)], owner
    )


@pytest.mark.parametrize("n,q", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (7, 4)])
def test_quorum_formula(n, q):
    assert quorum_size(n) == q


def test_genesis_block():
    led = fresh()
    assert led.head_height == 0
    rep = led.verify_chain()
    assert rep.ok and rep.head_height == 0


def test_put_then_get_current():
    led = fresh()
    put(led)
    rec = led.get_current(RID)
    assert rec.fingerprint == FP1
    assert rec.status == "active"
    assert rec.version == 1


def test_get_current_returns_a_read_only_snapshot():
    led = fresh()
    put(led)
    rec = led.get_current(RID)
    assert led.get_current(RID) is rec  # shared, not copied
    with pytest.raises(AttributeError):
        rec.status = "deleted"
    with pytest.raises(AttributeError):
        rec.history.append(rec.history[0])
    with pytest.raises(TypeError):
        rec.history[0] = None
    h = led.history(RID)
    h.clear()
    assert led.get_current(RID) == rec and len(led.history(RID)) == 1
    led.submit([TxDraft(TxKind.UPDATE, "t", "peer-2", row_id=RID,
                        fingerprint=FP2, prev_fingerprint=FP1)], "peer-2")
    # the record already returned still shows the state it was taken in
    assert (rec.fingerprint, rec.version, len(rec.history)) == (FP1, 1, 1)
    assert [e.fingerprint for e in rec.history] == [FP1]
    now = led.get_current(RID)
    assert (now.fingerprint, now.owner, now.version) == (FP2, "peer-2", 2)
    assert [e.fingerprint for e in now.history] == [FP1, FP2]
    assert now.history[:1] == rec.history and now.history[-1].owner == "peer-2"


def test_get_current_unknown_returns_none():
    led = fresh()
    assert led.get_current("f" * 64) is None


def test_update_with_wrong_prev_fingerprint_is_stale():
    led = fresh()
    put(led)
    with pytest.raises(StaleState):
        led.submit(
            [TxDraft(TxKind.UPDATE, "t", "peer-1", row_id=RID,
                     fingerprint=FP2, prev_fingerprint=FP3)],
            "peer-1",
        )
    # nothing committed
    assert led.get_current(RID).fingerprint == FP1
    assert led.head_height == 1


def test_put_on_active_row_id_rejected():
    led = fresh()
    put(led)
    with pytest.raises(DuplicateRowId):
        put(led, fp=FP2)


def test_put_after_mark_deleted_reactivates():
    led = fresh()
    put(led)
    led.submit([TxDraft(TxKind.MARK_DELETED, "t", "peer-1", row_id=RID,
                        prev_fingerprint=FP1)], "peer-1")
    assert led.get_current(RID).status == "deleted"
    put(led, fp=FP2)
    rec = led.get_current(RID)
    assert rec.status == "active" and rec.fingerprint == FP2
    assert rec.version == 3


def test_batch_of_three_txs_one_block_with_quorum_endorsements():
    led = fresh(5)
    block = led.submit(
        [
            TxDraft(TxKind.PUT, "t", "peer-1", row_id="1" * 64, fingerprint=FP1),
            TxDraft(TxKind.PUT, "t", "peer-1", row_id="2" * 64, fingerprint=FP2),
            TxDraft(TxKind.ADJUST_ROW_COUNT, "t", "peer-1", delta=2),
        ],
        "peer-1",
    )
    assert block.height == 1
    assert len(block.txs) == 3
    for tx in block.txs:
        assert len(tx.endorsements) >= 3  # ceil((5+1)/2)


def test_atomicity_batch_with_one_bad_tx_commits_nothing():
    led = fresh()
    put(led)
    with pytest.raises(DuplicateRowId):
        led.submit(
            [
                TxDraft(TxKind.PUT, "t", "peer-1", row_id="2" * 64, fingerprint=FP2),
                TxDraft(TxKind.PUT, "t", "peer-1", row_id=RID, fingerprint=FP3),
            ],
            "peer-1",
        )
    assert led.get_current("2" * 64) is None
    assert led.head_height == 1


def test_batch_sees_earlier_drafts_in_same_batch():
    led = fresh()
    led.submit(
        [
            TxDraft(TxKind.PUT, "t", "peer-1", row_id=RID, fingerprint=FP1),
            TxDraft(TxKind.UPDATE, "t", "peer-1", row_id=RID,
                    fingerprint=FP2, prev_fingerprint=FP1),
        ],
        "peer-1",
    )
    assert led.get_current(RID).fingerprint == FP2


def test_row_counts_bootstrap_plus_deltas():
    led = fresh()
    led.submit([TxDraft(TxKind.ADJUST_ROW_COUNT, "region", "peer-1", delta=5)], "peer-1")
    assert led.get_row_count("region") == 5
    led.submit([TxDraft(TxKind.ADJUST_ROW_COUNT, "region", "peer-1", delta=1)], "peer-1")
    assert led.get_row_count("region") == 6
    led.submit([TxDraft(TxKind.ADJUST_ROW_COUNT, "region", "peer-1", delta=-2)], "peer-1")
    assert led.get_row_count("region") == 4


def test_negative_row_count_rejected():
    led = fresh()
    led.submit([TxDraft(TxKind.ADJUST_ROW_COUNT, "t", "peer-1", delta=1)], "peer-1")
    with pytest.raises(EndorsementFailed):
        led.submit([TxDraft(TxKind.ADJUST_ROW_COUNT, "t", "peer-1", delta=-2)], "peer-1")


def test_unknown_table_row_count():
    led = fresh()
    with pytest.raises(UnknownTable):
        led.get_row_count("nope")


def test_history_orders_and_owners():
    led = fresh()
    put(led, owner="peer-1")
    led.submit([TxDraft(TxKind.UPDATE, "t", "peer-2", row_id=RID,
                        fingerprint=FP2, prev_fingerprint=FP1)], "peer-2")
    led.submit([TxDraft(TxKind.UPDATE, "t", "peer-3", row_id=RID,
                        fingerprint=FP3, prev_fingerprint=FP2)], "peer-3")
    h = led.history(RID)
    assert [e.fingerprint for e in h] == [FP1, FP2, FP3]
    assert [e.owner for e in h] == ["peer-1", "peer-2", "peer-3"]
    heights = [e.height for e in h]
    assert heights == sorted(heights) and len(set(heights)) == 3


def test_history_unknown_rid():
    led = fresh()
    with pytest.raises(UnknownRowId):
        led.history("9" * 64)


def test_unknown_submitter_rejected():
    led = fresh()
    with pytest.raises(LedgerError):
        put(led, owner="peer-99")


def test_empty_batch_rejected():
    led = fresh()
    with pytest.raises(LedgerError):
        led.submit([], "peer-1")


def test_scan_active_excludes_deleted():
    led = fresh()
    put(led, rid="1" * 64, fp=FP1)
    put(led, rid="2" * 64, fp=FP2)
    led.submit([TxDraft(TxKind.MARK_DELETED, "t", "peer-1", row_id="1" * 64,
                        prev_fingerprint=FP1)], "peer-1")
    active = led.scan_active("t")
    assert [r.row_id for r in active] == ["2" * 64]


def test_block_encoding_round_trip():
    led = fresh()
    block = put(led)
    raw = block_bytes(block)
    assert decode_block(raw) == block
    assert block.prev_hash != GENESIS_PREV


# --- persistence ------------------------------------------------------------------

def build_persisted(tmp_path, blocks=10):
    path = str(tmp_path / "ledger.dat")
    peers = generate_peers(5)
    led = SimulatedLedger(peers, path=path, clock=lambda: 777)
    for i in range(blocks):
        led.submit(
            [TxDraft(TxKind.PUT, "t", "peer-1", row_id=f"{i:064x}", fingerprint=FP1)],
            "peer-1",
        )
    return path, peers, led


R1, R2 = "1" * 64, "2" * 64


def build_mixed(tmp_path):
    """A persisted ledger whose history uses every kind of transaction."""
    path = str(tmp_path / "ledger.dat")
    peers = generate_peers(5)
    led = SimulatedLedger(peers, path=path, clock=lambda: 777)

    def tx(kind, rid=None, fp=None, prev=None, delta=None, table="t"):
        return TxDraft(kind, table, "peer-1", rid, fp, prev, delta)

    for batch in (
        [tx(TxKind.PUT, R1, FP1), tx(TxKind.PUT, R2, FP2),
         tx(TxKind.ADJUST_ROW_COUNT, delta=2)],
        [tx(TxKind.UPDATE, R1, FP3, prev=FP1)],
        [tx(TxKind.MARK_DELETED, R2, prev=FP2), tx(TxKind.ADJUST_ROW_COUNT, delta=-1)],
        [tx(TxKind.PUT, R2, FP1), tx(TxKind.ADJUST_ROW_COUNT, delta=1)],
        [tx(TxKind.ADJUST_ROW_COUNT, delta=5, table="u")],
        [tx(TxKind.ADJUST_ROW_COUNT, delta=-3, table="u")],
    ):
        led.submit(batch, "peer-1")
    return path, peers, led


def test_reload_reconstructs_identical_world_state(tmp_path):
    path, peers, led = build_mixed(tmp_path)
    led2 = SimulatedLedger.load(path, peers)
    assert led2.head_height == led.head_height == 6
    assert led2.world_state() == led.world_state()
    assert led2.verify_chain().ok
    assert (led2.get_row_count("t"), led2.get_row_count("u")) == (2, 2)
    r1, r2 = led2.get_current(R1), led2.get_current(R2)
    assert (r1.status, r1.fingerprint, r1.version) == ("active", FP3, 2)
    assert (r2.status, r2.fingerprint, r2.version) == ("active", FP1, 3)
    assert [(e.fingerprint, e.height) for e in r2.history] == [(FP2, 1), (FP2, 3), (FP1, 4)]


@pytest.mark.parametrize("draft", [
    # an UPDATE whose prev_fingerprint is not R1's current FP3
    TxDraft(TxKind.UPDATE, "t", "peer-1", R1, FP2, prev_fingerprint=FP1),
    TxDraft(TxKind.ADJUST_ROW_COUNT, "t", "peer-1"),  # no delta
    TxDraft(TxKind.MARK_DELETED, "t", "peer-1", "9" * 64, prev_fingerprint=FP1),
    TxDraft(TxKind.PUT, "t", "peer-1", R1, FP2),  # R1 is active
    TxDraft(TxKind.PUT, None, "peer-1", "9" * 64, FP2),  # no table
], ids=["stale-update", "adjust-without-delta", "delete-unknown-row",
        "put-over-active-row", "put-without-table"])
def test_replay_leaves_a_block_the_state_refuses_unapplied(tmp_path, draft):
    path, peers, led = build_mixed(tmp_path)
    height = append_forged_block(path, peers, [draft])
    led2 = SimulatedLedger.load(path, peers)
    rep = led2.verify_chain()
    assert (rep.ok, rep.first_bad_height, rep.head_height) == (False, height, height)
    assert led2.world_state() == led.world_state()


def test_a_clone_keeps_a_cut_tail_reported(tmp_path):
    path, peers, led = build_persisted(tmp_path, blocks=3)
    data = open(path, "rb").read()
    cut = str(tmp_path / "cut.dat")
    open(cut, "wb").write(data[:-10])  # the last record loses its hash's end
    led2 = SimulatedLedger.load(cut, peers)
    clone = led2.clone_in_memory()
    assert clone.verify_chain() == led2.verify_chain()
    assert not clone.verify_chain().ok and clone.verify_chain().first_bad_height == 3
    assert clone.world_state() == led2.world_state()
    # the clone is unpersisted and independent of the ledger it came from
    put(clone, rid="e" * 64)
    assert led2.get_current("e" * 64) is None and open(cut, "rb").read() == data[:-10]


def test_peer_sidecar_round_trip(tmp_path):
    peers = generate_peers(3)
    save_peers(peers, str(tmp_path / "peers.json"))
    loaded = load_peers(str(tmp_path / "peers.json"))
    assert [p.peer_id for p in loaded] == [p.peer_id for p in peers]
    sig = loaded[0].sign(b"data")
    assert peers[0].verify(sig, b"data")


@pytest.mark.parametrize("data", [
    b"",
    b"{not json",
    b"\xff\xfe",
    b"[]",
    b'{"nodes": []}',
    b'{"peers": [{"id": "peer-1"}]}',
    b'{"peers": [{"id": "peer-1", "private": "not hex"}]}',
    b'{"peers": [{"id": "peer-1", "private": "abcd"}]}',
    b'{"peers": ["peer-1"]}',
])
def test_malformed_peer_sidecar_is_ledger_corrupt(tmp_path, data):
    path = tmp_path / "peers.json"
    path.write_bytes(data)
    with pytest.raises(LedgerCorrupt, match=re.escape(str(path))):
        load_peers(str(path))


def test_flip_byte_in_block_payload_detected_at_that_height(tmp_path):
    path, peers, _ = build_persisted(tmp_path)
    led = SimulatedLedger.load(path, peers)
    # locate block 3's record region in the file
    offsets = []
    data = open(path, "rb").read()
    i = 0
    while i < len(data):
        n = int.from_bytes(data[i:i + 4], "big")
        offsets.append((i, i + 4 + n + 32))
        i += 4 + n + 32
    start, stop = offsets[3]
    # flip a byte in the middle of the record (inside the tx list)
    pos = (start + stop) // 2
    corrupt = bytearray(data)
    corrupt[pos] ^= 0xFF
    bad_path = str(tmp_path / "bad.dat")
    open(bad_path, "wb").write(bytes(corrupt))
    led_bad = SimulatedLedger.load(bad_path, peers)
    rep = led_bad.verify_chain()
    assert not rep.ok
    assert rep.first_bad_height == 3


def test_truncated_tail_verifies_as_shorter_chain(tmp_path):
    path, peers, led = build_persisted(tmp_path)
    data = open(path, "rb").read()
    # drop the last record entirely
    i = 0
    offsets = [0]
    while i < len(data):
        n = int.from_bytes(data[i:i + 4], "big")
        i += 4 + n + 32
        offsets.append(i)
    truncated = data[: offsets[-2]]
    tpath = str(tmp_path / "trunc.dat")
    open(tpath, "wb").write(truncated)
    led2 = SimulatedLedger.load(tpath, peers)
    rep = led2.verify_chain()
    assert rep.ok  # prefix is intact
    assert rep.head_height == led.head_height - 1  # caller compares to recorded head


def test_append_only_immutable_committed_blocks(tmp_path):
    path, peers, led = build_persisted(tmp_path, blocks=4)
    before = open(path, "rb").read()
    led.submit(
        [TxDraft(TxKind.PUT, "t", "peer-1", row_id="ee" * 32, fingerprint=FP2)],
        "peer-1",
    )
    after = open(path, "rb").read()
    assert after[: len(before)] == before
    assert len(after) > len(before)
