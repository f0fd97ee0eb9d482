"""Ledger block decoding against a reference decoder, on real and damaged blocks.

``OracleReader`` and ``oracle_decode_block`` are the field-at-a-time decoder
that ``decode_block`` replaced, kept here verbatim in behaviour as the
reference: every encoding must decode to an equal ``Block`` under both, or
be refused with ``LedgerCorrupt`` by both.
"""

import random

import pytest

from verity.errors import LedgerCorrupt
from verity.ledger import (
    Block,
    LedgerTx,
    SimulatedLedger,
    TxDraft,
    TxKind,
    block_bytes,
    decode_block,
    generate_peers,
)

CASES = 12_000
SEED = 20261018


class OracleReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def field(self) -> bytes | None:
        if self.pos >= len(self.data):
            raise LedgerCorrupt("truncated encoding")
        tag = self.data[self.pos]
        self.pos += 1
        if tag == 0:
            return None
        if tag != 1:
            raise LedgerCorrupt(f"bad presence tag {tag}")
        if self.pos + 4 > len(self.data):
            raise LedgerCorrupt("truncated length")
        n = int.from_bytes(self.data[self.pos:self.pos + 4], "big")
        self.pos += 4
        if self.pos + n > len(self.data):
            raise LedgerCorrupt("field overruns buffer")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def field_s(self) -> str | None:
        b = self.field()
        if b is None:
            return None
        try:
            return b.decode("utf-8")
        except UnicodeDecodeError:
            raise LedgerCorrupt("bad utf-8 field") from None

    def field_i(self) -> int | None:
        b = self.field()
        if b is None:
            return None
        try:
            return int(b.decode("ascii"))
        except ValueError:
            raise LedgerCorrupt("bad integer field") from None

    def done(self) -> bool:
        return self.pos == len(self.data)


def oracle_read_tx(r: OracleReader) -> LedgerTx:
    try:
        kind = TxKind(r.field_s())
    except ValueError:
        raise LedgerCorrupt("unknown tx kind") from None
    row_id = r.field_s()
    table = r.field_s()
    fingerprint = r.field_s()
    prev = r.field_s()
    delta = r.field_i()
    owner = r.field_s()
    draft = TxDraft(kind, table, owner, row_id, fingerprint, prev, delta)
    sig = r.field()
    n = r.field_i()
    if n is None or n < 0:
        raise LedgerCorrupt("bad endorsement count")
    endorsements = []
    for _ in range(n):
        endorsements.append((r.field_s(), r.field()))
    return LedgerTx(draft, sig, tuple(endorsements))


def oracle_decode_block(raw: bytes) -> Block:
    r = OracleReader(raw)
    height = r.field_i()
    prev = r.field()
    ts = r.field_i()
    n = r.field_i()
    if height is None or prev is None or ts is None or n is None or n < 0:
        raise LedgerCorrupt("missing block field")
    txs = []
    for _ in range(n):
        txraw = r.field()
        if txraw is None:
            raise LedgerCorrupt("missing tx")
        tr = OracleReader(txraw)
        txs.append(oracle_read_tx(tr))
        if not tr.done():
            raise LedgerCorrupt("trailing bytes in tx")
    if not r.done():
        raise LedgerCorrupt("trailing bytes in block")
    return Block(height, prev, ts, tuple(txs))


def outcome(decode, raw: bytes):
    """The decoded block, or the class LedgerCorrupt when it is refused.
    Any other exception propagates and fails the test."""
    try:
        return decode(raw)
    except LedgerCorrupt:
        return LedgerCorrupt


@pytest.fixture(scope="module")
def real_blocks() -> list[bytes]:
    """The encodings of a small ledger's blocks: the genesis block, a PUT
    batch with its row count, UPDATEs, a MARK_DELETED with a negative
    count change, and a draft whose optional fields hold non-ASCII text."""
    led = SimulatedLedger(generate_peers(5), clock=lambda: 1_700_000_000)
    rid = [f"{i:064x}" for i in range(4)]
    fp = ["a" * 64, "b" * 64, "c" * 64]
    led.submit([TxDraft(TxKind.PUT, "region", "peer-1", row_id=r, fingerprint=fp[0])
                for r in rid[:3]]
               + [TxDraft(TxKind.ADJUST_ROW_COUNT, "region", "peer-1", delta=3)], "peer-1")
    led.submit([TxDraft(TxKind.UPDATE, "region", "peer-2", row_id=rid[0],
                        fingerprint=fp[1], prev_fingerprint=fp[0])], "peer-2")
    led.submit([TxDraft(TxKind.MARK_DELETED, "region", "peer-1", row_id=rid[1],
                        prev_fingerprint=fp[0]),
                TxDraft(TxKind.ADJUST_ROW_COUNT, "region", "peer-1", delta=-1)], "peer-1")
    led.submit([TxDraft(TxKind.PUT, "régión", "peer-3", row_id=rid[3], fingerprint="ü" * 8)],
               "peer-3")
    return [e.raw for e in led._entries]


def test_real_blocks_decode_alike(real_blocks):
    for raw in real_blocks:
        block = decode_block(raw)
        assert block == oracle_decode_block(raw)
        assert block_bytes(block) == raw


def enc(b: bytes | None) -> bytes:
    return b"\x00" if b is None else b"\x01" + len(b).to_bytes(4, "big") + b


def split(raw: bytes) -> list:
    r = OracleReader(raw)
    out = []
    while not r.done():
        out.append(r.field())
    return out


# replacements for one field: counts off by one, integers that are not,
# absent fields, bad utf-8, unknown and misspelt tx kinds
ODD_FIELDS = [b"0", b"1", b"4", b"6", b"-1", b" 5", b"5_0", b"x", b"", None,
              b"\xff\xfe", b"put", b"PUT", b"update", b"mark_deleted", b"nope"]


def reframed(rng: random.Random, raw: bytes) -> bytes:
    """``raw`` with one field of the block, or of one of its txs, replaced,
    added or dropped, and re-encoded so that the framing around it stays
    valid: damage that only the inner checks can catch."""
    fields = split(raw)
    target = fields
    if len(fields) > 4 and rng.random() < 0.8:
        i = rng.randrange(4, len(fields))
        target = split(fields[i])
    action = rng.randrange(3)
    if action == 0 and target:
        target[rng.randrange(len(target))] = rng.choice(ODD_FIELDS)
    elif action == 1:
        target.insert(rng.randrange(len(target) + 1), rng.choice(ODD_FIELDS))
    elif target:
        j = rng.randrange(len(target))
        del target[j:j + rng.randint(1, 2)]
    if target is not fields:
        fields[i] = b"".join(enc(f) for f in target)
    return b"".join(enc(f) for f in fields)


def damaged(rng: random.Random, blocks: list[bytes]) -> bytes:
    raw = bytearray(rng.choice(blocks))
    kind = rng.randrange(8)
    if kind >= 6:
        return reframed(rng, bytes(raw))
    if kind == 0:  # flip one byte anywhere
        raw[rng.randrange(len(raw))] = rng.randrange(256)
    elif kind == 1:  # set a byte to a presence tag or a small length byte
        raw[rng.randrange(len(raw))] = rng.choice((0, 1, 2, 4, 5, 0x30, 0x39, 0xFF))
    elif kind == 2:  # truncate
        del raw[rng.randrange(len(raw)):]
    elif kind == 3:  # splice: a prefix of one block, a suffix of another
        other = rng.choice(blocks)
        raw = raw[:rng.randrange(len(raw) + 1)] + other[rng.randrange(len(other) + 1):]
    elif kind == 4:  # insert or drop a few bytes
        i = rng.randrange(len(raw) + 1)
        if rng.random() < 0.5:
            raw[i:i] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 6)))
        else:
            del raw[i:i + rng.randint(1, 6)]
    else:  # several flips at once
        for _ in range(rng.randint(2, 5)):
            raw[rng.randrange(len(raw))] = rng.randrange(256)
    return bytes(raw)


def test_damaged_blocks_decode_as_the_reference_decodes(real_blocks):
    rng = random.Random(SEED)
    accepted = refused = 0
    for _ in range(CASES):
        raw = damaged(rng, real_blocks)
        expected = outcome(oracle_decode_block, raw)
        assert outcome(decode_block, raw) == expected, raw.hex()
        if expected is LedgerCorrupt:
            refused += 1
        else:
            accepted += 1
    # both sides of the comparison are exercised
    assert accepted > CASES // 10 and refused > CASES // 10


@pytest.mark.parametrize("raw", [
    b"",                                   # nothing at all
    b"\x02",                               # bad presence tag
    b"\x01\x00\x00",                       # truncated length
    b"\x01\x00\x00\x00\x09ab",             # field overruns buffer
    b"\x01\x00\x00\x00\x01x",              # height is not an integer
    b"\x00\x00\x00\x00",                   # every block field absent
])
def test_malformed_encodings_are_refused(raw):
    with pytest.raises(LedgerCorrupt):
        decode_block(raw)
    with pytest.raises(LedgerCorrupt):
        oracle_decode_block(raw)
