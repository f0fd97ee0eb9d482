"""Simulated permissioned blockchain holding tuple fingerprints.

Blocks are hash-chained (SHA-256 over a canonical byte encoding) and carry
endorsed transactions. All peers live in-process and share one world state,
so a batch is checked once against it; then every peer endorses each draft
by signing its canonical bytes with its Ed25519 key. A batch commits as one
block only if every draft is valid and gathers a majority quorum of valid
endorsements; a single rejection aborts the whole batch.

The world state (each row's fingerprint record, each table's row count) is
derived, never stored: ``load`` replays every block through the one rule
``submit`` checks (``_transition``). A block that does not decode, or that
the rule refuses, is left unapplied and reported by ``verify_chain``.
Replay checks hashes and state, not signatures. Of each block the ledger
keeps only what ``verify_chain`` reads: its bytes, its hash, and the height
and previous hash it decoded to. Its decoded transactions are dropped once
the world state has taken them in.

One ``submit`` at a time (externally serialized); reads may interleave
between submissions.

The canonical encoding is deliberately primitive: fields in fixed
declaration order, each as a presence byte plus length-prefixed bytes.
The persisted ledger file stores, per block, exactly the bytes that were
hashed (plus the 32-byte block hash), so any on-disk tampering is caught
by ``verify_chain`` after reload.
"""

from __future__ import annotations

import gc
import hashlib
import json
import struct
import time
from enum import Enum
from typing import NamedTuple

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import (
    DuplicateRowId,
    EndorsementFailed,
    LedgerCorrupt,
    LedgerError,
    StaleState,
    UnknownRowId,
    UnknownTable,
)

GENESIS_PREV = b"\x00" * 32


def quorum_size(n_peers: int) -> int:
    """Majority quorum: ceil((n+1)/2)."""
    return n_peers // 2 + 1


# --- peers ---------------------------------------------------------------

class Peer:
    def __init__(self, peer_id: str, private_key: Ed25519PrivateKey):
        self.peer_id = peer_id
        self._key = private_key
        self.public_key: Ed25519PublicKey = private_key.public_key()

    def sign(self, data: bytes) -> bytes:
        return self._key.sign(data)

    def verify(self, signature: bytes, data: bytes) -> bool:
        try:
            self.public_key.verify(signature, data)
            return True
        except InvalidSignature:
            return False


def generate_peers(n: int) -> list[Peer]:
    if n < 1:
        raise LedgerError("need at least one peer")
    return [Peer(f"peer-{i}", Ed25519PrivateKey.generate()) for i in range(1, n + 1)]


def save_peers(peers: list[Peer], path: str):
    blob = {
        "peers": [
            {
                "id": p.peer_id,
                "private": p._key.private_bytes_raw().hex(),
            }
            for p in peers
        ]
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(blob, f, indent=2)


def load_peers(path: str) -> list[Peer]:
    """The peers ``save_peers`` wrote to ``path``. A file that is not that
    JSON (a missing key, a key that is not 32 bytes of hex) raises
    LedgerCorrupt naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            blob = json.load(f)
        return [
            Peer(p["id"], Ed25519PrivateKey.from_private_bytes(bytes.fromhex(p["private"])))
            for p in blob["peers"]
        ]
    except (ValueError, KeyError, TypeError) as exc:
        raise LedgerCorrupt(f"{path}: malformed peers file ({type(exc).__name__}: {exc})") from None


# --- transactions and blocks ----------------------------------------------

class TxKind(Enum):
    PUT = "put"
    UPDATE = "update"
    MARK_DELETED = "mark_deleted"
    ADJUST_ROW_COUNT = "adjust_row_count"


class TxDraft(NamedTuple):
    kind: TxKind
    table: str
    owner: str
    row_id: str | None = None
    fingerprint: str | None = None
    prev_fingerprint: str | None = None
    delta: int | None = None


class LedgerTx(NamedTuple):
    draft: TxDraft
    submitter_sig: bytes
    endorsements: tuple  # ((peer_id, sig), ...)


class Block(NamedTuple):
    height: int
    prev_hash: bytes
    timestamp: int
    txs: tuple  # (LedgerTx, ...)


class HistoryEntry(NamedTuple):
    fingerprint: str
    owner: str
    height: int


class FingerprintRecord(NamedTuple):
    """A row's ledger state as of one block. Immutable, history included:
    the ledger stores a new record for every change, so a lookup hands out
    the stored record itself, without copying anything."""
    row_id: str
    table: str
    status: str            # "active" | "deleted"
    fingerprint: str
    owner: str
    version: int
    history: tuple         # (HistoryEntry, ...), oldest first


class ChainReport(NamedTuple):
    ok: bool
    first_bad_height: int | None
    head_height: int


# --- canonical encoding ------------------------------------------------------

def _enc(b: bytes | None) -> bytes:
    if b is None:
        return b"\x00"
    return b"\x01" + len(b).to_bytes(4, "big") + b


def _enc_s(s: str | None) -> bytes:
    return _enc(None if s is None else s.encode("utf-8"))


def _enc_i(i: int | None) -> bytes:
    return _enc(None if i is None else str(i).encode("ascii"))


_LENGTH = struct.Struct(">I").unpack_from  # a field's 4-byte big-endian length


def _fields(data: bytes) -> list:
    """The fields of one encoding, in order: their bytes, or None for an
    absent field. Raises LedgerCorrupt on a bad presence tag, a truncated
    length, or a field that overruns the buffer."""
    out = []
    append = out.append
    pos, end = 0, len(data)
    while pos < end:
        tag = data[pos]
        if tag == 1:
            start = pos + 5
            if start > end:
                raise LedgerCorrupt("truncated length")
            pos = start + _LENGTH(data, pos + 1)[0]
            if pos > end:
                raise LedgerCorrupt("field overruns buffer")
            append(data[start:pos])
        elif tag == 0:
            append(None)
            pos += 1
        else:
            raise LedgerCorrupt(f"bad presence tag {tag}")
    return out


def _texts(fields: list) -> list:
    """The utf-8 text of each field, None for an absent one."""
    try:
        return [None if b is None else b.decode("utf-8") for b in fields]
    except UnicodeDecodeError:
        raise LedgerCorrupt("bad utf-8 field") from None


def _int(b: bytes | None) -> int | None:
    if b is None:
        return None
    try:
        return int(b.decode("ascii"))
    except ValueError:
        raise LedgerCorrupt("bad integer field") from None


def draft_bytes(d: TxDraft) -> bytes:
    return b"".join(
        (
            _enc_s(d.kind.value),
            _enc_s(d.row_id),
            _enc_s(d.table),
            _enc_s(d.fingerprint),
            _enc_s(d.prev_fingerprint),
            _enc_i(d.delta),
            _enc_s(d.owner),
        )
    )


def tx_bytes(tx: LedgerTx) -> bytes:
    parts = [draft_bytes(tx.draft), _enc(tx.submitter_sig), _enc_i(len(tx.endorsements))]
    for peer_id, sig in tx.endorsements:
        parts.append(_enc_s(peer_id))
        parts.append(_enc(sig))
    return b"".join(parts)


_KINDS = {k.value: k for k in TxKind}


def _read_tx(raw: bytes) -> LedgerTx:
    f = _fields(raw)
    if len(f) < 9:
        raise LedgerCorrupt("truncated encoding")
    kind, row_id, table, fingerprint, prev, owner = _texts(f[:5] + f[6:7])
    if kind not in _KINDS:
        raise LedgerCorrupt("unknown tx kind")
    n = _int(f[8])
    if n is None or n < 0:
        raise LedgerCorrupt("bad endorsement count")
    _check_length(f, 9 + 2 * n, "tx")
    draft = TxDraft(_KINDS[kind], table, owner, row_id, fingerprint, prev, _int(f[5]))
    return LedgerTx(draft, f[7], tuple(zip(_texts(f[9::2]), f[10::2])))


def _check_length(fields: list, expected: int, what: str):
    if len(fields) < expected:
        raise LedgerCorrupt("truncated encoding")
    if len(fields) > expected:
        raise LedgerCorrupt(f"trailing bytes in {what}")


def block_bytes(b: Block) -> bytes:
    parts = [_enc_i(b.height), _enc(b.prev_hash), _enc_i(b.timestamp), _enc_i(len(b.txs))]
    for tx in b.txs:
        parts.append(_enc(tx_bytes(tx)))
    return b"".join(parts)


def decode_block(raw: bytes) -> Block:
    f = _fields(raw)
    if len(f) < 4:
        raise LedgerCorrupt("truncated encoding")
    height, prev, ts, n = _int(f[0]), f[1], _int(f[2]), _int(f[3])
    if height is None or prev is None or ts is None or n is None or n < 0:
        raise LedgerCorrupt("missing block field")
    _check_length(f, 4 + n, "block")
    if None in f[4:]:
        raise LedgerCorrupt("missing tx")
    return Block(height, prev, ts, tuple([_read_tx(txraw) for txraw in f[4:]]))


def block_hash(raw: bytes) -> bytes:
    return hashlib.sha256(raw).digest()


def _write_frame(f, raw: bytes, h: bytes):
    """Write one block to a ledger file as ``load`` reads it: its 4-byte
    big-endian length, its bytes, then its 32-byte hash."""
    f.write(len(raw).to_bytes(4, "big"))
    f.write(raw)  # on its own: a block can be megabytes, so no copy is made
    f.write(h)


# --- the ledger ---------------------------------------------------------------

class _Entry(NamedTuple):
    """What ``verify_chain`` reads of a block; no decoded transactions."""
    raw: bytes
    hash: bytes
    height: int | None  # None (prev_hash too): it did not decode or broke the rule
    prev_hash: bytes | None


class SimulatedLedger:
    """The reference ledger: peers, blocks and world state in this process.

    A replacement needs no base class, only the same six methods:
    ``submit``, ``get_current``, ``get_row_count``, ``verify_chain``,
    ``history`` and ``scan_active`` (the full-scan audit enumerates live row
    ids with it). Of their results the verifier reads ``submit(...).height``
    and the ``row_id``, ``status`` and ``fingerprint`` of the records
    ``get_current`` and ``scan_active`` return; ``bench.run_bench`` also
    calls ``clone_in_memory()`` for an unpersisted copy in the same state."""

    def __init__(self, peers: list[Peer], path: str | None = None, clock=None,
                 _defer_genesis: bool = False):
        if not peers:
            raise LedgerError("a ledger needs at least one peer")
        self.peers = peers
        self.by_peer_id = {p.peer_id: p for p in peers}
        if len(self.by_peer_id) != len(peers):
            raise LedgerError("duplicate peer ids")
        self.path = path
        self.clock = clock or (lambda: int(time.time()))
        self.quorum = quorum_size(len(peers))
        self._entries: list[_Entry] = []
        self._tail_error_at: int | None = None
        self._records: dict[str, FingerprintRecord] = {}
        self._counts: dict[str, int] = {}
        if not _defer_genesis:
            genesis = Block(0, GENESIS_PREV, self.clock(), ())
            self._append_block(genesis)

    # construction helpers

    @classmethod
    def load(cls, path: str, peers: list[Peer], clock=None) -> "SimulatedLedger":
        led = cls(peers, path=None, clock=clock, _defer_genesis=True)
        led.path = path
        with open(path, "rb") as f:
            data = f.read()
        i = 0
        idx = 0
        # the replay makes no reference cycles, so the cyclic collector
        # would only rescan the records it builds
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while i < len(data):
                if i + 4 > len(data):
                    led._tail_error_at = idx
                    break
                n = int.from_bytes(data[i:i + 4], "big")
                if n <= 0 or i + 4 + n + 32 > len(data):
                    led._tail_error_at = idx
                    break
                raw = data[i + 4:i + 4 + n]
                stored = data[i + 4 + n:i + 4 + n + 32]
                # a block that does not decode, or that the world-state rule
                # refuses, is left unapplied; verify_chain reports it
                try:
                    blk = decode_block(raw)
                    records, counts = led._transition([tx.draft for tx in blk.txs], blk.height)
                except LedgerError:
                    entry = _Entry(raw, stored, None, None)
                else:
                    led._records.update(records)
                    led._counts.update(counts)
                    entry = _Entry(raw, stored, blk.height, blk.prev_hash)
                led._entries.append(entry)
                i += 4 + n + 32
                idx += 1
        finally:
            if gc_was_enabled:
                gc.enable()
        if not led._entries and led._tail_error_at is None:
            raise LedgerCorrupt(f"{path}: empty ledger file")
        return led

    def clone_in_memory(self) -> "SimulatedLedger":
        """A fresh, unpersisted ledger in the same state (used by the
        benchmark). Entries and records are immutable, so they are shared."""
        led = SimulatedLedger(self.peers, path=None, clock=self.clock, _defer_genesis=True)
        led._entries = list(self._entries)
        led._records = dict(self._records)
        led._counts = dict(self._counts)
        led._tail_error_at = self._tail_error_at
        return led

    def persist_to(self, path: str):
        """Write the whole chain to ``path`` and append there from now on.
        Lets callers build a ledger in memory and persist only on success."""
        with open(path, "wb") as f:
            for e in self._entries:
                _write_frame(f, e.raw, e.hash)
        self.path = path

    # world state

    def get_current(self, row_id: str) -> FingerprintRecord | None:
        return self._records.get(row_id)

    def get_row_count(self, table: str) -> int:
        try:
            return self._counts[table]
        except KeyError:
            raise UnknownTable(f"no row count recorded for table {table!r}") from None

    def history(self, row_id: str) -> list[HistoryEntry]:
        rec = self._records.get(row_id)
        if rec is None:
            raise UnknownRowId(f"no ledger record for {row_id}")
        return list(rec.history)

    def scan_active(self, table: str | None = None) -> list[FingerprintRecord]:
        out = [
            rec
            for rec in self._records.values()
            if rec.status == "active" and (table is None or rec.table == table)
        ]
        out.sort(key=lambda r: (r.table, r.row_id))
        return out

    @property
    def head_height(self) -> int:
        return len(self._entries) - 1

    # submission

    def submit(self, drafts: list[TxDraft], submitter: str) -> Block:
        if not drafts:
            raise LedgerError("empty transaction batch")
        peer = self.by_peer_id.get(submitter)
        if peer is None:
            raise LedgerError(f"unknown submitter {submitter!r}")

        # the peers share one world state, so the batch is validated once;
        # then every peer endorses each draft
        height = len(self._entries)
        records, counts = self._transition(drafts, height)
        txs = []
        for i, d in enumerate(drafts):
            payload = draft_bytes(d)
            signed = [(p, p.sign(payload)) for p in self.peers]
            sigs = tuple((p.peer_id, sig) for p, sig in signed if p.verify(sig, payload))
            if len(sigs) < self.quorum:
                raise EndorsementFailed(i, f"quorum not reached ({len(sigs)}/{self.quorum})")
            txs.append(LedgerTx(d, peer.sign(payload), sigs))

        prev_hash = self._entries[-1].hash if self._entries else GENESIS_PREV
        block = Block(height, prev_hash, self.clock(), tuple(txs))
        self._append_block(block)
        self._records.update(records)
        self._counts.update(counts)
        return block

    def _transition(self, drafts: list[TxDraft], height: int) -> tuple[dict, dict]:
        """The world-state rule, shared by ``submit`` and ``load``: check each
        draft against the state left by the drafts before it, and return the
        records and row counts the batch changes (installing nothing). Raises
        on the first draft that state does not allow."""
        records: dict[str, FingerprintRecord] = {}
        counts: dict[str, int] = {}
        for i, d in enumerate(drafts):
            if d.table is None or d.owner is None:
                raise EndorsementFailed(i, f"{d.kind.value} needs a table and an owner")
            if d.kind is TxKind.ADJUST_ROW_COUNT:
                if d.delta is None:
                    raise EndorsementFailed(i, "adjust_row_count needs a delta")
                new = counts.get(d.table, self._counts.get(d.table, 0)) + d.delta
                if new < 0:
                    raise EndorsementFailed(i, f"row count of {d.table} would become {new}")
                counts[d.table] = new
                continue
            if d.row_id is None:
                raise EndorsementFailed(i, f"{d.kind.value} needs a row_id")
            rec = records.get(d.row_id) or self._records.get(d.row_id)
            if d.kind is TxKind.PUT:
                if d.fingerprint is None:
                    raise EndorsementFailed(i, "put needs a fingerprint")
                if rec is not None and rec.status == "active":
                    raise DuplicateRowId(f"active fingerprint already exists for {d.row_id}")
                status, fp = "active", d.fingerprint
            else:  # UPDATE or MARK_DELETED
                if rec is None:
                    raise EndorsementFailed(i, f"no ledger record for {d.row_id}")
                if rec.status != "active":
                    raise EndorsementFailed(i, f"record {d.row_id} is marked deleted")
                if d.prev_fingerprint != rec.fingerprint:
                    raise StaleState(d.row_id, rec.fingerprint, d.prev_fingerprint)
                if d.kind is TxKind.MARK_DELETED:
                    status, fp = "deleted", rec.fingerprint
                elif d.fingerprint is None:
                    raise EndorsementFailed(i, "update needs a fingerprint")
                else:
                    status, fp = "active", d.fingerprint
            entry = HistoryEntry(fp, d.owner, height)
            history = rec.history + (entry,) if rec else (entry,)
            # one history entry per change, so its length is the version
            records[d.row_id] = FingerprintRecord(
                d.row_id, rec.table if rec else d.table, status, fp, d.owner,
                len(history), history)
        return records, counts

    def _append_block(self, block: Block):
        raw = block_bytes(block)
        h = block_hash(raw)
        self._entries.append(_Entry(raw, h, block.height, block.prev_hash))
        if self.path:
            with open(self.path, "ab") as f:
                _write_frame(f, raw, h)

    # chain verification

    def verify_chain(self) -> ChainReport:
        first_bad = self._tail_error_at
        prev_hash = GENESIS_PREV
        for i, e in enumerate(self._entries):
            if (e.height is None or block_hash(e.raw) != e.hash
                    or e.height != i or e.prev_hash != prev_hash):
                first_bad = i
                break
            prev_hash = e.hash
        return ChainReport(ok=first_bad is None, first_bad_height=first_bad,
                           head_height=self.head_height)

    # world-state snapshot (for replay-equality checks)

    def world_state(self) -> tuple[dict, dict]:
        return dict(self._records), dict(self._counts)
