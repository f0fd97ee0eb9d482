"""The commit path's ledger output, pinned byte for byte.

With fixed peer keys and a fixed clock the ledger file is deterministic:
Ed25519 signatures are, and so is every draft a verified mutation hands to
``submit``. The pins below were taken from the commit path that built each
mutation's drafts at its own call site, and endorsed a batch peer by peer
before walking the drafts again; a rewrite of either must leave every byte
where it was."""

import hashlib
import io

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from verity.ledger import Peer, SimulatedLedger, decode_block
from verity.sqlast import QueryKind
from verity.storage import Database
from verity.verifier import Verifier

DDL = """
create table acct (id integer, owner text, bal decimal, primary key (id));
create table src (id integer, owner text, bal decimal, primary key (id));
"""
ACCT_CSV = "id,owner,bal\n1,ann,10.5\n2,bob,\n3,cy,7\n"
SRC_CSV = "id,owner,bal\n10,dee,1\n"
CLOCK = 1_700_000_000

STATEMENTS = (
    # two rows; an INTEGER coerced into a DECIMAL column, a TEXT set to NULL
    "update acct set bal = 3, owner = null where id >= 2",
    "insert into acct (id, owner, bal) values (4, 'dan', 1), (5, null, 2.25)",
    "delete from acct where id = 1",
    # selects nothing, so it commits nothing
    "insert into acct (id, owner, bal) select id, owner, bal from src where id > 100",
)

# SHA-256 of the whole ledger file: genesis, two bootstrap blocks, then one
# block per statement above that changed a row
GOLDEN_LEDGER_SHA256 = "d1627251c394ad47afc5b7207828108177b7931a1c352540b028fb9d9a01f8b5"

# (kind, row id, fingerprint, previous fingerprint, delta) of each draft of
# each mutation block, by height
GOLDEN_DRAFTS = {
    3: [
        ("update", "1fe647108728c6d1cd10698e747e943cc50b1d98cb359a35f614347431315b9c",
         "8079c5ef254dac1f84895528b10b684dd5093112ccca8f134e8d947a5a50b9ac",
         "f402c57518a224a19b8235e0f3c025d1c6c404cb4c84a6da263319f4df067051", None),
        ("update", "f76991cd1eabea43b2c4bcdebcd2cb1961e7c2456949e9a4542bd1176d424dea",
         "1791ef4d0cb0960a45794c8424af02eaa76e6faee34d83fd58fb6616b26faeae",
         "ee1353fe91dbcdbb61ecc5e750ec8d939b340d860e4acedd43928c1347ce966d", None),
    ],
    4: [
        ("put", "e957fe4c8534afbaaafb03f5940160761b7f64d9087767dc3e8b9badfe1eeece",
         "eab444419e54dab6bb85a5c7d8f69e782ad82a78c519607f5498c69272542703", None, None),
        ("put", "a35eab6db85cb65930cd0c594087e21428bd6f4f8e4c689b69fe3c693d2beefe",
         "e598a9c10d080ee747255396c1472e32777bd92a6fa97038d4e051483db81448", None, None),
        ("adjust_row_count", None, None, None, 2),
    ],
    5: [
        ("mark_deleted", "40eea50b07f76ad4aa19b15a069cd2cdef3ddd3b52393f1726c662e274e5df29",
         None, "fac2c80a904e33b09b2b24f8f82681663dbafbf49d0478466784d46b9541efcf", None),
        ("adjust_row_count", None, None, None, -1),
    ],
}


def fixed_peers():
    return [Peer(f"peer-{i}", Ed25519PrivateKey.from_private_bytes(bytes([i]) * 32))
            for i in range(1, 6)]


def blocks_of(data: bytes):
    """The decoded blocks of a ledger file's bytes, in order."""
    out, i = [], 0
    while i < len(data):
        n = int.from_bytes(data[i:i + 4], "big")
        out.append(decode_block(data[i + 4:i + 4 + n]))
        i += 4 + n + 32
    return out


@pytest.fixture(scope="module")
def committed(tmp_path_factory):
    """(ledger file bytes, mutation summaries, database) after bootstrapping
    both tables and running every statement."""
    path = str(tmp_path_factory.mktemp("commit") / "ledger.dat")
    db = Database()
    db.load_ddl(DDL)
    db.load_csv("acct", io.StringIO(ACCT_CSV))
    db.load_csv("src", io.StringIO(SRC_CSV))
    ledger = SimulatedLedger(fixed_peers(), path=path, clock=lambda: CLOCK)
    verifier = Verifier(db, ledger, "peer-1", clock=lambda: CLOCK)
    verifier.bootstrap()
    summaries = [verifier.process(sql)[0] for sql in STATEMENTS]
    with open(path, "rb") as f:
        return f.read(), summaries, db


def test_the_ledger_file_is_byte_identical_to_the_pinned_one(committed):
    data, _, _ = committed
    assert hashlib.sha256(data).hexdigest() == GOLDEN_LEDGER_SHA256


def test_each_mutation_block_holds_the_pinned_drafts(committed):
    data, _, _ = committed
    blocks = blocks_of(data)
    assert [b.height for b in blocks] == list(range(6))
    for b in blocks[3:]:
        drafts = [tx.draft for tx in b.txs]
        assert [(d.kind.value, d.row_id, d.fingerprint, d.prev_fingerprint, d.delta)
                for d in drafts] == GOLDEN_DRAFTS[b.height]
        assert {(d.table, d.owner) for d in drafts} == {("acct", "peer-1")}
        for tx in b.txs:
            assert [pid for pid, _ in tx.endorsements] == [f"peer-{i}" for i in range(1, 6)]


def test_each_summary_names_its_rows_and_block(committed):
    _, summaries, db = committed
    assert [(s.kind, s.rows_affected, s.ledger_txs, s.block_height) for s in summaries] == [
        (QueryKind.UPDATE, 2, 2, 3),
        (QueryKind.INSERT, 2, 3, 4),
        (QueryKind.DELETE, 1, 2, 5),
        (QueryKind.INSERT, 0, 0, None),
    ]
    out = io.StringIO()
    db.dump_csv("acct", out)
    assert out.getvalue() == "id,owner,bal\n2,,3\n3,,3\n4,dan,1\n5,,2.25\n"
