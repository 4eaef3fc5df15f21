"""Bitcoin-facing encodings: burn messages, splits, and inclusion proofs.

A mint burns x coins on the other chain and publishes one signed message
announcing quantum money of total value y < x.  The message's payload is
either a single serial number or, when the mint splits the value across
2^n equal notes, the root of a Merkle tree over their serials.  The split
keeps the on-chain footprint constant: one message regardless of how many
notes exist, each note carrying its own inclusion path.  A tree builds
all 2^n paths in one pass while it holds its levels, so notes under one
node share that node's sibling pair, and every node is hashed from a copy
of one state that has already absorbed the node tag.  The last tree built
leaves its pairs in a table, (left, right) -> node, of at most 2^n - 1
entries, replaced whole at the next build; a path check answers each fold
step found there without hashing, so checking the notes of a split just
made hashes nothing, and a step the table lacks is hashed as before.

Wire format (bit-exact, hex-serialized when stored):

    opcode ASCII || 0x00 || payload || 0x00 || y as 8-byte big-endian || sig

The signature scheme is pluggable (key_gen / sign / verify); the reference
implementation is a Lamport one-time scheme over SHA-256, chosen so the
whole module rests on the same primitive as everything else.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import DomainError, ParseError
from .ledger import ContractParams, Ledger
from .lightning import BundleHandle, QuantumEnv
from .qlds import message_bits, split_serial

OPCODE = b"OP_BITCOIN_TO_QUANTUM_MONEY"
NODE_TAG = b"QLNODE"
_NODE = hashlib.sha256(NODE_TAG)  # copied for each node, never updated
_BUILT: dict[tuple[bytes, bytes], bytes] = {}  # the last tree's pairs -> node


# -- reference one-time signature scheme ---------------------------------------

class LamportScheme:
    """One-time signatures from SHA-256 preimage pairs.

    key_gen draws 256 pairs of 32-byte secrets; the public key is their
    hashes.  Signing reveals one preimage per message-hash bit, so a key
    must never sign two different messages.
    """

    sig_len = 256 * 32

    def key_gen(self, draw) -> tuple[tuple, tuple]:
        sk = tuple((draw(32), draw(32)) for _ in range(256))
        pk = tuple((hashlib.sha256(a).digest(), hashlib.sha256(b).digest())
                   for a, b in sk)
        return sk, pk

    def sign(self, sk: tuple, message: bytes) -> bytes:
        bits = message_bits(message, 256)
        return b"".join(sk[i][bit] for i, bit in enumerate(bits))

    def verify(self, pk: tuple, message: bytes, signature: bytes) -> bool:
        if len(signature) != self.sig_len or len(pk) != 256:
            return False
        bits = message_bits(message, 256)
        for i, bit in enumerate(bits):
            piece = signature[32 * i: 32 * i + 32]
            if hashlib.sha256(piece).digest() != pk[i][bit]:
                return False
        return True


# -- the burn announcement ------------------------------------------------------

@dataclass(frozen=True)
class BridgeMessage:
    payload: bytes  # one serial, or a Merkle root over many
    y: int
    signature: bytes

    def body(self) -> bytes:
        return OPCODE + b"\x00" + self.payload + b"\x00" + self.y.to_bytes(8, "big")

    def encode(self) -> bytes:
        return self.body() + self.signature

    def to_hex(self) -> str:
        return self.encode().hex()


def encode_bridge_message(scheme, sk, payload: bytes, y: int) -> BridgeMessage:
    if y < 0:
        raise DomainError("minted value must be a natural number")
    if not payload:
        raise ParseError("empty payload")
    unsigned = BridgeMessage(payload, y, b"")
    return BridgeMessage(payload, y, scheme.sign(sk, unsigned.body()))


def verify_bridge_message(scheme, vk, msg: BridgeMessage, x: int) -> bool:
    """Accept iff the signature is genuine and y is strictly below the
    burned balance x."""
    if not 0 <= msg.y < x:
        return False
    return scheme.verify(vk, msg.body(), msg.signature)


# -- Merkle tree over serial numbers --------------------------------------------

def merkle_node(left: bytes, right: bytes) -> bytes:
    """SHA-256(NODE_TAG || left || right)."""
    h = _NODE.copy()
    h.update(left)
    h.update(right)
    return h.digest()


@dataclass(frozen=True)
class MerklePath:
    """Inclusion proof: the leaf's index plus one sibling per level.

    side says where the sibling sits: 0 for left of the running hash,
    1 for right.
    """

    index: int
    siblings: tuple[tuple[int, bytes], ...]


class MerkleTree:
    """Fixed tree over exactly 2^n leaves; levels[0] is the leaf row and
    paths[i] is leaf i's inclusion proof.

    All paths are built in one pass over the levels: node j of level k
    has one sibling pair, made once and shared by the 2^k leaves under
    it.  Each level's pairs, repeated over those leaves, form one column,
    and leaf i's siblings are row i of the columns.  Building a tree
    replaces the module's table of built pairs with this tree's.
    """

    def __init__(self, leaves: list[bytes]):
        global _BUILT
        self.levels: list[list[bytes]] = [list(leaves)]
        row, built = self.levels[0], {}
        while len(row) > 1:
            pairs = list(zip(row[::2], row[1::2]))
            row = [merkle_node(left, right) for left, right in pairs]
            built.update(zip(pairs, row))
            self.levels.append(row)
        _BUILT = built
        columns = []
        for k, level in enumerate(self.levels[:-1]):
            span, column = 1 << k, []
            for j in range(len(level)):
                # the sibling sits right of an even node, left of an odd one
                column += [((j & 1) ^ 1, level[j ^ 1])] * span
            columns.append(column)
        rows = zip(*columns) if columns else [()]
        self.paths = [MerklePath(i, siblings) for i, siblings in enumerate(rows)]

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]


def merkle_build(serials: list[bytes], n: int) -> MerkleTree:
    if n < 0 or len(serials) != 1 << n:
        raise DomainError(f"need exactly 2^{n} leaves, got {len(serials)}")
    if any(not s for s in serials):
        raise ParseError("empty leaf")
    return MerkleTree(serials)


def merkle_verify(root: bytes, serial: bytes, path: MerklePath) -> bool:
    """Accept iff folding the serial up the siblings reproduces the root.

    A fold step whose (left, right) pair is in the table of the last
    tree built (at most 2^n - 1 pairs for 2^n leaves) is answered with
    the node hashed then, which is the node hashing would give; any
    other pair is hashed.  The root is compared either way.
    """
    cur = serial
    for side, h in path.siblings:
        pair = (cur, h) if side == 1 else (h, cur)
        cur = _BUILT.get(pair)
        if cur is None:
            cur = merkle_node(*pair)
    return cur == root


# -- denomination splitting -------------------------------------------------------

@dataclass(frozen=True)
class BridgeNote:
    """One of the 2^n equal-value notes minted under a single burn."""

    bolt: tuple[BundleHandle, int]  # the split's bundle and the note's position
    serial: bytes
    value: int
    index: int
    path: MerklePath


def split_denominations(env: QuantumEnv, scheme, sk, total: int, n: int,
                        owner: str) -> tuple[BridgeMessage, list[BridgeNote]]:
    """Mint 2^n notes of value total/2^n under one signed message; their
    bolts are one bundle for ``owner``, each verified on its own."""
    if n < 0 or total < 0 or total % (1 << n) != 0:
        raise DomainError(f"cannot split {total} into 2^{n} integral parts")
    count = 1 << n
    each = total // count
    bundle = env.gen_bundle(owner, count)
    serials = split_serial(bundle.serial)
    tree = merkle_build(serials, n)
    msg = encode_bridge_message(scheme, sk, tree.root, total)
    notes = [BridgeNote((bundle, i), serial, each, i, path)
             for i, (serial, path) in enumerate(zip(serials, tree.paths))]
    return msg, notes


def verify_bridge_note(env: QuantumEnv, msg: BridgeMessage, note: BridgeNote) -> bool:
    """Path check plus bolt check; the note's value must tile msg.y exactly."""
    if note.value << len(note.path.siblings) != msg.y:
        return False
    if not merkle_verify(msg.payload, note.serial, note.path):
        return False
    return env.verify_bolt(*note.bolt, note.serial)


# -- publishing on the coin ledger -------------------------------------------------

@dataclass(frozen=True)
class BridgeRecord:
    """Inert contract circuit that just carries the encoded message."""

    encoded_hex: str
    variant: str = "bridge-record"  # no registered transition: pure data


def publish_bridge_message(ledger: Ledger, pid: str, msg: BridgeMessage) -> int | None:
    """Put the burn announcement on the ledger: exactly one write, whose
    size does not depend on how many notes the burn backs."""
    params = ContractParams((pid,), ((pid, 0),), BridgeRecord(msg.to_hex()), None)
    return ledger.add_contract_with_coins(pid, params)
