"""Burn-message encoding, Merkle inclusion proofs, denomination splits."""

import hashlib
import inspect
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltpay import bridge, qlds
from boltpay.bridge import (
    OPCODE,
    BridgeMessage,
    BridgeNote,
    LamportScheme,
    MerklePath,
    encode_bridge_message,
    merkle_build,
    merkle_node,
    merkle_verify,
    publish_bridge_message,
    split_denominations,
    verify_bridge_message,
    verify_bridge_note,
)
from boltpay.errors import DomainError, ParseError
from boltpay.ledger import Ledger
from boltpay.lightning import ql_setup

OPCODE_HEX = "4f505f424954434f494e5f544f5f5155414e54554d5f4d4f4e4559"


def make_draw(seed=b"bridge-test"):
    counter = itertools.count()
    def draw(k):
        block = hashlib.sha256(seed + next(counter).to_bytes(4, "big")).digest()
        while len(block) < k:
            block += hashlib.sha256(block).digest()
        return block[:k]
    return draw


def keypair():
    return LamportScheme().key_gen(make_draw())


# -- the one-time signature scheme ----------------------------------------

def test_lamport_key_shape():
    scheme = LamportScheme()
    sk, pk = keypair()
    assert len(sk) == 256 and len(pk) == 256
    assert all(len(a) == 32 and len(b) == 32 for a, b in sk)
    assert pk[0][0] == hashlib.sha256(sk[0][0]).digest()
    assert scheme.sig_len == 8192


def test_lamport_roundtrip_and_rejections():
    scheme = LamportScheme()
    sk, pk = keypair()
    sig = scheme.sign(sk, b"burn 8 coins")
    assert len(sig) == scheme.sig_len
    assert scheme.verify(pk, b"burn 8 coins", sig)
    assert not scheme.verify(pk, b"burn 9 coins", sig)
    assert not scheme.verify(pk, b"burn 8 coins", sig[:-1])
    tampered = bytes([sig[0] ^ 1]) + sig[1:]
    assert not scheme.verify(pk, b"burn 8 coins", tampered)
    assert not scheme.verify(pk[:255], b"burn 8 coins", sig)


# -- message encoding -------------------------------------------------------

def test_opcode_bytes_are_pinned():
    assert OPCODE == b"OP_BITCOIN_TO_QUANTUM_MONEY"
    assert OPCODE.hex() == OPCODE_HEX


def test_encoding_is_the_documented_concatenation():
    scheme = LamportScheme()
    sk, pk = keypair()
    payload = bytes(range(32))  # embedded zero bytes must survive
    msg = encode_bridge_message(scheme, sk, payload, 300)
    want = (bytes.fromhex(OPCODE_HEX) + b"\x00" + payload + b"\x00"
            + (300).to_bytes(8, "big") + msg.signature)
    assert msg.encode() == want
    assert msg.to_hex() == want.hex()


def test_verification_needs_y_strictly_below_the_burn():
    scheme = LamportScheme()
    sk, pk = keypair()
    msg = encode_bridge_message(scheme, sk, b"root", 8)
    assert verify_bridge_message(scheme, pk, msg, 9)
    assert not verify_bridge_message(scheme, pk, msg, 8)
    assert not verify_bridge_message(scheme, pk, msg, 0)


def test_verification_rejects_a_reforged_payload():
    scheme = LamportScheme()
    sk, pk = keypair()
    msg = encode_bridge_message(scheme, sk, b"root", 8)
    forged = BridgeMessage(b"loot", msg.y, msg.signature)
    assert not verify_bridge_message(scheme, pk, forged, 9)
    richer = BridgeMessage(msg.payload, msg.y + 1, msg.signature)
    assert not verify_bridge_message(scheme, pk, richer, 100)


def test_encode_rejects_bad_arguments():
    scheme = LamportScheme()
    sk, pk = keypair()
    with pytest.raises(DomainError):
        encode_bridge_message(scheme, sk, b"root", -1)
    with pytest.raises(ParseError):
        encode_bridge_message(scheme, sk, b"", 5)


# -- Merkle trees ------------------------------------------------------------

def leaf(i):
    return hashlib.sha256(b"leaf-%d" % i).digest()


def oracle_root(leaves):
    """Independent recursive recomputation of the tagged tree root."""
    if len(leaves) == 1:
        return leaves[0]
    mid = len(leaves) // 2
    return hashlib.sha256(b"QLNODE" + oracle_root(leaves[:mid])
                          + oracle_root(leaves[mid:])).digest()


def walk_path(leaves, i):
    """Independent per-leaf walk: climb the levels, taking the running
    node's sibling and the side it sits on at each one."""
    siblings, row = [], list(leaves)
    while len(row) > 1:
        sib = i ^ 1
        siblings.append((1 if sib > i else 0, row[sib]))
        row = [hashlib.sha256(b"QLNODE" + row[j] + row[j + 1]).digest()
               for j in range(0, len(row), 2)]
        i >>= 1
    return tuple(siblings)


def test_four_leaf_tree_matches_hand_computation():
    leaves = [leaf(i) for i in range(4)]
    tree = merkle_build(leaves, 2)
    left = merkle_node(leaves[0], leaves[1])
    right = merkle_node(leaves[2], leaves[3])
    assert tree.root == merkle_node(left, right)
    assert tree.root == oracle_root(leaves)
    for i in range(4):
        path = tree.paths[i]
        assert path.index == i and len(path.siblings) == 2
        assert merkle_verify(tree.root, leaves[i], path)
        assert not merkle_verify(tree.root, leaf(99), path)


def test_single_leaf_tree_is_its_own_root():
    tree = merkle_build([leaf(0)], 0)
    assert tree.root == leaf(0)
    assert merkle_verify(tree.root, leaf(0), tree.paths[0])


def test_leaf_order_changes_the_root():
    a = merkle_build([leaf(0), leaf(1)], 1).root
    b = merkle_build([leaf(1), leaf(0)], 1).root
    assert a != b


def test_build_rejects_wrong_shapes():
    with pytest.raises(DomainError):
        merkle_build([leaf(0), leaf(1), leaf(2)], 2)
    with pytest.raises(DomainError):
        merkle_build([leaf(0)], 1)
    with pytest.raises(ParseError):
        merkle_build([leaf(0), b""], 1)


def test_path_siblings_and_sides():
    tree = merkle_build([leaf(i) for i in range(4)], 2)
    path = tree.paths[2]
    assert path.index == 2
    # sibling of leaf 2 is leaf 3, sitting to the right
    assert path.siblings == ((1, leaf(3)), (0, merkle_node(leaf(0), leaf(1))))


def oracle_fold(serial, siblings):
    """Independent fold of a serial up (side, sibling) pairs, hashing each
    step; side 1 puts the sibling right of the running node."""
    cur = serial
    for side, sib in siblings:
        pair = cur + sib if side == 1 else sib + cur
        cur = hashlib.sha256(b"QLNODE" + pair).digest()
    return cur


def both_ways(root, serial, path):
    """merkle_verify's verdict from the table the last build filled, then
    again with the table cleared, so that every fold step is hashed."""
    kept = dict(bridge._BUILT)
    from_table = merkle_verify(root, serial, path)
    bridge._BUILT.clear()
    try:
        hashed = merkle_verify(root, serial, path)
    finally:
        bridge._BUILT.update(kept)
    return from_table, hashed


def tampered_paths(path):
    """Per level: the path with that sibling's first byte flipped (True),
    and the path with that sibling's side flipped (False)."""
    for k, (side, sib) in enumerate(path.siblings):
        for flipped_byte, step in ((True, (side, bytes([sib[0] ^ 1]) + sib[1:])),
                                   (False, (side ^ 1, sib))):
            yield flipped_byte, MerklePath(
                path.index, path.siblings[:k] + (step,) + path.siblings[k + 1:])


# 40 examples in tier-1, the soak profile's count under that profile
PATH_EXAMPLES = (settings().max_examples
                 if settings.get_current_profile_name() == "soak" else 40)


@settings(max_examples=PATH_EXAMPLES, deadline=None)
@given(st.integers(0, 6), st.data())
def test_every_path_verifies_and_tampering_fails(n, data):
    count = 1 << n
    leaves = [data.draw(st.binary(min_size=1, max_size=40), label=f"leaf{i}")
              for i in range(count)]
    tree = merkle_build(leaves, n)
    root = oracle_root(leaves)
    assert tree.root == root
    i = data.draw(st.integers(0, count - 1), label="index")
    path = tree.paths[i]
    assert path == MerklePath(i, walk_path(leaves, i))
    assert both_ways(root, leaves[i], path) == (True, True)
    assert both_ways(root, leaves[i] + b"x", path) == (False, False)
    for flipped_byte, bad in tampered_paths(path):
        # a flipped side is a valid path only where both children are equal
        want = oracle_fold(leaves[i], bad.siblings) == root
        assert not (flipped_byte and want)
        assert both_ways(root, leaves[i], bad) == (want, want)
    # another tree, one leaf redrawn: its pairs now fill the table, and a
    # path of either tree is checked against the other's root
    j = data.draw(st.integers(0, count - 1), label="redrawn")
    others = leaves[:j] + [data.draw(st.binary(min_size=1, max_size=40),
                                     label="other")] + leaves[j + 1:]
    other = merkle_build(others, n)
    other_root = oracle_root(others)
    for serial, p, against in ((leaves[i], path, other_root),
                               (others[i], other.paths[i], root)):
        want = oracle_fold(serial, p.siblings) == against
        assert both_ways(against, serial, p) == (want, want)


@pytest.mark.parametrize("n", range(7))
def test_notes_under_one_node_share_its_sibling_pair(n):
    # one pair per node below the root, 2^(n+1) - 2 in all, where a walk
    # per leaf would make n of its own for each of the 2^n leaves
    tree = merkle_build([leaf(i) for i in range(1 << n)], n)
    pairs = {id(pair) for path in tree.paths for pair in path.siblings}
    assert len(pairs) == (1 << (n + 1)) - 2


# -- denomination splits -------------------------------------------------------

def split_env():
    env = ql_setup(128, bytes(32))
    scheme = LamportScheme()
    sk, pk = scheme.key_gen(make_draw())
    return env, scheme, sk, pk


def test_split_eight_coins_into_four_notes():
    env, scheme, sk, pk = split_env()
    msg, notes = split_denominations(env, scheme, sk, 8, 2, "mint")
    assert msg.y == 8
    assert [n.value for n in notes] == [2, 2, 2, 2]
    assert [n.index for n in notes] == [0, 1, 2, 3]
    assert verify_bridge_message(scheme, pk, msg, 9)
    for note in notes:
        assert verify_bridge_note(env, msg, note)


def test_a_split_leaves_the_bolt_signature_choice_cache_as_it_was():
    # the burn message is signed and checked once, by the bridge's own
    # Lamport scheme; the bolt signatures' cache keeps none of it
    env, scheme, sk, pk = split_env()
    before = qlds._choice_mask.cache_info().currsize
    msg, notes = split_denominations(env, scheme, sk, 8, 2, "mint")
    assert verify_bridge_message(scheme, pk, msg, 9)
    assert qlds._choice_mask.cache_info().currsize == before


@pytest.mark.parametrize("n", range(11))
def test_checking_the_notes_of_a_split_just_built_hashes_nothing(n, monkeypatch):
    # every fold step is a pair the build just hashed; once another tree
    # is built, a note of the first is hashed again at each of its n levels
    assert inspect.isfunction(merkle_node)   # bench/tracer.py counts it
    env, scheme, sk, pk = split_env()
    msg, notes = split_denominations(env, scheme, sk, 1 << n, n, "mint")
    assert len(bridge._BUILT) == (1 << n) - 1
    calls = []

    def counted(left, right):
        calls.append((left, right))
        return merkle_node(left, right)

    monkeypatch.setattr(bridge, "merkle_node", counted)
    assert all(verify_bridge_note(env, msg, note) for note in notes)
    assert calls == []
    merkle_build([leaf(i) for i in range(1 << n)], n)
    assert len(bridge._BUILT) == (1 << n) - 1
    calls.clear()
    assert verify_bridge_note(env, msg, notes[-1])
    assert len(calls) == n


def test_split_rejects_indivisible_totals():
    env, scheme, sk, pk = split_env()
    with pytest.raises(DomainError):
        split_denominations(env, scheme, sk, 7, 2, "mint")


def test_split_rejects_a_negative_level_count():
    env, scheme, sk, pk = split_env()
    with pytest.raises(DomainError):
        split_denominations(env, scheme, sk, 8, -1, "mint")


def test_note_verification_rejects_lies():
    env, scheme, sk, pk = split_env()
    msg, notes = split_denominations(env, scheme, sk, 8, 2, "mint")
    note = notes[0]
    inflated = BridgeNote(note.bolt, note.serial, 3, 0, note.path)
    assert not verify_bridge_note(env, msg, inflated)
    side, sib = note.path.siblings[0]
    bad_path = MerklePath(0, ((side, bytes([sib[0] ^ 1]) + sib[1:]),)
                          + note.path.siblings[1:])
    rerouted = BridgeNote(note.bolt, note.serial, 2, 0, bad_path)
    assert not verify_bridge_note(env, msg, rerouted)
    swapped = BridgeNote(note.bolt, notes[1].serial, 2, 1, notes[1].path)
    assert not verify_bridge_note(env, msg, swapped)
    bundle, position = note.bolt
    env.measure_bolts(bundle, (position,))
    assert not verify_bridge_note(env, msg, note)  # bolt spent


def test_measuring_one_split_bolt_fails_only_its_note():
    env, scheme, sk, pk = split_env()
    msg, notes = split_denominations(env, scheme, sk, 16, 3, "mint")
    bundle, position = notes[5].bolt
    assert position == 5 and all(n.bolt[0] == bundle for n in notes)
    env.measure_bolts(bundle, (position,))
    assert [verify_bridge_note(env, msg, n) for n in notes] == [
        i != 5 for i in range(8)]


def test_message_size_does_not_grow_with_the_split():
    env, scheme, sk, pk = split_env()
    sizes = []
    for n in (1, 5, 10):
        sk_n, _ = scheme.key_gen(make_draw(b"size-%d" % n))
        msg, _ = split_denominations(env, scheme, sk_n, 1 << n, n, "mint")
        sizes.append(len(msg.encode()))
    assert sizes == [8261, 8261, 8261]


def test_publishing_costs_one_write_and_stores_the_hex():
    env, scheme, sk, pk = split_env()
    msg, _ = split_denominations(env, scheme, sk, 8, 2, "mint")
    led = Ledger()
    led.add_party("mint:5")
    before = led.write_count
    ssid = publish_bridge_message(led, "mint:5", msg)
    assert ssid == 1 and led.write_count == before + 1
    params, state, pot = led.retrieve_contract(ssid)
    assert pot == 0
    assert params.circuit.encoded_hex == msg.to_hex()
    # the record has no transition circuit: triggers bounce off
    assert led.trigger("mint:5", ssid, "anything", 0) is None
