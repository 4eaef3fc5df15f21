"""One-time signatures from bolt bundles: consumption order, replay safety.

The four MSG_* constants were picked by hashing candidate strings offline
until each two-bit digest prefix appeared; first digest bytes are noted so
the selection can be rechecked by hand.
"""

import hashlib
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltpay import qlds
from boltpay.errors import KeyExhausted, ParseError
from boltpay.lightning import ql_setup, serials_of
from boltpay.qlds import (
    QldsParams,
    gen_sig,
    message_bits,
    qlds_gen,
    qlds_ver,
    split_serial,
    verify_sig,
)

MSG_00 = b"m2"  # sha256 starts 0x29 = 0010...
MSG_01 = b"m8"  # 0x59 = 0101...
MSG_10 = b"m5"  # 0xb5 = 1011...
MSG_11 = b"m0"  # 0xe4 = 1110...


def signing_indices(bits: tuple[int, ...]) -> tuple[int, ...]:
    """Reference model of the key positions a bit string consumes: bit j
    selects position j for a zero and n + j for a one."""
    n = len(bits)
    return tuple(b * n + j for j, b in enumerate(bits))


def fresh_env(seed=0):
    return ql_setup(128, seed.to_bytes(32, "big"))


def make_key(n, env=None):
    env = env or fresh_env()
    return env, qlds_gen(env, QldsParams(n), "signer")


def alive_bolts(env, key) -> list[bool]:
    """Whether each bolt of the key, by position, still verifies."""
    return [env.verify_bolt(key, i, s) for i, s in enumerate(split_serial(key.serial))]


def test_key_shape_for_n8():
    _, key = make_key(8)
    assert key.count == 16
    assert len(key.serial) == 16 * 32


def test_fresh_key_passes_verification():
    env, key = make_key(8)
    assert qlds_ver(env, key, key.serial)


def test_key_fails_verification_after_signing():
    env, key = make_key(8)
    gen_sig(env, key, key.serial, b"hello")
    assert not qlds_ver(env, key, key.serial)


def test_tampered_serial_rejected():
    env, key = make_key(4)
    bad = bytes([key.serial[0] ^ 1]) + key.serial[1:]
    assert not qlds_ver(env, key, bad)


def test_two_keys_use_disjoint_segments():
    env = fresh_env()
    _, k1 = make_key(4, env)
    _, k2 = make_key(4, env)
    assert not set(split_serial(k1.serial)) & set(split_serial(k2.serial))


def test_message_bits_match_hand_extraction():
    for msg, expect in ((MSG_00, (0, 0)), (MSG_01, (0, 1)),
                        (MSG_10, (1, 0)), (MSG_11, (1, 1))):
        assert message_bits(msg, 2) == expect
    digest = hashlib.sha256(b"anything").digest()
    manual = tuple((digest[j // 8] >> (7 - j % 8)) & 1 for j in range(13))
    assert message_bits(b"anything", 13) == manual


@pytest.mark.parametrize("n", [0, -3, 257, 300])
def test_message_bits_refuse_a_bit_count_outside_1_to_256(n):
    with pytest.raises(ParseError):
        message_bits(b"abc", n)


def test_signing_consumes_selected_components():
    # bits (1,0) at n=2 select components 2 and 1 (zero-based), leaving 0, 3
    env, key = make_key(2)
    assert signing_indices(message_bits(MSG_10, 2)) == (2, 1)
    sig = gen_sig(env, key, key.serial, MSG_10)
    assert verify_sig(key.serial, MSG_10, sig)
    assert alive_bolts(env, key) == [True, False, False, True]


def test_signing_all_zero_bits_consumes_prefix():
    env, key = make_key(2)
    assert signing_indices(message_bits(MSG_00, 2)) == (0, 1)
    gen_sig(env, key, key.serial, MSG_00)
    assert alive_bolts(env, key) == [False, False, True, True]


def test_second_signature_exhausts_at_first_shared_bit():
    # MSG_00 kills components 0 and 1; MSG_01 shares bit one (value 0), so
    # its first selection is the dead component 0 and nothing further burns
    env, key = make_key(2)
    gen_sig(env, key, key.serial, MSG_00)
    with pytest.raises(KeyExhausted):
        gen_sig(env, key, key.serial, MSG_01)
    assert alive_bolts(env, key) == [False, False, True, True]


def test_complementary_messages_both_sign_and_verify():
    env, key = make_key(2)
    s1 = gen_sig(env, key, key.serial, MSG_00)
    s2 = gen_sig(env, key, key.serial, MSG_11)  # selects the other half
    assert verify_sig(key.serial, MSG_00, s1)
    assert verify_sig(key.serial, MSG_11, s2)
    assert not any(alive_bolts(env, key))
    assert not qlds_ver(env, key, key.serial)


def test_replay_on_other_message_rejected():
    env, key = make_key(2)
    sig = gen_sig(env, key, key.serial, MSG_00)
    assert not verify_sig(key.serial, MSG_10, sig)


def test_a_signature_under_another_keys_serial_is_rejected():
    env, key = make_key(4)
    _, other = make_key(4, env)
    sig = gen_sig(env, key, key.serial, b"msg")
    assert verify_sig(key.serial, b"msg", sig)
    assert not verify_sig(other.serial, b"msg", sig)


def test_signature_with_corrupted_certificate_rejected():
    env, key = make_key(4)
    sig = gen_sig(env, key, key.serial, b"msg")
    bad = bytes([sig[0] ^ 1]) + sig[1:]
    assert not verify_sig(key.serial, b"msg", bad)
    assert not verify_sig(key.serial, b"msg", sig[:-16])


def test_a_serial_of_more_than_512_segments_never_verifies():
    # 514 segments would select by 257 message bits; SHA-256 gives 256
    assert not verify_sig(bytes(514 * 32), b"msg", bytes(257 * 16))


def test_a_serial_not_made_of_whole_segment_pairs_never_verifies():
    # n is read off the serial's length, so these would check n or 0 bits
    assert not verify_sig(b"", b"msg", b"")
    env, key = make_key(4)
    sig = gen_sig(env, key, key.serial, b"msg")
    assert verify_sig(key.serial, b"msg", sig)
    for extra in (bytes(32), bytes(16), bytes(1)):
        assert not verify_sig(key.serial + extra, b"msg", sig), len(extra)


@pytest.mark.parametrize("bolts", [514, 600])
def test_a_key_of_more_than_512_bolts_is_refused_before_any_measurement(bolts):
    # 257 or more message bits would be needed; SHA-256 gives 256
    env = fresh_env()
    key = env.gen_bundle("signer", bolts)
    with pytest.raises(ParseError):
        gen_sig(env, key, key.serial, b"msg")
    assert env.verify_bundle(key, key.serial)  # every bolt still alive


def test_parameter_bounds():
    with pytest.raises(ParseError):
        QldsParams(0)
    with pytest.raises(ParseError):
        QldsParams(257)
    QldsParams(1)
    QldsParams(256)


def test_signing_under_wrong_serial_rejected():
    env, key = make_key(2)
    with pytest.raises(ParseError):
        gen_sig(env, key, bytes(128), b"msg")


def test_a_bundle_of_an_odd_bolt_count_is_no_key():
    env = fresh_env()
    for count in (1, 3):
        bundle = env.gen_bundle("signer", count)
        assert env.verify_bundle(bundle, bundle.serial)
        assert not qlds_ver(env, bundle, bundle.serial)
        with pytest.raises(ParseError):
            gen_sig(env, bundle, bundle.serial, b"msg")
        with pytest.raises(ParseError):
            qlds_ver(env, bundle, bundle.serial[:-1])


def test_split_serial_shape():
    env, key = make_key(3)
    segs = split_serial(key.serial)
    assert len(segs) == 6 and all(len(s) == 32 for s in segs)
    with pytest.raises(ParseError):
        split_serial(key.serial[:-1])


def test_exhaustion_message_names_the_component():
    env, key = make_key(2)
    gen_sig(env, key, key.serial, MSG_00)
    with pytest.raises(KeyExhausted, match="component"):
        gen_sig(env, key, key.serial, MSG_01)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 16), st.binary(min_size=0, max_size=24))
def test_selected_indices_are_distinct_and_in_range(n, msg):
    bits = message_bits(msg, n)
    idx = signing_indices(bits)
    assert len(set(idx)) == n
    assert all(0 <= i < 2 * n for i in idx)
    # index mod n recovers the position, index div n the bit
    assert tuple(i % n for i in idx) == tuple(range(n))
    assert tuple(i // n for i in idx) == bits


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.binary(min_size=1, max_size=12),
       st.binary(min_size=1, max_size=12), st.integers(0, 2**32 - 1))
def test_honest_sign_verifies_and_replay_rejects(n, a, b, seed):
    env = ql_setup(128, seed.to_bytes(32, "big"))
    key = qlds_gen(env, QldsParams(n), "p")
    sig = gen_sig(env, key, key.serial, a)
    assert verify_sig(key.serial, a, sig)
    if message_bits(a, n) != message_bits(b, n):
        assert not verify_sig(key.serial, b, sig)
    else:
        # same selection pattern: the signature legitimately covers b too
        assert verify_sig(key.serial, b, sig)


def _reference_verify(serial: bytes, message: bytes, signature: bytes) -> bool:
    """verify_sig one segment at a time, from hashlib alone."""
    n = len(serial) // 64
    if len(signature) != 16 * n:
        return False
    digest = hashlib.sha256(message).digest()
    for j in range(n):
        k = (digest[j // 8] >> (7 - j % 8) & 1) * n + j
        opened = hashlib.sha256(b"QLBOLT" + signature[16 * j:16 * j + 16]).digest()
        if opened != serial[32 * k:32 * k + 32]:
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.binary(max_size=12), st.binary(max_size=12),
       st.integers(0, 10**6), st.sampled_from(["none", "flip", "swap", "other key"]))
def test_verify_sig_agrees_with_a_per_segment_check(n, signed, checked, pick, tamper):
    env, key = make_key(n, fresh_env(pick))
    sig = gen_sig(env, key, key.serial, signed)
    serial = key.serial
    if tamper == "flip":
        i = pick % len(sig)
        sig = sig[:i] + bytes([sig[i] ^ 1 << pick % 8]) + sig[i + 1:]
    elif tamper == "swap":  # exchange the two columns of the key
        serial = serial[32 * n:] + serial[:32 * n]
    elif tamper == "other key":
        env2, key2 = make_key(n, fresh_env(pick + 1))
        sig = gen_sig(env2, key2, key2.serial, signed)
    assert verify_sig(serial, checked, sig) == _reference_verify(serial, checked, sig)
    if tamper == "none":
        assert verify_sig(serial, signed, sig)


# 40 examples in tier-1, the soak profile's count under that profile
REFERENCE_EXAMPLES = (settings().max_examples
                      if settings.get_current_profile_name() == "soak" else 40)


def reference_sign(env, key, serial: bytes, message: bytes) -> bytes:
    """gen_sig for a well-formed key, one bit at a time: one measure_bolts
    call per message bit, at the position signing_indices gives it."""
    n = len(serial) // 64
    signature = b""
    for j, i in enumerate(signing_indices(message_bits(message, n))):
        certificate = env.measure_bolts(key, (i,))
        if not certificate:
            raise KeyExhausted(f"component {i + 1} already consumed (bit {j + 1})")
        signature += certificate
    return signature


def signing_outcome(sign, env, key, message: bytes):
    try:
        return sign(env, key, key.serial, message)
    except KeyExhausted as e:
        return str(e)


@settings(max_examples=REFERENCE_EXAMPLES)
@given(st.sampled_from([1, 2, 7, 8, 255, 256]), st.binary(max_size=12),
       st.binary(max_size=12), st.integers(0, 10**6),
       st.sampled_from(["none", "flip", "swap", "other message"]))
def test_the_signature_path_matches_a_per_bit_reference(n, first, second, pick, tamper):
    digest = hashlib.sha256(first).digest()
    assert message_bits(first, n) == tuple(
        digest[j // 8] >> (7 - j % 8) & 1 for j in range(n))
    env, ref_env = fresh_env(pick), fresh_env(pick)
    key, ref_key = (qlds_gen(e, QldsParams(n), "signer") for e in (env, ref_env))
    assert key.serial == ref_key.serial
    # the second message on the same key signs, or exhausts at its first
    # dead bolt with the bolts before it measured
    outcomes = []
    for message in (first, second):
        outcomes.append(signing_outcome(gen_sig, env, key, message))
        assert outcomes[-1] == signing_outcome(reference_sign, ref_env, ref_key, message)
        assert env.snapshot() == ref_env.snapshot()
    sig, serial, checked = outcomes[0], key.serial, first
    if tamper == "flip":
        i = pick % len(sig)
        sig = sig[:i] + bytes([sig[i] ^ 1 << pick % 8]) + sig[i + 1:]
    elif tamper == "swap":  # exchange the two columns of the key
        serial = serial[32 * n:] + serial[:32 * n]
    elif tamper == "other message":
        checked = second
    verified = verify_sig(serial, checked, sig)
    qlds._SIGNED.clear()   # the same check again, hashed
    assert verified == verify_sig(serial, checked, sig) == _reference_verify(
        serial, checked, sig)
    assert verified == (
        tamper == "none" or tamper == "other message"
        and message_bits(first, n) == message_bits(second, n))


def frames_entered(op) -> int:
    """Python frames the second call of ``op`` enters, generator resumptions
    included; the first call fills the caches a process fills once."""
    op()
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        op()
    finally:
        sys.setprofile(None)
    return events.count("call")


def signature_path_frames(n: int) -> dict[str, int]:
    env = fresh_env()
    keys = [qlds_gen(env, QldsParams(n), "signer") for _ in range(3)]
    bundles = [env.gen_bundle("holder", 2 * n) for _ in range(2)]
    key = keys.pop()
    sig = gen_sig(env, key, key.serial, b"signed")
    return {
        "gen_sig": frames_entered(
            lambda: gen_sig(env, keys[-1], keys.pop().serial, b"signed")),
        "verify_sig": frames_entered(   # hashed, not answered from the table
            lambda: qlds._SIGNED.clear() or verify_sig(key.serial, b"signed", sig)),
        "gen_bundle": frames_entered(lambda: env.gen_bundle("holder", 2 * n)),
        "measure_bolts": frames_entered(
            lambda: env.measure_bolts(bundles.pop(), range(2 * n))),
    }


def test_the_signature_path_enters_the_same_frames_at_every_key_size():
    """Signing, verifying, minting and measuring a key cost their hashes
    and bulk byte work: no Python frame is entered once per bit."""
    small, large = signature_path_frames(8), signature_path_frames(256)
    assert small == large


def test_signer_and_verifier_share_one_bounded_choice_per_message_and_size(
        monkeypatch):
    """One message signed and verified at n=8 and at n=256, interleaved in
    one process: each (message, n) pair has its own choice, hashed once
    for the signature and its check together."""
    assert type(qlds.CHOICE_CACHE_SIZE) is int
    assert qlds._choice_mask.cache_parameters()["maxsize"] == qlds.CHOICE_CACHE_SIZE
    hashed = []
    monkeypatch.setattr(qlds, "hashlib", SimpleNamespace(
        sha256=lambda data: hashed.append(data) or hashlib.sha256(data)))
    qlds._choice_mask.cache_clear()
    message, env = b"one message, two key sizes", fresh_env()
    for _ in range(2):
        keys = {n: qlds_gen(env, QldsParams(n), "signer") for n in (8, 256)}
        sigs = {n: gen_sig(env, k, k.serial, message) for n, k in keys.items()}
        for n, key in keys.items():
            assert len(sigs[n]) == 16 * n
            assert verify_sig(key.serial, message, sigs[n])
            assert not verify_sig(key.serial, message + b"!", sigs[n])
    assert hashed == [message, message, message + b"!", message + b"!"]
    for n in (8, 256):
        mask = qlds._choice_mask(message, n)
        assert type(mask) is bytes and len(mask) == 2 * n
    assert message_bits(message, 256)[:8] == message_bits(message, 8)


def count_hashing(monkeypatch) -> list[int]:
    """The certificate count of each serials_of call verify_sig makes."""
    calls = []
    monkeypatch.setattr(qlds, "serials_of", lambda certificates: calls.append(
        len(certificates) // 16) or serials_of(certificates))
    return calls


@pytest.mark.parametrize("n", [8, 256])
def test_a_signature_just_made_verifies_without_hashing(n, monkeypatch):
    """A signature gen_sig just made is answered from the table under its
    key's serial; one not in the table costs one call over n certificates."""
    calls = count_hashing(monkeypatch)
    env, key = make_key(n)
    sig = gen_sig(env, key, key.serial, b"signed")
    assert verify_sig(key.serial, b"signed", sig) and calls == []
    _, other = make_key(n, env)
    assert not verify_sig(other.serial, b"signed", sig) and calls == [n]
    qlds._SIGNED.clear()
    assert verify_sig(key.serial, b"signed", sig) and calls == [n, n]


def test_the_table_keeps_only_the_last_signatures_made(monkeypatch):
    """Past SIGNED_KEPT signatures the oldest is evicted: the table never
    holds more, and the first signature is hashed again and still
    verifies."""
    assert type(qlds.SIGNED_KEPT) is int and qlds.SIGNED_KEPT >= 1
    calls = count_hashing(monkeypatch)
    qlds._SIGNED.clear()
    env = fresh_env()
    made = []
    for i in range(2 * qlds.SIGNED_KEPT + 1):
        key, message = qlds_gen(env, QldsParams(4), "signer"), b"%d" % i
        made.append((key.serial, message, gen_sig(env, key, key.serial, message)))
        assert len(qlds._SIGNED) == min(i + 1, qlds.SIGNED_KEPT)
    assert list(qlds._SIGNED) == [sig for _, _, sig in made[-qlds.SIGNED_KEPT:]]
    for serial, message, sig in made[-qlds.SIGNED_KEPT:]:
        assert verify_sig(serial, message, sig)
    assert calls == []
    for serial, message, sig in made[:-qlds.SIGNED_KEPT]:
        assert verify_sig(serial, message, sig)
    assert calls == [4] * (len(made) - qlds.SIGNED_KEPT)
