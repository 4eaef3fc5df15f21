"""Bolt store behavior: serial binding, certificate exclusivity, no cloning.

A bolt is named by its bundle and its 0-based position there.

Hash values asserted here are recomputed with hashlib directly, so the
module under test cannot agree with the test by accident of sharing code.
"""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltpay.errors import DomainError, NotOwner, SetupRejected
from boltpay.lightning import (
    BundleHandle,
    ql_setup,
    serials_of,
    verify_certificate,
)
from boltpay.qlds import split_serial

SEED0 = bytes(32)
SEED1 = bytes(31) + b"\x01"


def fresh_env(seed=SEED0, sound=True):
    return ql_setup(128, seed, sound_mode=sound)


def test_setup_rejects_low_security_level():
    with pytest.raises(SetupRejected):
        ql_setup(32, SEED0)
    with pytest.raises(SetupRejected):
        ql_setup(63, SEED0)
    ql_setup(64, SEED0)  # smallest accepted


def bolt(env, owner="a"):
    """A fresh 1-bolt bundle: its one bolt is at position 0, and the
    bundle's serial is the bolt's."""
    return env.gen_bundle(owner, 1)


def test_same_seed_reproduces_the_same_bolts():
    a, b = fresh_env(), fresh_env()
    sa = [bolt(a).serial for _ in range(5)]
    sb = [bolt(b).serial for _ in range(5)]
    assert sa == sb


def test_different_seeds_diverge_immediately():
    assert bolt(fresh_env(SEED0)).serial != bolt(fresh_env(SEED1)).serial


def test_serial_is_tagged_hash_of_registry_secret():
    env = fresh_env()
    h = bolt(env, "alice")
    secret = env.measure_bolts(h, (0,))
    assert h.serial == hashlib.sha256(b"QLBOLT" + secret).digest()
    assert serials_of(secret) == h.serial


def test_serial_of_pinned_value():
    # sha256("QLBOLT" || 16 zero bytes), recomputed offline
    assert serials_of(bytes(16)).hex() == (
        "a6a0f8b9dedba0dac83d13a236e66ae724bc2a1f83c12fbcdb90fee29d549ff3")


def test_fresh_bolts_get_distinct_serials():
    env = fresh_env()
    assert bolt(env).serial != bolt(env).serial


def test_verify_accepts_only_the_bound_serial():
    env = fresh_env()
    h = bolt(env)
    other = bolt(env)
    assert env.verify_bolt(h, 0, h.serial)
    assert not env.verify_bolt(h, 0, other.serial)


def test_verification_is_repeatable_and_nondestructive():
    env = fresh_env()
    h = bolt(env)
    for _ in range(1000):
        assert env.verify_bolt(h, 0, h.serial)
    assert env.verify_bundle(h, h.serial)
    # each bolt of a bundle has its own segment of the bundle's serial
    bundle = env.gen_bundle("a", 3)
    segments = split_serial(bundle.serial)
    assert [[env.verify_bolt(bundle, i, s) for s in segments]
            for i in range(3)] == [[i == j for j in range(3)] for i in range(3)]


def test_certificate_roundtrip_and_exclusivity():
    env = fresh_env()
    h = bolt(env)
    c = env.measure_bolts(h, (0,))
    # independent recomputation of the binding
    assert hashlib.sha256(b"QLBOLT" + c).digest() == h.serial
    assert verify_certificate(h.serial, c)
    # the certificate and a live bolt cannot coexist
    assert not env.verify_bolt(h, 0, h.serial)
    assert not env.verify_bundle(h, h.serial)
    assert env.measure_bolts(h, (0,)) == b""


def test_random_or_foreign_certificates_rejected():
    env = fresh_env()
    h1, h2 = bolt(env), bolt(env)
    assert not verify_certificate(h1.serial, env.draw_bytes(16))
    c2 = env.measure_bolts(h2, (0,))
    assert not verify_certificate(h1.serial, c2)


def test_segment_certificates():
    env = fresh_env()
    h1, h2 = bolt(env), bolt(env)
    serial = h1.serial + h2.serial
    cert = env.measure_bolts(h1, (0,)) + env.measure_bolts(h2, (0,))
    assert verify_certificate(serial, cert)
    swapped = cert[16:] + cert[:16]
    assert not verify_certificate(serial, swapped)
    assert not verify_certificate(serial, cert[:16])
    assert not verify_certificate(serial[:32], cert)
    assert not verify_certificate(b"", b"")


def test_transfer_moves_ownership():
    env = fresh_env()
    b = env.gen_bundle("alice", 1)
    env.transfer_bundle(b, "alice", "bob")
    assert env.owner_of(b) == "bob"
    with pytest.raises(NotOwner):
        env.transfer_bundle(b, "alice", "carol")


def test_clone_refused_in_sound_mode():
    env = fresh_env()
    b = env.gen_bundle("a", 1)
    assert all(env.clone_bundle(b) is None for _ in range(1000))
    assert env.audit_violations() == []


def test_clone_negative_control_in_unsound_mode():
    env = fresh_env(sound=False)
    b = env.gen_bundle("a", 1)
    copy = env.clone_bundle(b)
    assert copy.bundle_id != b.bundle_id
    assert copy.serial == b.serial
    assert env.verify_bolt(b, 0, b.serial) and env.verify_bolt(copy, 0, b.serial)
    violations = env.audit_violations()
    assert any(b.serial.hex() in v for v in violations)


def test_certificate_release_flags_surviving_copies():
    env = fresh_env(sound=False)
    b = env.gen_bundle("a", 1)
    copy = env.clone_bundle(b)
    env.measure_bolts(b, (0,))
    # the copy is still alive although a certificate is out: two violations
    assert env.verify_bolt(copy, 0, copy.serial)
    assert len(env.audit_violations()) >= 1


def test_foreign_handles_are_rejected():
    env_a, env_b = fresh_env(), fresh_env(SEED1)
    h = bolt(env_a)
    with pytest.raises(DomainError):
        env_b.verify_bolt(h, 0, h.serial)


def test_snapshot_tracks_state():
    env = fresh_env()
    s0 = env.snapshot()
    h = bolt(env)
    s1 = env.snapshot()
    assert s0 != s1
    env.measure_bolts(h, (0,))
    assert env.snapshot() != s1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 999)), max_size=40),
       st.integers(0, 2**32 - 1))
def test_operation_sequences_preserve_exclusivity(ops, seed):
    """Whatever the order of mint/verify/certify/transfer requests on 1-bolt
    bundles, sound mode never produces two live bolts per serial, and a
    released certificate marks its bolt dead forever."""
    env = ql_setup(128, seed.to_bytes(32, "big"))
    bundles, certified, dead = [], [], set()
    parties = ["p1", "p2", "p3"]
    for op, pick in ops:
        if op == 0 or not bundles:
            bundles.append(env.gen_bundle(parties[pick % 3], 1))
            continue
        b = bundles[pick % len(bundles)]
        if op == 1:
            expected = b.bundle_id not in dead
            assert env.verify_bolt(b, 0, b.serial) == expected
            assert env.verify_bundle(b, b.serial) == expected
        elif op == 2:
            c = env.measure_bolts(b, (0,))
            if b.bundle_id in dead:
                assert c == b""
            else:
                dead.add(b.bundle_id)
                certified.append((b, c))
        else:
            owner = env.owner_of(b)
            env.transfer_bundle(b, owner, parties[pick % 3])
    assert env.audit_violations() == []
    for b, c in certified:
        assert not env.verify_bolt(b, 0, b.serial)
        assert verify_certificate(b.serial, c)


# -- bundles ----------------------------------------------------------------


def test_bundle_draws_and_numbers_like_one_bolt_bundles():
    a, b = fresh_env(), fresh_env()
    singles = [a.gen_bundle("p", 1) for _ in range(5)]
    bundle = b.gen_bundle("p", 5)
    assert split_serial(bundle.serial) == [s.serial for s in singles]
    # the snapshot numbers bolts in bundle order, so this pins the numbering
    assert a.snapshot() == b.snapshot()
    # the next mint continues from the same random stream and number
    assert bolt(a).serial == bolt(b).serial
    assert a.snapshot() == b.snapshot()


def test_bundle_needs_at_least_one_bolt():
    with pytest.raises(DomainError):
        fresh_env().gen_bundle("p", 0)


def test_bundle_owner_is_every_bolts_owner():
    env = fresh_env()
    bundle = env.gen_bundle("alice", 3)
    env.transfer_bundle(bundle, "alice", "bob")
    assert env.owner_of(bundle) == "bob"
    # no bolt stayed behind with alice
    with pytest.raises(NotOwner):
        env.transfer_bundle(bundle, "alice", "carol")
    assert env.verify_bundle(bundle, bundle.serial)


def test_not_owner_refusal_leaves_the_bundle_where_it_was():
    env = fresh_env()
    bundle = env.gen_bundle("alice", 3)
    before = env.snapshot()
    with pytest.raises(NotOwner):
        env.transfer_bundle(bundle, "mallory", "mallory")
    assert env.owner_of(bundle) == "alice"
    assert env.snapshot() == before


def test_bundled_bolts_move_only_with_their_bundle():
    env = fresh_env()
    bundle = env.gen_bundle("alice", 2)
    single = env.gen_bundle("alice", 1)
    env.transfer_bundle(single, "alice", "bob")
    assert env.owner_of(single) == "bob"
    assert env.owner_of(bundle) == "alice"


def test_foreign_bundles_are_rejected():
    env_a, env_b = fresh_env(), fresh_env(SEED1)
    bundle = env_a.gen_bundle("a", 2)
    env_b.gen_bundle("a", 2)  # same bundle id, other environment
    for op in (lambda: env_b.verify_bundle(bundle, bundle.serial),
               lambda: env_b.verify_bolt(bundle, 0, bundle.serial[:32]),
               lambda: env_b.measure_bolts(bundle, (0,)),
               lambda: env_b.transfer_bundle(bundle, "a", "b"),
               lambda: env_b.clone_bundle(bundle),
               lambda: env_b.owner_of(bundle)):
        with pytest.raises(DomainError):
            op()
    assert env_a.owner_of(bundle) == "a"
    assert env_a.verify_bundle(bundle, bundle.serial)


def test_measuring_any_one_bolt_fails_the_bundle():
    for position in (0, 3, 7):
        env = fresh_env()
        bundle = env.gen_bundle("a", 8)
        segments = split_serial(bundle.serial)
        assert env.verify_bundle(bundle, bundle.serial)
        env.measure_bolts(bundle, (position,))
        assert not env.verify_bundle(bundle, bundle.serial)
        assert [env.verify_bolt(bundle, i, s) for i, s in enumerate(segments)] == [
            i != position for i in range(8)]
        assert env.measure_bolts(bundle, (position,)) == b""
        # a refused measurement measures nothing, not even the bolts in range
        other = env.gen_bundle("a", 8)
        with pytest.raises(DomainError):
            env.measure_bolts(other, (0, 8))
        assert env.verify_bundle(other, other.serial)


def test_bundle_verifies_only_its_own_serial():
    env = fresh_env()
    bundle = env.gen_bundle("a", 2)
    assert not env.verify_bundle(bundle, bundle.serial[:32])
    assert not env.verify_bundle(bundle, bundle.serial[32:] + bundle.serial[:32])
    assert not env.verify_bundle(bundle, env.gen_bundle("a", 2).serial)


def test_clone_bundle_refused_in_sound_mode():
    env = fresh_env()
    bundle = env.gen_bundle("a", 4)
    before = env.snapshot()
    assert env.clone_bundle(bundle) is None
    assert env.snapshot() == before
    assert env.audit_violations() == []


def test_clone_bundle_numbers_copies_like_single_clones():
    a, b = fresh_env(sound=False), fresh_env(sound=False)
    singles = [a.gen_bundle("p", 1) for _ in range(3)]
    copies = [a.clone_bundle(s) for s in singles]
    bundle = b.gen_bundle("p", 3)
    copy = b.clone_bundle(bundle)
    assert split_serial(copy.serial) == [c.serial for c in copies]
    assert copy.serial == bundle.serial and copy.bundle_id != bundle.bundle_id
    assert a.snapshot() == b.snapshot()
    assert b.audit_violations() == a.audit_violations() != []
    # the copy moves on its own
    b.transfer_bundle(copy, "p", "q")
    assert b.owner_of(copy) == "q" and b.owner_of(bundle) == "p"


def _expected_violations(alive: dict, serials: dict, released: set) -> list[str]:
    alive_count = {}
    for key, is_alive in alive.items():
        if is_alive:
            alive_count[serials[key]] = alive_count.get(serials[key], 0) + 1
    out = []
    for serial, count in sorted(alive_count.items()):
        if count > 1:
            out.append(f"serial {serial.hex()} has {count} alive handles")
        if serial in released:
            out.append(f"serial {serial.hex()} alive after certificate release")
    return out


def _per_bolt_verify(env, bundle, serial: bytes) -> bool:
    segments = split_serial(serial)
    return len(segments) == bundle.count and all(
        env.verify_bolt(bundle, i, s) for i, s in enumerate(segments))


# 80 examples in tier-1, the soak profile's count under that profile
BUNDLE_OPS_EXAMPLES = (settings().max_examples
                       if settings.get_current_profile_name() == "soak" else 80)


@settings(max_examples=BUNDLE_OPS_EXAMPLES, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 999),
                          st.integers(0, 999)), max_size=30),
       st.integers(0, 2**32 - 1), st.booleans())
def test_bundle_ops_agree_with_per_bolt_ops(ops, seed, sound):
    """After every step of a random mix of gen_bundle, measuring one bolt,
    transfer_bundle and clone_bundle, the bundle answers agree with the
    per-bolt ones and with a model kept here, keyed by (bundle id,
    position), the owners listed by serial are the model's, and the audit
    reports what the model says it should."""
    env = ql_setup(128, seed.to_bytes(32, "big"), sound_mode=sound)
    parties = ["p1", "p2", "p3"]
    bundles, owner = [], {}           # owner: bundle_id -> model owner
    alive, serials, released = {}, {}, set()
    for op, pick, arg in ops:
        if op == 0 or not bundles:
            b = env.gen_bundle(parties[pick % 3], 1 + arg % 4)
            assert b.bundle_id == len(bundles) + 1
            bundles.append(b)
            owner[b.bundle_id] = parties[pick % 3]
            for i, segment in enumerate(split_serial(b.serial)):
                alive[b.bundle_id, i], serials[b.bundle_id, i] = True, segment
        else:
            b = bundles[pick % len(bundles)]
            if op == 1:
                position = arg % b.count
                key = b.bundle_id, position
                cert = env.measure_bolts(b, (position,))
                if alive[key]:
                    assert verify_certificate(serials[key], cert)
                    alive[key] = False
                    released.add(serials[key])
                else:
                    assert cert == b""
            elif op == 2:
                sender, receiver = parties[arg % 3], parties[pick % 3]
                if sender == owner[b.bundle_id]:
                    env.transfer_bundle(b, sender, receiver)
                    owner[b.bundle_id] = receiver
                else:
                    with pytest.raises(NotOwner):
                        env.transfer_bundle(b, sender, receiver)
            else:
                copy = env.clone_bundle(b)
                if sound:
                    assert copy is None
                else:
                    assert copy.bundle_id == len(bundles) + 1
                    bundles.append(copy)
                    owner[copy.bundle_id] = owner[b.bundle_id]
                    for i, segment in enumerate(split_serial(copy.serial)):
                        alive[copy.bundle_id, i] = alive[b.bundle_id, i]
                        serials[copy.bundle_id, i] = segment
        for b in bundles:
            for serial in (b.serial, bundles[0].serial):
                assert env.verify_bundle(b, serial) == _per_bolt_verify(env, b, serial)
            assert env.verify_bundle(b, b.serial) == all(
                alive[b.bundle_id, i] for i in range(b.count))
            assert [env.verify_bolt(b, i, serials[b.bundle_id, i])
                    for i in range(b.count)] == [
                alive[b.bundle_id, i] for i in range(b.count)]
            assert env.owner_of(b) == owner[b.bundle_id]
            assert env.holders(b.serial) == [owner[c.bundle_id] for c in bundles
                                             if c.serial == b.serial]
        assert env.holders(bytes(32)) == []
        assert env.audit_violations() == _expected_violations(alive, serials, released)
        if sound:
            assert env.audit_violations() == []


# -- flat storage -------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 512])
def test_one_draw_of_k_secrets_equals_k_draws(k):
    """gen_bundle draws a k-bolt bundle's secrets in one call.  That keeps
    every serial only because CPython's randbytes(16k) returns the bytes of
    k randbytes(16) calls and leaves the generator in the same state; a
    Python version that breaks this must fail here, not in the traces."""
    one, many = random.Random(20020), random.Random(20020)
    assert one.randbytes(16 * k) == b"".join(many.randbytes(16) for _ in range(k))
    assert one.getstate() == many.getstate()


def test_serials_of_is_serial_of_per_preimage():
    secrets = random.Random(3).randbytes(16 * 5)
    assert serials_of(secrets) == b"".join(
        hashlib.sha256(b"QLBOLT" + secrets[i:i + 16]).digest()
        for i in range(0, len(secrets), 16))
    assert serials_of(b"") == b""


def test_a_512_bolt_mint_keeps_at_most_40_kib():
    """Secrets (8 KiB), serial (16 KiB) and liveness (0.5 KiB) are the
    bundle; per-bolt objects would take several times that."""
    env = fresh_env()
    env.gen_bundle("w", 512)  # first-call allocations are not the mint's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bundle = env.gen_bundle("w", 512)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert bundle.count == 512
    assert kept <= 40 * 1024


def test_auditing_200_sound_512_bolt_bundles_allocates_per_bundle():
    """Only clones share a serial, so a sound audit visits no bolt: a
    32-byte slice per bolt alone would take over 30 bytes for each of the
    102 400 bolts, where the bound allows 512 bytes for each bundle."""
    env = fresh_env()
    for _ in range(200):
        env.gen_bundle("w", 512)
    env.audit_violations()  # first-call allocations are not the audit's
    tracemalloc.start()
    try:
        assert env.audit_violations() == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200 * 512


def test_bolt_ids_outside_the_environment_are_rejected():
    """A bolt is named by a bundle of this environment and a position in
    0..count-1; any other name is refused before anything is read."""
    env, other = fresh_env(), fresh_env(SEED1)
    bundle = env.gen_bundle("a", 3)
    other.gen_bundle("a", 9)  # the same bundle id exists in the other environment
    serial = bundle.serial[:32]
    cases = [(env, bundle, position) for position in (-1, 3)]
    cases.append((other, bundle, 0))  # issued by env, not by other
    cases.extend((env, BundleHandle(env.env_id, bundle_id, bundle.serial), 0)
                 for bundle_id in (0, 2))
    for target, handle, position in cases:
        for op in (lambda: target.verify_bolt(handle, position, serial),
                   lambda: target.measure_bolts(handle, (position,))):
            with pytest.raises(DomainError):
                op()
    for bundle_id in (0, -1, 2):
        forged = BundleHandle(env.env_id, bundle_id, bundle.serial)
        with pytest.raises(DomainError):
            env.verify_bundle(forged, bundle.serial)
    assert env.verify_bundle(bundle, bundle.serial)


def test_measure_bolts_matches_one_certificate_at_a_time():
    a, b = fresh_env(), fresh_env()
    ka, kb = a.gen_bundle("p", 6), b.gen_bundle("p", 6)
    positions = (4, 0, 5)
    certs = a.measure_bolts(ka, positions)
    assert certs == b"".join(b.measure_bolts(kb, (i,)) for i in positions)
    assert a.snapshot() == b.snapshot()
    assert not a.verify_bundle(ka, ka.serial)


def test_measure_bolts_stops_at_the_first_dead_bolt():
    env = fresh_env()
    bundle = env.gen_bundle("p", 4)
    segments = split_serial(bundle.serial)
    env.measure_bolts(bundle, (2,))
    certs = env.measure_bolts(bundle, (0, 2, 3))
    # bolt 0 stays measured, bolt 2 was dead, bolt 3 is untouched
    assert len(certs) == 16 and verify_certificate(segments[0], certs)
    assert [env.verify_bolt(bundle, i, s) for i, s in enumerate(segments)] == [
        False, True, False, True]
    assert env.measure_bolts(bundle, ()) == b""
    for positions in ((4,), (-1,), (1, 4)):
        with pytest.raises(DomainError):
            env.measure_bolts(bundle, positions)
    assert env.verify_bolt(bundle, 1, segments[1])


def test_a_repeated_position_finds_its_bolt_dead_the_second_time():
    env = fresh_env()
    bundle = env.gen_bundle("p", 3)
    segments = split_serial(bundle.serial)
    certs = env.measure_bolts(bundle, (1, 1))
    assert len(certs) == 16 and verify_certificate(segments[1], certs)
    assert [env.verify_bolt(bundle, i, s) for i, s in enumerate(segments)] == [
        True, False, True]
    # the second 0 is dead by then, so the walk stops there and bolt 2 lives
    bundle = env.gen_bundle("p", 3)
    segments = split_serial(bundle.serial)
    certs = env.measure_bolts(bundle, (0, 1, 0, 2))
    assert len(certs) == 32 and verify_certificate(b"".join(segments[:2]), certs)
    assert [env.verify_bolt(bundle, i, s) for i, s in enumerate(segments)] == [
        False, False, True]
