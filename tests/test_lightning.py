"""Bolt registry behavior: serial binding, certificate exclusivity, no cloning.

Hash values asserted here are recomputed with hashlib directly, so the
module under test cannot agree with the test by accident of sharing code.
"""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltpay.errors import DomainError, MeasureFailed, NotOwner, SetupRejected
from boltpay.lightning import (
    BoltHandle,
    BundleHandle,
    ql_setup,
    serial_of,
    serials_of,
    verify_certificate,
    verify_certificate_segments,
)
from boltpay.qlds import QldsParams, gen_sig, qlds_gen, split_serial

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
    """The one bolt of a fresh 1-bolt bundle."""
    return env.gen_bundle(owner, 1).bolts[0]


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
    secret = env.gen_certificate(h, h.serial)
    assert h.serial == hashlib.sha256(b"QLBOLT" + secret).digest()
    assert serial_of(secret) == h.serial


def test_serial_of_pinned_value():
    # sha256("QLBOLT" || 16 zero bytes), recomputed offline
    assert serial_of(bytes(16)).hex() == (
        "a6a0f8b9dedba0dac83d13a236e66ae724bc2a1f83c12fbcdb90fee29d549ff3")


def test_fresh_bolts_get_distinct_serials():
    env = fresh_env()
    assert bolt(env).serial != bolt(env).serial


def test_verify_accepts_only_the_bound_serial():
    env = fresh_env()
    h = bolt(env)
    other = bolt(env)
    assert env.verify_bolt(h, h.serial)
    assert not env.verify_bolt(h, other.serial)


def test_verification_is_repeatable_and_nondestructive():
    env = fresh_env()
    h = bolt(env)
    for _ in range(1000):
        assert env.verify_bolt(h, h.serial)
    assert env.is_alive(h)
    bundle = env.gen_bundle("a", 3)
    assert [b.serial for b in bundle.bolts] == split_serial(bundle.serial)


def test_certificate_roundtrip_and_exclusivity():
    env = fresh_env()
    h = bolt(env)
    c = env.gen_certificate(h, h.serial)
    # independent recomputation of the binding
    assert hashlib.sha256(b"QLBOLT" + c).digest() == h.serial
    assert verify_certificate(h.serial, c)
    # the certificate and a live bolt cannot coexist
    assert not env.verify_bolt(h, h.serial)
    assert not env.is_alive(h)
    with pytest.raises(MeasureFailed):
        env.gen_certificate(h, h.serial)


def test_certificate_against_wrong_serial_fails():
    env = fresh_env()
    h = bolt(env)
    with pytest.raises(MeasureFailed):
        env.gen_certificate(h, bytes(32))
    assert env.is_alive(h)  # a failed measurement must not burn the bolt


def test_random_or_foreign_certificates_rejected():
    env = fresh_env()
    h1, h2 = bolt(env), bolt(env)
    assert not verify_certificate(h1.serial, env.draw_bytes(16))
    c2 = env.gen_certificate(h2, h2.serial)
    assert not verify_certificate(h1.serial, c2)


def test_segment_certificates():
    env = fresh_env()
    h1, h2 = bolt(env), bolt(env)
    serial = h1.serial + h2.serial
    cert = env.gen_certificate(h1, h1.serial) + env.gen_certificate(h2, h2.serial)
    assert verify_certificate_segments(serial, cert)
    swapped = cert[16:] + cert[:16]
    assert not verify_certificate_segments(serial, swapped)
    assert not verify_certificate_segments(serial, cert[:16])
    assert not verify_certificate_segments(serial[:32], cert)


def test_transfer_moves_ownership():
    env = fresh_env()
    b = env.gen_bundle("alice", 1)
    env.transfer_bundle(b, "alice", "bob")
    assert env.owner_of(b) == env.owner_of(b.bolts[0]) == "bob"
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
    h = b.bolts[0]
    copy = env.clone_bundle(b).bolts[0]
    assert copy.bolt_id != h.bolt_id
    assert copy.serial == h.serial
    assert env.verify_bolt(h, h.serial) and env.verify_bolt(copy, h.serial)
    violations = env.audit_violations()
    assert any(h.serial.hex() in v for v in violations)


def test_certificate_release_flags_surviving_copies():
    env = fresh_env(sound=False)
    b = env.gen_bundle("a", 1)
    h = b.bolts[0]
    copy = env.clone_bundle(b).bolts[0]
    env.gen_certificate(h, h.serial)
    # the copy is still alive although a certificate is out: two violations
    assert env.is_alive(copy)
    assert len(env.audit_violations()) >= 1


def test_foreign_handles_are_rejected():
    env_a, env_b = fresh_env(), fresh_env(SEED1)
    h = bolt(env_a)
    with pytest.raises(DomainError):
        env_b.verify_bolt(h, h.serial)


def test_snapshot_tracks_state():
    env = fresh_env()
    s0 = env.snapshot()
    h = bolt(env)
    s1 = env.snapshot()
    assert s0 != s1
    env.gen_certificate(h, h.serial)
    assert env.snapshot() != s1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 999)), max_size=40),
       st.integers(0, 2**32 - 1))
def test_operation_sequences_preserve_exclusivity(ops, seed):
    """Whatever the order of mint/verify/certify/transfer requests on 1-bolt
    bundles, sound mode never produces two live handles per serial, and a
    released certificate marks its bolt dead forever."""
    env = ql_setup(128, seed.to_bytes(32, "big"))
    bundles, certified = [], []
    parties = ["p1", "p2", "p3"]
    for op, pick in ops:
        if op == 0 or not bundles:
            bundles.append(env.gen_bundle(parties[pick % 3], 1))
            continue
        b = bundles[pick % len(bundles)]
        h = b.bolts[0]
        if op == 1:
            expected = env.is_alive(h)
            assert env.verify_bolt(h, h.serial) == expected
            assert env.verify_bundle(b, b.serial) == expected
        elif op == 2:
            if env.is_alive(h):
                c = env.gen_certificate(h, h.serial)
                certified.append((h, c))
            else:
                with pytest.raises(MeasureFailed):
                    env.gen_certificate(h, h.serial)
        else:
            owner = env.owner_of(b)
            env.transfer_bundle(b, owner, parties[pick % 3])
    assert env.audit_violations() == []
    for h, c in certified:
        assert not env.verify_bolt(h, h.serial)
        assert verify_certificate(h.serial, c)


# -- bundles ----------------------------------------------------------------


def _ids_and_serials(handles) -> list[tuple[int, bytes]]:
    return [(h.bolt_id, h.serial) for h in handles]


def test_bundle_draws_and_numbers_like_one_bolt_bundles():
    a, b = fresh_env(), fresh_env()
    singles = [a.gen_bundle("p", 1) for _ in range(5)]
    bolts = [s.bolts[0] for s in singles]
    bundle = b.gen_bundle("p", 5)
    assert _ids_and_serials(bundle.bolts) == _ids_and_serials(bolts)
    assert bundle.serial == b"".join(s.serial for s in singles)
    assert a.snapshot() == b.snapshot()
    # the next mint continues from the same random stream and id
    assert _ids_and_serials([bolt(a)]) == _ids_and_serials([bolt(b)])


def test_bundle_needs_at_least_one_bolt():
    with pytest.raises(DomainError):
        fresh_env().gen_bundle("p", 0)


def test_bundle_owner_is_every_bolts_owner():
    env = fresh_env()
    bundle = env.gen_bundle("alice", 3)
    env.transfer_bundle(bundle, "alice", "bob")
    assert env.owner_of(bundle) == "bob"
    assert [env.owner_of(h) for h in bundle.bolts] == ["bob"] * 3


def test_not_owner_refusal_leaves_the_bundle_where_it_was():
    env = fresh_env()
    bundle = env.gen_bundle("alice", 3)
    before = env.snapshot()
    with pytest.raises(NotOwner):
        env.transfer_bundle(bundle, "mallory", "mallory")
    assert env.owner_of(bundle) == "alice"
    assert all(env.owner_of(h) == "alice" for h in bundle.bolts)
    assert env.snapshot() == before


def test_bundled_bolts_move_only_with_their_bundle():
    env = fresh_env()
    bundle = env.gen_bundle("alice", 2)
    single = env.gen_bundle("alice", 1)
    env.transfer_bundle(single, "alice", "bob")
    assert env.owner_of(single.bolts[0]) == "bob"
    assert [env.owner_of(h) for h in bundle.bolts] == ["alice"] * 2


def test_foreign_bundles_are_rejected():
    env_a, env_b = fresh_env(), fresh_env(SEED1)
    bundle = env_a.gen_bundle("a", 2)
    env_b.gen_bundle("a", 2)  # same bundle id, other environment
    for op in (lambda: env_b.verify_bundle(bundle, bundle.serial),
               lambda: env_b.transfer_bundle(bundle, "a", "b"),
               lambda: env_b.clone_bundle(bundle),
               lambda: env_b.owner_of(bundle)):
        with pytest.raises(DomainError):
            op()
    assert env_a.owner_of(bundle) == "a"


def test_measuring_any_one_bolt_fails_the_bundle():
    for position in (0, 3, 7):
        env = fresh_env()
        bundle = env.gen_bundle("a", 8)
        assert env.verify_bundle(bundle, bundle.serial)
        h = bundle.bolts[position]
        env.gen_certificate(h, h.serial)
        assert not env.verify_bundle(bundle, bundle.serial)
        # a failed measurement does not count as a dead bolt
        with pytest.raises(MeasureFailed):
            env.gen_certificate(h, h.serial)
        other = env.gen_bundle("a", 8)
        with pytest.raises(MeasureFailed):
            env.gen_certificate(other.bolts[0], bytes(32))
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
    copies = [a.clone_bundle(s).bolts[0] for s in singles]
    bundle = b.gen_bundle("p", 3)
    copy = b.clone_bundle(bundle)
    assert _ids_and_serials(copy.bolts) == _ids_and_serials(copies)
    assert copy.serial == bundle.serial and copy.bundle_id != bundle.bundle_id
    assert a.snapshot() == b.snapshot()
    assert b.audit_violations() == a.audit_violations() != []
    # the copy moves on its own
    b.transfer_bundle(copy, "p", "q")
    assert b.owner_of(copy) == "q" and b.owner_of(bundle) == "p"


def _expected_violations(alive: dict, serials: dict, released: set) -> list[str]:
    alive_count = {}
    for bolt_id, is_alive in alive.items():
        if is_alive:
            alive_count[serials[bolt_id]] = alive_count.get(serials[bolt_id], 0) + 1
    out = []
    for serial, count in sorted(alive_count.items()):
        if count > 1:
            out.append(f"serial {serial.hex()} has {count} alive handles")
        if serial in released:
            out.append(f"serial {serial.hex()} alive after certificate release")
    return out


def _per_bolt_verify(env, bundle, serial: bytes) -> bool:
    segments = split_serial(serial)
    return len(segments) == len(bundle.bolts) and all(
        env.verify_bolt(h, s) for h, s in zip(bundle.bolts, segments))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 999),
                          st.integers(0, 999)), max_size=30),
       st.integers(0, 2**32 - 1), st.booleans())
def test_bundle_ops_agree_with_per_bolt_ops(ops, seed, sound):
    """After every step of a random mix of gen_bundle, measuring one bolt,
    transfer_bundle and clone_bundle, the bundle answers agree with the
    per-bolt ones and with a model kept here, and the audit reports what
    the model says it should."""
    env = ql_setup(128, seed.to_bytes(32, "big"), sound_mode=sound)
    parties = ["p1", "p2", "p3"]
    bundles, owner = [], {}           # owner: bundle_id -> model owner
    alive, serials, released = {}, {}, set()
    next_id = 1
    for op, pick, arg in ops:
        if op == 0 or not bundles:
            b = env.gen_bundle(parties[pick % 3], 1 + arg % 4)
            assert [h.bolt_id for h in b.bolts] == list(
                range(next_id, next_id + len(b.bolts)))
            next_id += len(b.bolts)
            bundles.append(b)
            owner[b.bundle_id] = parties[pick % 3]
            for h in b.bolts:
                alive[h.bolt_id], serials[h.bolt_id] = True, h.serial
        else:
            b = bundles[pick % len(bundles)]
            if op == 1:
                h = b.bolts[arg % len(b.bolts)]
                if alive[h.bolt_id]:
                    assert verify_certificate(h.serial, env.gen_certificate(h, h.serial))
                    alive[h.bolt_id] = False
                    released.add(h.serial)
                else:
                    with pytest.raises(MeasureFailed):
                        env.gen_certificate(h, h.serial)
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
                    assert [h.bolt_id for h in copy.bolts] == list(
                        range(next_id, next_id + len(b.bolts)))
                    next_id += len(b.bolts)
                    bundles.append(copy)
                    owner[copy.bundle_id] = owner[b.bundle_id]
                    for h, src in zip(copy.bolts, b.bolts):
                        alive[h.bolt_id] = alive[src.bolt_id]
                        serials[h.bolt_id] = h.serial
        for b in bundles:
            for serial in (b.serial, bundles[0].serial):
                assert env.verify_bundle(b, serial) == _per_bolt_verify(env, b, serial)
            assert env.verify_bundle(b, b.serial) == all(
                alive[h.bolt_id] for h in b.bolts)
            assert env.owner_of(b) == owner[b.bundle_id]
            assert all(env.owner_of(h) == owner[b.bundle_id] for h in b.bolts)
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


@pytest.fixture
def bolt_handles_made(monkeypatch):
    """Every BoltHandle constructed while the test runs."""
    made = []
    init = BoltHandle.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)
    monkeypatch.setattr(BoltHandle, "__init__", counting)
    return made


def test_minting_makes_no_bolt_handle(bolt_handles_made):
    env = fresh_env()
    bundle = env.gen_bundle("w", 512)
    assert bolt_handles_made == []
    assert len(bundle.bolts) == 512 and len(bolt_handles_made) == 512


def test_signing_touches_at_most_n_bolt_handles(bolt_handles_made):
    env = fresh_env()
    key = qlds_gen(env, QldsParams(256), "w")
    gen_sig(env, key, key.serial, b"pay bob")
    assert len(bolt_handles_made) <= 256


def test_bolt_ids_outside_the_environment_are_rejected():
    env, other = fresh_env(), fresh_env(SEED1)
    bundle = env.gen_bundle("a", 3)
    other.gen_bundle("a", 9)  # the same ids exist in the other environment
    serial = bundle.serial[:32]
    cases = [(env, BoltHandle(env.env_id, bolt_id, serial))
             for bolt_id in (0, -1, 4, 10**9)]
    cases.append((other, bundle.bolts[0]))  # issued by env, not by other
    for target, h in cases:
        for op in (lambda: target.verify_bolt(h, serial),
                   lambda: target.is_alive(h),
                   lambda: target.owner_of(h),
                   lambda: target.gen_certificate(h, serial)):
            with pytest.raises(DomainError):
                op()
    for bundle_id in (0, -1, 2):
        forged = BundleHandle(env.env_id, bundle_id, bundle.serial, 1)
        with pytest.raises(DomainError):
            env.verify_bundle(forged, bundle.serial)
    assert env.verify_bundle(bundle, bundle.serial)


def test_measure_bolts_matches_one_certificate_at_a_time():
    a, b = fresh_env(), fresh_env()
    ka, kb = a.gen_bundle("p", 6), b.gen_bundle("p", 6)
    positions = (4, 0, 5)
    certs = a.measure_bolts(ka, positions)
    handles = kb.bolts
    assert certs == b"".join(
        b.gen_certificate(handles[i], handles[i].serial) for i in positions)
    assert a.snapshot() == b.snapshot()
    assert not a.verify_bundle(ka, ka.serial)


def test_measure_bolts_stops_at_the_first_dead_bolt():
    env = fresh_env()
    bundle = env.gen_bundle("p", 4)
    env.measure_bolts(bundle, (2,))
    certs = env.measure_bolts(bundle, (0, 2, 3))
    # bolt 0 stays measured, bolt 2 was dead, bolt 3 is untouched
    assert len(certs) == 16 and verify_certificate(bundle.bolts[0].serial, certs)
    assert [env.is_alive(h) for h in bundle.bolts] == [False, True, False, True]
    assert env.measure_bolts(bundle, ()) == b""
    for positions in ((4,), (-1,), (1, 4)):
        with pytest.raises(DomainError):
            env.measure_bolts(bundle, positions)
    assert env.is_alive(bundle.bolts[1])
