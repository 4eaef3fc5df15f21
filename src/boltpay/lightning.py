"""Classical oracle simulation of uncloneable money states ("bolts").

A bolt is a quantum state that anybody can verify against a public serial
number but nobody can copy.  The simulation replaces the state with a
move-only handle: the secret preimage behind each serial lives only inside
the environment's registry, and every operation that physics would forbid
is refused by construction.  With ``sound_mode=False`` the no-cloning rule
is switched off, giving a negative control for the security harness.

Every bolt belongs to a bundle: a fixed sequence of bolts with one owner.
A banknote, a signing key and a lone bolt (a 1-bolt bundle) all change
hands, verify and get cloned in one step, whatever their size, while
their bolts can still be verified and measured one at a time.

All randomness comes from a caller-supplied 32-byte seed, so two
environments driven through the same operation sequence are bit-identical.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

from .errors import DomainError, MeasureFailed, NotOwner, SetupRejected

SERIAL_TAG = b"QLBOLT"
PREIMAGE_LEN = 16
SERIAL_LEN = 32
MIN_LAMBDA = 64

_env_counter = itertools.count(1)


@dataclass(frozen=True)
class LightningParams:
    """Public parameters of one simulated environment."""

    lambda_bits: int
    sound_mode: bool = True


@dataclass(frozen=True, slots=True)
class BoltHandle:
    """Move-only token standing in for possession of one money state.

    The handle exposes the public serial; the secret preimage stays in the
    issuing environment.  Handles from one environment are meaningless in
    another and are rejected there.
    """

    env_id: int
    bolt_id: int
    serial: bytes


@dataclass(frozen=True, slots=True)
class BundleHandle:
    """Possession of a fixed sequence of bolts that move together.

    ``serial`` is the concatenation of the bolts' serials, in order.  The
    bolts keep their own liveness, so a single one can be measured, but
    they have one owner, held by the bundle, and move only with it.
    """

    env_id: int
    bundle_id: int
    serial: bytes
    bolts: tuple[BoltHandle, ...]


@dataclass(slots=True)
class _BundleRecord:
    serial: bytes
    owner: str
    measured: int  # bolts of the bundle measured so far


@dataclass(slots=True)
class _BoltRecord:
    secret: bytes
    serial: bytes
    alive: bool
    bundle: _BundleRecord  # holds the owner


def serial_of(secret: bytes) -> bytes:
    """Public serial bound to a secret preimage."""
    return hashlib.sha256(SERIAL_TAG + secret).digest()


def verify_certificate(serial: bytes, certificate: bytes) -> bool:
    """Stateless check that a certificate opens a single serial."""
    if len(serial) != SERIAL_LEN or len(certificate) != PREIMAGE_LEN:
        return False
    return serial_of(certificate) == serial


def verify_certificate_segments(serial: bytes, certificate: bytes) -> bool:
    """Segment-wise certificate check for concatenated serials.

    A serial made of k 32-byte segments is opened by k concatenated 16-byte
    preimages, one per segment.  k=1 reduces to verify_certificate.
    """
    if not serial or len(serial) % SERIAL_LEN != 0:
        return False
    k = len(serial) // SERIAL_LEN
    if len(certificate) != k * PREIMAGE_LEN:
        return False
    for i in range(k):
        s = serial[i * SERIAL_LEN:(i + 1) * SERIAL_LEN]
        c = certificate[i * PREIMAGE_LEN:(i + 1) * PREIMAGE_LEN]
        if not verify_certificate(s, c):
            return False
    return True


class QuantumEnv:
    """Registry of live bolts plus the deterministic randomness source.

    Everything the "physics" knows lives here: secrets, liveness, and
    ownership.  Callers only ever hold BoltHandle and BundleHandle values.
    """

    def __init__(self, params: LightningParams, seed: bytes):
        if params.lambda_bits < MIN_LAMBDA:
            raise SetupRejected(f"lambda_bits {params.lambda_bits} < {MIN_LAMBDA}")
        if len(seed) != 32:
            raise SetupRejected("seed must be exactly 32 bytes")
        self.params = params
        self.env_id = next(_env_counter)
        self._rng = random.Random(int.from_bytes(seed, "big"))
        self._registry: dict[int, _BoltRecord] = {}
        self._bundles: dict[int, _BundleRecord] = {}
        self._next_id = 1
        self._released_certs: set[bytes] = set()

    # -- randomness ---------------------------------------------------

    def draw_bytes(self, k: int) -> bytes:
        """Deterministic byte draw (nonces, replacement secrets)."""
        return self._rng.randbytes(k)

    # -- operations ---------------------------------------------------

    def gen_bundle(self, owner: str, count: int) -> BundleHandle:
        """Mint ``count`` fresh bolts as one bundle owned by ``owner``.

        Bolt ids run on from the last mint, and each bolt draws its 16-byte
        secret in turn, so a k-bolt bundle draws and numbers its bolts
        exactly as k 1-bolt bundles would.
        """
        if count < 1:
            raise DomainError("a bundle holds at least one bolt")
        bundle = _BundleRecord(b"", owner, 0)
        draw, registry, env_id = self._rng.randbytes, self._registry, self.env_id
        first = self._next_id
        self._next_id = first + count
        bolts = []
        for bolt_id in range(first, first + count):
            secret = draw(PREIMAGE_LEN)
            serial = serial_of(secret)
            registry[bolt_id] = _BoltRecord(secret, serial, True, bundle)
            bolts.append(BoltHandle(env_id, bolt_id, serial))
        bundle.serial = b"".join([h.serial for h in bolts])
        return self._register_bundle(bundle, tuple(bolts))

    def _register_bundle(self, bundle: _BundleRecord,
                         bolts: tuple[BoltHandle, ...]) -> BundleHandle:
        bundle_id = len(self._bundles) + 1
        self._bundles[bundle_id] = bundle
        return BundleHandle(self.env_id, bundle_id, bundle.serial, bolts)

    def _record(self, handle: BoltHandle) -> _BoltRecord:
        if handle.env_id != self.env_id or handle.bolt_id not in self._registry:
            raise DomainError("handle was not issued by this environment")
        return self._registry[handle.bolt_id]

    def _bundle(self, handle: BundleHandle) -> _BundleRecord:
        if handle.env_id != self.env_id or handle.bundle_id not in self._bundles:
            raise DomainError("bundle was not issued by this environment")
        return self._bundles[handle.bundle_id]

    def verify_bolt(self, handle: BoltHandle, serial: bytes) -> bool:
        """Non-destructive verification against a claimed serial.

        Leaves the bolt exactly as found; verifying twice gives the same
        answer twice.
        """
        rec = self._record(handle)
        return rec.alive and rec.serial == serial

    def verify_bundle(self, handle: BundleHandle, serial: bytes) -> bool:
        """verify_bolt for every bolt of the bundle against its segment of
        ``serial``, in one step: no bolt is dead and the serial matches."""
        rec = self._bundle(handle)
        return rec.measured == 0 and rec.serial == serial

    def gen_certificate(self, handle: BoltHandle, serial: bytes) -> bytes:
        """Destructive measurement: trades the bolt for its preimage.

        After this call the handle is dead and will never verify again.
        """
        rec = self._record(handle)
        if not rec.alive or rec.serial != serial:
            raise MeasureFailed("bolt is dead or serial does not match")
        rec.alive = False
        rec.bundle.measured += 1
        self._released_certs.add(rec.serial)
        return rec.secret

    def transfer_bundle(self, handle: BundleHandle, sender: str, receiver: str) -> None:
        """Hand every bolt of the bundle to another party, or none."""
        rec = self._bundle(handle)
        if rec.owner != sender:
            raise NotOwner(f"{sender!r} does not hold this bundle")
        rec.owner = receiver

    def clone_bundle(self, handle: BundleHandle) -> BundleHandle | None:
        """Try to copy every bolt of the bundle, in order.

        Refused (returns None) in sound mode.  With sound_mode=False the
        copies, with the same secrets, serials and liveness, are registered
        under fresh bolt ids as a new bundle with the same owner: the
        negative control the adversarial harness must catch.
        """
        rec = self._bundle(handle)
        if self.params.sound_mode:
            return None
        sources = [self._record(h) for h in handle.bolts]
        copy = _BundleRecord(rec.serial, rec.owner, rec.measured)
        registry, env_id = self._registry, self.env_id
        first = self._next_id
        self._next_id = first + len(sources)
        bolts = []
        for bolt_id, src in enumerate(sources, first):
            registry[bolt_id] = _BoltRecord(src.secret, src.serial, src.alive,
                                            copy)
            bolts.append(BoltHandle(env_id, bolt_id, src.serial))
        return self._register_bundle(copy, tuple(bolts))

    # -- inspection ---------------------------------------------------

    def owner_of(self, handle: BoltHandle | BundleHandle) -> str:
        """Holder of a bundle, or of the bundle a bolt belongs to."""
        if isinstance(handle, BundleHandle):
            return self._bundle(handle).owner
        return self._record(handle).bundle.owner

    def is_alive(self, handle: BoltHandle) -> bool:
        return self._record(handle).alive

    def audit_violations(self) -> list[str]:
        """No-cloning and certificate-exclusivity audit.

        Returns one message per violated serial; empty in any sound-mode
        history, by construction.
        """
        alive_count: dict[bytes, int] = {}
        for rec in self._registry.values():
            if rec.alive:
                alive_count[rec.serial] = alive_count.get(rec.serial, 0) + 1
        out = []
        for serial, count in sorted(alive_count.items()):
            if count > 1:
                out.append(f"serial {serial.hex()} has {count} alive handles")
            if serial in self._released_certs:
                out.append(f"serial {serial.hex()} alive after certificate release")
        return out

    def snapshot(self) -> bytes:
        """Canonical digest of the registry, for determinism checks."""
        h = hashlib.sha256()
        for bolt_id in sorted(self._registry):
            rec = self._registry[bolt_id]
            h.update(bolt_id.to_bytes(8, "big"))
            h.update(rec.secret)
            h.update(rec.serial)
            h.update(b"\x01" if rec.alive else b"\x00")
            h.update(rec.bundle.owner.encode())
            h.update(b"\x00")
        return h.digest()


def ql_setup(lambda_bits: int, seed: bytes, sound_mode: bool = True) -> QuantumEnv:
    """Stand up a fresh environment; rejects lambda below the minimum."""
    return QuantumEnv(LightningParams(lambda_bits, sound_mode=sound_mode), seed)
