"""Classical oracle simulation of uncloneable money states ("bolts").

A bolt is a quantum state that anybody can verify against a public serial
number but nobody can copy.  The simulation keeps the secret preimage
behind each serial inside the environment, hands out move-only bundle
handles, and refuses by construction every operation that physics would
forbid.  With ``sound_mode=False`` the no-cloning rule is switched off,
giving a negative control for the security harness.

Every bolt belongs to a bundle: a fixed sequence of bolts with one owner.
A banknote, a signing key and a lone bolt (a 1-bolt bundle) all change
hands, verify and get cloned in one step, whatever their size.  A bolt is
named by its bundle and its 0-based position there, which is how a single
bolt is verified or measured.  A bundle is stored flat (secrets from one
draw, serials, a liveness bytearray), so a mint makes O(1) Python objects.

All randomness comes from a caller-supplied 32-byte seed, so two
environments driven through the same operation sequence are bit-identical.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import struct
from dataclasses import dataclass

from .errors import DomainError, NotOwner, SetupRejected

SERIAL_TAG = b"QLBOLT"
PREIMAGE_LEN = 16
SERIAL_LEN = 32
MIN_LAMBDA = 64
_PREIMAGES = struct.Struct(f"{PREIMAGE_LEN}s")
_TAGGED = hashlib.sha256(SERIAL_TAG)  # copied for each preimage, never updated

_env_counter = itertools.count(1)


@dataclass(frozen=True, slots=True)
class BundleHandle:
    """Possession of a fixed sequence of bolts that move together.

    ``serial`` is the concatenation of the bolts' serials, in order; the
    bolt at 0-based position i has the i-th 32-byte segment.  The bolts
    keep their own liveness, so a single one can be verified or measured
    by position, but they have one owner, held by the bundle, and move only
    with it.  Handles from one environment are rejected by every other.
    """

    env_id: int
    bundle_id: int
    serial: bytes

    @property
    def count(self) -> int:
        return len(self.serial) // SERIAL_LEN


@dataclass(slots=True)
class _BundleRecord:
    secrets: bytes      # the bolts' preimages, concatenated
    serial: bytes       # the bolts' serials, concatenated
    alive: bytearray    # one byte per bolt: 1 alive, 0 measured
    owner: str


def serials_of(secrets: bytes) -> bytes:
    """The public serial SHA-256(SERIAL_TAG || preimage) of each 16-byte
    preimage of ``secrets``, concatenated.  Each hash starts from a copy of
    one state that has already taken the tag."""
    copy, serials = _TAGGED.copy, []
    for (secret,) in _PREIMAGES.iter_unpack(secrets):
        h = copy()
        h.update(secret)
        serials.append(h.digest())
    return b"".join(serials)


def verify_certificate(serial: bytes, certificate: bytes) -> bool:
    """Stateless check that a certificate opens a serial.

    A serial made of k 32-byte segments is opened by k concatenated 16-byte
    preimages, one per segment, in order.
    """
    if (not serial or len(serial) % SERIAL_LEN != 0
            or len(certificate) != len(serial) // SERIAL_LEN * PREIMAGE_LEN):
        return False
    return serials_of(certificate) == serial


class QuantumEnv:
    """Store of every bundle's bolts plus the deterministic randomness source.

    Everything the "physics" knows lives here: secrets, liveness, and
    ownership.  Callers only ever hold BundleHandle values, and name a
    single bolt by a bundle handle and a 0-based position.
    """

    def __init__(self, lambda_bits: int, seed: bytes, sound_mode: bool = True):
        if lambda_bits < MIN_LAMBDA:
            raise SetupRejected(f"lambda_bits {lambda_bits} < {MIN_LAMBDA}")
        if len(seed) != 32:
            raise SetupRejected("seed must be exactly 32 bytes")
        self.sound_mode = sound_mode
        self.env_id = next(_env_counter)
        self._rng = random.Random(int.from_bytes(seed, "big"))
        self._bundles: list[_BundleRecord] = []  # bundle id k at index k - 1
        self._by_serial: dict[bytes, list[_BundleRecord]] = {}  # a serial's bundles

    # -- randomness ---------------------------------------------------

    def draw_bytes(self, k: int) -> bytes:
        """Deterministic byte draw (nonces, replacement secrets)."""
        return self._rng.randbytes(k)

    # -- operations ---------------------------------------------------

    def gen_bundle(self, owner: str, count: int) -> BundleHandle:
        """Mint ``count`` fresh bolts as one bundle owned by ``owner``.

        The secrets come from a single draw of 16 bytes per bolt, which
        gives the same bytes as a 16-byte draw per bolt: a k-bolt bundle
        draws its bolts exactly as k 1-bolt bundles would.
        """
        if count < 1:
            raise DomainError("a bundle holds at least one bolt")
        secrets = self._rng.randbytes(PREIMAGE_LEN * count)
        return self._register(secrets, serials_of(secrets),
                              bytearray(b"\x01") * count, owner)

    def _register(self, secrets: bytes, serial: bytes, alive: bytearray,
                  owner: str) -> BundleHandle:
        rec = _BundleRecord(secrets, serial, alive, owner)
        self._bundles.append(rec)
        self._by_serial.setdefault(serial, []).append(rec)
        return BundleHandle(self.env_id, len(self._bundles), serial)

    def _bundle(self, handle: BundleHandle) -> _BundleRecord:
        if (handle.env_id != self.env_id
                or not 0 < handle.bundle_id <= len(self._bundles)):
            raise DomainError("bundle was not issued by this environment")
        return self._bundles[handle.bundle_id - 1]

    def verify_bolt(self, handle: BundleHandle, position: int, serial: bytes) -> bool:
        """Non-destructive check of the bolt at 0-based ``position`` against
        a claimed 32-byte serial: verifying twice gives the same answer twice."""
        rec = self._bundle(handle)
        if not 0 <= position < len(rec.alive):
            raise DomainError("bolt position outside the bundle")
        o = position * SERIAL_LEN
        return rec.alive[position] == 1 and rec.serial[o:o + SERIAL_LEN] == serial

    def verify_bundle(self, handle: BundleHandle, serial: bytes) -> bool:
        """verify_bolt for every bolt of the bundle against its segment of
        ``serial``, in one step: no bolt is dead and the serial matches."""
        rec = self._bundle(handle)
        return 0 not in rec.alive and rec.serial == serial

    def measure_bolts(self, handle: BundleHandle, positions) -> bytes:
        """Destructively measure the bolts at 0-based ``positions``, in
        order, trading each for its preimage, and return the preimages,
        concatenated.  A measured bolt never verifies again.  Stops at the
        first dead bolt, with those before it measured: the result is then
        short, and ``positions[len(result) // 16]`` is the dead bolt."""
        rec = self._bundle(handle)
        alive, secrets, certs = rec.alive, rec.secrets, []
        if positions and not 0 <= min(positions) <= max(positions) < len(alive):
            raise DomainError("bolt position outside the bundle")
        for i in positions:
            if alive[i] != 1:
                break
            alive[i] = 0
            certs.append(secrets[i * PREIMAGE_LEN:(i + 1) * PREIMAGE_LEN])
        return b"".join(certs)

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
        as a new bundle with the same owner: the negative control the
        adversarial harness must catch.
        """
        rec = self._bundle(handle)
        if self.sound_mode:
            return None
        return self._register(rec.secrets, rec.serial, bytearray(rec.alive),
                              rec.owner)

    # -- inspection ---------------------------------------------------

    def owner_of(self, handle: BundleHandle) -> str:
        """Holder of a bundle, and so of each of its bolts."""
        return self._bundle(handle).owner

    def holders(self, serial: bytes) -> list[str]:
        """Owners of the bundles minted or cloned with this whole serial."""
        return [rec.owner for rec in self._by_serial.get(serial, ())]

    def audit_violations(self) -> list[str]:
        """No-cloning and certificate-exclusivity audit.

        Returns one message per violated serial; empty in any sound-mode
        history, by construction.  A certificate is released only by
        measuring a bolt, and a clone of a dead bolt is dead too, so the
        serials whose certificates are out are exactly those of dead bolts.
        Fresh serials never collide and a clone copies a whole serial, so
        only bundles sharing their whole serial can share a bolt's serial:
        those are visited bolt by bolt, and a lone bundle not at all.
        """
        alive_count: dict[bytes, int] = {}
        released: set[bytes] = set()
        for serial, recs in self._by_serial.items():
            if len(recs) < 2:
                continue
            for rec in recs:
                for i, alive in enumerate(rec.alive):
                    segment = serial[i * SERIAL_LEN:(i + 1) * SERIAL_LEN]
                    if alive:
                        alive_count[segment] = alive_count.get(segment, 0) + 1
                    else:
                        released.add(segment)
        out = []
        for serial, count in sorted(alive_count.items()):
            if count > 1:
                out.append(f"serial {serial.hex()} has {count} alive handles")
            if serial in released:
                out.append(f"serial {serial.hex()} alive after certificate release")
        return out

    def snapshot(self) -> bytes:
        """Canonical digest of every bolt, for determinism checks; bolts are
        numbered 1, 2, ... in bundle order, bundles in mint order."""
        h = hashlib.sha256()
        bolt_ids = itertools.count(1)
        for rec in self._bundles:
            for i, alive in enumerate(rec.alive):
                h.update(b"".join((
                    next(bolt_ids).to_bytes(8, "big"),
                    rec.secrets[i * PREIMAGE_LEN:(i + 1) * PREIMAGE_LEN],
                    rec.serial[i * SERIAL_LEN:(i + 1) * SERIAL_LEN],
                    bytes((alive,)), rec.owner.encode(), b"\x00")))
        return h.digest()


def ql_setup(lambda_bits: int, seed: bytes, sound_mode: bool = True) -> QuantumEnv:
    """Stand up a fresh environment; rejects lambda below the minimum."""
    return QuantumEnv(lambda_bits, seed, sound_mode)
