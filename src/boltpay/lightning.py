"""Classical oracle simulation of uncloneable money states ("bolts").

A bolt is a quantum state that anybody can verify against a public serial
number but nobody can copy.  The simulation replaces the state with a
move-only handle: the secret preimage behind each serial lives only inside
the environment, and every operation that physics would forbid is refused
by construction.  With ``sound_mode=False`` the no-cloning rule is switched
off, giving a negative control for the security harness.

Every bolt belongs to a bundle: a fixed sequence of bolts with one owner.
A banknote, a signing key and a lone bolt (a 1-bolt bundle) all change
hands, verify and get cloned in one step, whatever their size, while
their bolts can still be verified and measured one at a time.  A bundle
is stored flat (secrets from one draw, serials, a liveness bytearray), so
a mint makes O(1) Python objects; bolt handles are made only on request.

All randomness comes from a caller-supplied 32-byte seed, so two
environments driven through the same operation sequence are bit-identical.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import struct
from bisect import bisect_right
from dataclasses import dataclass

from .errors import DomainError, MeasureFailed, NotOwner, SetupRejected

SERIAL_TAG = b"QLBOLT"
PREIMAGE_LEN = 16
SERIAL_LEN = 32
MIN_LAMBDA = 64
_PREIMAGES = struct.Struct(f"{PREIMAGE_LEN}s")

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

    ``serial`` is the concatenation of the bolts' serials, in order, and
    the bolts' ids run on from ``first_bolt``.  The bolts keep their own
    liveness, so a single one can be measured, but they have one owner,
    held by the bundle, and move only with it.
    """

    env_id: int
    bundle_id: int
    serial: bytes
    first_bolt: int

    @property
    def count(self) -> int:
        return len(self.serial) // SERIAL_LEN

    @property
    def bolts(self) -> tuple[BoltHandle, ...]:
        """A handle per bolt, in order; made afresh on every call."""
        env_id, first, serial = self.env_id, self.first_bolt, self.serial
        return tuple(BoltHandle(env_id, first + i, serial[o:o + SERIAL_LEN])
                     for i, o in enumerate(range(0, len(serial), SERIAL_LEN)))


@dataclass(slots=True)
class _BundleRecord:
    first: int          # id of the first bolt; bolt first + i is at index i
    secrets: bytes      # the bolts' preimages, concatenated
    serial: bytes       # the bolts' serials, concatenated
    alive: bytearray    # one byte per bolt: 1 alive, 0 measured
    owner: str


def serial_of(secret: bytes) -> bytes:
    """Public serial bound to a secret preimage."""
    return hashlib.sha256(SERIAL_TAG + secret).digest()


def serials_of(secrets: bytes) -> bytes:
    """serial_of for each 16-byte preimage of ``secrets``, concatenated."""
    sha256 = hashlib.sha256
    return b"".join([sha256(SERIAL_TAG + secret).digest()
                     for (secret,) in _PREIMAGES.iter_unpack(secrets)])


def verify_certificate(serial: bytes, certificate: bytes) -> bool:
    """Stateless check that a certificate opens a single serial."""
    return len(serial) == SERIAL_LEN and verify_certificate_segments(serial, certificate)


def verify_certificate_segments(serial: bytes, certificate: bytes) -> bool:
    """Segment-wise certificate check for concatenated serials.

    A serial made of k 32-byte segments is opened by k concatenated 16-byte
    preimages, one per segment.  k=1 reduces to verify_certificate.
    """
    if (not serial or len(serial) % SERIAL_LEN != 0
            or len(certificate) != len(serial) // SERIAL_LEN * PREIMAGE_LEN):
        return False
    return serials_of(certificate) == serial


class QuantumEnv:
    """Store of every bundle's bolts plus the deterministic randomness source.

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
        self._bundles: list[_BundleRecord] = []  # bundle id k at index k - 1
        self._firsts: list[int] = []             # their first bolt ids, ascending
        self._next_id = 1

    # -- randomness ---------------------------------------------------

    def draw_bytes(self, k: int) -> bytes:
        """Deterministic byte draw (nonces, replacement secrets)."""
        return self._rng.randbytes(k)

    # -- operations ---------------------------------------------------

    def gen_bundle(self, owner: str, count: int) -> BundleHandle:
        """Mint ``count`` fresh bolts as one bundle owned by ``owner``.

        Bolt ids run on from the last mint, and the secrets come from a
        single draw of 16 bytes per bolt, which gives the same bytes as a
        16-byte draw per bolt: a k-bolt bundle draws and numbers its bolts
        exactly as k 1-bolt bundles would.
        """
        if count < 1:
            raise DomainError("a bundle holds at least one bolt")
        secrets = self._rng.randbytes(PREIMAGE_LEN * count)
        return self._register(secrets, serials_of(secrets),
                              bytearray(b"\x01") * count, owner)

    def _register(self, secrets: bytes, serial: bytes, alive: bytearray,
                  owner: str) -> BundleHandle:
        first = self._next_id
        self._next_id = first + len(alive)
        self._bundles.append(_BundleRecord(first, secrets, serial, alive, owner))
        self._firsts.append(first)
        return BundleHandle(self.env_id, len(self._bundles), serial, first)

    def _locate(self, handle: BoltHandle) -> tuple[_BundleRecord, int]:
        """The bundle holding a bolt, and the bolt's index in it."""
        bolt_id = handle.bolt_id
        if handle.env_id != self.env_id or not 0 < bolt_id < self._next_id:
            raise DomainError("handle was not issued by this environment")
        rec = self._bundles[bisect_right(self._firsts, bolt_id) - 1]
        return rec, bolt_id - rec.first

    def _bundle(self, handle: BundleHandle) -> _BundleRecord:
        if (handle.env_id != self.env_id
                or not 0 < handle.bundle_id <= len(self._bundles)):
            raise DomainError("bundle was not issued by this environment")
        return self._bundles[handle.bundle_id - 1]

    def verify_bolt(self, handle: BoltHandle, serial: bytes) -> bool:
        """Non-destructive verification against a claimed serial.

        Leaves the bolt exactly as found; verifying twice gives the same
        answer twice.
        """
        rec, i = self._locate(handle)
        o = i * SERIAL_LEN
        return rec.alive[i] == 1 and rec.serial[o:o + SERIAL_LEN] == serial

    def verify_bundle(self, handle: BundleHandle, serial: bytes) -> bool:
        """verify_bolt for every bolt of the bundle against its segment of
        ``serial``, in one step: no bolt is dead and the serial matches."""
        rec = self._bundle(handle)
        return 0 not in rec.alive and rec.serial == serial

    def gen_certificate(self, handle: BoltHandle, serial: bytes) -> bytes:
        """Destructive measurement: trades the bolt for its preimage.

        After this call the handle is dead and will never verify again.
        """
        rec, i = self._locate(handle)
        o = i * SERIAL_LEN
        if rec.alive[i] != 1 or rec.serial[o:o + SERIAL_LEN] != serial:
            raise MeasureFailed("bolt is dead or serial does not match")
        return self._measure(rec, (i,))

    def measure_bolts(self, handle: BundleHandle, positions) -> bytes:
        """Destructively measure the bolts at 0-based ``positions``, in
        order, and return their preimages, concatenated.  Stops at the first
        dead bolt, with those before it measured: the result is then short,
        and ``positions[len(result) // 16]`` is the dead bolt."""
        rec = self._bundle(handle)
        if positions and not 0 <= min(positions) <= max(positions) < len(rec.alive):
            raise DomainError("bolt position outside the bundle")
        return self._measure(rec, positions)

    @staticmethod
    def _measure(rec: _BundleRecord, positions) -> bytes:
        alive, secrets, certs = rec.alive, rec.secrets, []
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
        under fresh bolt ids as a new bundle with the same owner: the
        negative control the adversarial harness must catch.
        """
        rec = self._bundle(handle)
        if self.params.sound_mode:
            return None
        return self._register(rec.secrets, rec.serial, bytearray(rec.alive),
                              rec.owner)

    # -- inspection ---------------------------------------------------

    def owner_of(self, handle: BoltHandle | BundleHandle) -> str:
        """Holder of a bundle, or of the bundle a bolt belongs to."""
        if isinstance(handle, BundleHandle):
            return self._bundle(handle).owner
        return self._locate(handle)[0].owner

    def is_alive(self, handle: BoltHandle) -> bool:
        rec, i = self._locate(handle)
        return rec.alive[i] == 1

    def _each_bolt(self):
        """(bolt id, secret, serial, alive 1/0, owner) of every bolt, by id."""
        for rec in self._bundles:
            for i, alive in enumerate(rec.alive):
                yield (rec.first + i,
                       rec.secrets[i * PREIMAGE_LEN:(i + 1) * PREIMAGE_LEN],
                       rec.serial[i * SERIAL_LEN:(i + 1) * SERIAL_LEN],
                       alive, rec.owner)

    def audit_violations(self) -> list[str]:
        """No-cloning and certificate-exclusivity audit.

        Returns one message per violated serial; empty in any sound-mode
        history, by construction.  A certificate is released only by
        measuring a bolt, and a clone of a dead bolt is dead too, so the
        serials whose certificates are out are exactly those of dead bolts.
        """
        alive_count: dict[bytes, int] = {}
        released: set[bytes] = set()
        for _, _, serial, alive, _ in self._each_bolt():
            if alive:
                alive_count[serial] = alive_count.get(serial, 0) + 1
            else:
                released.add(serial)
        out = []
        for serial, count in sorted(alive_count.items()):
            if count > 1:
                out.append(f"serial {serial.hex()} has {count} alive handles")
            if serial in released:
                out.append(f"serial {serial.hex()} alive after certificate release")
        return out

    def snapshot(self) -> bytes:
        """Canonical digest of every bolt, for determinism checks."""
        h = hashlib.sha256()
        for bolt_id, secret, serial, alive, owner in self._each_bolt():
            h.update(b"".join((bolt_id.to_bytes(8, "big"), secret, serial,
                               bytes((alive,)), owner.encode(), b"\x00")))
        return h.digest()


def ql_setup(lambda_bits: int, seed: bytes, sound_mode: bool = True) -> QuantumEnv:
    """Stand up a fresh environment; rejects lambda below the minimum."""
    return QuantumEnv(LightningParams(lambda_bits, sound_mode=sound_mode), seed)
