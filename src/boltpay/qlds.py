"""One-time signatures whose signing key is a bundle of 2n bolts.

The key is the bundle itself, and its serial is the public key.  It holds
two bolts per message bit.  Signing hashes the message to n bits and
destructively measures one bolt per bit (the i-th bolt for a zero bit, the
(n+i)-th for a one bit); the released preimages are the signature.
Verification is stateless hash comparison, so a smart contract can check a
signature without touching the environment.

Signing and verification pick their n positions through one bit mask over
the position pairs (j, n + j), derived once per (message, n): signer and
verifier share an LRU cache of the last CHOICE_CACHE_SIZE masks, so a
sign-and-verify pair hashes its message once.  Signing measures the
positions in bit order and stops at the first dead bolt; a position
already measured is dead.  Every certificate is hashed from a copy of one
SHA-256 state that has already taken the serial tag, so the cost is the n
hashes and bulk byte work, with no Python frame entered per bit.

Signing records each whole signature with its key's serial and choice mask
in a table of the last SIGNED_KEPT signatures made.  A check of one of them
under that serial and a message of that choice is answered from the table,
with no hashing: the signature is the key's preimages at the positions the
mask picks, and the serial is their hashes, so hashing would accept it too.
Every other check hashes.  The table caches only answers that hashing
gives, so verification still never touches the environment.

Holding the key proves nothing was signed yet: verification checks all 2n
bolts are alive, and every signature kills n of them.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from itertools import compress, repeat
from operator import getitem

from .errors import KeyExhausted, ParseError
from .lightning import PREIMAGE_LEN, SERIAL_LEN, BundleHandle, QuantumEnv, serials_of

DIGEST_BITS = 256  # message bits SHA-256 gives, so the largest n
CHOICE_CACHE_SIZE = 1024  # (message, n) pairs whose choice mask is kept
SIGNED_KEPT = 16  # signatures made whose serial and choice mask are kept

# signature -> (key serial, choice mask) of the last SIGNED_KEPT signatures
# made, oldest first
_SIGNED: dict[bytes, tuple[bytes, bytes]] = {}


@dataclass(frozen=True)
class QldsParams:
    """n = number of message-hash bits = half the bolt count per key."""

    n: int = DIGEST_BITS

    def __post_init__(self):
        if not 1 <= self.n <= DIGEST_BITS:
            raise ParseError(f"n must be in 1..256, got {self.n}")


_ONES = bytes.maketrans(b"01", b"\x00\x01")   # 1 where a bit is one
_ZEROS = bytes.maketrans(b"01", b"\x01\x00")  # 1 where a bit is zero


@functools.lru_cache(maxsize=CHOICE_CACHE_SIZE)
def _choice_mask(message: bytes, n: int) -> bytes:
    """Which key positions the message selects, one byte per position in
    the order j, n + j for j = 0..n-1: bit j of SHA-256(message) keeps
    position j for a zero and n + j for a one (two-column layout)."""
    digest = hashlib.sha256(message).digest()
    bits = format(int.from_bytes(digest, "big"), f"0{DIGEST_BITS}b")[:n].encode()
    mask = bytearray(2 * len(bits))
    mask[0::2] = bits.translate(_ZEROS)
    mask[1::2] = bits.translate(_ONES)
    return bytes(mask)


def message_bits(message: bytes, n: int) -> tuple[int, ...]:
    """First n bits of SHA-256(message), most significant bit first; the
    bolt signatures' cache keeps none of the messages it is given."""
    QldsParams(n)   # n outside 1..256
    return tuple(_choice_mask.__wrapped__(message, n)[1::2])


@functools.cache
def _position_pairs(n: int) -> tuple[int, ...]:
    """Key positions j and n + j for j = 0..n-1 in turn: the two positions
    bit j chooses between, in the order of _choice_mask."""
    return tuple(k for j in range(n) for k in (j, n + j))


@functools.cache
def _segment_pairs(n: int) -> tuple[slice, ...]:
    """The serial segments of _position_pairs(n), as slices of a 2n-segment
    serial."""
    return tuple(slice(k * SERIAL_LEN, (k + 1) * SERIAL_LEN)
                 for k in _position_pairs(n))


def qlds_gen(env: QuantumEnv, params: QldsParams, owner: str) -> BundleHandle:
    """Mint a fresh 2n-bolt key for ``owner``."""
    return env.gen_bundle(owner, 2 * params.n)


def _check_serial_size(serial: bytes) -> None:
    if not serial or len(serial) % SERIAL_LEN != 0:
        raise ParseError("serial length must be a positive multiple of 32")


def split_serial(serial: bytes) -> list[bytes]:
    _check_serial_size(serial)
    return [serial[i:i + SERIAL_LEN] for i in range(0, len(serial), SERIAL_LEN)]


def qlds_ver(env: QuantumEnv, key: BundleHandle, serial: bytes) -> bool:
    """Check the key is whole: every bolt is alive and the serial matches.

    Rejects as soon as any bolt was consumed, which is what makes the key
    one-time: a signed-with key can no longer be passed off as money.
    """
    _check_serial_size(serial)
    return key.count % 2 == 0 and env.verify_bundle(key, serial)


def gen_sig(env: QuantumEnv, key: BundleHandle, serial: bytes,
            message: bytes) -> bytes:
    """Sign by measuring one bolt per message bit; consumes those bolts.

    Consumption is in ascending bit position and sticks: if a needed bolt is
    already dead the call fails with KeyExhausted, and everything measured
    before the failure stays measured.  Only those n bolts are touched.
    """
    if serial != key.serial:
        raise ParseError("serial does not match key")
    n = key.count // 2
    if not 1 <= n <= DIGEST_BITS or key.count != 2 * n:
        raise ParseError("key must hold 2n bolts, n in 1..256")
    mask = _choice_mask(message, n)
    positions = tuple(compress(_position_pairs(n), mask))
    signature = env.measure_bolts(key, positions)
    j = len(signature) // PREIMAGE_LEN
    if j < n:
        raise KeyExhausted(f"component {positions[j] + 1} already consumed (bit {j + 1})")
    _SIGNED[signature] = (key.serial, mask)
    if len(_SIGNED) > SIGNED_KEPT:
        del _SIGNED[next(iter(_SIGNED))]
    return signature


def verify_sig(serial: bytes, message: bytes, signature: bytes) -> bool:
    """Signature check against the concatenated serial; never touches the
    environment.

    Works from the serial alone: n is inferred from its length, and each
    certificate must open the segment its message bit selects.  A signature
    gen_sig made among the last SIGNED_KEPT, checked under its key's serial
    and a message of its choice, is accepted from the table; the table
    holds only answers hashing gives.  Any other input hashes its n
    certificates, against only those n segments sliced out of the serial at
    precomputed offsets.  A serial of more than 512 segments needs more
    message bits than SHA-256 gives and never verifies.
    """
    if not serial or len(serial) % (2 * SERIAL_LEN) != 0:
        return False
    n = len(serial) // (2 * SERIAL_LEN)
    if n > DIGEST_BITS or len(signature) != n * PREIMAGE_LEN:
        return False
    mask = _choice_mask(message, n)
    if _SIGNED.get(signature) == (serial, mask):
        return True
    selected = b"".join(map(getitem, repeat(serial),
                            compress(_segment_pairs(n), mask)))
    return serials_of(signature) == selected
