"""One-time signatures whose signing key is a bundle of 2n bolts.

The key is the bundle itself, and its serial is the public key.  It holds
two bolts per message bit.  Signing hashes the message to n bits and
destructively measures one bolt per bit (the i-th bolt for a zero bit, the
(n+i)-th for a one bit); the released preimages are the signature.
Verification is stateless hash comparison, so a smart contract can check a
signature without touching the environment.

Holding the key proves nothing was signed yet: verification checks all 2n
bolts are alive, and every signature kills n of them.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from itertools import compress

from .errors import KeyExhausted, ParseError
from .lightning import PREIMAGE_LEN, SERIAL_LEN, BundleHandle, QuantumEnv, serials_of

DIGEST_BITS = 256  # message bits SHA-256 gives, so the largest n


@dataclass(frozen=True)
class QldsParams:
    """n = number of message-hash bits = half the bolt count per key."""

    n: int = DIGEST_BITS

    def __post_init__(self):
        if not 1 <= self.n <= DIGEST_BITS:
            raise ParseError(f"n must be in 1..256, got {self.n}")


def _bit_string(message: bytes, n: int) -> str:
    """First n bits of SHA-256(message) as '0'/'1', most significant first."""
    digest = hashlib.sha256(message).digest()
    return format(int.from_bytes(digest, "big"), f"0{DIGEST_BITS}b")[:n]


def message_bits(message: bytes, n: int) -> tuple[int, ...]:
    """First n bits of SHA-256(message), most significant bit first."""
    return tuple(map(int, _bit_string(message, n)))


def signing_indices(bits: tuple[int, ...]) -> tuple[int, ...]:
    """0-based key positions consumed for a given bit string.

    Bit j selects position j for a zero and n+j for a one (the classic
    two-column layout, columns of width n).
    """
    n = len(bits)
    return tuple(b * n + j for j, b in enumerate(bits))


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
    if n == 0 or key.count != 2 * n:
        raise ParseError("key must hold 2n bolts")
    positions = signing_indices(message_bits(message, n))
    signature = env.measure_bolts(key, positions)
    j = len(signature) // PREIMAGE_LEN
    if j < n:
        raise KeyExhausted(f"component {positions[j] + 1} already consumed (bit {j + 1})")
    return signature


@functools.cache
def _segment_pairs(n: int) -> tuple[slice, ...]:
    """Slices of segments j and n + j of a 2n-segment serial, for j = 0..n-1
    in turn: the two key positions bit j chooses between."""
    return tuple(slice(k * SERIAL_LEN, (k + 1) * SERIAL_LEN)
                 for j in range(n) for k in (j, n + j))


def verify_sig(serial: bytes, message: bytes, signature: bytes) -> bool:
    """Stateless signature check against the concatenated serial.

    Works from the serial alone: n is inferred from its length, and each
    certificate must open the segment its message bit selects.  Only those
    n segments are sliced out of the serial, through one memoryview at
    precomputed offsets.  A serial of more than 512 segments needs more
    message bits than SHA-256 gives and never verifies.
    """
    if not serial or len(serial) % (2 * SERIAL_LEN) != 0:
        return False
    n = len(serial) // (2 * SERIAL_LEN)
    if n > DIGEST_BITS or len(signature) != n * PREIMAGE_LEN:
        return False
    # a zero bit keeps the first slice of its pair, a one the second
    bits = _bit_string(message, n).encode()
    keep = bits.replace(b"0", b"\x01\x00").replace(b"1", b"\x00\x01")
    selected = b"".join(map(memoryview(serial).__getitem__,
                            compress(_segment_pairs(n), keep)))
    return serials_of(signature) == selected
