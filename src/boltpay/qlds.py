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

import hashlib
from dataclasses import dataclass

from .errors import KeyExhausted, ParseError
from .lightning import (
    PREIMAGE_LEN,
    SERIAL_LEN,
    BundleHandle,
    QuantumEnv,
    verify_certificate,
)

# A signature is the concatenation of n 16-byte certificates.
QldsSignature = bytes

DEFAULT_N = 256
DIGEST_BITS = 256  # message bits SHA-256 gives, so the largest n


@dataclass(frozen=True)
class QldsParams:
    """n = number of message-hash bits = half the bolt count per key."""

    n: int = DEFAULT_N

    def __post_init__(self):
        if not 1 <= self.n <= DIGEST_BITS:
            raise ParseError(f"n must be in 1..256, got {self.n}")


def message_bits(message: bytes, n: int) -> tuple[int, ...]:
    """First n bits of SHA-256(message), most significant bit first."""
    digest = hashlib.sha256(message).digest()
    return tuple((digest[i // 8] >> (7 - i % 8)) & 1 for i in range(n))


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
    return len(key.bolts) % 2 == 0 and env.verify_bundle(key, serial)


def gen_sig(env: QuantumEnv, key: BundleHandle, serial: bytes,
            message: bytes) -> QldsSignature:
    """Sign by measuring one bolt per message bit; consumes those bolts.

    Consumption is in ascending bit position and sticks: if a needed bolt is
    already dead the call fails with KeyExhausted, and everything measured
    before the failure stays measured.
    """
    if serial != key.serial:
        raise ParseError("serial does not match key")
    n = len(key.bolts) // 2
    if n == 0 or len(key.bolts) != 2 * n:
        raise ParseError("key must hold 2n bolts")
    bits = message_bits(message, n)
    certs = []
    for j, idx in enumerate(signing_indices(bits)):
        bolt = key.bolts[idx]
        if not env.is_alive(bolt):
            raise KeyExhausted(f"component {idx + 1} already consumed (bit {j + 1})")
        certs.append(env.gen_certificate(bolt, bolt.serial))
    return b"".join(certs)


def verify_sig(serial: bytes, message: bytes, signature: QldsSignature) -> bool:
    """Stateless signature check against the concatenated serial.

    Works from the serial alone: n is inferred from its length, and each
    certificate must open the segment its message bit selects.  Only those
    n segments are sliced out of the serial.  A serial of more than 512
    segments needs more message bits than SHA-256 gives and never verifies.
    """
    if not serial or len(serial) % (2 * SERIAL_LEN) != 0:
        return False
    n = len(serial) // (2 * SERIAL_LEN)
    if n > DIGEST_BITS or len(signature) != n * PREIMAGE_LEN:
        return False
    bits = message_bits(message, n)
    for j, idx in enumerate(signing_indices(bits)):
        cert = signature[j * PREIMAGE_LEN:(j + 1) * PREIMAGE_LEN]
        segment = serial[idx * SERIAL_LEN:(idx + 1) * SERIAL_LEN]
        if not verify_certificate(segment, cert):
            return False
    return True
