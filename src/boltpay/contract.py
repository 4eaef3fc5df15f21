"""The banknote contract: the circuit that backs a note with coins.

A banknote is a bolt (or signing-key bundle of bolts) whose serial is
stored in a single-party contract holding the note's face value.  The
circuit arbitrates exactly three stories:

* the holder redeems, proving possession by opening the serial;
* someone says the note is lost, posts a deposit, and after a maturity
  window collects the deposit back and rebinds the contract to a fresh
  serial they control;
* the real holder answers such a claim within the window, proving
  possession, which rebinds the contract to the holder's fresh serial and
  awards them the claimant's deposit.

One circuit tells the story for three variants, which differ in two ways
only: the base variant proves possession by revealing preimages, the
sig-gated and commit-reveal variants by a one-time signature naming the
acting party (so a bystander cannot replay the proof); and the
commit-reveal variant replaces the direct lost claim with a
commit-then-reveal pair to blunt claim front-running.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from .errors import ParseError
from .ledger import ALL_COINS, ContractParams, register_circuit
from .lightning import SERIAL_LEN, verify_certificate
from .qlds import verify_sig

COMMIT_TAG = b"QLCOMMIT"
CHALLENGE_TAG = b"CHALLENGE:"
RECOVER_TAG = b"RECOVER:"
NONCE_LEN = 16


@dataclass(frozen=True)
class PhiParams:
    """Network-wide circuit constants; equal for every note in a network."""

    variant: str = "base"
    d0: int = 10        # deposit a lost-note claim must post
    t_tr: int = 100     # ticks an unanswered claim needs to mature
    t0: int = 10        # commit-reveal: reveal deadline after commit
    t1: int = 10        # commit-reveal: settle delay after reveal

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        for name in ("d0", "t_tr", "t0", "t1"):
            value = getattr(self, name)
            if value < 0:
                raise ParseError(f"{name} must not be negative, got {value}")


# -- claim states ------------------------------------------------------

@dataclass(frozen=True)
class NoActiveClaim:
    """Falsy, so the ledger's claim index leaves an unclaimed note out."""

    def __bool__(self) -> bool:
        return False


NO_CLAIM = NoActiveClaim()


@dataclass(frozen=True)
class ClaimBy:
    pid: str
    since: int


@dataclass(frozen=True)
class CommitEntry:
    pid: str
    commitment: bytes
    committed_at: int
    revealed_at: int | None = None


@dataclass(frozen=True)
class LostClaimCommits:
    entries: tuple[CommitEntry, ...] = ()


@dataclass(frozen=True)
class BanknoteState:
    """(serial, claim) pair the ledger stores; serial None once redeemed."""

    serial: bytes | None
    claim: object


# -- witnesses ---------------------------------------------------------

@dataclass(frozen=True)
class BanknoteLost:
    pass


@dataclass(frozen=True)
class ChallengeClaim:
    certificate: bytes
    new_serial: bytes


@dataclass(frozen=True)
class ClaimUnchallenged:
    new_serial: bytes


@dataclass(frozen=True)
class RecoverCoins:
    certificate: bytes


@dataclass(frozen=True)
class ChallengeClaimSig:
    signature: bytes
    new_serial: bytes


@dataclass(frozen=True)
class RecoverCoinsSig:
    signature: bytes


@dataclass(frozen=True)
class CommitLost:
    commitment: bytes


@dataclass(frozen=True)
class RevealLost:
    nonce: bytes


def commitment_hash(pid: str, context: bytes, nonce: bytes) -> bytes:
    """Commitment to "pid is filing a lost claim here", hiding the nonce."""
    return hashlib.sha256(COMMIT_TAG + pid.encode() + context + nonce).digest()


def challenge_message(pid: str) -> bytes:
    return CHALLENGE_TAG + pid.encode()


def recover_message(pid: str) -> bytes:
    return RECOVER_TAG + pid.encode()


def _serial_ok(s) -> bool:
    return isinstance(s, bytes) and s and len(s) % SERIAL_LEN == 0


# -- the transition function -------------------------------------------

def phi_money(params: PhiParams, pid: str, w, t: int, st: BanknoteState, d: int):
    """The banknote circuit: (new_state, payout), or None for no transition.

    The variants differ in two places only: how possession is proven
    (_proves_possession) and how a lost note is claimed (_claim_step).
    """
    if not isinstance(st, BanknoteState) or st.serial is None:
        return None
    if isinstance(w, (RecoverCoins, RecoverCoinsSig)):
        if (isinstance(st.claim, NoActiveClaim) and d == 0
                and _proves_possession(params, pid, w, st.serial)):
            return BanknoteState(None, None), ALL_COINS
        return None
    return _claim_step(params, pid, w, t, st, d)


def _proves_possession(params: PhiParams, pid: str, w, serial: bytes) -> bool:
    """Preimages on base; elsewhere a one-time signature naming pid, so a
    proof lifted from someone else's pending message is useless to the
    lifter.  Each variant refuses the other's witness types outright."""
    if params.variant == "base":
        return (isinstance(w, (RecoverCoins, ChallengeClaim))
                and verify_certificate(serial, w.certificate))
    if isinstance(w, RecoverCoinsSig):
        return verify_sig(serial, recover_message(pid), w.signature)
    return (isinstance(w, ChallengeClaimSig)
            and verify_sig(serial, challenge_message(pid), w.signature))


def _claim_step(params: PhiParams, pid: str, w, t: int, st: BanknoteState, d: int):
    """The claim policy: a direct lost claim, or commit then reveal.

    A direct claim posts d0 and matures t_tr ticks later.  Under
    commit-reveal the claimant commits (deposit up front), opens the
    commitment within t0 ticks, and the earliest committer among those who
    revealed wins t1 ticks after its reveal; losing deposits stay in the pot.
    """
    claim = st.claim
    if params.variant != "commit-reveal":
        if isinstance(w, BanknoteLost):
            if isinstance(claim, NoActiveClaim) and d == params.d0:
                return BanknoteState(st.serial, ClaimBy(pid, t)), 0
            return None
        is_open = isinstance(claim, ClaimBy)
        matured = is_open and pid == claim.pid and t - claim.since > params.t_tr
    else:
        entries = claim.entries if isinstance(claim, LostClaimCommits) else ()
        if isinstance(w, CommitLost):
            if (d == params.d0 and isinstance(claim, (NoActiveClaim, LostClaimCommits))
                    and isinstance(w.commitment, bytes) and len(w.commitment) == 32):
                entry = CommitEntry(pid, w.commitment, t)
                return BanknoteState(st.serial, LostClaimCommits(entries + (entry,))), 0
            return None
        if isinstance(w, RevealLost):
            if d != 0 or len(w.nonce) != NONCE_LEN:
                return None
            want = commitment_hash(pid, st.serial, w.nonce)
            for i, e in enumerate(entries):
                if (e.pid == pid and e.revealed_at is None and e.commitment == want
                        and t - e.committed_at <= params.t0):
                    entries = entries[:i] + (replace(e, revealed_at=t),) + entries[i + 1:]
                    return BanknoteState(st.serial, LostClaimCommits(entries)), 0
            return None
        winner = min((e for e in entries if e.revealed_at is not None),
                     key=lambda e: e.committed_at, default=None)
        is_open = bool(entries)
        matured = (winner is not None and winner.pid == pid
                   and t - winner.revealed_at > params.t1)
    # an open claim ends when the holder answers it with a possession proof
    # or when it matures unanswered; either way the contract rebinds to the
    # sender's fresh serial and pays the sender d0
    if (not is_open or d != 0 or not isinstance(w, (
            ChallengeClaim, ChallengeClaimSig, ClaimUnchallenged))
            or not _serial_ok(w.new_serial)):
        return None
    if isinstance(w, ClaimUnchallenged):
        ended = matured
    else:
        ended = _proves_possession(params, pid, w, st.serial)
    return (BanknoteState(w.new_serial, NO_CLAIM), params.d0) if ended else None


# The single list of variant names, all served by phi_money; the ledger's
# _CIRCUITS registry, filled from it, is the only dispatch.  The table stays
# and the circuit keeps its name because the benchmark's tracer patches
# ledger._CIRCUITS and PHI_BY_VARIANT by name and counts contract.phi_money.
PHI_BY_VARIANT = {variant: phi_money
                  for variant in ("base", "sig-gated", "commit-reveal")}
VARIANTS = tuple(PHI_BY_VARIANT)
for _variant, _phi in PHI_BY_VARIANT.items():
    register_circuit(_variant, _phi)


def banknote_params(pid: str, value: int, phi: PhiParams,
                    serial: bytes) -> ContractParams:
    """Contract parameters for a fresh note of the given value and serial."""
    return ContractParams(
        members=(pid,),
        deposits=((pid, value),),
        circuit=phi,
        initial_state=BanknoteState(serial, NO_CLAIM),
    )


def is_banknote_contract(params: ContractParams, network: PhiParams) -> bool:
    """Shape check a payee runs before accepting a note.

    One member, that member's deposit is the face value, the circuit equals
    the network-wide constants, and the initial state is an unclaimed
    serial of whole segments.
    """
    if not isinstance(params, ContractParams) or len(params.members) != 1:
        return False
    member = params.members[0]
    if (len(params.deposits) != 1 or params.deposits[0][0] != member
            or params.circuit != network):
        return False
    st = params.initial_state
    return (isinstance(st, BanknoteState) and _serial_ok(st.serial)
            and st.claim == NO_CLAIM)
