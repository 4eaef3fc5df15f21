"""Independent restatement of the banknote transition rules.

Everything here is recomputed from scratch with hashlib: preimage checks,
bit selection, commitment hashes.  Only the witness and state dataclasses
are imported, so a disagreement points at rule logic rather than at type
plumbing.  The rules are written witness-first (the production code is
state-first) to keep the two derivations honestly separate.
"""

import hashlib
from itertools import product

from boltpay.contract import (
    BanknoteLost,
    BanknoteState,
    ChallengeClaim,
    ChallengeClaimSig,
    ClaimBy,
    ClaimUnchallenged,
    CommitEntry,
    CommitLost,
    LostClaimCommits,
    NoActiveClaim,
    PhiParams,
    RecoverCoins,
    RecoverCoinsSig,
    RevealLost,
    phi_money,
)
from boltpay.ledger import ALL_COINS


def _h(data):
    return hashlib.sha256(data).digest()


def open_serial(serial, cert):
    """Every 32-byte segment must be the tagged hash of its 16-byte piece."""
    if not serial or len(serial) % 32:
        return False
    k = len(serial) // 32
    if not isinstance(cert, (bytes, bytearray)) or len(cert) != 16 * k:
        return False
    return all(
        _h(b"QLBOLT" + bytes(cert[i * 16:(i + 1) * 16])) == serial[i * 32:(i + 1) * 32]
        for i in range(k))


def open_signature(serial, message, sig):
    """Piece j must open the segment picked by bit j of the message hash."""
    if not serial or len(serial) % 64:
        return False
    n = len(serial) // 64
    if not isinstance(sig, (bytes, bytearray)) or len(sig) != 16 * n:
        return False
    digest = _h(message)
    for j in range(n):
        bit = (digest[j >> 3] >> (7 - (j & 7))) & 1
        seg = bit * n + j
        piece = bytes(sig[j * 16:(j + 1) * 16])
        if _h(b"QLBOLT" + piece) != serial[seg * 32:(seg + 1) * 32]:
            return False
    return True


def _fresh_ok(s):
    return isinstance(s, bytes) and bool(s) and len(s) % 32 == 0


def reference_transition(net, pid, w, t, st, d):
    """(new_state, payout) or None, matching the production circuit."""
    if not isinstance(st, BanknoteState) or st.serial is None:
        return None
    s, c, v = st.serial, st.claim, net.variant

    if isinstance(w, BanknoteLost):
        if v != "commit-reveal" and isinstance(c, NoActiveClaim) and d == net.d0:
            return BanknoteState(s, ClaimBy(pid, t)), 0
        return None

    if isinstance(w, RecoverCoins):
        if (v == "base" and isinstance(c, NoActiveClaim) and d == 0
                and open_serial(s, w.certificate)):
            return BanknoteState(None, None), ALL_COINS
        return None

    if isinstance(w, RecoverCoinsSig):
        if (v != "base" and isinstance(c, NoActiveClaim) and d == 0
                and open_signature(s, b"RECOVER:" + pid.encode(), w.signature)):
            return BanknoteState(None, None), ALL_COINS
        return None

    if isinstance(w, ChallengeClaim):
        if (v == "base" and isinstance(c, ClaimBy) and d == 0
                and _fresh_ok(w.new_serial) and open_serial(s, w.certificate)):
            return BanknoteState(w.new_serial, NoActiveClaim()), net.d0
        return None

    if isinstance(w, ChallengeClaimSig):
        if d != 0 or not _fresh_ok(w.new_serial):
            return None
        if not open_signature(s, b"CHALLENGE:" + pid.encode(), w.signature):
            return None
        if v == "sig-gated" and isinstance(c, ClaimBy):
            return BanknoteState(w.new_serial, NoActiveClaim()), net.d0
        if v == "commit-reveal" and isinstance(c, LostClaimCommits) and c.entries:
            return BanknoteState(w.new_serial, NoActiveClaim()), net.d0
        return None

    if isinstance(w, ClaimUnchallenged):
        if d != 0 or not _fresh_ok(w.new_serial):
            return None
        if v != "commit-reveal":
            if isinstance(c, ClaimBy) and c.pid == pid and t - c.since > net.t_tr:
                return BanknoteState(w.new_serial, NoActiveClaim()), net.d0
            return None
        if not isinstance(c, LostClaimCommits):
            return None
        best = None
        for e in c.entries:
            if e.revealed_at is None:
                continue
            if best is None or e.committed_at < best.committed_at:
                best = e
        if best is not None and best.pid == pid and t - best.revealed_at > net.t1:
            return BanknoteState(w.new_serial, NoActiveClaim()), net.d0
        return None

    if isinstance(w, CommitLost):
        if v != "commit-reveal" or d != net.d0:
            return None
        if not isinstance(w.commitment, bytes) or len(w.commitment) != 32:
            return None
        e = CommitEntry(pid, w.commitment, t)
        if isinstance(c, NoActiveClaim):
            return BanknoteState(s, LostClaimCommits((e,))), 0
        if isinstance(c, LostClaimCommits):
            return BanknoteState(s, LostClaimCommits(c.entries + (e,))), 0
        return None

    if isinstance(w, RevealLost):
        if (v != "commit-reveal" or d != 0
                or not isinstance(c, LostClaimCommits) or len(w.nonce) != 16):
            return None
        want = _h(b"QLCOMMIT" + pid.encode() + s + w.nonce)
        out, hit = [], False
        for e in c.entries:
            if (not hit and e.pid == pid and e.revealed_at is None
                    and e.commitment == want and t - e.committed_at <= net.t0):
                out.append(CommitEntry(e.pid, e.commitment, e.committed_at, t))
                hit = True
            else:
                out.append(e)
        if hit:
            return BanknoteState(s, LostClaimCommits(tuple(out))), 0
        return None

    return None


# -- shared sweep fixture ------------------------------------------------
#
# One synthetic serial serves both proof styles: 4 segments means 4-piece
# preimage certificates and also a 2-bit signing key (two columns of two).

ME = "claimer:10"
# with a 2-bit signing key the hash prefixes of the gated messages collide
# for many pid pairs; this rival is picked so both its CHALLENGE and RECOVER
# prefixes differ from the claimer's, as they would at realistic key sizes
OTHER = "rival:12"

SECRETS = tuple(_h(b"phi-fixture-secret-%d" % i)[:16] for i in range(4))
SERIAL = b"".join(_h(b"QLBOLT" + sec) for sec in SECRETS)
CERT = b"".join(SECRETS)
BAD_CERT = bytes([CERT[0] ^ 1]) + CERT[1:]
FRESH = _h(b"phi-fixture-fresh-serial")
SHORT31 = FRESH[:31]

NONCE_ME = _h(b"phi-fixture-nonce-me")[:16]
NONCE_OTHER = _h(b"phi-fixture-nonce-other")[:16]


def commit_for(pid, nonce, context=SERIAL):
    return _h(b"QLCOMMIT" + pid.encode() + context + nonce)


def sig_for(message):
    """Assemble a 2-bit signature from the known fixture secrets."""
    digest = _h(message)
    pieces = []
    for j in range(2):
        bit = (digest[0] >> (7 - j)) & 1
        pieces.append(SECRETS[bit * 2 + j])
    return b"".join(pieces)


SIG_CHAL_ME = sig_for(b"CHALLENGE:" + ME.encode())
SIG_CHAL_OTHER = sig_for(b"CHALLENGE:" + OTHER.encode())
SIG_REC_ME = sig_for(b"RECOVER:" + ME.encode())

COMMIT_ME = commit_for(ME, NONCE_ME)
COMMIT_OTHER = commit_for(OTHER, NONCE_OTHER)

E_ME = CommitEntry(ME, COMMIT_ME, 40)
E_OTHER = CommitEntry(OTHER, COMMIT_OTHER, 40)
E_ME_R45 = CommitEntry(ME, COMMIT_ME, 40, 45)
E_OTHER_LATE_R44 = CommitEntry(OTHER, COMMIT_OTHER, 41, 44)
E_OTHER_R44 = CommitEntry(OTHER, COMMIT_OTHER, 40, 44)
E_ME_LATE_R43 = CommitEntry(ME, COMMIT_ME, 41, 43)
E_ME_TIE_R44 = CommitEntry(ME, COMMIT_ME, 40, 44)
E_OTHER_TIE_R45 = CommitEntry(OTHER, COMMIT_OTHER, 40, 45)

STATES = (
    BanknoteState(SERIAL, NoActiveClaim()),
    BanknoteState(SERIAL, ClaimBy(ME, 50)),
    BanknoteState(SERIAL, ClaimBy(OTHER, 50)),
    BanknoteState(None, None),
    BanknoteState(SERIAL, LostClaimCommits(())),
    BanknoteState(SERIAL, LostClaimCommits((E_ME,))),
    BanknoteState(SERIAL, LostClaimCommits((E_OTHER,))),
    BanknoteState(SERIAL, LostClaimCommits((E_ME_R45,))),
    BanknoteState(SERIAL, LostClaimCommits((E_ME_R45, E_OTHER_LATE_R44))),
    BanknoteState(SERIAL, LostClaimCommits((E_OTHER_R44, E_ME_LATE_R43))),
    BanknoteState(SERIAL, LostClaimCommits((E_ME, E_OTHER_R44))),
    BanknoteState(SERIAL, LostClaimCommits((E_ME_TIE_R44, E_OTHER_TIE_R45))),
)

WITNESSES = (
    BanknoteLost(),
    RecoverCoins(CERT),
    RecoverCoins(BAD_CERT),
    RecoverCoins(b""),
    ChallengeClaim(CERT, FRESH),
    ChallengeClaim(BAD_CERT, FRESH),
    ChallengeClaim(CERT, b""),
    ChallengeClaim(CERT, SHORT31),
    ClaimUnchallenged(FRESH),
    ClaimUnchallenged(b""),
    ClaimUnchallenged(SHORT31),
    RecoverCoinsSig(SIG_REC_ME),
    RecoverCoinsSig(SIG_CHAL_ME),
    RecoverCoinsSig(b""),
    ChallengeClaimSig(SIG_CHAL_ME, FRESH),
    ChallengeClaimSig(SIG_CHAL_OTHER, FRESH),
    ChallengeClaimSig(SIG_REC_ME, FRESH),
    ChallengeClaimSig(SIG_CHAL_ME, b""),
    ChallengeClaimSig(SIG_CHAL_ME, SHORT31),
    CommitLost(COMMIT_ME),
    CommitLost(COMMIT_OTHER),
    CommitLost(bytes(32)),
    CommitLost(b"short"),
    RevealLost(NONCE_ME),
    RevealLost(NONCE_OTHER),
    RevealLost(bytes(16)),
    RevealLost(b"tiny"),
)

SENDERS = (ME, OTHER)
DEPOSITS = (0, 9, 10, 11)
# boundary ticks for reveal windows (40+10), settle delays (revealed+10),
# and claim maturity (50+12)
TIMES = (45, 49, 50, 51, 53, 54, 55, 56, 61, 62, 63)


def network(variant):
    return PhiParams(variant=variant, d0=10, t_tr=12, t0=10, t1=10)


def run_agreement():
    """Sweep every combination; return (cases_checked, mismatch_list)."""
    checked, mismatches = 0, []
    for variant in ("base", "sig-gated", "commit-reveal"):
        net = network(variant)
        for st, w, pid, d, t in product(STATES, WITNESSES, SENDERS,
                                        DEPOSITS, TIMES):
            got = phi_money(net, pid, w, t, st, d)
            want = reference_transition(net, pid, w, t, st, d)
            checked += 1
            if got != want:
                mismatches.append((variant, pid, w, t, st, d, got, want))
    return checked, mismatches
