"""Party-side protocols: mint, pay, redeem, claims, and the watchdog.

A wallet owns banknotes: bundles of bolts whose concatenated serial is
stored in a backing contract.  Payment is purely peer-to-peer (the payee
only READS the ledger to check the backing), which is the whole point:
spending costs no ledger writes.

Wallets talk to the ledger through a small chain adapter so a test harness
can interpose a message scheduler; the default adapter delivers
immediately.  Operations whose delivery is deferred return the HELD
sentinel and finish their bookkeeping in a callback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .contract import (
    NO_CLAIM,
    BanknoteLost,
    BanknoteState,
    ChallengeClaim,
    ChallengeClaimSig,
    ClaimBy,
    ClaimUnchallenged,
    CommitLost,
    LostClaimCommits,
    PhiParams,
    RecoverCoins,
    RecoverCoinsSig,
    RevealLost,
    banknote_params,
    challenge_message,
    commitment_hash,
    is_banknote_contract,
    recover_message,
)
from .errors import KeyExhausted, MeasureFailed, MintFailed, NotOwner
from .ledger import Ledger
from .lightning import SERIAL_LEN, BoltHandle, QuantumEnv
from .qlds import QldsKey, QldsParams, gen_sig, qlds_gen

LOST_OWNER = "@lost"


class _Held:
    def __repr__(self):
        return "HELD"


# Returned by chain-routed operations whose delivery is deferred.
HELD = _Held()


class DirectChain:
    """Chain adapter that delivers every submission immediately."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger

    def submit_trigger(self, sender: str, ssid: int, witness, deposit: int,
                       on_result=None):
        paid = self.ledger.trigger(sender, ssid, witness, deposit)
        if on_result is not None:
            on_result(paid)
        return paid


@dataclass
class Banknote:
    """A held note: the backing contract id, its serial, and the bolts."""

    ssid: int
    serial: bytes
    bolts: tuple[BoltHandle, ...]
    value: int

    def key(self) -> QldsKey:
        return QldsKey(self.bolts, self.serial)


@dataclass
class Wallet:
    """One party's holdings and protocol logic.

    notes maps ssid to a list of held notes for that contract; honest
    operation keeps at most one per ssid (clones in the unsound negative
    control can add more).  banknote_value tracks the face value of
    everything held.
    """

    pid: str
    env: QuantumEnv
    ledger: Ledger
    phi: PhiParams
    n: int = 8
    minimal: bool = False
    chain: object = None
    notes: dict = field(default_factory=dict)
    banknote_value: int = 0
    last_scan: int = -1
    pending_challenges: set = field(default_factory=set)
    pending_commits: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.chain is None:
            self.chain = DirectChain(self.ledger)
        if self.minimal and self.phi.variant != "base":
            raise MintFailed("single-bolt notes cannot sign; use the base variant")

    # -- note bookkeeping ----------------------------------------------

    def holds(self, ssid: int) -> bool:
        return bool(self.notes.get(ssid))

    def _add_note(self, note: Banknote, front: bool = False) -> None:
        held = self.notes.setdefault(note.ssid, [])
        held.insert(0, note) if front else held.append(note)
        self.banknote_value += note.value

    def _take_note(self, ssid: int) -> Banknote | None:
        held = self.notes.get(ssid)
        if not held:
            return None
        note = held.pop(0)
        if not held:
            del self.notes[ssid]
        self.banknote_value -= note.value
        return note

    def _mint_bolts(self) -> tuple[tuple[BoltHandle, ...], bytes]:
        if self.minimal:
            bolt = self.env.gen_bolt(self.pid)
            return (bolt,), bolt.serial
        key = qlds_gen(self.env, QldsParams(self.n), self.pid)
        return key.bolts, key.serial

    # -- minting --------------------------------------------------------

    def mint(self, value: int) -> Banknote:
        """Mint a note of the given face value; one ledger write."""
        if value < 0:
            raise MintFailed("value must be a natural number")
        balance = self.ledger.retrieve_party(self.pid)
        # the minting protocol keeps coins > value strictly, even though
        # the ledger itself would fund a contract from an exact balance
        if balance is None or not balance > value:
            raise MintFailed(f"{self.pid} cannot cover a deposit of {value}")
        bolts, serial = self._mint_bolts()
        params = banknote_params(self.pid, value, self.phi, serial)
        ssid = self.ledger.add_contract_with_coins(self.pid, params)
        if ssid is None:
            raise MintFailed(f"ledger refused the backing deposit of {value}")
        note = Banknote(ssid, serial, bolts, value)
        self._add_note(note)
        return note

    # -- payment ---------------------------------------------------------

    def pay(self, payee: "Wallet", ssid: int, payee_rejects: bool = False) -> bool:
        """Hand the note for ssid to the payee; zero ledger writes.

        Returns the payee's accept/reject.  On reject the bolts come back
        and the note is restored.  payee_rejects forces a refusal (used to
        model an uncooperative payee).
        """
        note = self._take_note(ssid)
        if note is None:
            return False
        for b in note.bolts:
            self.env.transfer_bolt(b, self.pid, payee.pid)
        accept = (not payee_rejects) and payee._check_incoming(note)
        if accept:
            payee._add_note(note)
            return True
        for b in note.bolts:
            self.env.transfer_bolt(b, payee.pid, self.pid)
        self._add_note(note, front=True)
        return False

    def _check_incoming(self, note: Banknote) -> bool:
        """Payee-side acceptance test: backing first, then the bolts.

        The backing contract must look like a banknote contract under this
        wallet's network constants, hold exactly the claimed value, carry no
        active claim, and store the note's serial; then every bolt must
        verify against its serial segment.
        """
        z = self.ledger.retrieve_contract(note.ssid)
        if z is None:
            return False
        params, state, coins = z
        if not is_banknote_contract(params, self.phi):
            return False
        if state != BanknoteState(note.serial, NO_CLAIM) or coins != note.value:
            return False
        segments = [note.serial[i:i + SERIAL_LEN]
                    for i in range(0, len(note.serial), SERIAL_LEN)]
        if len(segments) != len(note.bolts):
            return False
        return all(self.env.verify_bolt(b, s)
                   for b, s in zip(note.bolts, segments))

    # -- redeeming -------------------------------------------------------

    def _possession_witness(self, note: Banknote, message: bytes):
        """Destructively prove possession: preimages or a one-time signature.

        Either way the note stops being money; the caller is expected to be
        cashing it in or rebinding the contract to a replacement serial.
        """
        if self.phi.variant == "base":
            certs = []
            for b in note.bolts:
                certs.append(self.env.gen_certificate(b, b.serial))
            return b"".join(certs)
        return gen_sig(self.env, note.key(), note.serial, message)

    def redeem(self, ssid: int):
        """Cash the note in for its backing coins.

        Returns coins paid, None if refused (the proof of possession is
        spent either way: the measurement is destructive), or HELD when the
        chain defers delivery.
        """
        note = self._take_note(ssid)
        if note is None:
            return None
        try:
            proof = self._possession_witness(note, recover_message(self.pid))
        except (MeasureFailed, KeyExhausted):
            return None
        if self.phi.variant == "base":
            witness = RecoverCoins(proof)
        else:
            witness = RecoverCoinsSig(proof)
        return self.chain.submit_trigger(self.pid, ssid, witness, 0)

    # -- lost-note claims -------------------------------------------------

    def file_lost_claim(self, ssid: int):
        """Open a lost-note claim, posting the d0 deposit."""
        return self.chain.submit_trigger(self.pid, ssid, BanknoteLost(), self.phi.d0)

    def settle_unchallenged(self, ssid: int):
        """Collect a matured claim: rebind to a fresh serial, recover d0.

        On acceptance the wallet holds the rebound note (any stale copies
        of the old serial are dropped; their bolts no longer match).
        """
        bolts, serial = self._mint_bolts()

        def finish(paid):
            if paid is None:
                return
            while self.holds(ssid):
                self._take_note(ssid)
            z = self.ledger.retrieve_contract(ssid)
            if z is not None:
                self._add_note(Banknote(ssid, serial, bolts, z[2]))

        return self.chain.submit_trigger(
            self.pid, ssid, ClaimUnchallenged(serial), 0, on_result=finish)

    def commit_lost_claim(self, ssid: int):
        """Commit-reveal variant, step one: post the hiding commitment."""
        z = self.ledger.retrieve_contract(ssid)
        if z is None:
            return None
        context = z[1].serial
        if context is None:
            return None
        nonce = self.env.draw_bytes(16)
        self.pending_commits[ssid] = nonce
        h = commitment_hash(self.pid, context, nonce)
        return self.chain.submit_trigger(self.pid, ssid, CommitLost(h), self.phi.d0)

    def reveal_lost_claim(self, ssid: int):
        """Commit-reveal variant, step two: open the commitment in time."""
        nonce = self.pending_commits.get(ssid)
        if nonce is None:
            return None
        return self.chain.submit_trigger(self.pid, ssid, RevealLost(nonce), 0)

    def commit_reveal_claim(self, ssid: int) -> list:
        """The staged lost-claim plan: commit now, reveal, settle after t1.

        Returns (ticks_to_wait_before, action) pairs for a runner to play;
        each action is a no-argument callable.
        """
        return [
            (0, lambda: self.commit_lost_claim(ssid)),
            (1, lambda: self.reveal_lost_claim(ssid)),
            (self.phi.t1 + 1, lambda: self.settle_unchallenged(ssid)),
        ]

    # -- the watchdog -------------------------------------------------------

    def watchdog_scan(self) -> list[tuple[int, str]]:
        """Scan the backing of every held note and answer foreign claims.

        Reads are free; only a foreign claim makes the wallet spend its
        proof of possession on a challenge that rebinds the contract to a
        replacement serial and collects the claimant's deposit.  Returns
        (ssid, action) pairs describing what the scan did.
        """
        self.last_scan = self.ledger.time
        actions = []
        for ssid in sorted(self.notes):
            if ssid in self.pending_challenges:
                continue
            z = self.ledger.retrieve_contract(ssid)
            if z is None:
                continue
            _, state, coins = z
            claim = state.claim
            foreign = (isinstance(claim, ClaimBy) and claim.pid != self.pid) or (
                isinstance(claim, LostClaimCommits)
                and any(e.pid != self.pid for e in claim.entries))
            if not foreign:
                continue
            actions.append((ssid, self._challenge(ssid)))
        return actions

    def _challenge(self, ssid: int) -> str:
        note = self.notes[ssid][0]
        try:
            proof = self._possession_witness(note, challenge_message(self.pid))
        except (MeasureFailed, KeyExhausted):
            return "no-proof"
        bolts, serial = self._mint_bolts()
        if self.phi.variant == "base":
            witness = ChallengeClaim(proof, serial)
        else:
            witness = ChallengeClaimSig(proof, serial)
        self.pending_challenges.add(ssid)

        def finish(paid):
            self.pending_challenges.discard(ssid)
            while self.holds(ssid):
                self._take_note(ssid)
            if paid is None:
                return
            z = self.ledger.retrieve_contract(ssid)
            if z is not None:
                self._add_note(Banknote(ssid, serial, bolts, z[2]))

        self.chain.submit_trigger(self.pid, ssid, witness, 0, on_result=finish)
        return "challenge"

    # -- misfortune ---------------------------------------------------------

    def lose_note(self, ssid: int) -> Banknote | None:
        """Drop the note as lost; its bolts become unusable by anyone."""
        note = self._take_note(ssid)
        if note is None:
            return None
        for b in note.bolts:
            try:
                self.env.transfer_bolt(b, self.pid, LOST_OWNER)
            except NotOwner:
                pass
        return note
