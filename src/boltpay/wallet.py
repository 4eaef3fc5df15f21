"""Party-side protocols: mint, pay, redeem, claims, and the watchdog.

A wallet owns banknotes: bundles of bolts whose concatenated serial is
stored in a backing contract.  Payment is purely peer-to-peer (the payee
only READS the ledger to check the backing), which is the whole point:
spending costs no ledger writes.

Wallets send every trigger through the chain they are built with, the
harness's message scheduler, which may deliver it at once or hold it in
a mempool.  Operations whose delivery is deferred return the HELD
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
from .lightning import PREIMAGE_LEN, BundleHandle, QuantumEnv
from .qlds import QldsParams, gen_sig, qlds_gen

LOST_OWNER = "@lost"


class _Held:
    def __repr__(self):
        return "HELD"


# Returned by chain-routed operations whose delivery is deferred.
HELD = _Held()


@dataclass
class Banknote:
    """A held note: the backing contract id, the bundle of bolts, the value.

    The note's serial is its bundle's concatenated serial.
    """

    ssid: int
    bundle: BundleHandle
    value: int

    @property
    def serial(self) -> bytes:
        return self.bundle.serial


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
    chain: object  # submit_trigger(sender, ssid, witness, deposit, on_result)
    n: int = 8
    minimal: bool = False
    notes: dict = field(default_factory=dict)
    banknote_value: int = 0
    last_scan: int = -1
    pending_challenges: set = field(default_factory=set)
    pending_commits: dict = field(default_factory=dict)
    on_first_note: object = None  # called with the wallet as it gains a note

    def __post_init__(self):
        if self.minimal and self.phi.variant != "base":
            raise MintFailed("single-bolt notes cannot sign; use the base variant")

    # -- note bookkeeping ----------------------------------------------

    def holds(self, ssid: int) -> bool:
        return bool(self.notes.get(ssid))

    def _add_note(self, note: Banknote, front: bool = False) -> None:
        if not self.notes and self.on_first_note is not None:
            self.on_first_note(self)
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

    def _mint_bundle(self) -> BundleHandle:
        if self.minimal:
            return self.env.gen_bundle(self.pid, 1)
        return qlds_gen(self.env, QldsParams(self.n), self.pid)

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
        bundle = self._mint_bundle()
        params = banknote_params(self.pid, value, self.phi, bundle.serial)
        ssid = self.ledger.add_contract_with_coins(self.pid, params)
        if ssid is None:
            raise MintFailed(f"ledger refused the backing deposit of {value}")
        note = Banknote(ssid, bundle, value)
        self._add_note(note)
        return note

    # -- payment ---------------------------------------------------------

    def pay(self, payee: "Wallet", ssid: int, payee_rejects: bool = False) -> bool:
        """Hand the note for ssid to the payee; zero ledger writes.

        Returns the payee's accept/reject.  On reject the bundle comes back
        and the note is restored.  payee_rejects forces a refusal (used to
        model an uncooperative payee).
        """
        note = self._take_note(ssid)
        if note is None:
            return False
        self.env.transfer_bundle(note.bundle, self.pid, payee.pid)
        accept = (not payee_rejects) and payee._check_incoming(note)
        if accept:
            payee._add_note(note)
            return True
        self.env.transfer_bundle(note.bundle, payee.pid, self.pid)
        self._add_note(note, front=True)
        return False

    def _check_incoming(self, note: Banknote) -> bool:
        """Payee-side acceptance test: backing first, then the bolts.

        The backing contract must look like a banknote contract under this
        wallet's network constants, hold exactly the claimed value, carry no
        active claim, and store the note's serial; then the bundle must
        verify against that serial (every bolt alive, every segment equal).
        """
        z = self.ledger.retrieve_contract(note.ssid)
        if z is None:
            return False
        params, state, coins = z
        if not is_banknote_contract(params, self.phi):
            return False
        if state != BanknoteState(note.serial, NO_CLAIM) or coins != note.value:
            return False
        return self.env.verify_bundle(note.bundle, state.serial)

    # -- redeeming -------------------------------------------------------

    def _possession_witness(self, note: Banknote, message: bytes):
        """Destructively prove possession: preimages or a one-time signature.

        Either way the note stops being money; the caller is expected to be
        cashing it in or rebinding the contract to a replacement serial.
        """
        if self.phi.variant == "base":
            certs = self.env.measure_bolts(note.bundle, range(note.bundle.count))
            if len(certs) != note.bundle.count * PREIMAGE_LEN:
                raise MeasureFailed("a bolt of the note is dead")
            return certs
        return gen_sig(self.env, note.bundle, note.serial, message)

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
        bundle = self._mint_bundle()

        def finish(paid):
            if paid is None:
                return
            while self.holds(ssid):
                self._take_note(ssid)
            z = self.ledger.retrieve_contract(ssid)
            if z is not None:
                self._add_note(Banknote(ssid, bundle, z[2]))

        return self.chain.submit_trigger(
            self.pid, ssid, ClaimUnchallenged(bundle.serial), 0,
            on_result=finish)

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

    # -- the watchdog -------------------------------------------------------

    def watchdog_scan(self) -> list[tuple[int, str]]:
        """Answer the foreign claims on held notes.

        Only the held notes the ledger's claim index names are read, in
        ascending ssid order.  Reads are free; only a foreign claim makes
        the wallet spend its proof of possession on a challenge that
        rebinds the contract to a replacement serial and collects the
        claimant's deposit.  Returns (ssid, action) pairs describing what
        the scan did.
        """
        self.last_scan = self.ledger.time
        claimed = self.ledger.claimed
        if claimed.isdisjoint(self.notes):
            return []
        todo = sorted(self.notes.keys() & claimed)
        held = None
        actions = []
        i = 0
        while i < len(todo):
            ssid = todo[i]
            i += 1
            if ssid in self.pending_challenges:
                continue
            z = self.ledger.retrieve_contract(ssid)
            if z is None:
                continue
            claim = z[1].claim
            foreign = (isinstance(claim, ClaimBy) and claim.pid != self.pid) or (
                isinstance(claim, LostClaimCommits)
                and any(e.pid != self.pid for e in claim.entries))
            if not foreign:
                continue
            if held is None:
                held = set(self.notes)  # nothing has run since the scan began
            actions.append((ssid, self._challenge(ssid)))
            # submitting the challenge may have run other parties' code,
            # which can claim notes the scan has still to reach
            todo[i:] = sorted(s for s in held & claimed if s > ssid)
        return actions

    def _challenge(self, ssid: int) -> str:
        note = self.notes[ssid][0]
        try:
            proof = self._possession_witness(note, challenge_message(self.pid))
        except (MeasureFailed, KeyExhausted):
            return "no-proof"
        bundle = self._mint_bundle()
        if self.phi.variant == "base":
            witness = ChallengeClaim(proof, bundle.serial)
        else:
            witness = ChallengeClaimSig(proof, bundle.serial)
        self.pending_challenges.add(ssid)

        def finish(paid):
            self.pending_challenges.discard(ssid)
            while self.holds(ssid):
                self._take_note(ssid)
            if paid is None:
                return
            z = self.ledger.retrieve_contract(ssid)
            if z is not None:
                self._add_note(Banknote(ssid, bundle, z[2]))

        self.chain.submit_trigger(self.pid, ssid, witness, 0, on_result=finish)
        return "challenge"

    # -- misfortune ---------------------------------------------------------

    def lose_note(self, ssid: int) -> Banknote | None:
        """Drop the note as lost; its bolts become unusable by anyone."""
        note = self._take_note(ssid)
        if note is None:
            return None
        try:
            self.env.transfer_bundle(note.bundle, self.pid, LOST_OWNER)
        except NotOwner:
            pass
        return note
