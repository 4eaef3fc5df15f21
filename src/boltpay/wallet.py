"""Party-side protocols: mint, pay, redeem, claims, and the watchdog.

A wallet owns banknotes: bundles of bolts whose concatenated serial is
stored in a backing contract.  Payment is purely peer-to-peer (the payee
only READS the ledger to check the backing), which is the whole point:
spending costs no ledger writes.

Wallets send every trigger through the chain they are built with: the
Simulation, whose own mempool delivers it at once or holds it.
Operations whose delivery is deferred return the HELD sentinel and
finish their bookkeeping in a callback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .contract import (
    NO_CLAIM,
    BanknoteLost,
    BanknoteState,
    ChallengeClaim,
    ChallengeClaimSig,
    ClaimUnchallenged,
    CommitLost,
    PhiParams,
    RecoverCoins,
    RecoverCoinsSig,
    RevealLost,
    banknote_params,
    challenge_message,
    claimants,
    commitment_hash,
    is_banknote_contract,
    recover_message,
)
from .errors import KeyExhausted, MeasureFailed, MintFailed
from .ledger import Ledger
from .lightning import PREIMAGE_LEN, BundleHandle, QuantumEnv
from .qlds import QldsParams, gen_sig, qlds_gen

LOST_OWNER = "@lost"


class _Held:
    def __repr__(self):
        return "HELD"


# Returned by operations whose delivery the mempool defers.
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
    control, and stale notes handed over by MOVENOTE, can add more).  A
    note is paid, redeemed or lost first-held first; a refused note goes
    back behind the others held for its contract.  banknote_value tracks
    the face value of everything held.
    """

    pid: str
    env: QuantumEnv
    ledger: Ledger
    phi: PhiParams
    chain: object  # submit_trigger(sender, ssid, witness, deposit, on_result)
    n: int = 8
    notes: dict = field(default_factory=dict)
    banknote_value: int = 0
    last_scan: int = -1
    pending_challenges: set = field(default_factory=set)
    pending_commits: dict = field(default_factory=dict)
    # called with the wallet when its watchdog's schedule may change: it
    # gains its first note, loses its last, or scans
    on_change: object = None

    # -- note bookkeeping ----------------------------------------------

    def holds(self, ssid: int) -> bool:
        return bool(self.notes.get(ssid))

    def _add_note(self, note: Banknote) -> None:
        self.banknote_value += note.value
        held = self.notes.get(note.ssid)
        if held:
            held.append(note)
            return
        self.notes[note.ssid] = [note]
        if len(self.notes) == 1 and self.on_change is not None:
            self.on_change(self)

    def _take_note(self, ssid: int) -> Banknote | None:
        """Take the first note held for ssid out of the wallet: to hand on,
        or because it is spent, lost or superseded.  Its bundle keeps its
        owner; whoever the note goes to takes the bundle over."""
        held = self.notes.get(ssid)
        if not held:
            return None
        note = held.pop(0)
        if not held:
            del self.notes[ssid]
        self.banknote_value -= note.value
        if not self.notes and self.on_change is not None:
            self.on_change(self)
        return note

    def _mint_bundle(self) -> BundleHandle:
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

        Returns the payee's accept/reject.  A refused note comes back,
        behind any others held for ssid.  payee_rejects forces a refusal
        (used to model an uncooperative payee).
        """
        note = self._take_note(ssid)
        if note is None:
            return False
        self.env.transfer_bundle(note.bundle, self.pid, payee.pid)
        if not payee_rejects and payee._check_incoming(note):
            payee._add_note(note)
            return True
        self.env.transfer_bundle(note.bundle, payee.pid, self.pid)
        self._add_note(note)
        return False

    def _check_incoming(self, note: Banknote) -> bool:
        """Payee-side acceptance test: backing first, then the bolts.

        The backing contract must look like a banknote contract under this
        wallet's network constants, hold exactly the claimed value, carry no
        active claim, and store the note's serial; then the bundle must
        verify against that serial (every bolt alive, every segment equal).
        The state is tested as BanknoteState(note.serial, NO_CLAIM) == state
        would test it, without building that state: its class must be
        BanknoteState itself, not a subclass, its serial must equal the
        note's, and its claim must be NO_CLAIM or equal to it.
        """
        z = self.ledger.retrieve_contract(note.ssid)
        if z is None:
            return False
        params, state, coins = z
        if not is_banknote_contract(params, self.phi):
            return False
        if (state.__class__ is not BanknoteState or state.serial != note.serial
                or not (state.claim is NO_CLAIM or state.claim == NO_CLAIM)
                or coins != note.value):
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
        base = self.phi.variant == "base"
        try:
            witness = (RecoverCoins if base else RecoverCoinsSig)(
                self._possession_witness(note, recover_message(self.pid)))
        except (MeasureFailed, KeyExhausted):
            return None
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
            if paid is not None:
                self._rebound(ssid, bundle)

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
        claimant's deposit.  The proof comes from the held note that
        carries the contract's serial; a note whose contract has been
        rebound away from it proves nothing, so it never answers.  Returns
        (ssid, action) pairs describing what the scan did.
        """
        self.last_scan = self.ledger.time
        if self.on_change is not None:
            self.on_change(self)
        actions = []
        # a challenge touches only its own ssid, so the snapshot stays true
        for ssid in sorted(self.ledger.claimed.intersection(self.notes)):
            if ssid in self.pending_challenges:
                continue
            state = self.ledger.retrieve_contract(ssid)[1]
            pids = claimants(state.claim)
            if pids.count(self.pid) == len(pids):
                continue   # no foreign claim
            serial = state.serial
            for note in self.notes[ssid]:
                if note.serial == serial:
                    actions.append((ssid, self._challenge(note)))
                    break
        return actions

    def _challenge(self, note: Banknote) -> str:
        ssid = note.ssid
        try:
            proof = self._possession_witness(note, challenge_message(self.pid))
        except (MeasureFailed, KeyExhausted):
            return "no-proof"
        bundle = self._mint_bundle()
        base = self.phi.variant == "base"
        witness = (ChallengeClaim if base else ChallengeClaimSig)(proof, bundle.serial)
        self.pending_challenges.add(ssid)

        def finish(paid):
            self.pending_challenges.discard(ssid)
            self._rebound(ssid, None if paid is None else bundle)

        self.chain.submit_trigger(self.pid, ssid, witness, 0, on_result=finish)
        return "challenge"

    def _rebound(self, ssid: int, bundle: BundleHandle | None) -> None:
        """Drop every note held for ssid after a trigger that rebinds it;
        then, if the trigger was accepted, hold the note of its bundle."""
        while self.holds(ssid):
            self._take_note(ssid)
        if bundle is not None:
            coins = self.ledger.retrieve_contract(ssid)[2]
            self._add_note(Banknote(ssid, bundle, coins))

    # -- misfortune ---------------------------------------------------------

    def lose_note(self, ssid: int) -> Banknote | None:
        """Drop the note as lost; its bolts become unusable by anyone."""
        note = self._take_note(ssid)
        if note is not None:
            self.env.transfer_bundle(note.bundle, self.pid, LOST_OWNER)
        return note
