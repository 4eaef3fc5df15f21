"""Front-running attack demonstrations against the claim machinery.

All three attacks need the reorder scheduler: the adversary reads honest
messages sitting in the mempool and slips its own message in first.

* attack-i: a corrupt party files a lost claim against a note it does not
  hold, waits for the holder's watchdog to answer, lifts the possession
  proof out of the pending challenge, and challenges its own claim with it,
  rebinding the note to a serial the thief controls.
* attack-ii: the thief lifts the possession proof out of a pending redeem
  and cashes the contract out first.
* attack-iii: the thief sees a pending lost claim for a genuinely lost
  note and files its own claim first; nobody can challenge (the note is
  lost), so the thief's claim matures and takes the note.

The signature-gated circuit stops (i) and (ii): the lifted proof names the
honest sender, so replaying it under the thief's identity fails.  Nothing
shipped here stops (iii); the demo carries an explicit
"unmitigated-by-design" label.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .contract import (
    BanknoteLost,
    ChallengeClaim,
    ChallengeClaimSig,
    RecoverCoins,
    RecoverCoinsSig,
)
from .harness import PendingMessage, SimConfig, Simulation
from .wallet import Banknote

ALICE = "alice:50"
BOB = "bob:50"
MALLORY = "mallory:40"

UNMITIGATED = "unmitigated-by-design"
DELTA = 5  # ticks an honest message waits in the mempool


@dataclass
class AttackOutcome:
    succeeded: bool
    max_net: int
    label: str = ""
    trace: list[str] = field(default_factory=list)


class ProofTheftStrategy:
    """Mempool watcher that replays possession proofs under its own name."""

    def __init__(self, thief: str):
        self.thief = thief

    def on_pending(self, sim: Simulation, pending: PendingMessage) -> None:
        # an honest thief's replays are held too; it must not replay those
        if pending.kind != "trigger" or pending.sender == self.thief:
            return
        w = pending.witness
        if isinstance(w, (ChallengeClaim, ChallengeClaimSig)):
            bundle = sim.env.gen_bundle(self.thief, 1)

            def keep(paid):
                if paid is not None:
                    z = sim.ledger.retrieve_contract(pending.ssid)
                    sim.wallets[self.thief]._add_note(
                        Banknote(pending.ssid, bundle, z[2]))

            sim.submit_trigger(self.thief, pending.ssid,
                               replace(w, new_serial=bundle.serial), 0,
                               on_result=keep)
        elif isinstance(w, (RecoverCoins, RecoverCoinsSig)):
            sim.submit_trigger(self.thief, pending.ssid, w, 0)


class ClaimFrontRunStrategy:
    """Mempool watcher that front-runs honest lost claims with its own."""

    def __init__(self, thief: str):
        self.thief = thief

    def on_pending(self, sim: Simulation, pending: PendingMessage) -> None:
        # an honest thief's claims are held too; it must not front-run those
        if (pending.sender != self.thief and pending.kind == "trigger"
                and isinstance(pending.witness, BanknoteLost)):
            sim.file_claim(self.thief, pending.ssid)


def _attack_sim(variant: str, seed: int) -> Simulation:
    config = SimConfig(seed=seed, variant=variant, d0=10, t_tr=12, n=8,
                       scheduler=f"reorder:{DELTA}")
    sim = Simulation(config)
    for pid in (ALICE, BOB, MALLORY):
        sim.add_party(pid)
    sim.corrupt(MALLORY)
    return sim


def run_attack_i(variant: str = "base", seed: int = 0) -> AttackOutcome:
    """Lost-claim bait, then steal the watchdog's challenge proof."""
    sim = _attack_sim(variant, seed)
    sim.adversary = ProofTheftStrategy(MALLORY)
    ssid = sim.mint(ALICE, 25)
    sim.file_claim(MALLORY, ssid)
    sim.tick(1)
    sim.watchdog(ALICE)
    sim.tick(DELTA + 1)
    if sim.wallets[MALLORY].holds(ssid):
        sim.pay(MALLORY, BOB, ssid)
    return AttackOutcome(sim.value.max_net > 0, sim.value.max_net, trace=sim.trace)


def run_attack_ii(variant: str = "base", seed: int = 0) -> AttackOutcome:
    """Steal the possession proof out of a pending redeem."""
    sim = _attack_sim(variant, seed)
    sim.adversary = ProofTheftStrategy(MALLORY)
    ssid = sim.mint(ALICE, 25)
    sim.tick(1)
    sim.redeem(ALICE, ssid)
    sim.tick(DELTA + 1)
    return AttackOutcome(sim.value.max_net > 0, sim.value.max_net, trace=sim.trace)


def run_attack_iii(variant: str = "base", seed: int = 0) -> AttackOutcome:
    """Front-run the lost claim of a genuinely lost note.

    No possession proof exists on either side, so the earlier claim wins
    and nothing in any shipped variant prevents this; the outcome carries
    the unmitigated-by-design label.
    """
    sim = _attack_sim(variant, seed)
    sim.adversary = ClaimFrontRunStrategy(MALLORY)
    ssid = sim.mint(ALICE, 25)
    sim.lose(ALICE, ssid)
    sim.file_claim(ALICE, ssid)
    sim.tick(sim.config.t_tr + 1)
    sim.settle(MALLORY, ssid)
    if sim.wallets[MALLORY].holds(ssid):
        sim.pay(MALLORY, BOB, ssid)
    return AttackOutcome(sim.value.max_net > 0, sim.value.max_net,
                         label=UNMITIGATED, trace=sim.trace)
