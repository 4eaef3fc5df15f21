"""Front-running attack demonstrations against the claim machinery.

All three attacks need the reorder scheduler: honest messages sit in the
mempool, and the adversary, acting only between script lines, reads them
there and lands its own message first.

* attack-i: a corrupt party files a lost claim against a note it does not
  hold, waits for the holder's watchdog to answer, and REPLAYs the pending
  challenge as its own, rebinding the note to a serial the thief controls.
* attack-ii: the thief REPLAYs a pending redeem and cashes the contract
  out first.
* attack-iii: a note is genuinely lost and its holder files a lost claim;
  the thief files its own claim, which lands first.  Nobody can challenge
  (the note is lost), so the thief's claim matures and takes the note.

The signature-gated circuit stops (i) and (ii): the lifted proof names the
honest sender, so replaying it under the thief's identity fails.  Nothing
shipped here stops (iii); the demo carries an explicit
"unmitigated-by-design" label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .harness import SimConfig, Simulation

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
    ssid = sim.mint(ALICE, 25)
    sim.file_claim(MALLORY, ssid)
    sim.tick(1)
    sim.watchdog(ALICE)
    sim.replay(MALLORY, ssid)
    sim.tick(DELTA + 1)
    if sim.wallets[MALLORY].holds(ssid):
        sim.pay(MALLORY, BOB, ssid)
    return AttackOutcome(sim.value.max_net > 0, sim.value.max_net, trace=sim.trace)


def run_attack_ii(variant: str = "base", seed: int = 0) -> AttackOutcome:
    """Steal the possession proof out of a pending redeem."""
    sim = _attack_sim(variant, seed)
    ssid = sim.mint(ALICE, 25)
    sim.tick(1)
    sim.redeem(ALICE, ssid)
    sim.replay(MALLORY, ssid)
    sim.tick(DELTA + 1)
    return AttackOutcome(sim.value.max_net > 0, sim.value.max_net, trace=sim.trace)


def run_attack_iii(variant: str = "base", seed: int = 0) -> AttackOutcome:
    """Front-run the lost claim of a genuinely lost note.

    No possession proof exists on either side, so the earlier claim wins
    and nothing in any shipped variant prevents this; the outcome carries
    the unmitigated-by-design label.
    """
    sim = _attack_sim(variant, seed)
    ssid = sim.mint(ALICE, 25)
    sim.lose(ALICE, ssid)
    sim.file_claim(ALICE, ssid)
    sim.file_claim(MALLORY, ssid)
    sim.tick(sim.config.t_tr + 1)
    sim.settle(MALLORY, ssid)
    if sim.wallets[MALLORY].holds(ssid):
        sim.pay(MALLORY, BOB, ssid)
    return AttackOutcome(sim.value.max_net > 0, sim.value.max_net,
                         label=UNMITIGATED, trace=sim.trace)
