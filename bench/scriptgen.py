"""Seeded generator of long `boltpay run` scripts.

The generator keeps its own model of the run (who holds which note, which
notes carry a claim, who is corrupt, a pessimistic balance per party) and
only emits directives whose effect that model can predict, so every
generated script runs to exit code 0 and replays under the trace oracle.
The model follows the defaults the scripts run under: `--ttr 100`, whose
watchdog scans every 99 ticks, and `--scheduler reorder:3`, which holds
honest ledger messages for 3 ticks.
"""

from __future__ import annotations

import random

HONEST_PARTIES = 16
SHADY_PARTIES = 3   # corrupted and uncorrupted by the script
START_COINS = 1000
D0 = 10
REORDER_DELAY = 3
# A claimed note is left alone until its holder's watchdog has surely
# answered: one scan interval (99 ticks), the mempool hold, a margin.
CLAIM_BUSY_TICKS = 99 + REORDER_DELAY + 4
GARBAGE_SIG = "00" * 16


class _Model:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.honest = [f"h{i:02d}:{START_COINS}" for i in range(HONEST_PARTIES)]
        self.shady = [f"m{i:02d}:{START_COINS}" for i in range(SHADY_PARTIES)]
        self.parties = self.honest + self.shady
        self.spendable = {p: START_COINS for p in self.parties}
        self.corrupt: set[str] = set()
        self.holder: dict[int, str] = {}      # ssid -> wallet holding it
        self.busy_until: dict[int, int] = {}  # ssid -> time its claim is over
        # pid -> time its last honest redeem leaves the mempool
        self.in_flight_until: dict[str, int] = {}
        self.contracts = 0
        self.transactions = 0
        self.time = 0

    def free_notes(self, owners) -> list[int]:
        owners = set(owners)
        return [s for s, p in sorted(self.holder.items())
                if p in owners and self.busy_until.get(s, -1) < self.time]


def generate(seed: int, lines: int = 800) -> str:
    """A script of about ``lines`` directives, fixed by ``seed``."""
    rng = random.Random(f"boltpay-bench-script:{seed}")
    m = _Model(rng)
    out = [f"# generated benchmark script, seed {seed}"]
    for pid in m.parties:
        out.append(f"AddParty\t{pid}")
    for pid in m.shady[:2]:
        out.append(f"CORRUPT\t{pid}")
        m.corrupt.add(pid)
    actions = (
        (22, _mint), (36, _pay), (5, _redeem), (5, _file_claim),
        (5, _watchdog), (9, _tick), (3, _churn), (10, _retrieve),
        (5, _trigger),
    )
    weights = [w for w, _ in actions]
    fns = [f for _, f in actions]
    while len(out) < lines:
        line = rng.choices(fns, weights)[0](m)
        if line is not None:
            out.append(line)
    return "\n".join(out) + "\n"


def _mint(m: _Model):
    pid = m.rng.choice(m.parties)
    value = m.rng.randint(1, 20)
    if m.spendable[pid] <= value + D0:
        return None
    m.spendable[pid] -= value
    m.contracts += 1
    m.holder[m.contracts] = pid
    return f"MINT\t{pid}\t{value}"


def _pay(m: _Model):
    notes = m.free_notes(m.parties)
    if not notes:
        return None
    ssid = m.rng.choice(notes)
    payer = m.holder[ssid]
    payee = m.rng.choice([p for p in m.parties if p != payer])
    m.holder[ssid] = payee
    return f"PAY\t{payer}\t{payee}\t{ssid}"


def _redeem(m: _Model):
    notes = m.free_notes(m.parties)
    if not notes:
        return None
    ssid = m.rng.choice(notes)
    pid = m.holder.pop(ssid)
    if pid not in m.corrupt:
        m.in_flight_until[pid] = m.time + REORDER_DELAY
    return f"REDEEM\t{pid}\t{ssid}"


def _file_claim(m: _Model):
    claimants = [p for p in m.shady if p in m.corrupt
                 and m.spendable[p] > 2 * D0]
    targets = m.free_notes(m.honest)
    if not claimants or not targets:
        return None
    pid = m.rng.choice(claimants)
    ssid = m.rng.choice(targets)
    m.spendable[pid] -= D0
    m.busy_until[ssid] = m.time + CLAIM_BUSY_TICKS
    return f"FILECLAIM\t{pid}\t{ssid}"


def _watchdog(m: _Model):
    if m.rng.random() < 0.2:
        return "WATCHDOG"
    honest = [p for p in m.parties if p not in m.corrupt]
    return f"WATCHDOG\t{m.rng.choice(honest)}"


def _tick(m: _Model):
    if m.rng.random() < 0.3:
        m.time += 1
        return "Tick"
    k = m.rng.randint(2, 30)
    m.time += k
    return f"TICK\t{k}"


def _churn(m: _Model):
    pid = m.rng.choice(m.shady)
    if pid in m.corrupt:
        m.corrupt.discard(pid)
        # held notes move to the adversary's pool, out of every wallet
        for ssid in [s for s, p in m.holder.items() if p == pid]:
            del m.holder[ssid]
        return f"UNCORRUPT\t{pid}"
    if m.in_flight_until.get(pid, -1) > m.time:
        # corrupting a party whose redeem is still in the mempool makes a
        # sound run report a positive adversary net value (see CHANGES.md)
        return None
    m.corrupt.add(pid)
    return f"CORRUPT\t{pid}"


def _retrieve(m: _Model):
    sender = m.rng.choice(m.parties)
    kind = m.rng.randrange(3)
    if kind == 0:
        return f"RetrieveParty\t{sender}\t{m.rng.choice(m.parties)}"
    if kind == 1 and m.contracts:
        return f"RetrieveContract\t{sender}\t{m.rng.randint(1, m.contracts)}"
    return f"RetrieveTransaction\t{sender}\t{m.rng.randint(1, 3)}"


def _trigger(m: _Model):
    """A corrupt party's forged redeem; the sig-gated circuit refuses it."""
    forgers = [p for p in m.shady if p in m.corrupt]
    if not forgers or not m.contracts:
        return None
    ssid = m.rng.randint(1, m.contracts)
    return (f"Trigger\t{m.rng.choice(forgers)}\t{ssid}\t0\t"
            f"RecoverCoinsSig\t{GARBAGE_SIG}")
