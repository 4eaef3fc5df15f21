"""Append-only coin ledger with parties, transactions, and contracts.

This is the trusted bulletin board of the system: an idealized chain that
moves coins, records smart contracts, and evaluates their transition
circuits on trigger messages.  Identity is ideal too; the caller of each
operation IS the sender, so nothing here checks signatures on messages.

Notation used throughout: a party id is the string "name:d" where d is the
number of coins the party registers with.  Time is a tick counter that only
moves when tick() is called.

State-changing operations (the Add* family, Trigger, Tick) are the slow,
consensus-priced path; the Retrieve* family never mutates anything and is
free.  Both counts are tracked so callers can assert how little writing a
protocol does.

The ledger also keeps a claim index, ``claimed``: the ssids whose state
holds an active claim, meaning a ``claim`` attribute that is set and truthy
(the banknote circuit's no-claim value is falsy).  It is updated wherever a
contract's state is set, so a watchdog reads only the contracts it names.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import ParseError

# Payout sentinel: the circuit may award the contract's whole balance.
ALL_COINS = "all coins"

# Circuit registry: kind -> transition function f(params, pid, w, t, st, d)
# returning (new_state, payout) or None for "no transition".
_CIRCUITS: dict[str, Callable] = {}


def register_circuit(kind: str, fn: Callable) -> None:
    _CIRCUITS[kind] = fn


def evaluate_circuit(circuit: Any, pid: str, witness: Any, t: int, state: Any, d: int):
    kind = getattr(circuit, "variant", None)
    if kind not in _CIRCUITS:
        return None
    return _CIRCUITS[kind](circuit, pid, witness, t, state, d)


def parse_pid(pid: str) -> tuple[str, int]:
    """Split "name:d" into (name, d); rejects anything malformed."""
    name, sep, coins = pid.rpartition(":")
    if not sep or not name or not (coins.isascii() and coins.isdigit()):
        raise ParseError(f"bad party id {pid!r}, want 'name:coins'")
    return name, int(coins)


@dataclass
class PartyRecord:
    pid: str
    name: str
    coins: int


@dataclass(frozen=True)
class TransactionRecord:
    tr_id: int
    payer: str
    payee: str
    amount: int
    time: int


@dataclass(frozen=True)
class ContractParams:
    """Who takes part, what each deposits, which circuit, initial state."""

    members: tuple[str, ...]
    deposits: tuple[tuple[str, int], ...]
    circuit: Any
    initial_state: Any

    def __post_init__(self):
        for pid, d in self.deposits:
            if d < 0:
                raise ParseError(f"deposit of {pid} must not be negative, got {d}")

    def deposit_of(self, pid: str) -> int:
        for p, d in self.deposits:
            if p == pid:
                return d
        return 0


@dataclass
class ContractRecord:
    ssid: int
    params: ContractParams
    state: Any
    coins: int = 0
    initialized: bool = False
    terminated: bool = False
    pending: set = field(default_factory=set)


class Ledger:
    """The ideal ledger.  One instance per simulation."""

    def __init__(self):
        self.time = 0
        self.parties: dict[str, PartyRecord] = {}
        self.transactions: list[TransactionRecord] = []
        self.contracts: list[ContractRecord] = []
        self.claimed: set[int] = set()
        self.write_count = 0
        self.read_count = 0

    # -- parties ------------------------------------------------------

    def add_party(self, pid: str) -> bool:
        """Register pid with the coins named in it; repeats are ignored."""
        self.write_count += 1
        name, coins = parse_pid(pid)
        if pid in self.parties:
            return False
        self.parties[pid] = PartyRecord(pid, name, coins)
        return True

    def retrieve_party(self, pid: str) -> int | None:
        self.read_count += 1
        rec = self.parties.get(pid)
        return rec.coins if rec else None

    # -- transactions -------------------------------------------------

    def add_transaction(self, payer: str, payee: str, amount: int) -> int | None:
        """Move coins payer -> payee; payer must hold strictly more than d."""
        self.write_count += 1
        if payer not in self.parties or amount < 0:
            return None
        if payee not in self.parties or not self.parties[payer].coins > amount:
            return None
        self.parties[payer].coins -= amount
        self.parties[payee].coins += amount
        tr_id = len(self.transactions) + 1
        self.transactions.append(
            TransactionRecord(tr_id, payer, payee, amount, self.time))
        return tr_id

    def retrieve_transaction(self, tr_id: int) -> TransactionRecord | None:
        self.read_count += 1
        if 1 <= tr_id <= len(self.transactions):
            return self.transactions[tr_id - 1]
        return None

    # -- contracts ----------------------------------------------------

    def add_smart_contract(self, params: ContractParams) -> int | None:
        """Record a contract; every member must already be registered."""
        self.write_count += 1
        if not params.members:
            return None
        if any(pid not in self.parties for pid in params.members):
            return None
        ssid = len(self.contracts) + 1
        self.contracts.append(ContractRecord(ssid, params, None))
        return ssid

    def initialize_with_coins(self, pid: str, ssid: int,
                              params: ContractParams) -> str | None:
        """One member's go-ahead; funds move once every member has sent.

        Returns 'pending' until the last member arrives, then 'ok' when all
        deposits clear, or None (nothing moves) if the parameters mismatch
        or someone cannot cover their deposit; a failed completion clears
        the pending set so the group may retry.
        """
        self.write_count += 1
        rec = self._contract(ssid)
        if rec is None or rec.initialized or rec.terminated:
            return None
        if params != rec.params or pid not in rec.params.members:
            return None
        rec.pending.add(pid)
        if rec.pending != set(rec.params.members):
            return "pending"
        for member in rec.params.members:
            if self.parties[member].coins < rec.params.deposit_of(member):
                rec.pending.clear()
                return None
        for member in rec.params.members:
            d = rec.params.deposit_of(member)
            self.parties[member].coins -= d
            rec.coins += d
        self._set_state(rec, rec.params.initial_state)
        rec.initialized = True
        rec.pending.clear()
        return "ok"

    def add_contract_with_coins(self, pid: str, params: ContractParams) -> int | None:
        """Record and fund a single-party contract in one message.

        The whole point of the money scheme is that minting costs one write
        and spending costs none, so the self-funded create+deposit pair is
        offered as a single atomic submission.  Fails without side effects
        if the deposit cannot clear.
        """
        self.write_count += 1
        if params.members != (pid,) or pid not in self.parties:
            return None
        d = params.deposit_of(pid)
        if self.parties[pid].coins < d:
            return None
        ssid = len(self.contracts) + 1
        rec = ContractRecord(ssid, params, None, coins=d, initialized=True)
        self._set_state(rec, params.initial_state)
        self.parties[pid].coins -= d
        self.contracts.append(rec)
        return ssid

    def trigger(self, pid: str, ssid: int, witness: Any, deposit: int) -> int | None:
        """Feed a witness to a contract's circuit.

        The circuit sees the pre-deposit state; the deposit is only charged
        when the circuit accepts.  The payout is then taken from the pot
        (deposit included), the contract terminating when the pot empties
        or the circuit awards everything.
        Returns the coins paid out (0 included), or None if refused.
        """
        self.write_count += 1
        rec = self._contract(ssid)
        if rec is None or not rec.initialized or rec.terminated:
            return None
        if pid not in self.parties or deposit < 0:
            return None
        if deposit > 0 and not self.parties[pid].coins > deposit:
            return None
        result = evaluate_circuit(rec.params.circuit, pid, witness,
                                  self.time, rec.state, deposit)
        if result is None:
            return None
        new_state, payout = result
        if deposit > 0:
            self.parties[pid].coins -= deposit
            rec.coins += deposit
        self._set_state(rec, new_state)
        if payout == ALL_COINS:
            paid = rec.coins
            rec.coins = 0
            rec.terminated = True
        elif payout > 0:
            if rec.coins > payout:
                paid = payout
            else:
                paid = rec.coins
                rec.terminated = True
            rec.coins -= paid
        else:
            paid = 0
        if paid:
            self.parties[pid].coins += paid
        return paid

    def retrieve_contract(self, ssid: int) -> tuple[ContractParams, Any, int] | None:
        self.read_count += 1
        rec = self._contract(ssid)
        if rec is None or not rec.initialized:
            return None
        return rec.params, rec.state, rec.coins

    def _set_state(self, rec: ContractRecord, state: Any) -> None:
        rec.state = state
        if getattr(state, "claim", None):
            self.claimed.add(rec.ssid)
        else:
            self.claimed.discard(rec.ssid)

    def _contract(self, ssid: int) -> ContractRecord | None:
        if isinstance(ssid, int) and 1 <= ssid <= len(self.contracts):
            return self.contracts[ssid - 1]
        return None

    # -- time and audits ----------------------------------------------

    def tick(self, count: int = 1) -> int:
        """Advance time by count ticks; each tick counts as one write."""
        self.write_count += count
        self.time += count
        return self.time

    def total_coins(self) -> int:
        return (sum(p.coins for p in self.parties.values())
                + sum(c.coins for c in self.contracts))

    def digest(self) -> bytes:
        """Canonical hash of ledger state (instrumentation excluded)."""
        h = hashlib.sha256()
        h.update(self.time.to_bytes(8, "big"))
        for pid in sorted(self.parties):
            p = self.parties[pid]
            h.update(pid.encode() + b"\x00" + p.coins.to_bytes(8, "big"))
        for t in self.transactions:
            h.update(repr((t.tr_id, t.payer, t.payee, t.amount, t.time)).encode())
        for c in self.contracts:
            h.update(repr((c.ssid, c.coins, c.initialized, c.terminated,
                           c.state, sorted(c.pending))).encode())
        return h.digest()
