"""Adversarial test harness: scenarios, schedulers, and value accounting.

The harness drives a whole deployment (environment, ledger, wallets) from
a deterministic script, tracking how much value the adversary has taken in
versus how much it holds on the ledger or has spent back to honest
parties.  The headline soundness statement is that the running maximum of
(current_or_spent - received) never goes positive, no matter what the
scripted adversary does, as long as bolts cannot be cloned.

Two message schedulers are provided.  The fifo scheduler delivers every
ledger message the moment it is sent.  The reorder scheduler models a
front-running adversary: honest state-changing messages sit in the
Simulation's own mempool for delta ticks before landing, and a watching
strategy object is shown each as a PendingMessage and may inject its own
(instantly delivered) messages first.

Time moves in ticks.  Each tick delivers the held messages due by then,
then runs the watchdog scan of every honest wallet that holds notes and
last scanned scan_interval or more ticks ago, in pid order.  Every such
wallet sits in a cohort: the pid-sorted list of the wallets whose scan
falls due at one tick, or, for a wallet that joins after its scan fell
due, at the first tick that can still scan it.  A cohort's tick stands in
for its members' last scan, scan_interval ticks before.

A wallet changes cohort only at an event: its first note, its last note
gone, corruption, or a scan of its own outside its cohort's tick.  The
event moves it straight into the cohort of its due tick, or out of every
cohort.  When a cohort's tick comes, the holders of claimed notes among
its members are found through the environment, as the owners of the
bundles that carry each claimed contract's serial.  Only they call
Wallet.watchdog_scan, and the scan leaves them in the cohort; every other
member costs a slot in its tick's scan-round, rendered into its
`watchdog 0` line when the trace is read; its wallet is not read.  The
cohort then moves whole to the tick scan_interval later, where it takes
in the wallets other events put there.  A heap holds the cohorts' ticks,
and tick(k) jumps from one such tick, or one where a held message is due,
to the next.

The trace is a list of records, rendered into v1 text lines only when
Simulation.trace is read.  log appends (time, actor, action, *fields), each
field an int, a str, or a minted serial that renders as its fingerprint,
taken as it is at log time; a scan-round renders one line per pid.  A run
nobody reads the trace of formats nothing.

A script is parsed whole before any line runs: parse_scenario makes each
line a step (line_no, op, method, args), refusing a bad token, a wrong
argument count, an integer outside (-2**63, 2**63) or a pid no earlier
AddParty added; run_scenario then builds the Simulation and runs the
steps.  Within that bound a script's work is uncapped and linear in due
scans, about 13 us and 160 B of trace each (Python 3.11, 2 shared vCPUs).

Accounting rules (applied at message delivery):
* corrupt a party: received += its coins + its banknote value, and its
  coins start counting toward current_or_spent while it stays corrupt;
* uncorrupt: received -= its coins now; held banknotes stay with the
  adversary, the wallet's banknote value resets to zero;
* honest party sends coins or a note to a corrupt one: received += value,
  for notes even when the corrupt payee refuses it;
* corrupt party pays coins or successfully spends a note to an honest
  one: current_or_spent += value;
* coins a contract pays to a corrupt party count via its ledger balance.

current_or_spent is therefore (live coins of corrupted parties) plus the
cumulative value spent to honest parties; banknotes held by the adversary
count only once spent.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, fields, replace
from heapq import heappop, heappush

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
    VARIANTS,
    claimants,
)
from .errors import BoltPayError, MintFailed, ParseError, ScriptError
from .ledger import ContractParams, Ledger, parse_int, parse_pid
from .lightning import ql_setup
from .qlds import QldsParams
from .wallet import HELD, Banknote, Wallet

ADVERSARY = "@adversary"


@dataclass
class SimConfig:
    """Everything that makes a run reproducible."""

    seed: int = 0
    variant: str = "base"
    d0: int = 10
    t_tr: int = 100
    t0: int = 10
    t1: int = 10
    n: int = 8
    scheduler: str = "fifo"
    sound: bool = True

    def __post_init__(self):
        # refuse a bad field when the config is made, whichever command
        # goes on to use it
        QldsParams(self.n)  # n outside 1..256
        self.phi()          # unknown variant; negative d0, t_tr, t0 or t1
        self.delta()        # a scheduler other than fifo or reorder:<k>

    def phi(self) -> PhiParams:
        return PhiParams(self.variant, self.d0, self.t_tr, self.t0, self.t1)

    def seed_bytes(self) -> bytes:
        return (self.seed % (1 << 256)).to_bytes(32, "big")

    def delta(self) -> int:
        if self.scheduler == "fifo":
            return 0
        kind, sep, arg = self.scheduler.partition(":")
        if kind == "reorder" and sep and arg.isascii() and arg.isdigit():
            return parse_int(arg)
        raise ParseError(f"unknown scheduler {self.scheduler!r}")

    def header_lines(self) -> list[str]:
        return [
            "# boltpay trace v1",
            ("# seed=%d variant=%s d0=%d t_tr=%d t0=%d t1=%d n=%d"
             " scheduler=%s sound=%s minimal=False"  # the frozen v1 format
             % (self.seed, self.variant, self.d0, self.t_tr, self.t0,
                self.t1, self.n, self.scheduler, self.sound)),
        ]


@dataclass
class ValueLedger:
    """The adversary's balance sheet, per the rules in the module docstring;
    Simulation.account alone sets current_or_spent and max_net."""

    received: int = 0
    spent_to_honest: int = 0
    current_or_spent: int = 0
    max_net: int = 0


@dataclass(frozen=True)
class PendingMessage:
    """What the Simulation's mempool shows a watching adversary about a
    held honest message: its sender, its kind (trigger or transaction),
    and for a trigger the ssid and witness."""

    sender: str
    kind: str
    ssid: int | None
    witness: object


def fingerprint(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class _Formats(dict):
    def __missing__(self, k: int) -> str:   # k tab-separated `%s`
        return self.setdefault(k, "\t".join(["%s"] * k))


_LINE_FORMATS = _Formats()


def _wallet_step(action: str, method: str):
    """A Simulation method that calls the wallet method named method, looked
    up at call time, on ssid and logs `action ssid result`: rejected for
    None, held for HELD, else the return value."""
    def step(self, pid: str, ssid: int):
        r = getattr(self.wallets[pid], method)(ssid)
        self.log(pid, action, ssid,
                 "rejected" if r is None else "held" if r is HELD else r)
        return r
    return step


class Simulation:
    """A full deployment under one configuration, driven step by step."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.env = ql_setup(128, config.seed_bytes(), sound_mode=config.sound)
        self.ledger = Ledger()
        self.phi = config.phi()
        self.wallets: dict[str, Wallet] = {}
        self.corrupted: set[str] = set()
        self.pool: list[Banknote] = []
        self.value = ValueLedger()
        self.adversary = None
        # rendered lines, then records: log's and scan-rounds (tick, idle pids)
        self._trace: list = list(config.header_lines())
        self._rendered = len(self._trace)
        # the mempool: honest messages held delta ticks, as (due, deliver).
        # Time never goes back and delta is fixed, so appending keeps them
        # in due order, ties in submission order
        self.delta = config.delta()
        self._held: deque = deque()
        self.scan_interval = max(1, config.t_tr - 1)
        # due tick -> its cohort, and each member's pid -> its cohort.  Every
        # honest wallet with notes is in the cohort of the tick its scan is
        # due, or, when that tick had passed as it joined, of the first tick
        # that can still scan it; while it stays, that tick, not
        # Wallet.last_scan, is its schedule.  _ticks is a heap of the
        # cohorts' ticks, each once; a cohort its events empty stays until
        # its tick, so that it keeps its one entry.  _cursor is "" from the
        # moment a tick advances the ledger, the pid being scanned during
        # the tick's scans, and None between ticks: a pid at or before it
        # has had this tick's scan.
        self._cohorts: dict[int, _Cohort] = {}
        self._cohort_of: dict[str, _Cohort] = {}
        self._ticks: list[int] = []
        self._cursor: str | None = None
        self._expected_coins = 0

    # -- logging and accounting ------------------------------------------

    @property
    def trace(self) -> list[str]:
        """The v1 trace lines so far.  A read renders, in place, the records
        since the last read; a list taken from one read is current as of
        that read, and later records render at the next."""
        trace, start, lines = self._trace, self._rendered, []
        for record in trace[start:]:
            k = len(record)
            if k == 2:   # a scan-round
                tick = record[0]
                lines += [f"{tick}\t{pid}\twatchdog\t0" for pid in record[1]]
                continue
            if type(record[k - 1]) is bytes:   # a mint's serial
                record = (*record[:-1], fingerprint(record[-1]))
            lines.append(_LINE_FORMATS[k] % record)
        trace[start:] = lines
        self._rendered = len(trace)
        return trace

    def log(self, actor: str, action: str, *fields) -> None:
        """Append the record of the line `time actor action fields`, each
        field an int, a str or a minted serial."""
        self._trace.append((self.ledger.time, actor, action) + fields)

    def account(self) -> None:
        """Set current_or_spent (the corrupt parties' live coins plus
        spent_to_honest) and max_net, then log the counters."""
        value = self.value
        current = value.spent_to_honest
        if self.corrupted:
            parties = self.ledger.parties
            for pid in self.corrupted:
                current += parties[pid].coins
        value.current_or_spent = current
        net = current - value.received
        if net > value.max_net:
            value.max_net = net
        self.log("@value", "counters", value.received, current, net, value.max_net)

    # -- the mempool ----------------------------------------------------------

    def _submit(self, sender, kind, ssid, witness, deliver):
        """Deliver now under fifo or for a corrupt sender, which is exactly
        the reordering power a front-runner has; else hold the message delta
        ticks, log it and show it to a watching adversary."""
        if not self.delta or sender in self.corrupted:
            return deliver()
        due = self.ledger.time + self.delta
        self._held.append((due, deliver))
        self.log("@chain", "held", sender, kind, "-" if ssid is None else ssid, due)
        if self.adversary is not None:
            self.adversary.on_pending(
                self, PendingMessage(sender, kind, ssid, witness))
        return HELD

    def submit_trigger(self, sender, ssid, witness, deposit, on_result=None):
        return self._submit(sender, "trigger", ssid, witness,
                            lambda: self._deliver_trigger(
                                sender, ssid, witness, deposit, on_result))

    def _deliver_trigger(self, sender, ssid, witness, deposit, on_result=None):
        paid = self.ledger.trigger(sender, ssid, witness, deposit)
        self.log(sender, "trigger", ssid, type(witness).__name__, deposit,
                 "rejected" if paid is None else paid)
        if on_result is not None:
            on_result(paid)
        self.account()
        return paid

    def _deliver_transaction(self, sender, payee, amount):
        tr_id = self.ledger.add_transaction(sender, payee, amount)
        if tr_id is not None:
            if sender not in self.corrupted and payee in self.corrupted:
                self.value.received += amount
            if sender in self.corrupted and payee not in self.corrupted:
                self.value.spent_to_honest += amount
        self.log(sender, "transaction", payee, amount,
                 "rejected" if tr_id is None else tr_id)
        self.account()
        return tr_id

    # -- parties ----------------------------------------------------------

    def add_party(self, pid: str) -> Wallet:
        fresh = self.ledger.add_party(pid)
        if fresh:
            self._expected_coins += self.ledger.parties[pid].coins
            w = self.wallets[pid] = Wallet(
                pid, self.env, self.ledger, self.phi, n=self.config.n,
                chain=self, on_change=self._place)
            w.last_scan = self.ledger.time
        self.log(pid, "add-party",
                 self.ledger.parties[pid].coins if fresh else "ignored")
        return self.wallets[pid]

    def corrupt(self, pid: str) -> None:
        if pid in self.corrupted:
            self.log(pid, "corrupt", "already")
            return
        coins = self.ledger.parties[pid].coins
        notes_value = self.wallets[pid].banknote_value
        self.value.received += coins + notes_value
        self.corrupted.add(pid)
        self._place(self.wallets[pid])
        self.log(pid, "corrupt", coins, notes_value)
        self.account()

    def uncorrupt(self, pid: str) -> None:
        w = self.wallets[pid]
        if pid not in self.corrupted:
            self.log(pid, "uncorrupt", "already")
            return
        coins = self.ledger.parties[pid].coins
        self.value.received -= coins
        for ssid in sorted(w.notes):
            while w.holds(ssid):
                note = w._take_note(ssid)
                self.env.transfer_bundle(note.bundle, pid, ADVERSARY)
                self.pool.append(note)
        self.corrupted.discard(pid)
        self.log(pid, "uncorrupt", coins)
        self.account()

    # -- protocol actions ---------------------------------------------------

    def mint(self, pid: str, value: int) -> int | None:
        w = self.wallets[pid]
        try:
            note = w.mint(value)
        except MintFailed:
            self.log(pid, "mint", "rejected", value)
            self.account()
            return None
        self.log(pid, "mint", note.ssid, value, note.serial)
        self.account()
        return note.ssid

    def pay(self, payer: str, payee: str, ssid: int,
            payee_rejects: bool = False) -> bool:
        pw, ew = self.wallets[payer], self.wallets[payee]
        held = pw.notes.get(ssid)
        if not held:
            self.log(payer, "pay", payee, ssid, 0, "no-note")
            return False
        value = held[0].value
        if payer not in self.corrupted and payee in self.corrupted:
            # the note was put in the adversary's hands; that counts
            # whether or not the corrupt payee deigns to accept it
            self.value.received += value
        accept = pw.pay(ew, ssid, payee_rejects=payee_rejects)
        if accept and payer in self.corrupted and payee not in self.corrupted:
            self.value.spent_to_honest += value
        self.log(payer, "pay", payee, ssid, value, "accept" if accept else "reject")
        self.account()
        return accept

    def transaction(self, payer: str, payee: str, amount: int):
        return self._submit(payer, "transaction", None, None,
                            lambda: self._deliver_transaction(
                                payer, payee, amount))

    redeem = _wallet_step("redeem", "redeem")
    file_claim = _wallet_step("file-claim", "file_lost_claim")
    settle = _wallet_step("settle", "settle_unchallenged")
    commit_claim = _wallet_step("commit-claim", "commit_lost_claim")
    reveal_claim = _wallet_step("reveal-claim", "reveal_lost_claim")

    def watchdog(self, pid: str) -> list:
        actions = self.wallets[pid].watchdog_scan()
        self.log(pid, "watchdog", len(actions),
                 *[f"{ssid}:{what}" for ssid, what in actions])
        return actions

    def watchdog_all(self) -> None:
        """Scan every honest wallet now, in pid order."""
        for pid in sorted(self.wallets):
            if pid not in self.corrupted:
                self.watchdog(pid)

    def clone(self, pid: str, ssid: int) -> bool:
        w = self.wallets[pid]
        held = w.notes.get(ssid)
        if not held:
            self.log(pid, "clone", ssid, "no-note")
            return False
        note = held[0]
        copy = self.env.clone_bundle(note.bundle)
        if copy is None:
            self.log(pid, "clone", ssid, "refused")
            return False
        w._add_note(Banknote(ssid, copy, note.value))
        self.log(pid, "clone", ssid, "ok")
        return True

    def move_note(self, ssid: int, pid: str) -> bool:
        """Hand a pooled (adversary-held) note to pid's wallet, corrupt or
        honest, unchecked: a stale note can reach an honest wallet."""
        w = self.wallets[pid]
        for i, note in enumerate(self.pool):
            if note.ssid == ssid:
                del self.pool[i]
                self.env.transfer_bundle(note.bundle, ADVERSARY, pid)
                w._add_note(note)
                self.log(pid, "move-note", ssid, note.value)
                return True
        self.log(pid, "move-note", ssid, "no-note")
        return False

    def lose(self, pid: str, ssid: int):
        note = self.wallets[pid].lose_note(ssid)
        self.log(pid, "lose", ssid, note.value if note else "no-note")
        return note

    # -- time ---------------------------------------------------------------

    def tick(self, k: int = 1) -> int:
        """Advance k ticks; every tick delivers the held messages due by
        then and scans each honest wallet with notes whose last scan is
        scan_interval ticks old, in pid order.  The wallets due at a tick
        form its cohort.  Only its members holding a claimed note call
        Wallet.watchdog_scan; every other member costs one entry in its
        tick's scan-round, without its wallet being read, and the cohort
        moves whole to its next due tick.

        Only the ticks where a message or a cohort is due do any work, so
        time jumps from one such tick to the next.  k may be 0, never
        negative.
        """
        if k < 0:
            raise ParseError(f"tick count must not be negative, got {k}")
        ledger, held = self.ledger, self._held
        end = ledger.time + k
        while ledger.time < end:
            stop = end
            if self._ticks:
                stop = min(stop, self._ticks[0])
            if held:
                stop = min(stop, held[0][0])
            ledger.tick(max(stop - ledger.time, 1))
            self._cursor = ""
            # one held while these land is due at now + delta, so it waits
            while held and held[0][0] <= ledger.time:
                held.popleft()[1]()
            if self._ticks and self._ticks[0] == ledger.time:
                self._scan_due(heappop(self._ticks))
            self._cursor = None
        return ledger.time

    # -- cohorts --------------------------------------------------------------

    def _place(self, w: Wallet) -> None:
        """Move the wallet into the cohort of the tick its scan falls due,
        or out of every cohort if it is corrupt or holds no note: it had an
        event that may change when, or whether, it is scanned.  One scanning
        at its cohort's tick stays: the cohort moves on after the scans."""
        pid, now, cursor = w.pid, self.ledger.time, self._cursor
        keep = w.notes and pid not in self.corrupted
        cohort = self._cohort_of.pop(pid, None)
        if cohort is not None:
            if keep and pid == cursor and cohort.tick == now:
                self._cohort_of[pid] = cohort   # it moves on with the cohort
                return
            # its last scan becomes the one its place stood for
            cohort.remove(bisect_left(cohort.pids, pid))
            if cohort.tick == now and (cursor is None or pid <= cursor):
                w.last_scan = now
            elif w.last_scan < cohort.tick - self.scan_interval:
                w.last_scan = cohort.tick - self.scan_interval
        if not keep:
            return
        tick = w.last_scan + self.scan_interval
        if tick <= now:   # the first tick whose scans have not passed it
            tick = now + 1 if cursor is None or pid <= cursor else now
        cohort = self._cohorts.get(tick)
        if cohort is None:
            cohort = self._cohorts[tick] = _Cohort(tick)
            heappush(self._ticks, tick)
        cohort.insert(bisect_left(cohort.pids, pid), pid)
        self._cohort_of[pid] = cohort

    def _scan_due(self, now: int) -> None:
        """Scan the cohort due at now, then move it whole to its next tick;
        each run of idle members goes into the trace as one scan-round."""
        cohorts, ticks, ledger = self._cohorts, self._ticks, self.ledger
        cohort, cohort_of, wallets = cohorts[now], self._cohort_of, self.wallets
        claimed, holders, trace = ledger.claimed, self.env.holders, self._trace
        pids, cursor = cohort.pids, ""
        while True:
            pid = None   # the first member after the cursor holding a claimed note
            for ssid in claimed:
                for holder in holders(ledger.contracts[ssid - 1].state.serial):
                    if (cohort_of.get(holder) is cohort and cursor < holder
                            and (pid is None or holder < pid)
                            and ssid in wallets[holder].notes):
                        pid = holder
            i = bisect_right(pids, cursor)
            j = len(pids) if pid is None else bisect_left(pids, pid)
            if i < j:
                trace.append((now, pids[i:j]))
            if pid is None:
                break
            self._cursor = cursor = pid
            self.watchdog(pid)   # its scan leaves it in the cohort
        del cohorts[now]
        later = now + self.scan_interval
        merged = cohorts.get(later)   # wallets placed there by other events
        if merged is None:
            if not pids:
                return
            heappush(ticks, later)
        else:
            for pid in merged.pids:
                cohort.insert(bisect_left(pids, pid), pid)
                cohort_of[pid] = cohort
        cohort.tick = later
        cohorts[later] = cohort

    # -- direct ledger lines (scenario support) -------------------------------

    def raw_retrieve_party(self, sender: str, pid: str):
        coins = self.ledger.retrieve_party(pid)
        self.log(sender, "retrieve-party", pid, "none" if coins is None else coins)
        return coins

    def raw_retrieve_transaction(self, sender: str, tr_id: int):
        rec = self.ledger.retrieve_transaction(tr_id)
        found = "none" if rec is None else f"{rec.payer}>{rec.payee}:{rec.amount}"
        self.log(sender, "retrieve-transaction", tr_id, found)
        return rec

    def raw_retrieve_contract(self, sender: str, ssid: int):
        z = self.ledger.retrieve_contract(ssid)
        if z is None:
            self.log(sender, "retrieve-contract", ssid, "none")
        else:
            _, state, coins = z
            claim = ("terminated" if state.claim is None
                     else type(state.claim).__name__)
            self.log(sender, "retrieve-contract", ssid, coins, claim)
        return z

    def raw_add_contract(self, sender: str, params: ContractParams):
        ssid = self.ledger.add_smart_contract(params)
        self.log(sender, "add-contract", "ignored" if ssid is None else ssid)
        return ssid

    def add_contract(self, sender, members, deposits, variant, st0):
        """A script's AddSmartContract: a raw contract whose circuit is this
        network's phi under variant."""
        return self.raw_add_contract(sender, ContractParams(
            members, deposits, replace(self.phi, variant=variant), st0))

    def raw_initialize(self, sender: str, ssid: int):
        rec = self.ledger._contract(ssid)
        r = (None if rec is None
             else self.ledger.initialize_with_coins(sender, ssid, rec.params))
        self.log(sender, "init-contract", ssid, "rejected" if r is None else r)
        self.account()
        return r

    # -- audits ---------------------------------------------------------------

    def audit(self) -> list[str]:
        """Invariants that must hold in any sound-mode run."""
        problems = list(self.env.audit_violations())
        if self.ledger.total_coins() != self._expected_coins:
            problems.append(
                f"conservation broken: {self.ledger.total_coins()} coins "
                f"on ledger, {self._expected_coins} registered")
        return problems

    def honest_bookkeeping_violations(self) -> list[str]:
        """Wallet face-value totals vs actual backing, honest wallets only."""
        out = []
        for pid in sorted(self.wallets):
            if pid in self.corrupted:
                continue
            w = self.wallets[pid]
            backing = 0
            for ssid, held in w.notes.items():
                if ssid in w.pending_challenges:
                    backing += sum(n.value for n in held)
                    continue
                # only a note carrying the contract's serial is backed
                rec = self.ledger._contract(ssid)
                if rec is not None and any(n.serial == rec.state.serial
                                           for n in held):
                    backing += rec.coins - self.phi.d0 * len(
                        claimants(rec.state.claim))
            if backing != w.banknote_value:
                out.append(f"{pid}: banknote_value {w.banknote_value}, "
                           f"backing {backing}")
        return out


class _Cohort:
    """The wallets due at one tick, their pids in order."""

    __slots__ = ("tick", "pids")

    def __init__(self, tick: int):
        self.tick = tick
        self.pids: list[str] = []

    def insert(self, i: int, pid: str) -> None:
        self.pids.insert(i, pid)

    def remove(self, i: int) -> None:
        del self.pids[i]


# -- witness codec (wire format) ---------------------------------------------

_WITNESS_TYPES = {cls.__name__: cls for cls in (
    BanknoteLost, ChallengeClaim, ClaimUnchallenged, RecoverCoins,
    ChallengeClaimSig, RecoverCoinsSig, CommitLost, RevealLost)}


def witness_from_fields(name: str, hex_fields: list[str]):
    cls = _WITNESS_TYPES.get(name)
    if cls is None:
        raise ParseError(f"unknown witness {name!r}")
    arity = len(fields(cls))
    if len(hex_fields) != arity:
        raise ParseError(f"{name} takes {arity} fields, got {len(hex_fields)}")
    try:
        return cls(*(bytes.fromhex(f) for f in hex_fields))
    except ValueError as e:
        raise ParseError(f"bad hex in {name}: {e}") from None


# -- scenario scripts ----------------------------------------------------------

def parse_scenario(text: str) -> list[tuple]:
    """The whole script as steps (line_no, op, method, args), every line's
    tokens checked and converted before any line runs; raises ScriptError
    for the first bad line."""
    parties: set[str] = set()
    return [parse_line(line_no, line.split(), parties)
            for line_no, raw in enumerate(text.splitlines(), 1)
            if (line := raw.strip()) and not line.startswith("#")]


def parse_line(line_no: int, tokens: list[str], parties: set[str]) -> tuple:
    """One line's step.  A pid a wallet directive or AddTransaction's payer
    names must be in parties, the pids AddParty lines have added so far."""
    op, args = tokens[0], tokens[1:]
    if op not in _DIRECTIVES:
        raise ScriptError(line_no, f"unknown directive {op!r}")
    fewest, most, parse = _DIRECTIVES[op]
    if not fewest <= len(args) <= most:
        want = fewest if fewest == most else f"{fewest} to {most}"
        raise ScriptError(line_no, f"{op} takes {want} arguments, got {len(args)}")
    try:
        return (line_no, op, *parse(parties, *args))
    except ParseError as e:
        raise ScriptError(line_no, f"{op}: {e}") from e


def run_scenario(config: SimConfig, text: str) -> Simulation:
    """Parse a whole scenario script, then run its steps on a new
    Simulation; raises ScriptError with the line number."""
    steps = parse_scenario(text)
    sim = Simulation(config)
    for line_no, op, method, args in steps:
        try:
            getattr(sim, method)(*args)
        except BoltPayError as e:
            raise ScriptError(line_no, f"{op}: {e}") from e
    return sim


_INT_BOUND = 1 << 63   # every script integer lies strictly within +-_INT_BOUND


def _bounded(value: int, tok: str) -> int:
    if not -_INT_BOUND < value < _INT_BOUND:
        raise ParseError(f"integer out of range, want |n| < 2**63, got {tok!r:.40}")
    return value


def _str(tok: str, parties) -> str:
    return tok


def _int(tok: str, parties=None) -> int:
    return _bounded(parse_int(tok), tok)


def _ticks(tok: str, parties) -> int:
    if (k := _int(tok)) < 0:
        raise ParseError(f"tick count must not be negative, got {k}")
    return k


def _party(pid: str, parties: set[str]) -> str:
    if pid not in parties:
        raise ParseError(f"unknown party {pid!r}")
    return pid


def _new_party(pid: str, parties: set[str]) -> str:
    _bounded(parse_pid(pid)[1], pid)
    parties.add(pid)
    return pid


def _add_contract(parties, sender, members, deposits, variant, st0hex):
    """members 'a,b' deposits 'a=3,b=4' variant st0hex, as a raw contract."""
    pairs = []
    for part in deposits.split(","):
        pid, sep, d = part.partition("=")
        if not sep:
            raise ParseError(f"bad deposit {part!r}")
        if (d := _int(d)) < 0:
            raise ParseError(f"deposit of {pid} must not be negative, got {d}")
        pairs.append((pid, d))
    if variant not in VARIANTS:
        raise ParseError(f"unknown variant {variant!r}")
    try:
        serial = bytes.fromhex(st0hex)
    except ValueError as e:
        raise ParseError(f"bad hex in st0hex: {e}") from None
    return "add_contract", [sender, tuple(members.split(",")), tuple(pairs),
                            variant, BanknoteState(serial, NO_CLAIM)]


def _pay(parties, payer, payee, ssid, flag=None):
    if flag not in (None, "reject"):
        raise ParseError(f"the only 4th argument is 'reject', got {flag!r}")
    return "pay", [_party(payer, parties), _party(payee, parties), _int(ssid),
                   flag is not None]


def _call(method: str, *kinds):
    """A directive whose arguments map one to one onto the Simulation
    method of that name, each converted by its kind(token, parties)."""
    return len(kinds), len(kinds), lambda parties, *args: (method, [
        kind(arg, parties) for kind, arg in zip(kinds, args)])


# directive -> (fewest args, most args, parse(parties, *args)), which gives
# the step's Simulation method name and converted args.  The method is
# looked up on the instance as the step runs, so a method patched or
# overridden after import is the one a script line calls.
_DIRECTIVES = {
    "AddParty": _call("add_party", _new_party),
    "RetrieveParty": _call("raw_retrieve_party", _str, _str),
    "AddTransaction": _call("transaction", _party, _str, _int),
    "RetrieveTransaction": _call("raw_retrieve_transaction", _str, _int),
    "AddSmartContract": (5, 5, _add_contract),
    "InitializeWithCoins": _call("raw_initialize", _str, _int),
    "Trigger": (4, 4 + max(len(fields(c)) for c in _WITNESS_TYPES.values()),
                lambda parties, sender, ssid, d, wname, *hex_fields: (
                    "submit_trigger", [sender, _int(ssid), witness_from_fields(
                        wname, list(hex_fields)), _int(d)])),
    "RetrieveContract": _call("raw_retrieve_contract", _str, _int),
    "Tick": _call("tick"),
    "TICK": _call("tick", _ticks),
    "CORRUPT": _call("corrupt", _party),
    "UNCORRUPT": _call("uncorrupt", _party),
    "MINT": _call("mint", _party, _int),
    "PAY": (3, 4, _pay),
    "REDEEM": _call("redeem", _party, _int),
    "FILECLAIM": _call("file_claim", _party, _int),
    "SETTLE": _call("settle", _party, _int),
    "COMMITCLAIM": _call("commit_claim", _party, _int),
    "REVEALCLAIM": _call("reveal_claim", _party, _int),
    "WATCHDOG": (0, 1, lambda parties, pid=None: (
        ("watchdog_all", []) if pid is None
        else ("watchdog", [_party(pid, parties)]))),
    "CLONE": _call("clone", _party, _int),
    "MOVENOTE": _call("move_note", _int, _party),
    "LOSE": _call("lose", _party, _int),
}
