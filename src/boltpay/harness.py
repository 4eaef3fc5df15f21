"""Adversarial test harness: scenarios, schedulers, and value accounting.

The harness drives a whole deployment (environment, ledger, wallets) from
a deterministic script, tracking how much value the adversary has taken in
versus how much it holds on the ledger or has spent back to honest
parties.  The headline soundness statement is that the running maximum of
(current_or_spent - received) never goes positive, no matter what the
scripted adversary does, as long as bolts cannot be cloned.

Two message schedulers are provided.  The fifo scheduler delivers every
ledger message the moment it is sent.  The reorder scheduler models a
front-running adversary: honest state-changing messages sit visible in a
mempool for delta ticks before landing, and a strategy object may inspect
each pending message and inject its own (instantly delivered) messages
first.

Time moves in ticks.  Each tick delivers the held messages due by then,
then runs the watchdog scan of every honest wallet that holds notes and
last scanned scan_interval or more ticks ago, in pid order.  The
simulation finds those wallets without walking them all: calendar
buckets keyed by due tick hold each wallet's pid at most once, put there
when a party joins, after every scan and when a wallet gains its first
note; a heap holds the distinct due ticks, and each pid taken out is
checked against the real condition before its wallet is scanned.  tick(k)
jumps from one tick where a scan or a held message is due to the next,
and a scan reads only the held notes that the ledger's claim index names.

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
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, fields, replace
from heapq import heappop, heappush

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
)
from .errors import BoltPayError, MintFailed, ParseError, ScriptError
from .ledger import ContractParams, Ledger
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
    minimal: bool = False

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
            return int(arg)
        raise ParseError(f"unknown scheduler {self.scheduler!r}")

    def header_lines(self) -> list[str]:
        return [
            "# boltpay trace v1",
            ("# seed=%d variant=%s d0=%d t_tr=%d t0=%d t1=%d n=%d"
             " scheduler=%s sound=%s minimal=%s"
             % (self.seed, self.variant, self.d0, self.t_tr, self.t0,
                self.t1, self.n, self.scheduler, self.sound, self.minimal)),
        ]


@dataclass
class ValueLedger:
    """The adversary's balance sheet, per the rules in the module docstring."""

    received: int = 0
    spent_to_honest: int = 0
    current_or_spent: int = 0
    max_net: int = 0

    def update(self, live_corrupt_coins: int) -> int:
        self.current_or_spent = live_corrupt_coins + self.spent_to_honest
        net = self.current_or_spent - self.received
        if net > self.max_net:
            self.max_net = net
        return net


@dataclass(frozen=True)
class PendingMessage:
    """What the mempool shows the adversary about a held honest message."""

    sender: str
    kind: str
    ssid: int | None
    witness: object
    deposit: int
    payee: str | None = None
    amount: int = 0


class ReorderChain:
    """Mempool with an adversary window.

    Honest submissions wait delta ticks, visible to the strategy; corrupt
    submissions deliver immediately, which is exactly the reordering power
    a front-runner has.  With delta 0 (the fifo scheduler) every
    submission delivers at once, in submission order.
    """

    def __init__(self, sim: "Simulation", delta: int):
        self.sim = sim
        self.delta = delta
        # (due, seq, deliver, pending); time never goes back and delta is
        # fixed, so appending keeps the entries in (due, seq) order
        self._held: deque = deque()
        self._seq = 0

    def _hold(self, sender, deliver, pending: PendingMessage):
        sim = self.sim
        self._seq += 1
        due = sim.ledger.time + self.delta
        self._held.append((due, self._seq, deliver, pending))
        sim.log("@chain", "held", sender, pending.kind,
                pending.ssid if pending.ssid is not None else "-", due)
        if sim.adversary is not None:
            sim.adversary.on_pending(sim, pending)
        return HELD

    def submit_trigger(self, sender, ssid, witness, deposit, on_result=None):
        if not self.delta or sender in self.sim.corrupted:
            return self.sim._deliver_trigger(sender, ssid, witness, deposit,
                                             on_result)
        deliver = lambda: self.sim._deliver_trigger(
            sender, ssid, witness, deposit, on_result)
        return self._hold(sender, deliver,
                          PendingMessage(sender, "trigger", ssid, witness, deposit))

    def submit_transaction(self, sender, payee, amount):
        if not self.delta or sender in self.sim.corrupted:
            return self.sim._deliver_transaction(sender, payee, amount)
        deliver = lambda: self.sim._deliver_transaction(sender, payee, amount)
        return self._hold(sender, deliver,
                          PendingMessage(sender, "transaction", None, None, 0,
                                         payee=payee, amount=amount))

    def deliver_due(self):
        held = self._held
        now = self.sim.ledger.time
        due_now = []
        while held and held[0][0] <= now:
            due_now.append(held.popleft())
        for _, _, deliver, _ in due_now:
            deliver()

    def next_due(self) -> int | None:
        """The tick the earliest held message lands, or None."""
        return self._held[0][0] if self._held else None

    def pending(self) -> list[PendingMessage]:
        return [e[3] for e in self._held]


def fingerprint(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


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
        self.trace: list[str] = list(config.header_lines())
        self.chain = ReorderChain(self, config.delta())
        self.scan_interval = max(1, config.t_tr - 1)
        # due tick -> the pids armed for it: each pid of _armed in exactly
        # one bucket, and every honest wallet with notes in a bucket no
        # later than the tick its scan is due; _ticks is a heap of the keys
        self._due: dict[int, list[str]] = {}
        self._ticks: list[int] = []
        self._armed: set[str] = set()
        self._expected_coins = 0

    # -- logging and accounting ------------------------------------------

    def log(self, actor: str, action: str, *fields) -> None:
        self.trace.append("\t".join(
            (str(self.ledger.time), actor, action, *map(str, fields))))

    def live_corrupt_coins(self) -> int:
        return sum(self.ledger.parties[p].coins for p in self.corrupted
                   if p in self.ledger.parties)

    def account(self) -> None:
        net = self.value.update(self.live_corrupt_coins())
        self.log("@value", "counters", self.value.received,
                 self.value.current_or_spent, net, self.value.max_net)

    # -- message delivery (called by the chain) ----------------------------

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
                minimal=self.config.minimal, chain=self.chain,
                on_first_note=self._arm)
            w.last_scan = self.ledger.time
            self._arm(w)
        self.log(pid, "add-party",
                 self.ledger.parties[pid].coins if fresh else "ignored")
        return self.wallets[pid]

    def wallet(self, pid: str) -> Wallet:
        if pid not in self.wallets:
            raise ParseError(f"unknown party {pid!r}")
        return self.wallets[pid]

    def corrupt(self, pid: str) -> None:
        self.wallet(pid)
        if pid in self.corrupted:
            self.log(pid, "corrupt", "already")
            return
        coins = self.ledger.parties[pid].coins
        notes_value = self.wallets[pid].banknote_value
        self.value.received += coins + notes_value
        self.corrupted.add(pid)
        self.log(pid, "corrupt", coins, notes_value)
        self.account()

    def uncorrupt(self, pid: str) -> None:
        self.wallet(pid)
        if pid not in self.corrupted:
            self.log(pid, "uncorrupt", "already")
            return
        coins = self.ledger.parties[pid].coins
        self.value.received -= coins
        w = self.wallets[pid]
        for ssid in sorted(w.notes):
            for note in w.notes[ssid]:
                if self.env.owner_of(note.bundle) == pid:
                    self.env.transfer_bundle(note.bundle, pid, ADVERSARY)
                self.pool.append(note)
        w.notes.clear()
        w.banknote_value = 0
        self.corrupted.discard(pid)
        self.log(pid, "uncorrupt", coins)
        self.account()

    # -- protocol actions ---------------------------------------------------

    def mint(self, pid: str, value: int) -> int | None:
        w = self.wallet(pid)
        try:
            note = w.mint(value)
        except MintFailed:
            self.log(pid, "mint", "rejected", value)
            self.account()
            return None
        self.log(pid, "mint", note.ssid, value, fingerprint(note.serial))
        self.account()
        return note.ssid

    def pay(self, payer: str, payee: str, ssid: int,
            payee_rejects: bool = False) -> bool:
        pw, ew = self.wallet(payer), self.wallet(payee)
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
        self.log(payer, "pay", payee, ssid, value,
                 "accept" if accept else "reject")
        self.account()
        return accept

    def transaction(self, payer: str, payee: str, amount: int):
        self.wallet(payer)
        return self.chain.submit_transaction(payer, payee, amount)

    def redeem(self, pid: str, ssid: int):
        r = self.wallet(pid).redeem(ssid)
        self.log(pid, "redeem", ssid, _fmt_result(r))
        return r

    def file_claim(self, pid: str, ssid: int):
        r = self.wallet(pid).file_lost_claim(ssid)
        self.log(pid, "file-claim", ssid, _fmt_result(r))
        return r

    def settle(self, pid: str, ssid: int):
        r = self.wallet(pid).settle_unchallenged(ssid)
        self.log(pid, "settle", ssid, _fmt_result(r))
        return r

    def commit_claim(self, pid: str, ssid: int):
        r = self.wallet(pid).commit_lost_claim(ssid)
        self.log(pid, "commit-claim", ssid, _fmt_result(r))
        return r

    def reveal_claim(self, pid: str, ssid: int):
        r = self.wallet(pid).reveal_lost_claim(ssid)
        self.log(pid, "reveal-claim", ssid, _fmt_result(r))
        return r

    def watchdog(self, pid: str) -> list:
        return self._watch(self.wallet(pid))

    def _watch(self, w: Wallet) -> list:
        actions = w.watchdog_scan()
        self._arm(w)
        if actions:
            self.log(w.pid, "watchdog", len(actions),
                     *(f"{ssid}:{what}" for ssid, what in actions))
        else:
            self.log(w.pid, "watchdog", 0)
        return actions

    def clone(self, pid: str, ssid: int) -> bool:
        w = self.wallet(pid)
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
        """Hand a pooled (adversary-held) note to a corrupted party's wallet."""
        w = self.wallet(pid)
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
        note = self.wallet(pid).lose_note(ssid)
        self.log(pid, "lose", ssid, note.value if note else "no-note")
        return note

    # -- time ---------------------------------------------------------------

    def tick(self, k: int = 1) -> int:
        """Advance k ticks; every tick delivers the held messages due by
        then and scans each honest wallet with notes whose last scan is
        scan_interval ticks old, in pid order.

        Only the ticks where a message or a scan is due do any work, so
        time jumps from one such tick to the next.  k may be 0, never
        negative.
        """
        if k < 0:
            raise ParseError(f"tick count must not be negative, got {k}")
        ledger = self.ledger
        end = ledger.time + k
        while ledger.time < end:
            stop = end
            if self._ticks:
                stop = min(stop, self._ticks[0])
            held = self.chain.next_due()
            if held is not None:
                stop = min(stop, held)
            ledger.tick(max(stop - ledger.time, 1))
            self.chain.deliver_due()
            self._scan_due()
        return ledger.time

    def _arm(self, w: Wallet, at: int | None = None) -> None:
        """Put the wallet in the bucket of its due tick, or of `at`, unless
        it is in one already."""
        pid = w.pid
        if pid not in self._armed:
            self._armed.add(pid)
            due = w.last_scan + self.scan_interval if at is None else at
            bucket = self._due.get(due)
            if bucket is None:
                self._due[due] = [pid]
                heappush(self._ticks, due)
            else:
                bucket.append(pid)

    def _pop_due(self, now: int) -> list[str]:
        ticks, due, armed = self._ticks, self._due, self._armed
        pids = []
        while ticks and ticks[0] <= now:
            bucket = due.pop(heappop(ticks))
            armed.difference_update(bucket)
            pids += bucket
        return pids

    def _scan_due(self) -> None:
        now, ticks = self.ledger.time, self._ticks
        todo = sorted(self._pop_due(now))
        wallets, corrupted = self.wallets, self.corrupted
        interval, watch = self.scan_interval, self._watch
        i = 0
        while i < len(todo):
            pid = todo[i]
            i += 1
            w = wallets[pid]
            if pid in corrupted or not w.notes:
                continue  # re-armed when it next gains a first note
            if now - w.last_scan < interval:
                self._arm(w)  # scanned since it was put in its bucket
                continue
            watch(w)
            if not ticks or ticks[0] > now:
                continue
            # a wallet that gained its first note during the scan may be
            # due already: scan it in this tick if it sorts after pid, as a
            # walk over all wallets in pid order would, else in the next
            for other in self._pop_due(now):
                if other > pid:
                    j = bisect_left(todo, other, i)
                    if j == len(todo) or todo[j] != other:
                        todo.insert(j, other)
                else:
                    self._arm(wallets[other], now + 1)

    # -- direct ledger lines (scenario support) -------------------------------

    def raw_retrieve_party(self, sender: str, pid: str):
        coins = self.ledger.retrieve_party(pid)
        self.log(sender, "retrieve-party", pid, "none" if coins is None else coins)
        return coins

    def raw_retrieve_transaction(self, sender: str, tr_id: int):
        rec = self.ledger.retrieve_transaction(tr_id)
        self.log(sender, "retrieve-transaction", tr_id,
                 "none" if rec is None else f"{rec.payer}>{rec.payee}:{rec.amount}")
        return rec

    def raw_retrieve_contract(self, sender: str, ssid: int):
        z = self.ledger.retrieve_contract(ssid)
        if z is None:
            self.log(sender, "retrieve-contract", ssid, "none")
        else:
            _, state, coins = z
            self.log(sender, "retrieve-contract", ssid, coins,
                     type(state.claim).__name__ if state.claim is not None else "terminated")
        return z

    def raw_add_contract(self, sender: str, params: ContractParams):
        ssid = self.ledger.add_smart_contract(params)
        self.log(sender, "add-contract", "ignored" if ssid is None else ssid)
        return ssid

    def raw_initialize(self, sender: str, ssid: int):
        rec = self.ledger._contract(ssid)
        params = rec.params if rec is not None else None
        r = (None if params is None
             else self.ledger.initialize_with_coins(sender, ssid, params))
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
                rec = self.ledger._contract(ssid)
                if rec is not None:
                    deposits = _claim_deposits(rec.state.claim)
                    backing += rec.coins - self.phi.d0 * deposits
            if backing != w.banknote_value:
                out.append(f"{pid}: banknote_value {w.banknote_value}, "
                           f"backing {backing}")
        return out


def _claim_deposits(claim) -> int:
    """How many d0 claim deposits a banknote contract's pot holds."""
    if isinstance(claim, ClaimBy):
        return 1
    if isinstance(claim, LostClaimCommits):
        return len(claim.entries)
    return 0


def _fmt_result(r) -> str:
    if r is None:
        return "rejected"
    if r is HELD:
        return "held"
    return str(r)


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

def parse_scenario(text: str) -> list[tuple[int, list[str]]]:
    """Split a scenario file into (line_no, tokens); grammar errors surface
    later, at execution, with the line number attached."""
    steps = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        steps.append((line_no, line.split()))
    return steps


def run_scenario(config: SimConfig, text: str) -> Simulation:
    """Execute a scenario script; raises ScriptError with the line number."""
    sim = Simulation(config)
    for line_no, tokens in parse_scenario(text):
        op, args = tokens[0], tokens[1:]
        if op not in _DIRECTIVES:
            raise ScriptError(line_no, f"unknown directive {op!r}")
        fewest, most, handler = _DIRECTIVES[op]
        if not fewest <= len(args) <= most:
            want = fewest if fewest == most else f"{fewest} to {most}"
            raise ScriptError(
                line_no, f"{op} takes {want} arguments, got {len(args)}")
        try:
            handler(sim, *args)
        except (BoltPayError, ValueError, KeyError, IndexError) as e:
            raise ScriptError(line_no, f"{op}: {e}") from e
    return sim


def _int(tok: str) -> int:
    if not (tok.isascii() and tok.lstrip("-").isdigit()):
        raise ParseError(f"expected integer, got {tok!r}")
    return int(tok)


def _add_contract(sim: Simulation, sender, members_tok, deposits_tok, variant,
                  st0hex) -> None:
    """members 'a,b' deposits 'a=3,b=4' variant st0hex, as a raw contract."""
    members = tuple(members_tok.split(","))
    deposits = []
    for part in deposits_tok.split(","):
        pid, sep, d = part.partition("=")
        if not sep:
            raise ParseError(f"bad deposit {part!r}")
        deposits.append((pid, _int(d)))
    st0 = BanknoteState(bytes.fromhex(st0hex), NO_CLAIM)
    sim.raw_add_contract(sender, ContractParams(
        members, tuple(deposits), replace(sim.phi, variant=variant), st0))


def _trigger(sim: Simulation, sender, ssid, d, wname, *hex_fields) -> None:
    witness = witness_from_fields(wname, list(hex_fields))
    sim.chain.submit_trigger(sender, _int(ssid), witness, _int(d))


def _pay(sim: Simulation, payer, payee, ssid, flag=None) -> None:
    if flag not in (None, "reject"):
        raise ParseError(f"the only 4th argument is 'reject', got {flag!r}")
    sim.pay(payer, payee, _int(ssid), payee_rejects=flag is not None)


def _watchdog(sim: Simulation, pid=None) -> None:
    if pid is not None:
        sim.watchdog(pid)
        return
    for pid in sorted(sim.wallets):
        if pid not in sim.corrupted:
            sim.watchdog(pid)


def _call(method: str, *kinds):
    """A directive whose arguments map one to one onto the Simulation
    method of that name, each converted by its kind (str or _int)."""
    return len(kinds), len(kinds), lambda sim, *args: getattr(sim, method)(
        *(kind(arg) for kind, arg in zip(kinds, args)))


# directive -> (fewest args, most args, handler(sim, *args)).  Handlers look
# Simulation methods up on the instance at call time, so a method patched or
# overridden after import is the one a script line calls.
_DIRECTIVES = {
    "AddParty": _call("add_party", str),
    "RetrieveParty": _call("raw_retrieve_party", str, str),
    "AddTransaction": _call("transaction", str, str, _int),
    "RetrieveTransaction": _call("raw_retrieve_transaction", str, _int),
    "AddSmartContract": (5, 5, _add_contract),
    "InitializeWithCoins": _call("raw_initialize", str, _int),
    "Trigger": (4, 4 + max(len(fields(c)) for c in _WITNESS_TYPES.values()),
                _trigger),
    "RetrieveContract": _call("raw_retrieve_contract", str, _int),
    "Tick": (0, 0, lambda sim: sim.tick(1)),
    "TICK": _call("tick", _int),
    "CORRUPT": _call("corrupt", str),
    "UNCORRUPT": _call("uncorrupt", str),
    "MINT": _call("mint", str, _int),
    "PAY": (3, 4, _pay),
    "REDEEM": _call("redeem", str, _int),
    "FILECLAIM": _call("file_claim", str, _int),
    "SETTLE": _call("settle", str, _int),
    "COMMITCLAIM": _call("commit_claim", str, _int),
    "REVEALCLAIM": _call("reveal_claim", str, _int),
    "WATCHDOG": (0, 1, _watchdog),
    "CLONE": _call("clone", str, _int),
    "MOVENOTE": _call("move_note", _int, str),
    "LOSE": _call("lose", str, _int),
}
