"""Replay a simulation trace and recompute the adversary's balance sheet.

The harness logs every delivered message and, after each accounting event,
a ``@value counters`` line with its running totals.  This module rebuilds
those totals from the other lines alone: party balances, the corrupt set,
who holds which note, contract pots.  Every counters line is then checked
against the rebuilt numbers, so a bookkeeping bug in the harness cannot
hide behind its own reporting.

The replay covers the line vocabulary the scenario corpus and the attack
runners produce.  Lines that would need state the trace does not carry
(multi-party contract funding) raise instead of guessing.
"""

REJECTED = "rejected"

CHALLENGE_WITNESSES = ("ChallengeClaim", "ChallengeClaimSig")
REDEEM_WITNESSES = ("RecoverCoins", "RecoverCoinsSig")


class TraceMismatch(AssertionError):
    pass


class TraceReplay:
    def __init__(self):
        self.balances = {}
        self.corrupt = set()
        self.notes = {}   # pid -> ssid -> [face values, oldest first]
        self.pool = []    # (ssid, value) notes the adversary holds directly
        self.pot = {}     # ssid -> coins currently backing the contract
        self.received = 0
        self.spent = 0
        self.max_net = 0
        self.value_lines = 0
        # (pid, ssid) of the trigger seen right before a redeem wrapper:
        # a refused trigger means the wallet held, and spent, a note
        self._last_redeem_trigger = None

    # -- helpers -----------------------------------------------------

    def _held(self, pid, ssid):
        return self.notes.setdefault(pid, {}).setdefault(ssid, [])

    def note_value(self, pid):
        return sum(v for vs in self.notes.get(pid, {}).values() for v in vs)

    def live_corrupt_coins(self):
        return sum(self.balances[p] for p in self.corrupt)

    def _take(self, pid, ssid, what):
        held = self.notes.get(pid, {}).get(ssid)
        if not held:
            raise TraceMismatch(f"{what}: {pid} holds no note for {ssid}")
        return held.pop(0)

    def _check(self, label, got, want):
        if got != want:
            raise TraceMismatch(f"{label}: trace says {want}, replay says {got}")

    # -- line handlers -------------------------------------------------

    def feed(self, line):
        if not line or line.startswith("#"):
            return
        fields = line.split("\t")
        actor, action = fields[1], fields[2]
        if action == "trigger":
            self._on_trigger(actor, fields[3:])
        else:
            if action not in ("counters", "held"):
                self._last_redeem_trigger = None
            handler = getattr(self, "_on_" + action.replace("-", "_"), None)
            if handler is None:
                raise TraceMismatch(f"unsupported trace line: {line!r}")
            handler(actor, fields[3:])

    def _on_add_party(self, pid, args):
        if args[0] != "ignored":
            self.balances[pid] = int(args[0])

    def _on_corrupt(self, pid, args):
        if args[0] == "already":
            return
        coins, notes_value = int(args[0]), int(args[1])
        self._check(f"corrupt {pid} coins", self.balances[pid], coins)
        self._check(f"corrupt {pid} notes", self.note_value(pid), notes_value)
        self.received += coins + notes_value
        self.corrupt.add(pid)

    def _on_uncorrupt(self, pid, args):
        if args[0] == "already":
            return
        coins = int(args[0])
        self._check(f"uncorrupt {pid} coins", self.balances[pid], coins)
        self.received -= coins
        for ssid in sorted(self.notes.get(pid, {})):
            for v in self.notes[pid][ssid]:
                self.pool.append((ssid, v))
        self.notes[pid] = {}
        self.corrupt.discard(pid)

    def _on_transaction(self, sender, args):
        payee, amount, result = args[0], int(args[1]), args[2]
        if result == REJECTED:
            return
        self.balances[sender] -= amount
        self.balances[payee] += amount
        if sender not in self.corrupt and payee in self.corrupt:
            self.received += amount
        if sender in self.corrupt and payee not in self.corrupt:
            self.spent += amount

    def _on_trigger(self, sender, args):
        ssid, wname, deposit, result = (int(args[0]), args[1],
                                        int(args[2]), args[3])
        accepted = result != REJECTED
        if accepted:
            paid = int(result)
            if deposit > 0:
                self.balances[sender] -= deposit
            self.balances[sender] += paid
            after = self.pot.get(ssid, 0) + deposit - paid
            if after < 0:
                raise TraceMismatch(f"pot of {ssid} went negative")
            self.pot[ssid] = after
        if wname in CHALLENGE_WITNESSES:
            # the challenger's wallet drops its stale copies either way and
            # holds the rebound note when the circuit accepted
            self.notes.get(sender, {}).pop(ssid, None)
            if accepted:
                self._held(sender, ssid).append(self.pot[ssid])
        elif wname == "ClaimUnchallenged" and accepted:
            self.notes.get(sender, {}).pop(ssid, None)
            self._held(sender, ssid).append(self.pot[ssid])
        if wname in REDEEM_WITNESSES:
            self._last_redeem_trigger = (sender, ssid)
        else:
            self._last_redeem_trigger = None

    def _on_mint(self, pid, args):
        if args[0] == REJECTED:
            return
        ssid, value = int(args[0]), int(args[1])
        self.balances[pid] -= value
        self.pot[ssid] = value
        self._held(pid, ssid).append(value)

    def _on_pay(self, payer, args):
        payee, ssid, value, result = (args[0], int(args[1]),
                                      int(args[2]), args[3])
        if result == "no-note":
            return
        if payer not in self.corrupt and payee in self.corrupt:
            self.received += value  # offered to the adversary counts as given
        accept = result == "accept"
        moved = self._take(payer, ssid, "pay")
        self._check("pay value", moved, value)
        # a refused note goes back behind the others the payer holds for ssid
        self._held(payee if accept else payer, ssid).append(moved)
        if accept and payer in self.corrupt and payee not in self.corrupt:
            self.spent += value

    def _on_redeem(self, pid, args):
        # Wallet.redeem takes the note out before it proves possession, so
        # a refusal with no trigger line (the proof could not be made)
        # spent the note too; only a wallet holding no note for ssid keeps
        # nothing back.  A refused trigger still demands a held note.
        ssid, result = int(args[0]), args[1]
        consumed = (result != REJECTED
                    or self._last_redeem_trigger == (pid, ssid)
                    or bool(self.notes.get(pid, {}).get(ssid)))
        if consumed:
            self._take(pid, ssid, "redeem")

    def _on_clone(self, pid, args):
        if args[1] != "ok":
            return
        ssid = int(args[0])
        held = self.notes.get(pid, {}).get(ssid)
        if not held:
            raise TraceMismatch(f"clone: {pid} holds no note for {ssid}")
        held.append(held[0])

    def _on_move_note(self, pid, args):
        if args[1] == "no-note":
            return
        ssid, value = int(args[0]), int(args[1])
        for i, (s, v) in enumerate(self.pool):
            if s == ssid:
                del self.pool[i]
                self._check("move-note value", v, value)
                self._held(pid, ssid).append(v)
                return
        raise TraceMismatch(f"move-note: pool holds no note for {ssid}")

    def _on_lose(self, pid, args):
        if args[1] == "no-note":
            return
        ssid, value = int(args[0]), int(args[1])
        self._check("lose value", self._take(pid, ssid, "lose"), value)

    def _on_counters(self, _actor, args):
        want = tuple(int(a) for a in args)
        cos = self.live_corrupt_coins() + self.spent
        net = cos - self.received
        if net > self.max_net:
            self.max_net = net
        got = (self.received, cos, net, self.max_net)
        self._check("counters", got, want)
        self.value_lines += 1

    def _on_init_contract(self, _sender, args):
        if args[1] != REJECTED:
            raise TraceMismatch("multi-party funding is outside this replay")

    # read-only and informational lines
    def _skip(self, _actor, _args):
        pass

    _on_file_claim = _skip
    _on_settle = _skip
    _on_commit_claim = _skip
    _on_reveal_claim = _skip
    _on_watchdog = _skip
    _on_held = _skip
    _on_replay = _skip   # the replayed trigger has its own line
    _on_retrieve_party = _skip
    _on_retrieve_transaction = _skip
    _on_retrieve_contract = _skip
    _on_add_contract = _skip


def replay_trace(lines):
    """Feed every line through a fresh replay; returns it for inspection."""
    replay = TraceReplay()
    for line in lines:
        replay.feed(line)
    return replay
