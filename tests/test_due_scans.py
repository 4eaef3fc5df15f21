"""Watchdog time: due-time scans against the walk over every wallet.

``WalkSimulation`` keeps the tick as it was before due times: every tick
walks every honest wallet in pid order, and every scan reads the contract
of every held note.  Generated scripts and the attack runs must give the
same trace byte for byte on it and on ``Simulation``.  The cost tests
count calls; none of them reads a clock.
"""

import importlib
import inspect
import pkgutil
import sys
import tracemalloc
from collections import deque
from dataclasses import is_dataclass
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import (
    PARTIES,
    THIEF,
    claim_front_run_script,
    late_join_replay_script,
    late_join_script,
    proof_theft_script,
    script,
)
from trace_oracle import replay_trace

import boltpay
from boltpay import cli, harness
from boltpay.contract import (
    NO_CLAIM,
    BanknoteState,
    ChallengeClaim,
    ChallengeClaimSig,
    ClaimBy,
    LostClaimCommits,
    PhiParams,
)
from boltpay.harness import (
    SimConfig,
    Simulation,
    parse_line,
    parse_scenario,
    run_scenario,
)
from boltpay.ledger import Ledger
from boltpay.lightning import QuantumEnv
from boltpay.wallet import Wallet

# -- the reference ------------------------------------------------------------


def full_scan(w: Wallet) -> list:
    """The scan before the claim index: read every held note's contract,
    and answer a foreign claim with the held note carrying its serial."""
    w.last_scan = w.ledger.time
    actions = []
    for ssid in sorted(w.notes):
        if ssid in w.pending_challenges:
            continue
        z = w.ledger.retrieve_contract(ssid)
        if z is None:
            continue
        claim = z[1].claim
        foreign = (isinstance(claim, ClaimBy) and claim.pid != w.pid) or (
            isinstance(claim, LostClaimCommits)
            and any(e.pid != w.pid for e in claim.entries))
        current = [n for n in w.notes[ssid] if n.serial == z[1].serial]
        if foreign and current:
            actions.append((ssid, w._challenge(current[0])))
    return actions


def walk_deliver_due(sim) -> None:
    """The mempool delivery before the held messages were kept in order:
    take every due message out, then deliver them sorted by due tick (a
    stable sort, so ties keep submission order)."""
    now = sim.ledger.time
    due_now = sorted((e for e in sim._held if e[0] <= now),
                     key=lambda e: e[0])
    sim._held = deque(e for e in sim._held if e[0] > now)
    for _, deliver, *_ in due_now:
        deliver()


class WalkSimulation(Simulation):
    """Every tick walks every wallet; every scan reads every held note."""

    def tick(self, k: int = 1) -> int:
        for _ in range(k):
            self.ledger.tick()
            walk_deliver_due(self)
            for pid in sorted(self.wallets):
                if pid in self.corrupted:
                    continue
                w = self.wallets[pid]
                if w.notes and self.ledger.time - w.last_scan >= self.scan_interval:
                    self.watchdog(pid)
        return self.ledger.time

    def _place(self, w: Wallet) -> None:
        """No cohorts: placing a wallet in one would set its last scan."""

    def watchdog(self, pid: str) -> list:
        actions = full_scan(self.wallets[pid])
        self.log(pid, "watchdog", f"{len(actions)}" + "".join(
            f"\t{ssid}:{what}" for ssid, what in actions))
        return actions


def claimed_model(ledger: Ledger) -> set:
    """The claim index recomputed from the contracts' states."""
    return {rec.ssid for rec in ledger.contracts
            if getattr(rec.state, "claim", None) not in (None, NO_CLAIM)}


# -- the thief's moves between script lines -------------------------------------
# A script line MOVE name runs the lines the move writes, from what the
# simulation holds then: the thief reads the mempool, as a front-runner
# does, and acts through script lines, as every adversary does.

def held_challenges(sim) -> list[tuple[str, int]]:
    """The sender and ssid of each held challenge, in the order sent."""
    return [(sender, ssid) for _, _, sender, ssid, witness, _ in sim._held
            if isinstance(witness, (ChallengeClaim, ChallengeClaimSig))]


def claim_line(sim, ssid: int) -> list[str]:
    verb = "COMMITCLAIM" if sim.config.variant == "commit-reveal" else "FILECLAIM"
    return [verb, THIEF, str(ssid)]


def claim_the_rest(sim):
    """For each held challenge, claim every other note its sender holds,
    so that its next scan meets claims it did not start with."""
    return [claim_line(sim, ssid) for sender, sent in held_challenges(sim)
            for ssid in sorted(sim.wallets[sender].notes) if ssid != sent]


def gift(sim):
    """Hand each note the thief holds to an honest party that holds none,
    so that wallets gain their first note and join a cohort."""
    empty = [pid for pid in sorted(sim.wallets)
             if pid not in sim.corrupted and not sim.wallets[pid].notes]
    return [["PAY", THIEF, payee, str(ssid)]
            for ssid, payee in zip(sorted(sim.wallets[THIEF].notes), empty)]


def claim_others(sim):
    """Claim the first note of every honest wallet but the first held
    challenge's sender, taking them in turn from those sorting before the
    sender and those sorting after it."""
    sender = held_challenges(sim)[0][0]
    holders = [pid for pid in sorted(sim.wallets)
               if pid not in sim.corrupted and pid != sender
               and sim.wallets[pid].notes]
    before = [pid for pid in holders if pid < sender]
    after = [pid for pid in holders if pid > sender]
    turns = [pid for pair in zip_longest(before, after) for pid in pair if pid]
    return [claim_line(sim, min(sim.wallets[pid].notes)) for pid in turns]


def corrupt_neighbours(sim):
    """For each held challenge: uncorrupt the first wallet this move
    corrupted and has not uncorrupted yet, then corrupt the honest
    note-holders just before and just after the sender in pid order, so
    that wallets leave cohorts on both sides of the sender's and come back
    empty.  Each line is written after the one before it has run."""
    victims = []
    for sender, _ in held_challenges(sim):
        if victims:
            yield ["UNCORRUPT", victims.pop(0)]
        holders = [pid for pid in sorted(sim.wallets)
                   if pid not in sim.corrupted and sim.wallets[pid].notes]
        before = [pid for pid in holders if pid < sender][-1:]
        after = [pid for pid in holders if pid > sender][:1]
        for pid in before + after:
            yield ["CORRUPT", pid]
            victims.append(pid)


MOVES = {"claim-the-rest": claim_the_rest, "gift": gift,
         "claim-others": claim_others, "corrupt-neighbours": corrupt_neighbours}


def with_moves(sim, lines):
    """lines, each MOVE name replaced, when it is reached, by the lines
    that move writes for sim."""
    for tokens in lines:
        if tokens[0] == "MOVE":
            yield from MOVES[tokens[1]](sim)
        else:
            yield tokens


def run_line(sim, tokens) -> str | None:
    """Run one script line, or SCAN pid: a Wallet.watchdog_scan call that
    no trace line shows; the error it raised, as text, or None."""
    try:
        if tokens[0] == "SCAN":
            sim.wallets[tokens[1]].watchdog_scan()
        else:
            _, _, method, args = parse_line(0, tokens, set(sim.wallets))
            getattr(sim, method)(*args)
    except Exception as e:  # compared between the two simulations
        return f"{type(e).__name__}: {e}"
    return None


def count_reads(ledger: Ledger) -> list[int]:
    """Count the ledger's retrieve_* calls from now on, in the returned
    one-element list, by wrapping the methods on this instance only."""
    reads = [0]
    for name in ("retrieve_party", "retrieve_transaction", "retrieve_contract"):
        def counted(*args, _read=getattr(ledger, name)):
            reads[0] += 1
            return _read(*args)
        setattr(ledger, name, counted)
    return reads


def differential_run(config: SimConfig, lines) -> Simulation:
    sims, reads = [], []
    for cls in (Simulation, WalkSimulation):
        sim = cls(config)
        reads.append(count_reads(sim.ledger))
        for pid in PARTIES:
            sim.add_party(pid)
        sim.corrupt(THIEF)
        sims.append(sim)
    real, walk = sims
    for tokens in with_moves(real, lines):
        errors = [run_line(sim, tokens) for sim in sims]
        assert errors[0] == errors[1], tokens
        assert real.trace == walk.trace, tokens
        assert real.ledger.claimed == claimed_model(real.ledger), tokens
        for sim in sims:   # what lets a tick find holders through the env
            assert all(sim.env.owner_of(note.bundle) == pid
                       for pid, w in sim.wallets.items()
                       for held in w.notes.values() for note in held), tokens
        assert_cohorts_hold(real, walk)
        if errors[0] is not None:
            break
    real.tick(real.scan_interval + 4)
    walk.tick(walk.scan_interval + 4)
    assert "\n".join(real.trace) == "\n".join(walk.trace)
    assert real.ledger.digest() == walk.ledger.digest()
    assert real.ledger.write_count == walk.ledger.write_count
    assert reads[0][0] <= reads[1][0]
    return real


def assert_cohorts_hold(sim: Simulation, walk: WalkSimulation) -> None:
    """Between ticks: each wallet is in at most one cohort, and one cohort
    per tick, each tick once in the heap; every honest wallet with notes,
    and no other wallet, is in the cohort of the tick the walk, run on the
    same lines, has its scan due, or of the next tick when that tick has
    passed.  Reading the trace twice gives the same lines, and only
    lines."""
    now = sim.ledger.time
    members = [pid for cohort in sim._cohorts.values() for pid in cohort.pids]
    assert sorted(members) == sorted(set(members)) == sorted(sim._cohort_of)
    for tick, cohort in sim._cohorts.items():
        assert cohort.tick == tick > now
        assert cohort.pids == sorted(cohort.pids)
        assert all(sim._cohort_of[pid] is cohort for pid in cohort.pids)
    assert sorted(sim._ticks) == sorted(set(sim._ticks)) == sorted(sim._cohorts)
    assert sim._cursor is None
    trace = list(sim.trace)   # a read renders every scan-round
    assert sim.trace == trace and all(type(line) is str for line in trace)
    for pid, w in sim.wallets.items():
        if pid in sim.corrupted or not w.notes:
            assert pid not in sim._cohort_of, pid
            continue
        due = walk.wallets[pid].last_scan + walk.scan_interval
        assert sim._cohort_of[pid].tick == max(due, now + 1), pid


# 30 examples a case in tier-1, the soak profile's count under that profile
WALK_EXAMPLES = (settings().max_examples
                 if settings.get_current_profile_name() == "soak" else 30)


# none: the generated scripts without REPLAY, so every line goes to the
# other directives; replay: one line in four the thief's REPLAY, which
# finds nothing held under fifo; proof-theft and claim-front-run: REPLAY
# lines right after an honest proof or lost claim, which reorder:3 holds
SCRIPTS = {"none": late_join_script, "replay": late_join_replay_script,
           "proof-theft": proof_theft_script,
           "claim-front-run": claim_front_run_script}
RUNS = [("fifo", "none"), ("fifo", "replay")] + [
    ("reorder:3", replays) for replays in SCRIPTS]


@pytest.mark.parametrize("scheduler,replays", RUNS)
@pytest.mark.parametrize("variant", ["base", "sig-gated", "commit-reveal"])
@settings(max_examples=WALK_EXAMPLES)
@given(data=st.data(), t_tr=st.sampled_from([2, 5, 12]))
def test_due_time_ticks_match_the_walk_over_every_wallet(
        variant, scheduler, replays, data, t_tr):
    config = SimConfig(variant=variant, scheduler=scheduler, n=2, d0=5,
                       t_tr=t_tr, t0=3, t1=3)
    differential_run(config, data.draw(SCRIPTS[replays], label="lines"))


@pytest.mark.parametrize("scheduler", ["fifo", "reorder:3"])
@pytest.mark.parametrize("variant", ["base", "sig-gated", "commit-reveal"])
@settings(max_examples=WALK_EXAMPLES)
@given(lines=script, t_tr=st.sampled_from([2, 5, 12]))
def test_reading_the_trace_after_every_line_gives_the_lines_run_writes(
        variant, scheduler, lines, t_tr, tmp_path_factory):
    # the idle scan-rounds a tick leaves pending render when the trace is
    # read: after every line, once at the end, or as boltpay run writes it
    config = SimConfig(variant=variant, scheduler=scheduler, n=2, d0=5,
                       t_tr=t_tr, t0=3, t1=3)
    text = "\n".join([f"AddParty {pid}" for pid in PARTIES]
                     + [f"CORRUPT {THIEF}"]
                     + [" ".join(tokens) for tokens in lines]) + "\n"
    stepped = Simulation(config)
    for line_no, _, method, args in parse_scenario(text):
        getattr(stepped, method)(*args)
        assert all(type(line) is str for line in stepped.trace), line_no
    once = run_scenario(config, text).trace
    assert stepped.trace == once
    work = tmp_path_factory.mktemp("run")
    script_path, out = work / "script.bolt", work / "out.trace"
    script_path.write_text(text)
    assert cli.main(["run", str(script_path), "--variant", variant,
                     "--scheduler", scheduler, "--n", "2", "--d0", "5",
                     "--ttr", str(t_tr), "--t0", "3", "--t1", "3",
                     "--out", str(out)]) in (0, 1)
    assert out.read_text().splitlines() == once


@pytest.mark.parametrize("payee", ["bob:50", "zed:0"])
@pytest.mark.parametrize("variant", ["base", "sig-gated"])
def test_a_clone_holders_scans_match_the_walk(variant, payee):
    # unsound: alice clones her note and pays the original on, so two
    # wallets hold bundles with the claimed serial; alice sorts first and
    # answers, which closes the claim before the payee's scan reads it
    lines = [["MINT", "alice:50", "5"], ["CLONE", "alice:50", "1"],
             ["PAY", "alice:50", payee, "1"], ["FILECLAIM", THIEF, "1"],
             ["TICK", "30"]]
    config = SimConfig(variant=variant, sound=False, n=2, t_tr=12)
    real = differential_run(config, lines)
    assert "0\talice:50\tclone\t1\tok" in real.trace
    scans = [ln.split("\t")[1:] for ln in real.trace if ln.startswith("11\t")
             and "\twatchdog\t" in ln]
    assert scans == [["alice:50", "watchdog", "1", "1:challenge"],
                     [payee, "watchdog", "0"]]


def stale_note_script(paid: bool) -> list[list[str]]:
    """mallory settles a claim on alice's note while alice is corrupt, so
    the note alice gives up as she is uncorrupted is stale: its contract
    now stores mallory's serial.  mallory moves it to bob, then, if paid,
    pays bob the note she settled, and claims it again."""
    lines = [["MINT", "alice:50", "5"], ["CORRUPT", "alice:50"],
             ["FILECLAIM", THIEF, "1"], ["TICK", "14"], ["SETTLE", THIEF, "1"],
             ["UNCORRUPT", "alice:50"], ["MOVENOTE", "1", "bob:50"]]
    if paid:
        lines.append(["PAY", THIEF, "bob:50", "1"])
    return lines + [["FILECLAIM", THIEF, "1"], ["TICK", "30"],
                    ["SETTLE", THIEF, "1"], ["REDEEM", THIEF, "1"]]


@pytest.mark.parametrize("variant", ["base", "sig-gated"])
def test_a_stale_note_never_answers_a_claim(variant):
    lines = stale_note_script(paid=False)
    lines.insert(-3, ["WATCHDOG", "bob:50"])   # a scan no due tick selects
    config = SimConfig(variant=variant, n=2, t_tr=12)
    real = differential_run(config, lines)
    bob = [ln.split("\t") for ln in real.trace if "\tbob:50\twatchdog\t" in ln]
    assert bob[0][0] == "14" and all(fields[3:] == ["0"] for fields in bob)
    assert len(real.wallets["bob:50"].notes[1]) == 1   # not spent on a challenge


@pytest.mark.parametrize("variant", ["base", "sig-gated"])
def test_a_current_note_behind_a_stale_one_answers_its_claim(variant):
    # bob holds [stale, current] for ssid 1: answering with the stale note
    # would lose the current one to mallory's second claim
    config = SimConfig(variant=variant, n=2, t_tr=12)
    real = differential_run(config, stale_note_script(paid=True))
    assert "15\tbob:50\twatchdog\t1\t1:challenge" in real.trace
    assert {"44\tmallory:60\tsettle\t1\trejected",
            "44\tmallory:60\tredeem\t1\trejected"} <= set(real.trace)
    assert real.value.max_net == 0
    assert real.wallets["bob:50"].banknote_value == 5


def test_a_stale_note_counts_as_unbacked():
    lines = stale_note_script(paid=False)
    lines = lines[:lines.index(["MOVENOTE", "1", "bob:50"]) + 1]
    real = differential_run(SimConfig(n=2, t_tr=12), lines)
    assert real.honest_bookkeeping_violations() == [
        "bob:50: banknote_value 5, backing 0"]


@pytest.mark.parametrize("variant", ["base", "sig-gated"])
def test_a_refused_stale_note_goes_behind_the_current_one(variant):
    lines = stale_note_script(paid=True)
    pay = ["PAY", "bob:50", "carol:40", "1"]
    lines = lines[:lines.index(["PAY", THIEF, "bob:50", "1"]) + 1] + [pay, pay]
    real = differential_run(SimConfig(variant=variant, n=2, t_tr=12), lines)
    pays = [ln.split("\t")[-1] for ln in real.trace
            if "\tbob:50\tpay\tcarol:40\t" in ln]
    assert pays == ["reject", "accept"]
    assert real.honest_bookkeeping_violations() == [
        "bob:50: banknote_value 5, backing 0"]   # the stale note bob kept
    replay_trace(real.trace)


def test_a_wallet_scanned_directly_is_scanned_again_when_due():
    traces = []
    for cls in (Simulation, WalkSimulation):
        sim = cls(SimConfig(t_tr=10, n=2))   # scans every 9 ticks
        sim.add_party("alice:50")
        sim.mint("alice:50", 5)
        sim.tick(4)
        sim.wallets["alice:50"].watchdog_scan()   # no trace line, no re-arm
        sim.tick(30)
        traces.append(sim.trace)
    assert traces[0] == traces[1]
    assert [ln.split("\t")[0] for ln in traces[0] if "\twatchdog\t" in ln] == [
        "13", "22", "31"]


IDLE_PREFIXES = ("ab", "am", "bz", "cz", "n", "zz")   # around each party


def interleaved_script(variant: str, move: str) -> list[list[str]]:
    """240 idle wallets joining over ten ticks, every fifth with no note;
    then one claim on each of alice's, bob's and carol's first notes, so
    that their scans at tick 22 fall between runs of idle scans; then,
    while their challenges are held, the thief's move and its replays of
    two of them."""
    claim = "COMMITCLAIM" if variant == "commit-reveal" else "FILECLAIM"
    lines = [["MINT", pid, "5"] for pid in PARTIES[:3] for _ in range(2)]
    lines += [["MINT", THIEF, "1"] for _ in range(10)]   # for the gifts
    for i in range(240):
        pid = f"{IDLE_PREFIXES[i % 6]}{i:03d}:10"
        lines.append(["AddParty", pid])
        if i % 5:
            lines.append(["MINT", pid, "2"])
        if i % 24 == 23:
            lines.append(["Tick"])
    lines += [["TICK", "5"], [claim, THIEF, "1"], [claim, THIEF, "3"],
              [claim, THIEF, "5"], ["TICK", "7"], ["MOVE", move],
              ["REPLAY", THIEF, "1"], ["REPLAY", THIEF, "5"], ["TICK", "23"]]
    return lines


def scans_at(sim: Simulation, now: int) -> tuple[list[list[str]], list[int]]:
    """The fields of the watchdog lines at tick now, and the indices of
    those that answer a claim."""
    lines = [ln.split("\t") for ln in sim.trace
             if ln.startswith(f"{now}\t") and "\twatchdog\t" in ln]
    return lines, [i for i, f in enumerate(lines) if f[3] != "0"]


def fields_of(sim: Simulation, verb: str, now: int | None = None):
    """The fields of the trace lines logging verb, at tick now if given."""
    fields = (ln.split("\t") for ln in sim.trace)
    return [f for f in fields
            if f[2:3] == [verb] and (now is None or f[0] == str(now))]


def assert_moves(sim: Simulation, move: str) -> None:
    """The answers at tick 22, and what the thief's move after them did."""
    at_22, answers = scans_at(sim, 22)
    assert [at_22[i][1] for i in answers] == ["alice:50", "bob:50", "carol:40"]
    at_33, later = scans_at(sim, 33)
    answered_33 = [(at_33[i][1], at_33[i][4:]) for i in later]
    if move == "claim-the-rest":   # each sender's next scan answers them
        assert answered_33 == [("alice:50", ["2:challenge"]),
                               ("bob:50", ["4:challenge"]),
                               ("carol:40", ["6:challenge"])]
    if move == "claim-others":
        # the thief's coins pay six deposits, on wallets taken in turn from
        # before and after alice; each answers at its next due tick
        claimed = [f[3] for verb in ("file-claim", "commit-claim")
                   for f in fields_of(sim, verb, 22)
                   if f[1] == THIEF and f[4] != "rejected"]
        assert [pid for pid, _ in answered_33] == [
            "ab006:10", "ab012:10", "ab018:10", "am001:10", "am007:10",
            "am013:10"]
        assert sorted(a[0].split(":")[0] for _, a in answered_33) == sorted(
            claimed)
    if move == "gift":
        # each payee held no note, so its scan is overdue: it is scanned
        # at the next tick, on both sides of alice
        payees = [f[3] for f in fields_of(sim, "pay", 22) if f[1] == THIEF]
        assert len(payees) == 10
        assert min(payees) < "alice:50" < max(payees)
        assert all(min(int(f[0]) for f in fields_of(sim, "watchdog")
                       if f[1] == pid) == 23 for pid in payees)
    if move == "corrupt-neighbours":   # on both sides of alice
        hit = [f[1] for f in fields_of(sim, "corrupt", 22)]
        assert min(hit) < "alice:50" < max(hit)
        back = [f[1] for f in fields_of(sim, "uncorrupt", 22)]
        assert back and set(back) < set(hit)
        for pid in back:   # they come back empty and are never scanned
            assert not sim.wallets[pid].notes
            assert all(int(f[0]) <= 22 for f in fields_of(sim, "watchdog")
                       if f[1] == pid)


@pytest.mark.parametrize("strategy", MOVES)
@pytest.mark.parametrize("variant", ["base", "sig-gated", "commit-reveal"])
def test_idle_scans_interleaved_with_answers_match_the_walk(variant, strategy):
    config = SimConfig(variant=variant, scheduler="reorder:3", n=2, d0=5,
                       t_tr=12, t0=3, t1=3)
    real = differential_run(config, interleaved_script(variant, strategy))
    assert_moves(real, strategy)
    at_22, answers = scans_at(real, 22)
    assert [at_22[i][1] for i in answers] == ["alice:50", "bob:50", "carol:40"]
    # idle scans before, between and after alice's, bob's and carol's answers
    assert 0 < answers[0] and answers[-1] < len(at_22) - 1
    assert all(b - a > 1 for a, b in zip(answers, answers[1:]))


def cohort_events_script(variant: str, move: str) -> list[list[str]]:
    """240 idle wallets joining at tick 0, every fifth with no note, so
    that one cohort holds them all; then, between its ticks, each event
    that moves a wallet in or out of a cohort, on wallets in its middle,
    and a claim on each of alice's, bob's and carol's first notes; then,
    at tick 22, the thief's move and a replay."""
    claim = "COMMITCLAIM" if variant == "commit-reveal" else "FILECLAIM"
    lines = [["MINT", pid, "5"] for pid in PARTIES[:3] for _ in range(2)]
    lines += [["MINT", THIEF, "1"] for _ in range(10)]   # for the gifts
    note = {}   # idle wallet -> the ssid of its only note
    middle, empty = [], []   # sorting between bob and mallory
    for i in range(240):
        pid = f"{IDLE_PREFIXES[i % 6]}{i:03d}:10"
        lines.append(["AddParty", pid])
        if i % 5:
            lines.append(["MINT", pid, "2"])
            note[pid] = str(16 + len(note) + 1)
        if i % 6 in (2, 3, 4):
            (middle if i % 5 else empty).append(pid)
    a, b, c, d, e, f, g, h, k = sorted(middle)[20:29]
    x, y = sorted(empty)[5:7]
    lines += [["TICK", "15"],   # scanned at 11, due at 22
              ["CORRUPT", a], ["CORRUPT", b], ["UNCORRUPT", b], ["CORRUPT", k],
              ["LOSE", c, note[c]], ["PAY", d, x, note[d]],
              ["WATCHDOG", e], ["SCAN", f],
              [claim, THIEF, "1"], [claim, THIEF, "3"], [claim, THIEF, "5"],
              ["TICK", "6"],   # at 21, a tick before the cohort is due
              ["PAY", g, b, note[g]], ["UNCORRUPT", a], ["SCAN", h],
              ["PAY", x, y, note[d]], ["WATCHDOG", d], ["TICK", "1"],
              ["MOVE", move], ["REPLAY", THIEF, "3"], ["TICK", "29"]]
    return lines


@pytest.mark.parametrize("strategy", MOVES)
@pytest.mark.parametrize("variant", ["base", "sig-gated", "commit-reveal"])
def test_cohort_events_on_idle_wallets_match_the_walk(variant, strategy):
    config = SimConfig(variant=variant, scheduler="reorder:3", n=2, d0=5,
                       t_tr=12, t0=3, t1=3)
    real = differential_run(config, cohort_events_script(variant, strategy))
    assert_moves(real, strategy)
    at_22, answers = scans_at(real, 22)
    assert [at_22[i][1] for i in answers] == ["alice:50", "bob:50", "carol:40"]
    assert 0 < answers[0] and answers[-1] < len(at_22) - 1
    assert len(at_22) > 150


@pytest.mark.parametrize("variant", ["base", "sig-gated"])
@pytest.mark.parametrize("name", cli.ATTACKS,
                         ids=lambda name: "run_" + name.replace("-", "_"))
def test_attack_runs_match_the_walk(name, variant):
    steps = parse_scenario(cli.ATTACKS[name][3])
    real, walk = (cls(cli.attack_config(0, variant))
                  for cls in (Simulation, WalkSimulation))
    for sim in (real, walk):
        for _, _, method, args in steps:
            getattr(sim, method)(*args)
    assert real.trace == walk.trace
    assert real.value.max_net == walk.value.max_net


# -- cost, counted in calls ----------------------------------------------------------


class CallCounter:
    def __init__(self, monkeypatch, cls, name):
        self.calls = 0
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)


def watched_sim() -> Simulation:
    """Wallets joining over nine ticks, some with notes and own claims,
    some without notes, one corrupt."""
    sim = Simulation(SimConfig(t_tr=10, n=2))   # scans every 9 ticks
    for i in range(36):
        sim.tick(1)
        pid = f"w{i:02d}:100"
        sim.add_party(pid)
        for j in range(i % 4):
            ssid = sim.mint(pid, 5)
            if j == 1:
                sim.file_claim(pid, ssid)   # its own claim: read, not answered
    sim.corrupt("w07:100")
    return sim


def watchdog_lines(sim: Simulation, now: int) -> list[str]:
    """The pids of the watchdog lines logged at tick now, one per line."""
    return [ln.split("\t")[1] for ln in sim.trace
            if ln.startswith(f"{now}\t") and ln.split("\t")[2] == "watchdog"]


def last_scans(sim: Simulation) -> dict[str, int]:
    """Each party's last watchdog scan, read from the trace: the tick of
    its last watchdog line, or of its add-party line if it has none."""
    last = {}
    for ln in sim.trace:
        fields = ln.split("\t", 3)
        if fields[2:3] == ["watchdog"]:
            last[fields[1]] = int(fields[0])
        elif fields[2:3] == ["add-party"]:
            last.setdefault(fields[1], int(fields[0]))
    return last


def due_model(sim: Simulation, now: int) -> list[str]:
    last = last_scans(sim)
    return [pid for pid, w in sim.wallets.items()
            if pid not in sim.corrupted and w.notes
            and now - last[pid] >= sim.scan_interval]


@pytest.mark.parametrize("idle_wallets", [0, 1000])
def test_one_tick_scans_the_due_wallets_and_reads_their_claimed_notes(
        idle_wallets, monkeypatch):
    sim = watched_sim()
    for i in range(idle_wallets):   # not due for another scan_interval ticks
        pid = f"idle{i:04d}:100"
        sim.add_party(pid)
        sim.file_claim(pid, sim.mint(pid, 5))
    scans = CallCounter(monkeypatch, Wallet, "watchdog_scan")
    reads = CallCounter(monkeypatch, Ledger, "retrieve_contract")
    seen = idle = 0
    for _ in range(sim.scan_interval - 1):
        now = sim.ledger.time + 1
        due = due_model(sim, now)
        claimed = claimed_model(sim.ledger)
        claiming = [pid for pid in due if claimed & sim.wallets[pid].notes.keys()]
        held_claims = sum(len(claimed & sim.wallets[pid].notes.keys())
                          for pid in due)
        scans.calls = reads.calls = 0
        sim.tick(1)
        assert sorted(watchdog_lines(sim, now)) == sorted(due)
        assert scans.calls == len(claiming)
        assert reads.calls == held_claims
        seen += held_claims
        idle += len(due) - len(claiming)
    assert seen > 0 and idle > 0


def test_a_tick_answering_three_claims_finds_their_holders_once(monkeypatch):
    # alice, bob and carol fall due together at 9, each holding a note the
    # thief claimed; their challenges wait in the mempool, so all three
    # claims stay open through the tick
    sim = Simulation(SimConfig(t_tr=10, n=2, scheduler="reorder:3"))
    for pid in PARTIES:
        sim.add_party(pid)
    sim.corrupt(THIEF)
    for pid in PARTIES[:3]:
        sim.mint(pid, 5)
    sim.tick(8)
    for ssid in (1, 2, 3):
        sim.file_claim(THIEF, ssid)
    holders = CallCounter(monkeypatch, QuantumEnv, "holders")
    scans = CallCounter(monkeypatch, Wallet, "watchdog_scan")
    sim.tick(1)
    assert watchdog_lines(sim, 9) == list(PARTIES[:3])
    assert [ln.split("\t")[4] for ln in sim.trace
            if ln.startswith("9\t") and "\twatchdog\t" in ln] == [
        "1:challenge", "2:challenge", "3:challenge"]
    assert scans.calls == 3
    # one lookup per claimed contract, not one more walk after each answer
    assert holders.calls == len(sim.ledger.claimed) == 3


def test_payments_between_ticks_keep_one_due_entry_per_wallet():
    sims = [cls(SimConfig(t_tr=10, n=2))   # scans every 9 ticks
            for cls in (Simulation, WalkSimulation)]
    for sim in sims:
        for pid in PARTIES:
            sim.add_party(pid)
        ssid = sim.mint("alice:50", 5)
    ring = ["alice:50", "bob:50", "carol:40", "zed:0"]
    for i in range(100):   # every payee gains its first note
        for sim in sims:
            assert sim.pay(ring[i % 4], ring[(i + 1) % 4], ssid)
            if i % 10 == 9:
                sim.tick(3)
        assert_cohorts_hold(*sims)
    sim, walk = sims
    assert sim.trace == walk.trace
    holder = ring[100 % 4]
    assert list(sim._cohort_of) == [holder]
    assert [c.pids for c in sim._cohorts.values()] == [[holder]]


def test_a_tick_scanning_a_thousand_idle_wallets_moves_one_cohort(monkeypatch):
    sim = Simulation(SimConfig(t_tr=10, n=2))   # scans every 9 ticks
    for i in range(1000):   # all due at tick 9, none holding a claimed note
        pid = f"idle{i:04d}:100"
        sim.add_party(pid)
        sim.mint(pid, 5)
    sim.tick(9)   # their first scans make one cohort
    cohort = sim._cohorts[18]
    assert list(sim._cohorts) == [18] and cohort.pids == sorted(sim.wallets)
    sim.tick(8)
    scans = CallCounter(monkeypatch, Wallet, "watchdog_scan")
    pushes = CallCounter(monkeypatch, harness, "heappush")
    sim.tick(1)
    assert scans.calls == 0
    assert pushes.calls == 1
    assert list(sim._cohorts) == [27] and sim._cohorts[27] is cohort
    assert len(cohort.pids) == 1000 and sim._ticks == [27]
    assert sorted(watchdog_lines(sim, 18)) == sorted(sim.wallets)


def answering_sim(idle_wallets: int) -> Simulation:
    """Alice and idle_wallets wallets holding unclaimed notes, all scanned
    at tick 9 and due again at 18, with a claim on the first of alice's two
    notes filed at tick 17.  Her second note keeps her holding notes while
    the answer rebinds the first."""
    sim = Simulation(SimConfig(t_tr=10, n=2))   # scans every 9 ticks
    sim.add_party("alice:50")
    sim.add_party(THIEF)
    sim.corrupt(THIEF)
    ssid = sim.mint("alice:50", 5)
    sim.mint("alice:50", 5)
    for i in range(idle_wallets):   # sorting before and after alice
        pid = f"{'ab' if i % 2 else 'id'}{i:04d}:100"
        sim.add_party(pid)
        sim.mint(pid, 5)
    sim.tick(17)
    sim.file_claim(THIEF, ssid)
    return sim


def one_answering_tick(idle_wallets: int, monkeypatch):
    """The calls and trace lines of the tick that answers the claim on
    alice's note while the idle wallets fall due with her, and whether
    alice ends the tick in the cohort she began it in.  The counters are
    in place before the wallets are made, so the hooks they call back
    through are counted too."""
    counted = [(Wallet, "watchdog_scan"), (Ledger, "retrieve_contract"),
               (harness, "heappush"), (Simulation, "log"),
               (Simulation, "_place"), (harness._Cohort, "insert"),
               (harness._Cohort, "remove")]
    counted += [(QuantumEnv, name) for name, f in vars(QuantumEnv).items()
                if inspect.isfunction(f)]
    with monkeypatch.context() as mp:
        counters = {name: CallCounter(mp, owner, name) for owner, name in counted}
        sim = answering_sim(idle_wallets)
        for counter in counters.values():
            counter.calls = 0
        start, cohort = len(sim.trace), sim._cohort_of["alice:50"]
        sim.tick(1)
    calls = {name: c.calls for name, c in counters.items()}
    return calls, sim.trace[start:], sim._cohort_of["alice:50"] is cohort


def test_idle_wallets_add_only_their_trace_lines_to_a_tick(monkeypatch):
    few, few_lines, few_kept = one_answering_tick(250, monkeypatch)
    many, many_lines, many_kept = one_answering_tick(4000, monkeypatch)
    assert few == many
    assert few["watchdog_scan"] == 1 and few["log"] > 1
    # alice answers from her own cohort, which moves on whole: her scan
    # moves no wallet between cohorts
    assert few["_place"] == 1 and few["heappush"] == 1
    assert few["insert"] == few["remove"] == 0
    assert few_kept and many_kept

    def split(lines):
        rest = [ln for ln in lines if not ln.endswith("\twatchdog\t0")]
        return len(lines) - len(rest), rest

    (few_idle, few_rest), (many_idle, many_rest) = split(few_lines), split(many_lines)
    assert few_rest == many_rest
    assert "18\talice:50\twatchdog\t1\t1:challenge" in few_rest
    assert (few_idle, many_idle) == (250, 4000)


class CountedWallet(Wallet):
    """A wallet whose notes and last_scan count every read and write."""

    uses = 0

    def _use(self, name):
        CountedWallet.uses += 1
        return self.__dict__[name]

    def _set(self, name, value):
        CountedWallet.uses += 1
        self.__dict__[name] = value

    notes = property(lambda self: self._use("notes"),
                     lambda self, v: self._set("notes", v))
    last_scan = property(lambda self: self._use("last_scan"),
                         lambda self, v: self._set("last_scan", v))


@pytest.mark.parametrize("idle_wallets", [250, 4000])
def test_a_tick_answering_one_claim_never_reads_its_idle_wallets(idle_wallets):
    sim = answering_sim(idle_wallets)
    for pid, w in sim.wallets.items():
        if pid not in ("alice:50", THIEF):
            w.__class__ = CountedWallet
    CountedWallet.uses = 0
    start = len(sim.trace)
    sim.tick(1)
    assert CountedWallet.uses == 0
    lines = sim.trace[start:]
    assert len(lines) > idle_wallets
    assert sum(ln.endswith("\twatchdog\t0") for ln in lines) == idle_wallets
    assert "18\talice:50\twatchdog\t1\t1:challenge" in lines
    # control: the stand-ins count what does read the wallets
    sim.honest_bookkeeping_violations()
    assert CountedWallet.uses >= idle_wallets


def ten_wallet_tick_events(open_claims: int) -> int:
    """The Python and C calls of a tick whose cohort is ten idle wallets,
    while open_claims other wallets, all in the cohort of the next tick,
    each hold their own note under their own claim.  A set-up that goes
    wrong fails through pytest.fail, never as the law's AssertionError."""
    sim = Simulation(SimConfig(t_tr=50, n=8))   # scans every 49 ticks
    for i in range(10):
        pid = f"ten{i:02d}:100"
        sim.add_party(pid)
        sim.mint(pid, 5)
    sim.tick(1)
    for i in range(open_claims):
        pid = f"own{i:04d}:100"
        sim.add_party(pid)
        sim.file_claim(pid, sim.mint(pid, 5))
    sim.tick(47)
    if (len(sim._cohorts[49].pids), len(sim.ledger.claimed)) != (10, open_claims):
        pytest.fail("the ten wallets are not due alone at 49")
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        sim.tick(1)
    finally:
        sys.setprofile(None)
    if watchdog_lines(sim, 49) != sim._cohorts[98].pids:
        pytest.fail("the tick at 49 did not scan the ten wallets alone")
    return events.count("call") + events.count("c_call")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 8's FOUND: Simulation._scan_due walks "
                   "every claim in Ledger.claimed, so claims open in other "
                   "cohorts add calls to a tick that answers none of them")
def test_claims_open_in_other_cohorts_add_no_calls_to_a_tick():
    assert len({ten_wallet_tick_events(k) for k in (0, 250, 4000)}) == 1


def idle_tick_kept_bytes(idle_wallets: int) -> int:
    """The bytes a due tick over one cohort of idle_wallets members, no
    claim open, keeps allocated while nothing reads the trace."""
    sim = Simulation(SimConfig(t_tr=10, n=2))   # scans every 9 ticks
    for i in range(idle_wallets):
        pid = f"idle{i:04d}:100"
        sim.add_party(pid)
        sim.mint(pid, 5)
    sim.tick(17)   # their first scans at tick 9 make one cohort, due at 18
    assert list(sim._cohorts) == [18]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim.tick(1)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sim._cohorts[27].pids) == idle_wallets
    return kept


def test_an_unread_trace_keeps_one_pointer_per_idle_wallet_a_tick():
    """A line string per idle wallet would keep over 100 bytes each; a
    slot in the tick's scan-round keeps 8."""
    few, many = idle_tick_kept_bytes(250), idle_tick_kept_bytes(4000)
    assert (many - few) / (4000 - 250) <= 12


def one_placing_payment(others: int, monkeypatch) -> dict:
    """The calls of a payment that empties alice and gives bob its first
    note, with others idle wallets in their cohort, sorting before, between
    and after the two, whose notes and last scans no step may touch."""
    counted = [(harness, "heappush"), (Simulation, "_place"),
               (harness._Cohort, "insert"), (harness._Cohort, "remove")]
    counted += [(owner, name) for owner in (QuantumEnv, Ledger)
                for name, f in vars(owner).items() if inspect.isfunction(f)]
    with monkeypatch.context() as mp:
        counters = {f"{owner.__name__}.{name}": CallCounter(mp, owner, name)
                    for owner, name in counted}
        sim = Simulation(SimConfig(t_tr=10, n=2))   # all due at tick 9
        sim.add_party("alice:50")
        sim.add_party("bob:50")
        ssid = sim.mint("alice:50", 5)
        for i in range(others):
            pid = f"{('ab', 'b', 'c')[i % 3]}{i:04d}:100"
            sim.add_party(pid)
            sim.mint(pid, 5)
            sim.wallets[pid].__class__ = CountedWallet
        cohort = sim._cohort_of["alice:50"]
        assert len(cohort.pids) == others + 1
        for counter in counters.values():
            counter.calls = 0
        CountedWallet.uses = 0
        assert sim.pay("alice:50", "bob:50", ssid)
        assert CountedWallet.uses == 0
    assert "alice:50" not in sim._cohort_of and sim._cohort_of["bob:50"] is cohort
    assert len(cohort.pids) == others + 1
    return {name: c.calls for name, c in counters.items() if c.calls}


def test_first_and_last_note_events_cost_the_same_in_any_cohort_size(monkeypatch):
    few = one_placing_payment(250, monkeypatch)
    many = one_placing_payment(4000, monkeypatch)
    assert few == many
    assert few["Simulation._place"] == 2
    assert few["_Cohort.remove"] == few["_Cohort.insert"] == 1
    assert "boltpay.harness.heappush" not in few   # bob joins alice's cohort


def test_a_long_idle_wallet_paid_between_ticks_is_scanned_on_the_next_tick():
    traces = []
    for cls in (Simulation, WalkSimulation):
        sim = cls(SimConfig(t_tr=10, n=2))   # scans every 9 ticks
        sim.add_party("alice:50")
        sim.add_party("bob:50")
        ssid = sim.mint("alice:50", 5)
        sim.tick(30)   # bob, holding nothing, last scanned at 0
        assert sim.pay("alice:50", "bob:50", ssid)
        assert last_scans(sim)["bob:50"] == 0
        if cls is Simulation:   # bob's scan, due at tick 9, waits for 31
            assert sim._cohort_of["bob:50"] is sim._cohorts[31]
        sim.tick(1)
        traces.append(sim.trace)
    assert traces[0] == traces[1]
    assert [ln.split("\t")[:2] for ln in traces[0] if "\twatchdog\t" in ln] == [
        ["9", "alice:50"], ["18", "alice:50"], ["27", "alice:50"],
        ["31", "bob:50"]]


@pytest.mark.parametrize("t_tr", [2, 3, 10])
def test_a_late_joiner_that_leaves_before_its_tick_is_scanned_as_the_walk_scans_it(
        t_tr):
    # bob, holding nothing since his add-party scan at 0, is paid a note
    # at tick 30, long after his scan fell due, and joins the cohort of 31;
    # before it comes he pays the note to carol, who pays it straight back
    lines = [["MINT", "alice:50", "5"], ["TICK", "30"],
             ["PAY", "alice:50", "bob:50", "1"],
             ["PAY", "bob:50", "carol:40", "1"],
             ["PAY", "carol:40", "bob:50", "1"], ["TICK", "30"]]
    real = differential_run(SimConfig(t_tr=t_tr, n=2), lines)
    bob = [ln.split("\t")[0] for ln in real.trace if "\tbob:50\twatchdog\t" in ln]
    assert bob[0] == "31"


def generated_eq() -> list[type]:
    """Every dataclass of the package whose __eq__ the decorator wrote."""
    modules = [importlib.import_module(f"boltpay.{m.name}")
               for m in pkgutil.iter_modules(boltpay.__path__)]
    return [cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and is_dataclass(cls)
            and cls.__module__ == module.__name__ and "__eq__" in vars(cls)]


def one_payment(n: int, monkeypatch) -> tuple[dict, list[str]]:
    """The QuantumEnv and Ledger calls of one payment of a note of n bolts,
    with the BanknoteState and PhiParams it builds and the generated
    dataclass equalities it calls, and the trace lines it appends.  The
    payment runs without the ledger's party table, which no step of it
    may read while no party is corrupt."""
    sim = Simulation(SimConfig(variant="sig-gated", n=n))
    sim.add_party("alice:50")
    sim.add_party("bob:50")
    ssid = sim.mint("alice:50", 5)
    counted = [(owner, name) for owner in (QuantumEnv, Ledger)
               for name, f in vars(owner).items() if inspect.isfunction(f)]
    counted += [(BanknoteState, "__init__"), (PhiParams, "__init__")]
    counted += [(cls, "__eq__") for cls in generated_eq()]
    start = len(sim.trace)
    with monkeypatch.context() as mp:
        counters = {f"{owner.__name__}.{name}": CallCounter(mp, owner, name)
                    for owner, name in counted}
        mp.setattr(sim.ledger, "parties", None)
        assert sim.pay("alice:50", "bob:50", ssid)
    calls = {name: c.calls for name, c in counters.items() if c.calls}
    return calls, sim.trace[start:]


def test_a_payment_makes_the_same_calls_at_every_key_size(monkeypatch):
    (small, small_lines), (large, large_lines) = (
        one_payment(8, monkeypatch), one_payment(256, monkeypatch))
    assert small == large
    assert small["QuantumEnv.transfer_bundle"] == 1
    assert small["QuantumEnv.verify_bundle"] == 1
    assert small["Ledger.retrieve_contract"] == 1
    assert {name for name in small if name.startswith("Ledger.")} == {
        "Ledger.retrieve_contract", "Ledger._contract"}
    # the payee's check builds no state to compare and compares no
    # dataclass field by field
    assert {"BanknoteState.__init__", "PhiParams.__init__"}.isdisjoint(small)
    assert {BanknoteState, NO_CLAIM.__class__, PhiParams} <= set(generated_eq())
    assert not [name for name in small if name.endswith(".__eq__")]
    # the pay line and the counters line, and nothing else
    assert small_lines == large_lines == [
        "0\talice:50\tpay\tbob:50\t1\t5\taccept",
        "0\t@value\tcounters\t0\t0\t0\t0"]


def test_a_long_idle_stretch_costs_a_bounded_number_of_steps(monkeypatch):
    sim = Simulation(SimConfig(t_tr=10, scheduler="reorder:3"))
    for pid in PARTIES:
        sim.add_party(pid)
    sim.transaction("alice:50", "bob:50", 5)   # held for 3 ticks
    steps = CallCounter(monkeypatch, Ledger, "tick")
    time, writes = sim.ledger.time, sim.ledger.write_count
    sim.tick(10_000_000)
    assert sim.ledger.time == time + 10_000_000
    assert sim.ledger.write_count == writes + 1  # the delivery
    # the delivery at 3, the end: parties holding no notes are never due
    assert steps.calls == 2
    assert sim.ledger.parties["bob:50"].coins == 55
