#!/usr/bin/env python3
"""Negative controls: every correctness check must fail on a planted fault.

    python3 bench/selftest.py

Each control runs a small round of a workload, confirms its checks pass
on the untouched result, plants one fault and confirms the check reports
it.  Exit code 0 when every fault was caught, 1 otherwise.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from timing import Recorder, Reference  # noqa: E402
from workloads import (  # noqa: E402
    GamesSplit,
    PayN256,
    ScriptRun,
    WatchClaims,
    bridge,
    check_split,
    games,
    no_probe,
)

REC = Recorder(Reference())


def _round(wl, seed: int = 0):
    st = wl.setup(seed, 0)
    for b in range(wl.batches_per_round):
        wl.batch(st, REC, b)
    return st


def _clean_then_caught(wl, st, plant) -> list[str]:
    before = wl.check(st) + st.failures
    if before:
        return [f"untouched round already fails: {before[0]}"]
    plant(st)
    return wl.check(st) + st.failures


def pay_balance_off_by_one() -> list[str]:
    wl = PayN256(quick=True)

    def plant(st):
        st.balance[st.parties[0]] += 1
    return _clean_then_caught(wl, _round(wl), plant)


def watch_balance_off_by_one() -> list[str]:
    wl = WatchClaims(quick=True)

    def plant(st):
        pid = next(iter(st.minted))
        st.minted[pid] += 1
    return _clean_then_caught(wl, _round(wl), plant)


def script_trace_tampered() -> list[str]:
    wl = ScriptRun(quick=True)

    def plant(st):
        path = st.outputs[1]
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if "\tcounters\t" in line)
        fields = lines[i].split("\t")
        fields[3] = str(int(fields[3]) + 1)
        lines[i] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
    return _clean_then_caught(wl, _round(wl), plant)


def script_rerun_differs() -> list[str]:
    wl = ScriptRun(quick=True)

    def plant(st):
        again = st.repeat_of[1]
        again.write_bytes(again.read_bytes() + b"\n")
    return _clean_then_caught(wl, _round(wl), plant)


def unsound_counterfeit_round_wins() -> list[str]:
    wl = GamesSplit(quick=True)
    st = wl.setup(0, 0)
    original = games.run_all_games
    games.run_all_games = lambda seed, trials: [
        games.game_counterfeit(seed, trials, sound=False)]
    try:
        wl._game_round(st)
    finally:
        games.run_all_games = original
    return st.failures


def _split(seed: int):
    wl = GamesSplit(quick=True)
    st = wl.setup(seed, 0)
    wl._split(st, no_probe)
    msg, notes = st.splits[0]
    return st, msg, notes


def merkle_sibling_flipped() -> list[str]:
    st, msg, notes = _split(1)
    note = notes[5]
    side, sib = note.path.siblings[0]
    path = bridge.MerklePath(note.path.index, (
        (side, bytes([sib[0] ^ 0x80]) + sib[1:]),) + note.path.siblings[1:])
    notes[5] = type(note)(note.bolt, note.serial, note.value, note.index, path)
    return check_split(st.env, random.Random(0), msg, notes, st.message_len)


def merkle_verifier_accepts_anything() -> list[str]:
    st, msg, notes = _split(2)
    original = bridge.verify_bridge_note
    bridge.verify_bridge_note = lambda env, msg, note: True
    try:
        return check_split(st.env, random.Random(0), msg, notes, st.message_len)
    finally:
        bridge.verify_bridge_note = original


CONTROLS = (
    ("pay-n256 balance check, model off by one coin", pay_balance_off_by_one),
    ("watch-claims balance check, model off by one coin",
     watch_balance_off_by_one),
    ("script-run trace replay, one counter changed", script_trace_tampered),
    ("script-run identical bytes, re-run output changed", script_rerun_differs),
    ("games-split zero wins, unsound game_counterfeit round",
     unsound_counterfeit_round_wins),
    ("games-split notes verify, Merkle sibling byte flipped",
     merkle_sibling_flipped),
    ("games-split tamper check, verifier that accepts anything",
     merkle_verifier_accepts_anything),
)


def main() -> int:
    missed = 0
    for label, control in CONTROLS:
        found = control()
        if found and not found[0].startswith("untouched round"):
            print(f"caught  {label}: {found[0]}")
        else:
            missed += 1
            print(f"MISSED  {label}: {found[0] if found else 'no problem reported'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
