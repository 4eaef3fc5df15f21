"""Command line front end: scenario runs, security games, demo traces.

Exit codes, uniform across subcommands:
  0  run completed and the adversary never came out ahead (max_net <= 0,
     no invariant violations); for games, no wins while sound
  1  an invariant broke or the adversary finished with positive net value
  2  could not even start: unreadable file, a script that does not parse
     (reported with the first bad line's number, before any line runs),
     negative window (--d0, --ttr, --t0, --t1), key size n outside 1..256,
     a malformed --scheduler, unknown demo name, an --out path that cannot
     be written; every flag is checked when the configuration is built,
     before any work
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial
from pathlib import Path

from .attacks import run_attack_i, run_attack_ii, run_attack_iii
from .bridge import (
    LamportScheme,
    MerklePath,
    merkle_verify,
    publish_bridge_message,
    split_denominations,
    verify_bridge_note,
)
from .contract import VARIANTS
from .errors import BoltPayError
from .games import run_all_games
from .harness import SimConfig, Simulation, run_scenario
from .ledger import Ledger
from .lightning import ql_setup


@cache   # built once per process: each main() call only parses
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="boltpay",
        description="classical simulator for uncloneable-banknote payments")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0,
                        help="root seed; same seed, same trace (default 0)")
        sp.add_argument("--variant", choices=VARIANTS, default="base",
                        help="banknote contract flavor (default base)")
        sp.add_argument("--d0", type=int, default=10,
                        help="lost-claim deposit in coins (default 10)")
        sp.add_argument("--ttr", type=int, default=100,
                        help="ticks a claim must survive unchallenged (default 100)")
        sp.add_argument("--t0", type=int, default=10,
                        help="commit-reveal: max ticks from commit to reveal (default 10)")
        sp.add_argument("--t1", type=int, default=10,
                        help="commit-reveal: ticks a revealed claim must ripen (default 10)")
        sp.add_argument("--n", type=int, default=None,
                        help="signature bits per banknote key (default 8; demos 256)")
        sp.add_argument("--scheduler", default="fifo", metavar="fifo|reorder:<k>",
                        help="message delivery order (default fifo)")
        sp.add_argument("--unsound", action="store_true",
                        help="negative control: let bolts be cloned")
        sp.add_argument("--out", default=None, metavar="PATH",
                        help="also write the output to this file")

    run_p = sub.add_parser("run", help="execute a scenario script")
    run_p.add_argument("scenario", help="path to a scenario file")
    common(run_p)

    games_p = sub.add_parser("games", help="run the six security games")
    common(games_p)

    demo_p = sub.add_parser("demo", help="print an annotated walkthrough")
    demo_p.add_argument("name", choices=DEMOS)
    common(demo_p)
    return p


def _config_from(args, default_n: int) -> SimConfig:
    if args.out is not None:
        out = Path(args.out)
        if out.is_dir() or not out.parent.is_dir() or not os.access(
                out if out.exists() else out.parent, os.W_OK):
            raise BoltPayError(f"cannot write --out {args.out}")
    return SimConfig(
        seed=args.seed, variant=args.variant, d0=args.d0, t_tr=args.ttr,
        t0=args.t0, t1=args.t1, n=args.n if args.n is not None else default_n,
        scheduler=args.scheduler, sound=not args.unsound)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        Path(out_path).write_text(text)
    except OSError as e:
        raise BoltPayError(f"cannot write --out {out_path}: {e.strerror}") from e


def cmd_run(args) -> int:
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sim = run_scenario(_config_from(args, default_n=8), text)
    _emit("\n".join(sim.trace) + "\n", args.out)
    problems = sim.audit()
    for problem in problems:
        print(f"violation: {problem}", file=sys.stderr)
    if sim.value.max_net > 0:
        print(f"violation: adversary peaked at net +{sim.value.max_net}",
              file=sys.stderr)
        return 1
    return 1 if problems else 0


def cmd_games(args) -> int:
    config = _config_from(args, default_n=8)
    results = run_all_games(seed=config.seed, trials=1000, n=config.n,
                            sound=config.sound)
    lines = [r.line() for r in results]
    total = sum(r.wins for r in results)
    lines.append(f"total\t{total} wins, sound={config.sound}")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if config.sound and total > 0 else 0


# -- demos -----------------------------------------------------------------------

def _demo_mint_pay_redeem(config: SimConfig) -> list[str]:
    out = []
    say = out.append
    sim = Simulation(config)
    for pid in ("alice:50", "bob:50", "carol:50"):
        sim.add_party(pid)
    say("Three parties register with 50 coins each.")
    w0 = sim.ledger.write_count
    ssid = sim.mint("alice:50", 25)
    say(f"alice locks 25 coins into banknote contract {ssid}; that is one"
        " ledger write, and the last one until someone cashes out.")
    sim.pay("alice:50", "bob:50", ssid)
    sim.pay("bob:50", "carol:50", ssid)
    say("alice hands the note to bob, bob hands it to carol.  Each payment"
        " moves uncloneable states and reads the contract, writing nothing.")
    sim.redeem("carol:50", ssid)
    say(f"carol destroys the note into a possession proof and redeems:"
        f" the contract pays out its 25 coins"
        f" (balance now {sim.ledger.parties['carol:50'].coins}).")
    say(f"State-mutating ledger messages for the whole journey:"
        f" {sim.ledger.write_count - w0} (mint and redeem).")
    say("")
    out.extend(sim.trace)
    return out


def _demo_lost_claim(config: SimConfig) -> list[str]:
    out = []
    say = out.append
    sim = Simulation(config)
    sim.add_party("alice:50")
    ssid = sim.mint("alice:50", 25)
    sim.lose("alice:50", ssid)
    say(f"alice mints a 25 coin note (contract {ssid}) and promptly loses"
        " it; the backing coins are stuck.")
    sim.file_claim("alice:50", ssid)
    say(f"She files a lost-banknote claim, posting a {config.d0} coin"
        " deposit.  Anyone holding the live note could now challenge.")
    sim.tick(config.t_tr + 1)
    say(f"Nobody does for {config.t_tr + 1} ticks, so the claim matures.")
    sim.settle("alice:50", ssid)
    say("Settling rebinds the contract to a fresh note in alice's wallet"
        " and returns her deposit.")
    sim.redeem("alice:50", ssid)
    say(f"She redeems the replacement: balance back to"
        f" {sim.ledger.parties['alice:50'].coins} coins, nothing lost.")
    say("")
    out.extend(sim.trace)
    return out


def _demo_challenge(config: SimConfig) -> list[str]:
    out = []
    say = out.append
    sim = Simulation(config)
    for pid in ("alice:50", "bob:50", "mallory:40"):
        sim.add_party(pid)
    sim.corrupt("mallory:40")
    ssid = sim.mint("alice:50", 25)
    say(f"alice holds note {ssid} worth 25.  mallory (corrupt) files a"
        " lost-banknote claim against it, gambling a"
        f" {config.d0} coin deposit.")
    sim.file_claim("mallory:40", ssid)
    sim.tick(1)
    actions = sim.watchdog("alice:50")
    say(f"alice's watchdog scan sees the foreign claim and answers:"
        f" {actions!r}.  Producing the challenge proof destroys her note,"
        " and the contract rebinds to a fresh one in her wallet.")
    sim.pay("alice:50", "bob:50", ssid)
    say("The rebound note still spends: bob accepts it.")
    say(f"mallory forfeited the deposit; adversary peak net value:"
        f" {sim.value.max_net} (never positive).")
    say("")
    out.extend(sim.trace)
    return out


def _attack_lines(name: str, runner, config: SimConfig,
                  also_gated: bool) -> list[str]:
    out = []
    say = out.append
    base = runner("base", config.seed)
    verdict = "succeeded" if base.succeeded else "failed"
    say(f"{name} against the base contract: {verdict},"
        f" adversary peak net value {base.max_net:+d}.")
    if also_gated:
        gated = runner("sig-gated", config.seed)
        verdict = "succeeded" if gated.succeeded else "failed"
        say(f"{name} against the signature-gated contract: {verdict},"
            f" peak {gated.max_net:+d}.  The stolen proof names its sender,"
            " so replaying it under another identity is worthless.")
    if base.label:
        say(f"label: {base.label}")
    say("")
    out.extend(base.trace)
    return out


def _demo_merkle_split(config: SimConfig) -> list[str]:
    out = []
    say = out.append
    env = ql_setup(128, config.seed_bytes(), sound_mode=config.sound)
    scheme = LamportScheme()
    sk, pk = scheme.key_gen(env.draw_bytes)
    msg, notes = split_denominations(env, scheme, sk, 1024, 3, "mint")
    say(f"One burn message covers 1024 coins split into {len(notes)} notes"
        f" of {notes[0].value} each.")
    say(f"Merkle root: {msg.payload.hex()}")
    ok = all(verify_bridge_note(env, msg, note) for note in notes)
    say(f"All {len(notes)} inclusion paths and bolts verify: {ok}.")
    side, sib = notes[0].path.siblings[0]
    bad = bytes([sib[0] ^ 1]) + sib[1:]
    bad_path = MerklePath(0, ((side, bad),) + notes[0].path.siblings[1:])
    say(f"Flip one sibling byte and the path is rejected:"
        f" {merkle_verify(msg.payload, notes[0].serial, bad_path)}.")
    sizes = []
    for n in (1, 5, 10):   # a one-time key signs one message: a fresh one each
        m, _ = split_denominations(env, scheme, scheme.key_gen(env.draw_bytes)[0],
                                   1024, n, "mint")
        sizes.append(len(m.encode()))
    say(f"Message size for splits into 2, 32, 1024 notes: {sizes};"
        " the footprint does not grow with the note count.")
    ledger = Ledger()
    ledger.add_party("mint:0")
    before = ledger.write_count
    rec = publish_bridge_message(ledger, "mint:0", msg)
    say(f"Publishing on the coin ledger is one write"
        f" (record {rec}, writes used: {ledger.write_count - before}).")
    return out


# demo name -> builder(config) -> output lines, in the order help lists them
_DEMOS = {
    "mint-pay-redeem": _demo_mint_pay_redeem,
    "lost-claim": _demo_lost_claim,
    "challenge": _demo_challenge,
    "attack-i": partial(_attack_lines, "attack-i (steal the challenge proof)",
                        run_attack_i, also_gated=True),
    "attack-ii": partial(_attack_lines, "attack-ii (front-run the redeem)",
                         run_attack_ii, also_gated=True),
    "attack-iii": partial(_attack_lines, "attack-iii (front-run a lost claim)",
                          run_attack_iii, also_gated=False),
    "merkle-split": _demo_merkle_split,
}
DEMOS = tuple(_DEMOS)


def cmd_demo(args) -> int:
    lines = _DEMOS[args.name](_config_from(args, default_n=256))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "games":
            return cmd_games(args)
        return cmd_demo(args)
    except BoltPayError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
