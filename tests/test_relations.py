"""Metamorphic relations: related scripts must give related runs.

No second implementation is needed.  Each relation runs a generated
script and a rewritten copy of it, and compares what they leave behind:
the trace, the first error and the ledger digest.

* Time splitting: `TICK k` and k lines of `Tick` are the same time.  It
  guards the jump from one due tick to the next, the cohort moves, and
  the delivery of held messages.
* Reads are pure: a `RetrieveParty`, `RetrieveContract` or
  `RetrieveTransaction` line adds its own trace line and nothing else, and
  leaves the ledger state as it was.
* Renaming: parties renamed by a map that keeps their order and their
  coins give the same trace and error, once each field is mapped back.  It
  guards every walk over the parties that must go in pid order.
* Variant: a script of honest lines runs alike on `base` and `sig-gated`,
  once the `Sig` suffix is dropped from witness names.  It guards against
  an honest path that depends on the variant.
* Seed: seeds 0 and 1 give the same run, once each 16-hex fingerprint is
  masked.  It guards against a branch on random bytes.

The `#` header lines are dropped wherever two configurations are
compared.
"""

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import PARTIES, THIEF, honest_line, party, script, script_of

from boltpay.harness import SimConfig, Simulation, parse_line

# 20 examples a case in tier-1, the soak profile's count under that profile
RELATION_EXAMPLES = (settings().max_examples
                     if settings.get_current_profile_name() == "soak" else 20)

VARIANTS = ["base", "sig-gated", "commit-reveal"]
SCHEDULERS = ["fifo", "reorder:3"]

# coin transfers, so that reads find transactions and held messages of
# both kinds wait in the reorder mempool
transfer = st.tuples(st.just("AddTransaction"), party, party,
                     st.integers(0, 20))
read = st.one_of(
    st.tuples(st.just("RetrieveParty"), party,
              st.sampled_from(PARTIES + ("ghost:1",))),
    st.tuples(st.just("RetrieveContract"), party, st.integers(0, 7)),
    st.tuples(st.just("RetrieveTransaction"), party, st.integers(0, 4)),
)


def insert(lines, extra):
    """lines with each (position, tokens) of extra put in at its position,
    counted in lines and clamped to its end."""
    out = list(lines)
    for at, tokens in sorted(extra, key=lambda e: e[0], reverse=True):
        out.insert(min(at, len(out)), [str(t) for t in tokens])
    return out


scripts = st.tuples(script, st.lists(st.tuples(st.integers(0, 40), transfer),
                                     max_size=4)).map(lambda p: insert(*p))


def run(config: SimConfig, lines, parties=PARTIES, thief=THIEF):
    """Run the lines after the parties join and the thief is corrupted;
    the trace, the first error as text (the run stops there) and the
    ledger digest."""
    sim = Simulation(config)
    for pid in parties:
        sim.add_party(pid)
    sim.corrupt(thief)
    error = None
    for op, *args in lines:
        try:
            _, _, method, values = parse_line(0, [op, *args], set(sim.wallets))
            getattr(sim, method)(*values)
        except Exception as e:  # compared between the two runs
            error = f"{type(e).__name__}: {e}"
            break
    return sim.trace, error, sim.ledger.digest()


def is_read(line: str) -> bool:
    return line.split("\t", 3)[2:3] in (
        ["retrieve-party"], ["retrieve-contract"], ["retrieve-transaction"])


def config_for(variant, scheduler, t_tr):
    return SimConfig(variant=variant, scheduler=scheduler, n=2, d0=5,
                     t_tr=t_tr, t0=3, t1=3)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=RELATION_EXAMPLES)
@given(lines=scripts, t_tr=st.sampled_from([2, 5, 12]))
def test_a_tick_of_k_equals_k_ticks_of_one(variant, scheduler, lines, t_tr):
    split = []
    for tokens in lines:
        if tokens[0] == "TICK":
            split += [["Tick"]] * int(tokens[1])
        else:
            split.append(tokens)
    config = config_for(variant, scheduler, t_tr)
    assert run(config, split) == run(config, lines)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=RELATION_EXAMPLES)
@given(lines=scripts, reads=st.lists(st.tuples(st.integers(0, 40), read),
                                     min_size=1, max_size=8),
       t_tr=st.sampled_from([2, 5, 12]))
def test_reads_add_only_their_own_lines(variant, scheduler, lines, reads, t_tr):
    config = config_for(variant, scheduler, t_tr)
    trace, error, digest = run(config, lines)
    read_trace, read_error, read_digest = run(config, insert(lines, reads))
    own = [ln for ln in read_trace if is_read(ln)]
    assert [ln for ln in read_trace if not is_read(ln)] == trace
    assert (read_error, read_digest) == (error, digest)
    if error is None:   # else the reads after the error never ran
        assert len(own) == len(reads)


# each party renamed, in the same order and with the same coins
RENAME = {"alice:50": "amy:50", "bob:50": "ben:50", "carol:40": "cy:40",
          "mallory:60": "max:60", "zed:0": "zoe:0"}
assert sorted(RENAME) == list(RENAME) == list(PARTIES)
assert sorted(RENAME.values()) == list(RENAME.values())
# a renamed pid back to the original, bare as in a trace field or a script
# token, or quoted as an error message shows it
BACK = {new: old for old, new in RENAME.items()}
BACK.update({repr(new): repr(old) for new, old in BACK.items()})


def mapped(fields, names) -> list[str]:
    return [names.get(f, f) for f in fields]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=RELATION_EXAMPLES)
@given(lines=scripts, t_tr=st.sampled_from([2, 5, 12]))
def test_renaming_the_parties_in_order_renames_the_run(variant, scheduler,
                                                       lines, t_tr):
    config = config_for(variant, scheduler, t_tr)
    trace, error, _ = run(config, lines)
    renamed = [mapped(tokens, RENAME) for tokens in lines]
    r_trace, r_error, _ = run(config, renamed, tuple(RENAME.values()),
                              RENAME[THIEF])
    assert ["\t".join(mapped(ln.split("\t"), BACK)) for ln in r_trace] == trace
    assert (None if r_error is None
            else " ".join(mapped(r_error.split(" "), BACK))) == error


UNSIGNED = {"ChallengeClaimSig": "ChallengeClaim",
            "RecoverCoinsSig": "RecoverCoins"}


def body(trace) -> list[str]:
    """The trace without its header."""
    return [ln for ln in trace if not ln.startswith("#")]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@settings(max_examples=RELATION_EXAMPLES)
@given(lines=script_of(honest_line), t_tr=st.sampled_from([2, 5, 12]))
def test_honest_lines_run_alike_on_base_and_sig_gated(scheduler, lines, t_tr):
    trace, error, _ = run(config_for("base", scheduler, t_tr), lines)
    s_trace, s_error, _ = run(config_for("sig-gated", scheduler, t_tr), lines)
    assert ["\t".join(mapped(ln.split("\t"), UNSIGNED))
            for ln in body(s_trace)] == body(trace)
    assert s_error == error


FINGERPRINT = re.compile("[0-9a-f]{16}")


def masked(trace) -> list[str]:
    """The trace without its header, each 16-hex field masked."""
    return ["\t".join("*" if FINGERPRINT.fullmatch(f) else f
                      for f in ln.split("\t")) for ln in body(trace)]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=RELATION_EXAMPLES)
@given(lines=scripts, t_tr=st.sampled_from([2, 5, 12]))
def test_the_seed_changes_only_the_fingerprints(variant, scheduler, lines,
                                                t_tr):
    config = config_for(variant, scheduler, t_tr)
    trace, error, _ = run(config, lines)
    s_trace, s_error, _ = run(replace(config, seed=1), lines)
    assert masked(s_trace) == masked(trace)
    assert s_error == error
