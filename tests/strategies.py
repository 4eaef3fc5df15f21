"""Hypothesis strategies for generated scenario scripts.

A script is a list of lines, each a list of string tokens that
``harness.run_scenario`` would read from one line of a ``.bolt`` file.
Five parties take part; ``THIEF`` is the one the property tests corrupt.
``late_join_script`` is a script with late-join episodes put in, and
``late_join_replay_script`` one that also draws the thief's REPLAY lines.
``proof_theft_script`` and ``claim_front_run_script`` put in episodes where
the thief replays what an honest party has just sent.
"""

from hypothesis import strategies as st

PARTIES = ("alice:50", "bob:50", "carol:40", "mallory:60", "zed:0")
THIEF = "mallory:60"

party = st.sampled_from(PARTIES)
ssid = st.integers(1, 6)
ticks = st.one_of(st.integers(0, 12), st.integers(100, 400))
thief_claim = st.tuples(st.sampled_from(["FILECLAIM", "COMMITCLAIM"]),
                        st.just(THIEF), ssid)
# the lines an honest party's wallet or the clock runs
honest_line = st.one_of(
    st.tuples(st.just("MINT"), party, st.integers(1, 30)),
    st.tuples(st.just("PAY"), party, party, ssid),
    st.tuples(st.just("PAY"), party, party, ssid, st.just("reject")),
    st.tuples(st.just("REDEEM"), party, ssid),
    st.tuples(st.just("FILECLAIM"), party, ssid),
    st.tuples(st.just("SETTLE"), party, ssid),
    st.tuples(st.just("WATCHDOG")),
    st.tuples(st.just("WATCHDOG"), party),
    st.tuples(st.just("LOSE"), party, ssid),
    st.tuples(st.just("Tick")),
    st.tuples(st.just("TICK"), ticks),
    st.tuples(st.just("TICK"), ticks),
    st.tuples(st.just("TICK"), ticks),
)
line = st.one_of(
    honest_line,
    thief_claim, thief_claim,
    st.tuples(st.just("COMMITCLAIM"), party, ssid),
    st.tuples(st.just("REVEALCLAIM"), party, ssid),
    st.tuples(st.just("CORRUPT"), party),
    st.tuples(st.just("UNCORRUPT"), party),
    st.tuples(st.just("MOVENOTE"), ssid, party),
    st.tuples(st.just("CLONE"), party, ssid),
)
# REPLAY stays out of line.  At n=2 a sig-gated replay verifies with
# chance 1/4, as the thief's message picks the same bolts as the sender's
# or not, and which it does depends on the parties' names: the renaming
# relation over line would not hold.  For example, under sig-gated,
# reorder:3 and t_tr=2: MINT alice 1 twice, FILECLAIM bob 1, WATCHDOG,
# TICK 3, REPLAY mallory 1, MINT alice 1.  The replay is refused as
# mallory's and paid as max's, mallory's name in the renamed run.
replay = st.tuples(st.just("REPLAY"), st.just(THIEF), ssid)
# a few honest notes first, so that most lines have notes to act on
opening = st.lists(st.tuples(st.just("MINT"), st.sampled_from(PARTIES[:3]),
                             st.integers(1, 20)), min_size=2, max_size=5)


def script_of(lines):
    """Scripts of a few opening notes, then 5 to 30 lines drawn from lines."""
    return st.tuples(opening, st.lists(lines, min_size=5, max_size=30)).map(
        lambda parts: [[str(t) for t in tokens]
                       for tokens in parts[0] + parts[1]])


script = script_of(line)


# a wallet that joins a cohort after its scan fell due and leaves it before
# that cohort's tick: after a TICK longer than the scan intervals the tests
# use (at most 11), it is paid a note (its first, if it held none), pays it
# on and is paid it back, all at one time.  The payer is one of the parties
# the opening notes go to, and the note one of the first three.
late_join = st.tuples(st.integers(12, 60), st.sampled_from(PARTIES[:3]),
                      party, party, st.integers(1, 3)).map(
    lambda t: [["TICK", t[0]], ["PAY", t[1], t[2], t[4]],
               ["PAY", t[2], t[3], t[4]], ["PAY", t[3], t[2], t[4]]])


def _put_in(lines, episodes):
    """lines with each (position, episode) put in at its position, counted
    in lines and clamped to the end."""
    out = list(lines)
    for at, episode in sorted(episodes, key=lambda e: e[0], reverse=True):
        out[at:at] = [[str(t) for t in tokens] for tokens in episode]
    return out


def with_episodes(scripts, episode):
    """Scripts drawn from scripts with one to three episodes drawn from
    episode put in."""
    return st.tuples(scripts, st.lists(st.tuples(st.integers(0, 35), episode),
                                       min_size=1, max_size=3)).map(
        lambda p: _put_in(*p))


late_join_script = with_episodes(script, late_join)
# the same with one line in four a REPLAY
late_join_replay_script = with_episodes(
    script_of(st.one_of(line, line, line, replay)), late_join)

# the thief replays, at once, a proof an honest party has just sent: a
# redeem's, or the challenge a WATCHDOG sends against the thief's own claim
# (the thief's claim is never held, so the scan finds it); nothing is held
# under fifo, so these are for reordering schedulers
opener = st.sampled_from(PARTIES[:3])
proof_theft = st.one_of(
    st.tuples(opener, ssid).map(
        lambda t: [["REDEEM", t[0], t[1]], ["REPLAY", THIEF, t[1]]]),
    ssid.map(lambda s: [["FILECLAIM", THIEF, s], ["WATCHDOG"],
                        ["REPLAY", THIEF, s]]))
# the thief replays an honest lost claim, with its deposit, at once
claim_front_run = st.tuples(opener, ssid).map(
    lambda t: [["FILECLAIM", t[0], t[1]], ["REPLAY", THIEF, t[1]]])
proof_theft_script = with_episodes(late_join_script, proof_theft)
claim_front_run_script = with_episodes(late_join_script, claim_front_run)
