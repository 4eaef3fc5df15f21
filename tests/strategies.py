"""Hypothesis strategies for generated scenario scripts.

A script is a list of lines, each a list of string tokens that
``harness.run_scenario`` would read from one line of a ``.bolt`` file.
Five parties take part; ``THIEF`` is the one the property tests corrupt.
``late_join_script`` is a script with late-join episodes put in.
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


late_join_script = st.tuples(
    script, st.lists(st.tuples(st.integers(0, 35), late_join),
                     min_size=1, max_size=3)).map(lambda p: _put_in(*p))
