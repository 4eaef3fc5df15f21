"""Hypothesis strategies for generated scenario scripts.

A script is a list of lines, each a list of string tokens that
``harness.run_scenario`` would read from one line of a ``.bolt`` file.
Five parties take part; ``THIEF`` is the one the property tests corrupt.
"""

from hypothesis import strategies as st

PARTIES = ("alice:50", "bob:50", "carol:40", "mallory:60", "zed:0")
THIEF = "mallory:60"

party = st.sampled_from(PARTIES)
ssid = st.integers(1, 6)
ticks = st.one_of(st.integers(0, 12), st.integers(100, 400))
thief_claim = st.tuples(st.sampled_from(["FILECLAIM", "COMMITCLAIM"]),
                        st.just(THIEF), ssid)
line = st.one_of(
    st.tuples(st.just("MINT"), party, st.integers(1, 30)),
    st.tuples(st.just("PAY"), party, party, ssid),
    st.tuples(st.just("PAY"), party, party, ssid, st.just("reject")),
    st.tuples(st.just("REDEEM"), party, ssid),
    st.tuples(st.just("FILECLAIM"), party, ssid),
    thief_claim, thief_claim,
    st.tuples(st.just("SETTLE"), party, ssid),
    st.tuples(st.just("COMMITCLAIM"), party, ssid),
    st.tuples(st.just("REVEALCLAIM"), party, ssid),
    st.tuples(st.just("WATCHDOG")),
    st.tuples(st.just("WATCHDOG"), party),
    st.tuples(st.just("CORRUPT"), party),
    st.tuples(st.just("UNCORRUPT"), party),
    st.tuples(st.just("MOVENOTE"), ssid, party),
    st.tuples(st.just("LOSE"), party, ssid),
    st.tuples(st.just("CLONE"), party, ssid),
    st.tuples(st.just("Tick")),
    st.tuples(st.just("TICK"), ticks),
    st.tuples(st.just("TICK"), ticks),
    st.tuples(st.just("TICK"), ticks),
)
# a few honest notes first, so that most lines have notes to act on
opening = st.lists(st.tuples(st.just("MINT"), st.sampled_from(PARTIES[:3]),
                             st.integers(1, 20)), min_size=2, max_size=5)
script = st.tuples(opening, st.lists(line, min_size=5, max_size=30)).map(
    lambda parts: [[str(t) for t in tokens] for tokens in parts[0] + parts[1]])
