"""Byte-for-byte regression against the golden traces in tests/golden/.

Each shipped scenario is run under every variant and both schedulers,
and each demo once, through ``cli.main`` in-process; the output file must
equal the stored one exactly.  The stored files are the reference: a
change that alters any of them changes observable behaviour.
"""

from pathlib import Path

import pytest

from boltpay import cli

PKG_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = PKG_ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

VARIANTS = ("base", "sig-gated", "commit-reveal")
SCHEDULERS = ("fifo", "reorder:3")

CASES = [
    (f"{sc.stem}.{variant}.{sched.replace(':', '')}.trace",
     ["run", str(sc), "--variant", variant, "--scheduler", sched])
    for sc in sorted(SCENARIOS.glob("*.bolt"))
    for variant in VARIANTS
    for sched in SCHEDULERS
] + [(f"demo.{name}.txt", ["demo", name]) for name in cli.DEMOS]


def test_every_case_has_a_golden_file_and_no_file_is_orphaned():
    assert len(CASES) == 49
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(n for n, _ in CASES)


@pytest.mark.parametrize("name,argv", CASES, ids=[n for n, _ in CASES])
def test_output_matches_golden_trace(name, argv, tmp_path):
    out = tmp_path / name
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
