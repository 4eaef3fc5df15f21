"""The benchmark's own checks, run at small size.

``bench/run.py --quick`` runs every workload timed and traced and checks
its outputs; ``bench/selftest.py`` plants a fault under each check.  The
tracer patches the package by name, so a rename it depends on fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

PKG_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [["bench/run.py", "--quick"],
                                  ["bench/selftest.py"]],
                         ids=["run-quick", "selftest"])
def test_bench_script_exits_zero(argv):
    r = subprocess.run([sys.executable, *argv], cwd=PKG_ROOT,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stdout[-2000:] + r.stderr[-2000:]
