"""Line coverage of src/boltpay over a test run, with the standard library.

A pytest plugin, loaded by name with tests/ on the path:

    PYTHONPATH=src:tests python -m pytest -q -p line_coverage

It traces, with sys.settrace, every frame whose code lives in src/boltpay
and records the lines that run.  At the end it takes each module's
executable lines from its code objects' co_lines and fails the run when a
line no test reached is not in ALLOWED, or when an ALLOWED line was
reached after all, so that the list only shrinks.  Only code run in the
pytest process counts: a line reached only in a subprocess is unreached.
Run it over the whole suite; a selection leaves lines unreached.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "boltpay"

# (module, the line's source text, why no test runs it in-process)
ALLOWED = (
    ("cli.py", "sys.exit(main())",
     "the module run as a script; tests/test_cli.py runs it in subprocesses"),
    ("wallet.py",
     'raise MintFailed(f"ledger refused the backing deposit of {value}")',
     "Wallet.mint checks the balance first, so the ledger never refuses"),
)

_reached: dict[str, set[int]] = {}
_tracers: dict[str, object] = {}
_prefix = str(SRC) + "/"


def _line_tracer(hits: set[int]):
    add = hits.add

    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local
    return local


def _trace(frame, event, arg):
    """The global tracer: a 'call' in a src/boltpay file gets its file's
    line tracer; any other frame is not traced."""
    filename = frame.f_code.co_filename
    local = _tracers.get(filename)
    if local is None:
        if not filename.startswith(_prefix):
            return None
        hits = _reached.setdefault(filename, set())
        local = _tracers[filename] = _line_tracer(hits)
    _reached[filename].add(frame.f_lineno)
    return local


def executable_lines(path: Path) -> set[int]:
    """Every line some instruction of the module's code objects maps to."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def unreached() -> tuple[list[str], list[str]]:
    """The unreached lines outside ALLOWED, and the ALLOWED entries that
    were reached or match no unreached line, each as `module:line text`."""
    allowed = {(module, text) for module, text, _ in ALLOWED}
    missing, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        hits = _reached.get(str(path), set())
        for line in sorted(executable_lines(path) - hits):
            text = source[line - 1].strip()
            if (path.name, text) in allowed:
                used.add((path.name, text))
            else:
                missing.append(f"{path.name}:{line} {text}")
    stale = [f"{module}: {text}" for module, text in sorted(allowed - used)]
    return missing, stale


def pytest_configure(config):
    sys.settrace(_trace)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    missing, stale = unreached()
    report = session.config.pluginmanager.get_plugin("terminalreporter")
    write = report.write_line if report else print
    for line in missing:
        write(f"line coverage: unreached {line}")
    for entry in stale:
        write(f"line coverage: allowlisted but reached {entry}")
    if missing or stale:
        session.exitstatus = 1
    else:
        write(f"line coverage: every line of {SRC.name} reached but "
              f"{len(ALLOWED)} allowlisted")
