"""List the source lines of src/vermatools that no tier-1 test runs.

    python3 tests/line_reach.py [--out FILE] [pytest arguments]

Runs the tier-1 suite in this process through ``pytest.main`` under a
``sys.settrace`` line tracer that records only frames of files in
src/vermatools, then writes each line that holds code and was never
reached, as ``path:line<tab>source``, to FILE (appended) or to stdout.
Extra arguments go to pytest, so ``tests/test_cli.py`` traces one file.
The exit code is pytest's.  Lines run only in another thread or in a
child process, such as a subprocess of a test, count as unreached.
Tracing slows the suite down three to four times (112-117 s against
28-39 s on a 2-core x86 machine, Python 3.11); it needs no coverage package.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vermatools"

_inside: dict = {}   # co_filename -> whether it is a file of PACKAGE
_reached: set = set()  # (co_filename, line)


def _traced(filename: str) -> bool:
    inside = _inside.get(filename)
    if inside is None:
        inside = _inside[filename] = Path(os.path.realpath(filename)).parent == PACKAGE
    return inside


def _line(frame, event, _arg):
    if event == "line":
        _reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, _event, _arg):
    filename = frame.f_code.co_filename
    if not _traced(filename):
        return None
    # a code's first line gets no line event: line 0 of a module's code, say
    _reached.add((filename, frame.f_lineno))
    return _line


class _Retrace:
    """Hypothesis resets the trace function, so each test's setup and call
    install it again before they run."""

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(_call)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        sys.settrace(_call)


def _code_lines(code) -> set:
    """The lines that hold instructions of code and of the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def unreached() -> list:
    """(path relative to the repository, line, source) of every unreached
    line of PACKAGE, by path and line."""
    reached: dict = {}
    for filename, line in _reached:
        reached.setdefault(Path(os.path.realpath(filename)), set()).add(line)
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for line in sorted(_code_lines(compile(source, str(path), "exec"))
                           - reached.get(path, set())):
            rows.append((path.relative_to(ROOT), line, text[line - 1].strip()))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="append the report to this file instead of stdout")
    args, pytest_args = parser.parse_known_args(argv)
    sys.settrace(_call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            *pytest_args], plugins=[_Retrace()])
    finally:
        sys.settrace(None)
    rows = unreached()
    report = [f"Source lines no test runs: {len(rows)}"]
    report += [f"{path}:{line}\t{source}" for path, line, source in rows]
    if args.out is None:
        print("\n".join(report))
    else:
        with open(args.out, "a") as out:
            out.write("\n".join(report) + "\n")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
