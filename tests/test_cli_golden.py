"""CLI outputs pinned to a recorded file: every job's exit code, stderr,
``--format json`` report (timing removed) and ``--format text`` and
``--format latex`` output must match tests/data/cli_golden.json.

A change meant to keep outputs unchanged keeps this test passing as is.  A
change meant to alter an output rewrites the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and the diff of the file shows what changed.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from vermatools.cli import _build_parser, main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

_HV = ("hv-decide", "--cLI", "1", "--h", "3", "--alpha", "1/3", "--beta", "0")

JOBS = [
    ("singular", "--p", "2", "--symbolic", "hW"),
    ("singular", "--p", "3", "--symbolic", "hW", "--symbolic", "h"),
    ("singular", "--p", "2", "--c", "5", "--hW", "1"),
    ("singular", "--algebra", "hv", "--p", "2", "--case", "I", "--cLI", "1", "--symbolic", "h"),
    ("singular", "--algebra", "hv", "--p", "2", "--case", "L", "--cLI", "1", "--h", "3"),
    ("singular", "--algebra", "hv", "--p", "2", "--case", "L", "--cLI", "1/8", "--symbolic", "h"),
    ("subsingular", "--symbolic", "c", "--h", "-1/2", "--hW", "0", "--p", "1", "--r", "2"),
    ("subsingular", "--symbolic", "hW", "--p", "2", "--r", "2"),
    ("subsingular", "--symbolic", "hW", "--h", "hW+7/3", "--p", "2", "--r", "1"),
    ("subsingular", "--hW", "1", "--p", "3", "--r", "1"),
    ("classify", "--c", "-8", "--h", "13/4", "--hW", "1"),
    ("classify", "--c", "-8", "--h", "5", "--hW", "1"),
    ("classify", "--c", "1", "--h", "0", "--hW", "0"),
    ("classify", "--symbolic", "hW", "--c=-8"),
    ("classify", "--algebra", "hv", "--cLI", "2", "--hI", "6", "--h", "3"),
    ("classify", "--algebra", "hv", "--cLI", "2", "--hI", "0", "--symbolic", "h"),
    ("classify", "--algebra", "hv", "--cLI", "2", "--hI", "3", "--h", "3"),
    ("classify", "--c", "-24", "--hW", "4224", "--h", "0"),
    ("character", "--N", "5"),
    ("character", "--family", "l", "--p", "2", "--r", "1", "--hW", "1", "--N", "8"),
    ("character", "--family", "j", "--p", "2", "--r", "2", "--symbolic", "hW", "--N", "6"),
    ("character", "--family", "lprime", "--p", "3", "--hW", "1"),
    ("tensor", "--c", "-8", "--h", "13/4", "--hW", "1", "--alpha", "1/3", "--beta", "0"),
    ("tensor", "--c", "-8", "--h", "13/4", "--hW", "1", "--alpha", "0", "--beta", "0", "--n", "2"),
    ("tensor", "--c", "-8", "--h", "5", "--hW", "1", "--alpha", "1/3", "--beta", "0"),
    ("tensor", "--c", "5", "--h", "0", "--hW", "1", "--alpha", "1/3", "--beta", "1"),
    ("tensor", "--c", "-8", "--hW", "1", "--alpha", "1/3"),
    *[_HV + ("--p", str(p), "--case", case, "--F", "3")
      for case in ("I", "L") for p in (1, 2, 3, 4)],
    *[_HV + ("--p", str(p), "--case", case, "--symbolic", "F")
      for case, p in (("I", 2), ("I", 3), ("L", 1), ("L", 2))],
    _HV + ("--p", "2", "--case", "L", "--F", "-1/2"),
    _HV + ("--p", "2", "--case", "L", "--F", "0"),
    _HV + ("--hI", "71", "--F", "3"),
    ("hv-decide", "--cL", "1", "--cLI", "2", "--h", "0", "--hI", "6", "--alpha", "1/2",
     "--beta", "0", "--F", "-2"),
    ("hv-decide", "--cLI", "1", "--h", "0", "--hI", "0", "--alpha", "-3", "--beta", "1",
     "--F", "5"),
    *[("classify", "--algebra", "hv", "--cLI", "1", "--hI", hI, "--cI", "1", "--h", h)
      for hI, h in (("0", "3"), ("2", "3"), ("0", "0"))],
    _HV + ("--p", "2", "--case", "L", "--F", "3", "--cI", "1"),
    ("scan", "--pmax", "2", "--rmax", "2", "--offsets", "1/3,-2"),
    ("classify", "--c", "0", "--h", "5", "--hW", "0"),
    ("tensor", "--c", "0", "--h", "5", "--hW", "0", "--alpha", "1/3", "--beta", "0"),
    ("classify", "--c", "-8", "--h", "5", "--hW", "1", "--cLI", "3"),
    ("singular", "--p", "2", "--symbolic", "hW", "--symbolic", "cLI"),
    # flags that bind hI are unread once hI is given, and the Verma series
    # reads neither the levels nor c and hW
    _HV + ("--hI", "3", "--F", "0", "--case", "L"),
    _HV + ("--hI", "5", "--p", "2", "--case", "L", "--F", "3"),
    _HV + ("--F", "3", "--p", "0", "--hI", "3"),
    ("singular", "--algebra", "hv", "--p", "2", "--case", "L", "--hI", "3", "--cLI", "1",
     "--h", "3"),
    ("singular", "--algebra", "w22", "--case", "L", "--p", "2", "--symbolic", "hW"),
    ("singular", "--algebra", "w22", "--p", "2", "--symbolic", "hW", "--cL", "1", "--cI", "0"),
    ("character", "--family", "verma", "--p", "3", "--r", "9", "--N", "3"),
    ("classify", "--c", "1", "--h", "0", "--hW", "1", "--cL", "1"),
    ("tensor", "--c", "-8", "--h", "13/4", "--hW", "1", "--alpha", "1/3", "--beta", "0",
     "--symbolic", "F"),
    # a quotient character or a subsingular vector off its degenerate weight
    ("character", "--family", "l", "--p", "2", "--r", "1", "--c", "7", "--hW", "1", "--h", "0"),
    ("character", "--family", "l", "--c", "1", "--h", "0", "--hW", "0", "--p", "1", "--r", "2"),
    ("subsingular", "--c", "5", "--hW", "1", "--p", "2", "--r", "1"),
    ("scan", "--pmax", "0", "--rmax", "1"),
    # Irreducible tensor products whose witness takes the r >= 2 and p = 1 paths
    ("tensor", "--c", "-8", "--h", "9/4", "--hW", "1", "--alpha", "1/3", "--beta", "2/7"),
    ("tensor", "--c", "-3", "--h", "37/6", "--hW", "1", "--alpha", "2/7", "--beta", "5"),
    ("tensor", "--c", "5", "--h", "-1/2", "--hW", "0", "--alpha", "1/3", "--beta", "0"),
]


def _run(argv, fmt: str) -> tuple:
    """Exit code, stdout and stderr of one CLI job in one format."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv) + ["--format", fmt])
    return code, out.getvalue(), err.getvalue()


def outcome(argv) -> dict:
    """Exit code, stderr, json report (timing removed) and the text and
    latex stdout of one CLI job."""
    code, out, err = _run(argv, "json")
    report = json.loads(out) if out else None
    if report is not None:
        del report["timing"]
    return {"argv": list(argv), "exit": code, "stderr": err, "report": report,
            "text": _run(argv, "text")[1], "latex": _run(argv, "latex")[1]}


def _flags(argv) -> set:
    return {token.split("=")[0] for token in argv if token.startswith("--")}


def test_parser_keeps_no_defaults_and_golden_jobs_use_every_flag():
    """A default would make a flag the user gave indistinguishable from one
    the parser filled in; a flag no golden job passes has no pinned output."""
    parser = _build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if action.dest not in ("help", "format"):
                assert action.default is None, (name, action.option_strings)
        used = set().union(*(_flags(argv) for argv in JOBS if argv[0] == name))
        flags = {flag for action in sub._actions for flag in action.option_strings
                 if flag.startswith("--") and flag not in ("--help", "--format")}
        assert flags <= used, (name, sorted(flags - used))


def _recorded() -> dict:
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_every_job():
    assert set(_recorded()) == set(JOBS)


@pytest.mark.parametrize("argv", JOBS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    assert outcome(argv) == _recorded()[argv]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([outcome(argv) for argv in JOBS], indent=1, sort_keys=True)
                      + "\n")
    sys.exit(0)
