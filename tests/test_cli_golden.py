"""CLI outputs pinned to a recorded file: every job's exit code, stderr and
``--format json`` report (timing removed) must match tests/data/cli_golden.json.

A change meant to keep outputs unchanged keeps this test passing as is.  A
change meant to alter an output rewrites the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and the diff of the file shows what changed.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from vermatools.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

_HV = ("hv-decide", "--cLI", "1", "--h", "3", "--alpha", "1/3", "--beta", "0")

JOBS = [
    ("singular", "--p", "2", "--symbolic", "hW"),
    ("singular", "--p", "3", "--symbolic", "hW", "--symbolic", "h"),
    ("singular", "--p", "2", "--c", "5", "--hW", "1"),
    ("singular", "--algebra", "hv", "--p", "2", "--case", "I", "--cLI", "1", "--symbolic", "h"),
    ("singular", "--algebra", "hv", "--p", "2", "--case", "L", "--cLI", "1", "--h", "3"),
    ("subsingular", "--c-sym", "--h", "-1/2", "--hW", "0", "--p", "1", "--r", "2"),
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
    ("scan", "--pmax", "2", "--rmax", "2", "--offsets", "1/3,-2"),
]


def outcome(argv) -> dict:
    """Exit code, stderr and json report (timing removed) of one CLI job."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv) + ["--format", "json"])
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        del report["timing"]
    return {"argv": list(argv), "exit": code, "stderr": err.getvalue(), "report": report}


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
