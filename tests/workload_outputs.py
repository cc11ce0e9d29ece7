"""Print what every benchmark job outputs, one record per line, to diff
two checkouts or two hash seeds.

    python3 tests/workload_outputs.py [--root DIR] > out.txt

The jobs are those of the three workloads in DIR/bench/workloads.py at
the seeds in SEEDS, run once each on the package in DIR/src (DIR
defaults to this checkout).  A record is the workload, seed and job
name, a tab, and a json object: for a command-line job its exit code,
its stdout with the json "seconds" blanked, and its stderr; for a
library call its result's to_json() where it has one, else its fields
as text; for a job that raises, the error.  The records do not depend
on the machine or on the hash seed, so two runs that print different
lines compute different outputs:

    python3 tests/workload_outputs.py --root ../base > base.txt
    python3 tests/workload_outputs.py > head.txt
    diff base.txt head.txt | grep '^[<>]' | cut -c3- | cut -f1 | sort -u
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import sys

SEEDS = (1, 2, 3)
_TIMING = re.compile(r'"seconds": [0-9.e+-]+')


def _as_text(result):
    if isinstance(result, (list, tuple)):
        return [_as_text(x) for x in result]
    if isinstance(result, dict):
        return {str(k): _as_text(v) for k, v in result.items()}
    if hasattr(result, "to_json"):
        return result.to_json()
    if dataclasses.is_dataclass(result):
        return {f.name: str(getattr(result, f.name)) for f in dataclasses.fields(result)}
    return result if isinstance(result, (bool, int, type(None))) else str(result)


def _record(job, cli) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        if job.call is not None:
            return {"result": _as_text(job.call())}
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
        return {"code": code, "stdout": _TIMING.sub('"seconds": 0', out.getvalue()),
                "stderr": err.getvalue()}
    except Exception as exc:  # a raising job is an output too
        return {"error": f"{type(exc).__name__}: {exc}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="checkout whose src/ and bench/ are run (default: this one)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import workloads
    from vermatools import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src") + os.sep):
        parser.error(f"vermatools imported from {cli.__file__}, not from {root}/src")

    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            for job in workloads.make_jobs(name, seed):
                record = _record(job, cli)
                print(f"{name}:{seed}:{job.name}\t{json.dumps(record, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
