"""One set-up of a benchmark run, timed from outside by run.py.

    python3 bench/setup_probe.py <workload> <seed>

Imports the package and the command line, builds the argument parser
and generates the workload's jobs, then exits.
"""

import sys

from run import prepare_imports

prepare_imports()

from vermatools import cli  # noqa: E402

import workloads  # noqa: E402

cli._build_parser()
workloads.make_jobs(sys.argv[1], int(sys.argv[2]))
