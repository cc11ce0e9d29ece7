"""Determinism self-test: two traced runs of one seed give identical counts.

    python3 bench/selftest.py --seed 1 [--workload tensor-chains ...]

For each workload, runs run.py --trace 1 twice in fresh processes and
compares every counter (calls, counts and maxima written to
.bench_out/, and the count and ratio metrics).  Also checks that
verma.fallbacks equals the number of off-weight subsingular jobs in
exclusion-symbolic and is zero in found-sampled.  Exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import OUT_DIR, WORKLOADS  # noqa: E402


def traced_counts(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")) as fh:
        dumped = json.load(fh)
    counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}
    counts.update({"dump:" + k: v for k, v in dumped["counts"].items()})
    return counts, dumped["jobs"], result["correct"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    failed = False
    for workload in args.workload or WORKLOADS:
        first, jobs, ok1 = traced_counts(workload, args.seed)
        second, _jobs, ok2 = traced_counts(workload, args.seed)
        diffs = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
        status = "identical" if not diffs else f"DIFFER in {diffs}"
        print(f"{workload}: {len(first)} counters {status}")
        failed |= bool(diffs) or not (ok1 and ok2)
        off_weight = sum(name.startswith("subsingular-off") for name in jobs)
        fallbacks = first["verma.fallbacks"]
        if fallbacks != off_weight:
            print(f"{workload}: verma.fallbacks = {fallbacks}, off-weight jobs = {off_weight}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
