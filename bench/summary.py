"""Run every workload once and print its metrics by name, with units.

    python3 bench/summary.py --seed 1            # end-to-end metrics
    python3 bench/summary.py --seed 1 --trace    # per-layer metrics too

Each workload runs in its own fresh process through run.py, one after
another.  With --trace a second, traced run per workload adds the
per-layer table, and its self-time table goes to stderr.
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

from run import WORKLOADS  # noqa: E402


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_table(results: dict) -> None:
    names = list(next(iter(results.values()))["metrics"])
    width = max(len(n) for n in names) + 2
    print(f"{'metric':<{width}}{'unit':<7}" + "".join(f"{w:>20}" for w in results))
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        row = "".join(f"{r['metrics'][name]['value']:>20.6g}" for r in results.values())
        print(f"{name:<{width}}{unit:<7}{row}")
    print(f"{'jobs attempted/failed':<{width + 7}}" + "".join(
        f"{str(r['attempted']) + '/' + str(r['failed']):>20}" for r in results.values()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    ok = True
    for trace in ((0, 1) if args.trace else (0,)):
        results = {w: run_workload(w, args.seed, args.seconds, trace) for w in WORKLOADS}
        print_table(results)
        print()
        ok = ok and all(r["correct"] for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
