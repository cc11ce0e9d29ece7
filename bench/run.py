"""vermatools benchmark: one workload, one seed, one fresh process.

    python3 bench/run.py --workload found-sampled --seed 1 --seconds 30 --trace 0

Jobs run one after another in this process (a closed loop with one
client and no threads), through `cli.main(argv)` or a library call.
Every lru_cache of the package is cleared before each job, because a
command-line user pays them on every invocation.  A pass runs the
seeded job list once; a run makes as many passes as fit in --seconds at
the workload's nominal pass time (at least one), so every run of a
workload makes the same number.  Each output goes through an
independent check after its pass; an error, a wrong exit code or a
timeout is a failed job.

With --trace 0 the last stdout line reports the end-to-end metrics:
setup_s (median of fresh processes that import the package, build the
parser and generate the jobs), wall_s (first job start to last job end,
median over passes), job_s.p50 and job_s.max (median and maximum over
jobs of each job's median time over all its runs), peak_rss_mib and
ok_ratio.  Medians rather than the fastest run, because a shared host
switches between fast and slow stretches: the fastest of a few short
runs depends on whether one of them hit a fast stretch, while a median
of runs spread over the pass follows the host's average speed.  wall_s
and job_s.* are in reference seconds (unit ref_s): measured seconds
scaled by the host's speed over the run, sampled between jobs with a
fixed piece of reference work (see calibration.py).  The measured
seconds and the scale are printed on the line above the result.
With --trace 1 the run makes one untraced pass and one traced pass, each
running every job once, and reports the per-layer metrics of the traced
one; spans and counters go to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("found-sampled", "exclusion-symbolic", "tensor-chains")
# Seconds of one pass on a reference 2-core box; a run makes
# max(1, seconds // pass) passes, so the pass count is the same on every run.
NOMINAL_PASS_S = {"found-sampled": 15.0, "exclusion-symbolic": 18.0, "tensor-chains": 9.5}
JOB_TIMEOUT_S = 60
RUN_BUDGET_S = 150  # no job starts later than this, so a run ends within 180 s
SETUP_PROBES = 9


class JobTimeout(BaseException):
    """Raised in the job when it exceeds JOB_TIMEOUT_S."""


def _on_alarm(_signum, _frame):
    raise JobTimeout()


def prepare_imports() -> None:
    """Import the package from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "vermatools", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    os.environ.pop("VERMATOOLS_WORKERS", None)
    sys.path.insert(0, SRC)
    import vermatools
    if not os.path.abspath(vermatools.__file__).startswith(SRC + os.sep):
        print(f"error: vermatools imported from {vermatools.__file__}", file=sys.stderr)
        sys.exit(2)


def package_caches() -> list:
    """Every lru_cache-wrapped function defined in the package."""
    found = []
    for name, mod in sorted(sys.modules.items()):
        if name == "vermatools" or name.startswith("vermatools."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear") and obj not in found:
                    found.append(obj)
    return found


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that do the run's set-up and exit."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, probe, workload, str(seed)],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-300:]}")
    return statistics.median(times)


def execute(job, deadline):
    """Run one job; returns (result or exception, seconds)."""
    from vermatools import cli
    import workloads

    limit = min(JOB_TIMEOUT_S, deadline - time.monotonic())
    if limit <= 0:
        return TimeoutError("run budget exhausted before the job started"), 0.0

    def call():
        if job.call is not None:
            return job.call()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
        return workloads.CliResult(code, out.getvalue(), err.getvalue())

    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        result = call()
    except JobTimeout:
        result = TimeoutError(f"over {limit:.0f} s")
    except Exception as exc:  # any error is a failed job, reported below
        result = exc
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, elapsed


_TIMING = re.compile(r'"seconds": [0-9.e+-]+')


def _output_key(result):
    """What must repeat between passes for a check verdict to be reused."""
    stdout = getattr(result, "stdout", None)
    if stdout is None:
        return None
    return (result.code, _TIMING.sub("", stdout))


def schedule(jobs, repeat: bool) -> list:
    """Job indices of one pass.  The extra runs of a repeated job are
    spread evenly over the pass, so that its median run is not taken
    inside one fast or slow stretch of the host."""
    order = list(range(len(jobs)))
    rounds = max(job.repeat for job in jobs) - 1 if repeat else 0
    for k in range(rounds, 0, -1):
        extra = [i for i, job in enumerate(jobs) if job.repeat > k]
        at = k * len(jobs) // (rounds + 1)
        order[at:at] = extra
    return order


def run_pass(jobs, caches, deadline, repeat=True, tracer=None, speed=None):
    """Run one pass; returns (wall seconds, [(job, seconds)], [(job, result)]).
    With `speed`, the host speed is sampled between jobs, and the time the
    samples take is left out of the pass's wall time."""
    results, times = [], []
    start = time.perf_counter()
    sampling = 0.0
    for i in schedule(jobs, repeat):
        job = jobs[i]
        if speed is not None:
            t0 = time.perf_counter()
            speed.sample()
            sampling += time.perf_counter() - t0
        for fn in caches:
            fn.cache_clear()
        if tracer is None:
            result, elapsed = execute(job, deadline)
        else:
            tracer.enabled = True
            result, elapsed = tracer.run_job(i, lambda: execute(job, deadline))
            tracer.enabled = False
        results.append((i, result))
        times.append((i, elapsed))
    wall = time.perf_counter() - start - sampling
    if speed is not None:
        speed.sample(force=True)
    return wall, times, results


def check_pass(jobs, results, verdicts: dict) -> list:
    """Failure reasons of one pass, one entry per failed job."""
    failures = []
    for i, result in results:
        job = jobs[i]
        if isinstance(result, BaseException):
            reason = f"{type(result).__name__}: {result}"
        else:
            key = _output_key(result)
            cached = verdicts.get(i)
            if key is not None and cached is not None and cached[0] == key:
                reason = cached[1]
            else:
                try:
                    reason = job.check(result)
                except Exception as exc:  # a crashing check is a failed job
                    reason = f"check raised {type(exc).__name__}: {exc}"
                verdicts[i] = (key, reason)
        if reason is not None:
            failures.append(f"{job.name}: {reason}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare_imports()
    import calibration
    import tracing
    import workloads

    setup_s = measure_setup(args.workload, args.seed)
    jobs = workloads.make_jobs(args.workload, args.seed)
    caches = package_caches()
    signal.signal(signal.SIGALRM, _on_alarm)

    walls, per_job, failures, verdicts = [], [[] for _ in jobs], [], {}
    deadline = time.monotonic() + RUN_BUDGET_S
    passes = 1 if args.trace else max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))
    speed = None if args.trace else calibration.HostSpeed()
    if speed is not None:
        speed.sample(force=True)
    for _ in range(passes):
        wall, times, results = run_pass(jobs, caches, deadline, repeat=not args.trace,
                                        speed=speed)
        failures += check_pass(jobs, results, verdicts)
        walls.append(wall)
        for i, t in times:
            per_job[i].append(t)
    attempted = sum(len(t) for t in per_job)

    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
        try:
            traced_wall, _times, results = run_pass(jobs, caches, deadline, repeat=False,
                                                    tracer=tr)
        finally:
            tr.uninstall()
        failures += check_pass(jobs, results, verdicts)
        attempted += len(results)
        metrics = tracing.layer_metrics(tr)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - walls[0], "s")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracing.dump(tr, path, [j.name for j in jobs],
                     {"workload": args.workload, "seed": args.seed,
                      "untraced_wall_s": walls[0], "traced_wall_s": traced_wall})
        print(tracing.self_time_table(tr, args.workload), file=sys.stderr)
        print(f"spans and counters written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    else:
        typical = [statistics.median(t) for t in per_job]
        slowest = max(range(len(jobs)), key=lambda i: typical[i])
        measured = {"wall_s": statistics.median(walls),
                    "job_s.p50": statistics.median(typical),
                    "job_s.max": typical[slowest]}
        scale = speed.scale()
        metrics = {
            "setup_s": (setup_s, "s"),
            **{name: (t * scale, "ref_s") for name, t in measured.items()},
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
        }
        for job, t in sorted(zip(jobs, typical), key=lambda jt: jt[1]):
            print(f"  {t:9.4f} s  {job.name}", file=sys.stderr)
        print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs x {passes} passes; "
              f"slowest job {jobs[slowest].name} ({typical[slowest]:.3f} s)")
        print("measured s: " + ", ".join(f"{k} {v:.4f}" for k, v in measured.items()) +
              f"; host speed x{scale:.4f} from {len(speed.samples)} reference samples")
    for reason in failures:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
