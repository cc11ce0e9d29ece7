"""The three workloads: seeded job lists with an independent check per job.

A job is either a command line, run in-process through `cli.main`, or a
library call.  The seed picks only inputs (order, output format, offsets,
series parameters, indices); the kinds of jobs and their sizes are fixed
per workload, so the slowest job is the same named job on every seed.
Library calls look their function up on the module at call time, so the
wrappers of a traced run see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from vermatools import tensor, verma
from vermatools.pbw import HighestWeight, ModuleContext
from vermatools.scalar import PolyContext

import checks
import outputs
import reference

FORMATS = ("json", "text", "latex")
# Offsets from the necessary h.  None is a multiple of 1/2, so h never
# lands on the necessary weight of another r.
DELTAS = tuple(Fraction(x) for x in ("1/3", "-1/3", "2/3", "-2/3", "1/4", "-1/4", "3/4", "-3/4"))


@dataclass
class Job:
    name: str
    check: Callable
    argv: list | None = None
    call: Callable | None = None
    repeat: int = 1  # runs per pass; a job's time is the median of its runs


# Runs per pass of a command-line job that takes under a quarter of a
# second.  Its runs are spread over the pass, so their median follows the
# host's average speed rather than one fast or slow stretch of it.
SHORT_REPEAT = 11


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def _cli_check(inner, result: CliResult):
    if result.code != 0:
        return f"exit code {result.code}: {result.stderr.strip()[:200]}"
    try:
        return inner(result.stdout)
    except (outputs.OutputError, KeyError, TypeError, ValueError) as exc:
        return f"unreadable output ({exc}): {result.stdout[:120]!r}"


def _plus(name: str, x: Fraction) -> str:
    return f"{name} + {x}" if x >= 0 else f"{name} - {-x}"


# ---------------------------------------------------------------------------
# found-sampled: the sampled solver succeeds


def _r1_recursive_vector(p: int, symbol: str) -> dict:
    ctx = PolyContext((symbol,))
    x = ctx.var(symbol)
    if p == 1:
        hw = HighestWeight.w22(ctx, c=x, h=0, hW=0)
    else:
        hw = HighestWeight.w22(ctx, c=x * Fraction(-24, p * p - 1),
                               h=verma.necessary_h(p, 1, x), hW=x)
    vec = verma.subsingular_r1_recursive(ModuleContext(hw), p)
    return outputs.json_vector(vec.to_json(), (symbol,))


def _check_found(p, r, symbol, fmt, stdout):
    vecs = outputs.vectors(stdout, fmt, (symbol,), key="vector")
    reason = checks.subsingular_found(vecs, p, r, symbol)
    if reason is None and r == 1:
        reason = checks.same_vector(vecs[0], _r1_recursive_vector(p, symbol), symbol)
        if reason:
            reason = "differs from subsingular_r1_recursive: " + reason
    return reason


def found_sampled(rng: random.Random) -> list:
    points = [(1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (3, 2), (4, 1), (5, 1)]
    rng.shuffle(points)
    jobs = []
    for p, r in points:
        fmt = rng.choice(FORMATS)
        symbol = "c" if p == 1 else "hW"
        argv = ["subsingular", "--p", str(p), "--r", str(r),
                "--symbolic", symbol, "--format", fmt]
        jobs.append(Job(f"subsingular({p},{r})", argv=argv,
                        check=partial(_cli_check, partial(_check_found, p, r, symbol, fmt))))
    return jobs


# ---------------------------------------------------------------------------
# exclusion-symbolic: sampling fails and the symbolic solver decides


def _check_absent(names, fmt, stdout):
    vecs = outputs.vectors(stdout, fmt, names, key="vector")
    return None if not vecs else "found a subsingular vector off the necessary weight"


# json exponent vectors follow the command line's canonical parameter
# order (c, h, hW, cL, cLI, ...), whatever order --symbolic gave.


def _check_w22_singular(p, fmt, stdout):
    vecs = outputs.vectors(stdout, fmt, ("h", "hW"))
    envs = [{"hW": t, "h": s, "c": checks.degenerate_c(p, t)}
            for t, s in zip(checks.POINTS, reversed(checks.POINTS))]
    return checks.singular_vectors(vecs, "w22", p, envs, ((p,), ()),
                                   table=reference.UPRIME[p])


def _check_hv_singular(p, case, fmt, stdout):
    vecs = outputs.vectors(stdout, fmt, ("h", "cLI"))
    envs = [checks.hv_point(p, case, s, t)
            for t, s in zip(checks.POINTS, reversed(checks.POINTS))]
    lead = ((p,), ()) if case == "I" else ((), (p,))
    return checks.singular_vectors(vecs, "hv", p, envs, lead)


def _check_classify_w22(c, h, hW, fmt, stdout):
    rep = outputs.classify_report(stdout, fmt, ())
    verdict, p, r = checks.w22_verdict(c, h, hW)
    if rep["verdict"] not in (None, verdict) or \
            (rep["verdict"] and (rep["p"], rep["r"]) != (p, r)):
        return f"verdict {rep['verdict']} (p={rep['p']}, r={rep['r']}), expected {verdict} (p={p}, r={r})"
    expect_vecs = {"VermaIrreducible": 0, "UprimeOnly": 1, "UprimeAndSubsingular": 2}[verdict]
    if len(rep["vectors"]) != expect_vecs:
        return f"{len(rep['vectors'])} vectors printed, expected {expect_vecs}"
    M = checks.refalg.RefModule("w22", {"c": c, "h": h, "hW": hW})
    nums = [checks.ref_vector(M, checks.numeric(v, {})) for v in rep["vectors"]]
    if nums and not M.is_singular(nums[0]):
        return "u' is not singular"
    if len(nums) == 2 and not checks.refalg.singular_mod_jprime(M, p, nums[1]):
        return "u is not singular modulo J'"
    return None


def _check_classify_hv(p, weights, fmt, stdout):
    rep = outputs.classify_report(stdout, fmt, ())
    if rep["verdict"] not in (None, "UprimeOnly") or rep["p"] not in (None, p):
        return f"verdict {rep['verdict']} at p={rep['p']}, expected UprimeOnly at p={p}"
    return checks.singular_vectors(rep["vectors"], "hv", p, [weights], ((), (p,)))


def _check_character(mask, n, fmt, stdout):
    got = outputs.series_coeffs(stdout, fmt)
    want = checks.char_coeffs(mask, n)
    while want and want[-1] == 0:
        want.pop()
    if fmt == "json":
        while got and got[-1] == 0:
            got.pop()
    return None if got == want else f"series {got[:8]}... differs from {want[:8]}..."


def _check_verdict(expected, fmt, stdout):
    got = outputs.verdict(stdout, fmt)
    return None if got == expected else f"verdict {got}, expected {expected}"


def exclusion_symbolic(rng: random.Random) -> list:
    jobs = []

    def cli(name, argv, inner, repeat=1):
        # formats rotate over the fixed job list, so the seed moves no
        # rendering cost between runs
        fmt = FORMATS[len(jobs) % len(FORMATS)]
        jobs.append(Job(name, argv=argv + ["--format", fmt],
                        check=partial(_cli_check, partial(inner, fmt)), repeat=repeat))

    for p, r in [(1, 5), (1, 6), (2, 2), (3, 1), (4, 1), (2, 3)]:
        # (3, 1), (1, 5) and (2, 2) take under a quarter of a second
        repeat = SHORT_REPEAT if (p, r) in ((3, 1), (1, 5), (2, 2)) else 1
        delta = rng.choice(DELTAS)
        if p == 1:
            argv = ["--symbolic", "c", f"--h={checks.necessary_h(1, r, 0) + delta}"]
            names = ("c",)
        else:
            argv = ["--symbolic", "hW", f"--h={_plus('hW', checks.necessary_h(p, r, 0) + delta)}"]
            names = ("hW",)
        cli(f"subsingular-off({p},{r})",
            ["subsingular", "--p", str(p), "--r", str(r)] + argv,
            partial(_check_absent, names), repeat=repeat)
    for p in (4, 5):
        cli(f"singular-2param(p={p})",
            ["singular", "--p", str(p), "--symbolic", "hW", "--symbolic", "h"],
            partial(_check_w22_singular, p))
    for p in (3, 4):
        for case in ("I", "L"):
            cli(f"singular-hv(p={p},{case})",
                ["singular", "--algebra", "hv", "--p", str(p), "--case", case,
                 "--symbolic", "h", "--symbolic", "cLI"],
                partial(_check_hv_singular, p, case), repeat=SHORT_REPEAT)
    cli("subsingular-2param(2,2)",
        ["subsingular", "--p", "2", "--r", "2", "--symbolic", "hW", "--symbolic", "h"],
        partial(_check_absent, ("h", "hW")))

    # short jobs: command-line parsing and rendering dominate; the levels
    # are fixed and the seed draws values only
    hW = rng.choice((Fraction(1), Fraction(2), Fraction(3), Fraction(-1)))
    c, h = checks.degenerate_c(2, hW), checks.necessary_h(2, 2, hW)
    cli("classify-w22", ["classify", f"--c={c}", f"--h={h}", f"--hW={hW}"],
        partial(_check_classify_w22, c, h, hW), repeat=SHORT_REPEAT)
    cLI = rng.choice((Fraction(1), Fraction(2), Fraction(3)))
    hv_h = rng.choice((Fraction(3), Fraction(1, 2), Fraction(-2)))
    weights = checks.hv_point(3, "L", hv_h, cLI)
    cli("classify-hv", ["classify", "--algebra", "hv", f"--cLI={cLI}",
                        f"--hI={weights['hI']}", f"--h={hv_h}"],
        partial(_check_classify_hv, 3, weights), repeat=SHORT_REPEAT)
    # mask (1 - q^2)(1 - q^4): the irreducible quotient at (p, r) = (2, 2)
    cli("character-l", ["character", "--family", "l", "--p", "2", "--r", "2",
                        "--symbolic", "hW", "--N", "20"],
        partial(_check_character, {0: 1, 2: -1, 4: -1, 6: 1}, 20), repeat=SHORT_REPEAT)
    alpha = rng.choice((Fraction(0), Fraction(1, 2), Fraction(1, 3)))
    beta = rng.choice((Fraction(0), Fraction(1, 2), Fraction(1)))
    w = checks.hv_point(3, "L", Fraction(3), Fraction(2))
    expected = checks.hv_verdict_at_zero_f(w["h"], w["hI"], w["cLI"], alpha, beta)
    cli("hv-decide", ["hv-decide", "--cLI=2", f"--hI={w['hI']}", "--h=3",
                      f"--alpha={alpha}", f"--beta={beta}"],
        partial(_check_verdict, expected), repeat=SHORT_REPEAT)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# tensor-chains: library calls on numeric weights, hot PBW memos


def _w22(c, h, hW):
    return HighestWeight.w22(PolyContext(()), c=c, h=h, hW=hW)


def _degenerate(p: int, r: int):
    hW = Fraction(-(p * p - 1), 24)
    return (1, checks.necessary_h(p, r, hW), hW)


# name -> (weight (c, h, hW), (p, r) of its subsingular vector or None)
TENSOR_WEIGHTS = {
    "sub21": (_degenerate(2, 1), (2, 1)),
    "sub31": (_degenerate(3, 1), (3, 1)),
    "sub22": (_degenerate(2, 2), (2, 2)),
    "irr": ((1, 3, 5), None),
    "vacuum": ((1, 0, 0), (1, 1)),
}
ALPHAS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
BETAS = (Fraction(0), Fraction(1, 2), Fraction(1))
TENSOR_REPEAT = 3


def _series(alpha, beta, F=0):
    return tensor.IntermediateSeries.make(PolyContext(()), alpha, beta, F)


def _cyclicity(weight, alpha, beta, n, depth, quotient):
    return tensor.cyclicity_check(_w22(*weight), _series(alpha, beta), n, depth,
                                  quotient=quotient)


def _check_bool(expected, result):
    return None if result is expected else f"returned {result}, expected {expected}"


def _decide(weight, alpha, beta):
    return tensor.decide_tensor(_w22(*weight), _series(alpha, beta))


def _check_decision(pr, alpha, beta, d):
    verdict, reason, witness = checks.tensor_decision_expected(pr, alpha, beta)
    if (d.verdict, d.reason) != (verdict, reason):
        return f"{d.verdict}/{d.reason}, expected {verdict}/{reason}"
    if witness is not None and d.witness != witness:
        return f"split index {d.witness}, expected {witness}"
    if verdict == "Irreducible":
        p, r = pr
        want = checks.elimination_product(0, p, r, alpha, beta)
        if d.witness.as_fraction() != want:
            return f"witness {d.witness}, expected the product {want}"
    return None


def _free_dims(weight, alpha, n, level):
    return tensor.subquotient_free_dims(_w22(*weight), _series(alpha, 0), n, level)


def _check_free(level, dims):
    want = {k: checks.refalg.pair_count(k) for k in range(1, level + 1)}
    return None if dims == want else f"layer dimensions {dims}, expected {want}"


def _hv_weight(p, case):
    mult = 1 + p if case == "I" else 1 - p
    return HighestWeight.hv(PolyContext(()), cL=1, cLI=2, h=3, hI=2 * mult, cI=0)


def _hv_cert(p, case, alpha):
    return tensor.hv_decision_polynomials(_hv_weight(p, case), _series(alpha, 0, 1), p)


def _check_cert(p, case, cert):
    if cert.case != case or cert.p != p:
        return f"certificate for case {cert.case} at p={cert.p}"
    if case == "I":
        degs = (checks.poly_degree(cert.s_poly, "F"),)
        want = (p - 1,)
    else:
        degs = (checks.poly_degree(cert.q_poly, "F"), checks.poly_degree(cert.r_poly, "F"))
        want = (p - 1, p)
    return None if degs == want else f"F-degrees {degs}, expected {want}"


def _hv_decide(p, case, alpha, beta):
    return tensor.decide_tensor_hv(_hv_weight(p, case), _series(alpha, beta, 0))


def _check_hv_decide(p, case, alpha, beta, d):
    mult = 1 + p if case == "I" else 1 - p
    want = checks.hv_verdict_at_zero_f(Fraction(3), Fraction(2 * mult), Fraction(2),
                                       alpha, beta)
    return None if d.verdict == want else f"verdict {d.verdict}, expected {want}"


def _run_all(calls):
    return [call() for call in calls]


def _check_all(labels, item_checks, results):
    for label, check, result in zip(labels, item_checks, results):
        reason = check(result)
        if reason is not None:
            return f"{label}: {reason}"
    return None


def _batch_job(name, items):
    """One job running several (label, call, check) items in turn."""
    labels, calls, item_checks = zip(*items)
    return Job(name, call=partial(_run_all, calls),
               check=partial(_check_all, labels, item_checks))


def tensor_chains(rng: random.Random) -> list:
    jobs = []

    def pick_series():
        return rng.choice(ALPHAS), rng.choice(BETAS)

    def pick_index(pr, alpha, beta):
        """A break index of the elimination product, or a generic one; never
        the excluded target."""
        excl = checks.excluded_index(alpha, beta)
        cands = list(range(-3, 4))
        t = alpha + (1 - pr[0]) * beta if pr else None
        if t is not None and t.denominator == 1:
            cands += [1 - pr[0] - int(t)] * 4
        cands = [n for n in cands if excl is None or n - 1 != excl]
        return rng.choice(cands)

    def cyclicity(name, depth, quotient):
        weight, pr = TENSOR_WEIGHTS[name]
        alpha, beta = pick_series()
        n = pick_index(pr, alpha, beta)
        expected = checks.cyclic_expected(pr, n, alpha, beta, quotient)
        return (f"{name},d={depth},{quotient}",
                partial(_cyclicity, weight, alpha, beta, n, depth, quotient),
                partial(_check_bool, expected))

    for name in ("sub21", "sub31", "sub22"):
        label, call, check = cyclicity(name, 8, "auto")
        jobs.append(Job(f"cyclicity({label})", call=call, check=check))
    # The depth-6 chains take tens of milliseconds each; like the
    # decision tables below, each family runs as one job, as a script
    # deciding a whole table would.
    jobs.append(_batch_job("cyclicity(depth 6 table)", [
        cyclicity("irr", 6, "auto"), cyclicity("vacuum", 6, "auto"),
        cyclicity("sub21", 6, "verma"), cyclicity("sub31", 6, "verma"),
        cyclicity("sub22", 6, "verma")]))
    items = []
    for name, (weight, pr) in TENSOR_WEIGHTS.items():
        alpha, beta = pick_series()
        items.append((name, partial(_decide, weight, alpha, beta),
                      partial(_check_decision, pr, alpha, beta)))
    jobs.append(_batch_job("decide_tensor(5 weights)", items))
    for level in (5, 6):
        alpha = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)))
        n = rng.choice((0, 1, 2))
        jobs.append(Job(f"free_dims(level={level})",
                        call=partial(_free_dims, TENSOR_WEIGHTS["sub21"][0], alpha, n, level),
                        check=partial(_check_free, level)))
    certs, decisions = [], []
    for p in (1, 2, 3, 4):
        for case in ("I", "L"):
            alpha, beta = pick_series()
            certs.append((f"p={p},{case}", partial(_hv_cert, p, case, alpha),
                          partial(_check_cert, p, case)))
            decisions.append((f"p={p},{case}", partial(_hv_decide, p, case, alpha, beta),
                              partial(_check_hv_decide, p, case, alpha, beta)))
    jobs.append(_batch_job("hv_decision_polynomials(p<=4)", certs))
    jobs.append(_batch_job("decide_tensor_hv(p<=4)", decisions))
    # Every job after the three depth-8 chains takes under half a second;
    # these run TENSOR_REPEAT times per pass, so the median job's time is
    # a median of many runs.
    for job in jobs[3:]:
        job.repeat = TENSOR_REPEAT
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "found-sampled": found_sampled,
    "exclusion-symbolic": exclusion_symbolic,
    "tensor-chains": tensor_chains,
}


def make_jobs(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
