"""Command-line front end: job parsing, dispatch, and report emission.

Every invocation builds a Job, runs it to a Report, and emits the report
in one of three formats.  Reports are deterministic for a given job
(timing aside), and the json form parses back into an equal Report.

Exit codes: 0 on success, 2 on malformed parameters or a failed
precondition, 3 when a decision procedure returns an Unknown verdict or a
computation is refused as beyond its level budget.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import render, tensor, verma
from .pbw import HighestWeight, ModuleContext
from .scalar import PolyContext, Scalar

_PARAM_ORDER = ("c", "h", "hW", "cL", "cLI", "cI", "hI", "alpha", "beta", "F")
_W22_WEIGHTS = ("c", "h", "hW")
_HV_WEIGHTS = ("cL", "cLI", "h", "hI", "cI")
_MAX_SYMBOLIC = 3


# ---------------------------------------------------------------------------
# Jobs and reports


@dataclass
class Job:
    """A single CLI request: the command plus its parameter map."""

    command: str
    parameters: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"command": self.command, "parameters": dict(self.parameters)}

    @staticmethod
    def from_json(obj: dict) -> "Job":
        return Job(obj["command"], dict(obj["parameters"]))


@dataclass
class Report:
    """Result of running a Job.

    `results` and `notes` are json-ready; `rendered` holds the prepared
    text and latex forms and is not part of the serialization, so a
    report parsed back from json compares equal on job, results, and
    notes (timing varies by construction and is excluded).
    """

    job: Job
    results: dict
    notes: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)
    rendered: dict = field(default_factory=dict)
    exit_code: int = 0

    def to_json(self) -> dict:
        return {"job": self.job.to_json(), "results": self.results,
                "notes": list(self.notes), "timing": dict(self.timing)}

    @staticmethod
    def from_json(obj: dict) -> "Report":
        return Report(job=Job.from_json(obj["job"]), results=obj["results"],
                      notes=list(obj["notes"]), timing=dict(obj["timing"]))

    def __eq__(self, other):
        if not isinstance(other, Report):
            return NotImplemented
        return (self.job == other.job and self.results == other.results
                and self.notes == other.notes)


def emit(report: Report, fmt: str) -> bytes:
    """Serialize a report; json is schema-stable and deterministic."""
    if fmt == "json":
        return (json.dumps(report.to_json(), sort_keys=True, indent=2)
                + "\n").encode()
    if fmt in ("text", "latex"):
        body = report.rendered.get(fmt)
        if body is None:
            raise ValueError(f"report carries no {fmt} rendering")
        return (body + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Exact expression parsing


_BIN_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def parse_expression(text: str, ctx: PolyContext) -> Scalar:
    """Evaluate an exact rational expression over the job's parameters.

    Accepts integer literals, the declared symbolic names, +, -, *, /,
    and ** with integer exponents; floats are rejected to keep every
    value exact.
    """
    try:
        node = ast.parse(str(text).strip(), mode="eval").body
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from exc
    return _eval_node(node, ctx)


def _eval_node(node: ast.AST, ctx: PolyContext) -> Scalar:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return ctx.scalar(node.value)
        raise ValueError(f"only integer literals are exact: {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id in ctx.names:
            return ctx.var(node.id)
        raise ValueError(f"unknown symbol {node.id!r}; declare it with "
                         "--symbolic")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _eval_node(node.operand, ctx)
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BIN_OPS):
        left = _eval_node(node.left, ctx)
        if isinstance(node.op, ast.Pow):
            if not (isinstance(node.right, ast.Constant)
                    and isinstance(node.right.value, int)):
                raise ValueError("exponents must be integer literals")
            return left ** node.right.value
        right = _eval_node(node.right, ctx)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        return left / right
    raise ValueError(f"unsupported expression element {type(node).__name__}")


# ---------------------------------------------------------------------------
# Parameter resolution


class _Params:
    """Collected weight and series parameters for one job."""

    def __init__(self, given: dict, symbolic: list, notes: list):
        self.given = given
        self.notes = notes
        seen = []
        for name in symbolic:
            if name not in _PARAM_ORDER:
                raise ValueError(f"unknown parameter {name!r}")
            if name in seen:
                continue
            seen.append(name)
        if len(seen) > _MAX_SYMBOLIC:
            raise ValueError(f"at most {_MAX_SYMBOLIC} symbolic parameters "
                             f"per job, got {len(seen)}")
        if any(self.given.get(name) is not None for name in seen):
            clash = [n for n in seen if self.given.get(n) is not None]
            raise ValueError(f"parameters both symbolic and bound: {clash}")
        self.symbolic = tuple(n for n in _PARAM_ORDER if n in seen)
        self.ctx = PolyContext(self.symbolic)

    def value(self, name: str) -> Scalar | None:
        """The declared value of a parameter, or None when absent."""
        if name in self.symbolic:
            return self.ctx.var(name)
        raw = self.given.get(name)
        if raw is None:
            return None
        return parse_expression(raw, self.ctx)

    def require(self, name: str) -> Scalar:
        val = self.value(name)
        if val is None:
            raise ValueError(f"parameter {name!r} is required; pass --{name} "
                             f"or --symbolic {name}")
        return val

    def default(self, name: str, value, why: str) -> Scalar:
        """The declared value, or a derived binding recorded in the notes."""
        val = self.value(name)
        if val is not None:
            return val
        bound = self.ctx.scalar(value)
        self.notes.append(f"bound {name} = {bound} ({why})")
        return bound


def _w22_weight(params: _Params, p: int | None = None,
                r: int | None = None) -> HighestWeight:
    """W(2,2) highest weight, deriving degenerate values when omitted."""
    ctx = params.ctx
    if p is not None and p == 1:
        hW = params.default("hW", 0, "degeneracy at p = 1 forces hW = 0")
        c = params.require("c")
    elif p is not None:
        hW = params.require("hW")
        c = params.value("c")
        if c is None:
            c = hW * Fraction(-24, p * p - 1)
            params.notes.append(f"bound c = -24 hW / (p^2 - 1) = {c} "
                                "(degeneracy at p)")
    else:
        hW = params.require("hW")
        c = params.require("c")
    if r is not None:
        h = params.value("h")
        if h is None:
            h = ctx.scalar(verma.necessary_h(p, r, hW))
            params.notes.append(f"bound h = {h} (the necessary value for "
                                f"(p, r) = ({p}, {r}))")
    else:
        h = params.default("h", 0, "h defaults to 0 when omitted")
    return HighestWeight.w22(ctx, c=c, h=h, hW=hW)


def _hv_weight(params: _Params, p: int | None = None,
               case: str = "I") -> HighestWeight:
    """Twisted Heisenberg-Virasoro highest weight, with optional binding
    of hI to the degenerate ratio for a requested p."""
    cL = params.default("cL", 0, "cL does not affect this computation")
    cLI = params.require("cLI")
    cI = params.default("cI", 0, "the theory requires cI = 0")
    h = params.default("h", 0, "h defaults to 0")
    hI = params.value("hI")
    if hI is None:
        if p is None:
            raise ValueError("parameter 'hI' is required; pass --hI or "
                             "--symbolic hI")
        mult = 1 + p if case == "I" else 1 - p
        hI = cLI * mult
        params.notes.append(f"bound hI = {mult} cLI = {hI} "
                            f"(case {case} degeneracy at p = {p})")
    return HighestWeight.hv(ctx=params.ctx, cL=cL, cLI=cLI, h=h, hI=hI, cI=cI)


def _series(params: _Params, with_f: bool) -> tensor.IntermediateSeries:
    alpha = params.require("alpha")
    beta = params.require("beta")
    f = params.default("F", 0, "F defaults to 0") if with_f else params.ctx.zero
    return tensor.IntermediateSeries(alpha, beta, f)


# ---------------------------------------------------------------------------
# Command implementations


def _positive(job: Job, *names: str) -> list:
    """The named integer parameters; ValueError unless each is at least 1."""
    values = [int(job.parameters[name]) for name in names]
    if min(values) < 1:
        what = "a positive integer" if len(names) == 1 else "positive integers"
        raise ValueError(f"{' and '.join(names)} must be {what}")
    return values


def _vector_renderings(vectors):
    text = [render.text_vector(v) for v in vectors]
    latex = [render.latex_vector(v) for v in vectors]
    return text, latex


def _run_singular(job: Job, params: _Params) -> Report:
    algebra = job.parameters.get("algebra", "w22")
    [p] = _positive(job, "p")
    if algebra == "w22":
        hw = _w22_weight(params, p=p)
    else:
        hw = _hv_weight(params, p=p, case=job.parameters.get("case", "I"))
    M = ModuleContext(hw)
    vectors = verma.singular_space(M, p)
    text, latex = _vector_renderings(vectors)
    results = {"algebra": algebra, "p": p,
               "vectors": [v.to_json() for v in vectors]}
    rendered = {
        "text": "\n".join(text) if text else "no singular vectors at this level",
        "latex": "\n".join(latex) if latex else "\\emptyset",
    }
    return Report(job, results, rendered=rendered)


def _run_subsingular(job: Job, params: _Params) -> Report:
    p, r = _positive(job, "p", "r")
    hw = _w22_weight(params, p=p, r=r)
    M = ModuleContext(hw)
    u = verma.subsingular(M, p, r)
    results = {"p": p, "r": r, "found": u is not None,
               "vector": u.to_json() if u is not None else None}
    if u is None:
        rendered = {"text": "no subsingular vector at this weight",
                    "latex": "\\emptyset"}
    else:
        rendered = {"text": render.text_vector(u),
                    "latex": render.latex_vector(u)}
    return Report(job, results, rendered=rendered)


def _run_classify(job: Job, params: _Params) -> Report:
    algebra = job.parameters.get("algebra", "w22")
    hw = _w22_weight(params) if algebra == "w22" else _hv_weight(params)
    rep = verma.classify(ModuleContext(hw))
    results = {"algebra": algebra, "report": rep.to_json()}
    lines = [f"verdict: {rep.verdict}"]
    if rep.p is not None:
        lines.append(f"p = {rep.p}" + (f", r = {rep.r}" if rep.r else ""))
    if rep.case:
        lines.append(f"case: {rep.case}")
    if rep.u_prime is not None:
        lines.append("u' = " + render.text_vector(rep.u_prime))
    if rep.u is not None:
        lines.append("u  = " + render.text_vector(rep.u))
    lines.extend(rep.notes)
    latex = []
    if rep.u_prime is not None:
        latex.append(render.latex_vector(rep.u_prime))
    if rep.u is not None:
        latex.append(render.latex_vector(rep.u))
    rendered = {"text": "\n".join(lines),
                "latex": "\n".join(latex) if latex else "\\emptyset"}
    return Report(job, results, rendered=rendered)


_CHAR_FAMILIES = ("verma", "jprime", "lprime", "l", "j")


def _run_character(job: Job, params: _Params) -> Report:
    family = job.parameters.get("family", "verma")
    if family not in _CHAR_FAMILIES:
        raise ValueError(f"family must be one of {_CHAR_FAMILIES}")
    n_order = int(job.parameters.get("N", 20))
    if n_order < 0:
        raise ValueError("N must be a nonnegative integer")
    if family == "verma":
        ctx = params.ctx
        hw = HighestWeight.w22(
            ctx,
            c=params.default("c", 0, "c does not change the series"),
            h=params.default("h", 0, "h defaults to 0 when omitted"),
            hW=params.default("hW", 0, "hW does not change the series"))
        series = verma.char_verma(hw, n_order)
    else:
        if job.parameters.get("p") is None:
            raise ValueError(f"family {family!r} needs --p")
        if family in ("l", "j"):
            if job.parameters.get("r") is None:
                raise ValueError(f"family {family!r} needs --r")
            p, r = _positive(job, "p", "r")
            hw = _w22_weight(params, p=p, r=r)
            fn = verma.char_l if family == "l" else verma.char_j
            series = fn(hw, p, r, n_order)
        else:
            [p] = _positive(job, "p")
            hw = _w22_weight(params, p=p)
            fn = verma.char_l_prime if family == "lprime" else verma.char_j_prime
            series = fn(hw, p, n_order)
    results = {"family": family, "N": n_order, "series": series.to_json()}
    rendered = {"text": series.text(), "latex": render.latex_character(series)}
    return Report(job, results, rendered=rendered)


def _decision_report(job: Job, results: dict, decision: tensor.TensorDecision) -> Report:
    """Report of a tensor decision: text and LaTeX renderings of the
    verdict and witness, and exit code 3 on an Unknown verdict."""
    lines = [f"verdict: {decision.verdict}"]
    if decision.reason:
        lines.append(f"reason: {decision.reason}")
    if decision.witness is not None:
        lines.append(f"witness: {decision.witness}")
    if decision.p is not None:
        lines.append(f"p = {decision.p}" +
                     (f", r = {decision.r}" if decision.r else ""))
    lines.extend(decision.notes)
    wit = decision.witness
    wit_tex = render.latex_scalar(wit) if isinstance(wit, Scalar) else str(wit)
    rendered = {"text": "\n".join(lines),
                "latex": f"\\text{{{decision.verdict}}}: {wit_tex}"}
    return Report(job, results, rendered=rendered,
                  exit_code=3 if decision.verdict == "Unknown" else 0)


def _run_tensor(job: Job, params: _Params) -> Report:
    hw = _w22_weight(params)
    s = _series(params, with_f=False)
    decision = tensor.decide_tensor(hw, s)
    results = {"decision": decision.to_json(),
               "series": s.to_json()}
    layer = job.parameters.get("n")
    if layer is not None:
        wq = tensor.subquotient_weight(hw, s, int(layer))
        results["subquotientWeight"] = wq.to_json()
    return _decision_report(job, results, decision)


def _run_hv_decide(job: Job, params: _Params) -> Report:
    p = _positive(job, "p")[0] if job.parameters.get("p") is not None else None
    hw = _hv_weight(params, p=p, case=job.parameters.get("case", "I"))
    s = _series(params, with_f=True)
    decision = tensor.decide_tensor_hv(hw, s)
    return _decision_report(job, {"decision": decision.to_json(), "series": s.to_json()},
                            decision)


def _run_scan(job: Job, params: _Params) -> Report:
    p_max = int(job.parameters["pmax"])
    r_max = int(job.parameters["rmax"])
    if p_max < 1 or r_max < 1:
        raise ValueError("pmax and rmax must be positive")
    offsets = []
    raw = job.parameters.get("offsets")
    if raw:
        offsets = [Fraction(piece.strip()) for piece in raw.split(",") if piece.strip()]
    rows = verma.conjecture_scan(p_max, r_max, offsets)
    results = {"pmax": p_max, "rmax": r_max,
               "offsets": [str(d) for d in offsets], "rows": rows}
    headers = ["p", "r", "found", "offsets excluded", "shape", "ok"]
    table = []
    for row in rows:
        table.append([row["p"], row["r"], row["found"],
                      all(row["offsets"].values()) if row["offsets"] else "-",
                      "-" if row["shape_ok"] is None else row["shape_ok"],
                      "pass" if row["ok"] else "FAIL"])
    text_lines = ["  ".join(f"{str(cell):>8}" for cell in line)
                  for line in [headers] + table]
    rendered = {"text": "\n".join(text_lines),
                "latex": render.latex_table(headers, table)}
    return Report(job, results, rendered=rendered)


_RUNNERS = {
    "singular": _run_singular,
    "subsingular": _run_subsingular,
    "classify": _run_classify,
    "character": _run_character,
    "tensor": _run_tensor,
    "hv-decide": _run_hv_decide,
    "scan": _run_scan,
}


def run(job: Job) -> Report:
    """Dispatch a job and attach bindings and timing to the report."""
    runner = _RUNNERS.get(job.command)
    if runner is None:
        raise ValueError(f"unknown command {job.command!r}")
    notes: list = []
    symbolic = job.parameters.get("symbolic", [])
    given = {name: job.parameters.get(name) for name in _PARAM_ORDER}
    params = _Params(given, list(symbolic), notes)
    started = time.perf_counter()
    report = runner(job, params)
    report.notes = notes + list(report.notes)
    report.timing = {"seconds": round(time.perf_counter() - started, 6)}
    return report


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vermatools",
        description="Exact singular vectors, characters, and tensor-product "
                    "decisions for two extended Virasoro algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p_sub, weights=True, series=False):
        p_sub.add_argument("--format", choices=("json", "text", "latex"),
                           default="text")
        p_sub.add_argument("--symbolic", action="append", default=[],
                           metavar="NAME",
                           help="treat NAME as a formal parameter (up to 3)")
        names = list(_PARAM_ORDER if weights else ())
        if not series:
            for skip in ("alpha", "beta", "F"):
                names.remove(skip)
        for name in names:
            p_sub.add_argument(f"--{name}", type=str, default=None,
                               help=f"exact value for {name}")
            p_sub.add_argument(f"--{name}-sym", action="store_true",
                               help=f"shorthand for --symbolic {name}")

    p_sing = sub.add_parser("singular", help="singular vectors at level p")
    p_sing.add_argument("--algebra", choices=("w22", "hv"), default="w22")
    p_sing.add_argument("--p", type=int, required=True)
    p_sing.add_argument("--case", choices=("I", "L"), default="I",
                        help="degeneracy case for the twisted algebra")
    common(p_sing)

    p_sub_ = sub.add_parser("subsingular", help="the level-rp subsingular vector")
    p_sub_.add_argument("--p", type=int, required=True)
    p_sub_.add_argument("--r", type=int, required=True)
    common(p_sub_)

    p_cls = sub.add_parser("classify", help="submodule structure of a Verma module")
    p_cls.add_argument("--algebra", choices=("w22", "hv"), default="w22")
    common(p_cls)

    p_chr = sub.add_parser("character", help="graded dimension series")
    p_chr.add_argument("--family", choices=_CHAR_FAMILIES, default="verma")
    p_chr.add_argument("--N", type=int, default=20, help="truncation order")
    p_chr.add_argument("--p", type=int)
    p_chr.add_argument("--r", type=int)
    common(p_chr)

    p_ten = sub.add_parser("tensor", help="irreducibility of a tensor product")
    p_ten.add_argument("--n", type=int, default=None,
                       help="also report the layer weight at this index")
    common(p_ten, series=True)

    p_hv = sub.add_parser("hv-decide",
                          help="tensor decision for the twisted algebra")
    p_hv.add_argument("--p", type=int, default=None,
                      help="bind hI to the degenerate ratio for this p")
    p_hv.add_argument("--case", choices=("I", "L"), default="I")
    common(p_hv, series=True)

    p_scan = sub.add_parser("scan", help="subsingular existence evidence grid")
    p_scan.add_argument("--pmax", type=int, required=True)
    p_scan.add_argument("--rmax", type=int, required=True)
    p_scan.add_argument("--offsets", type=str, default="",
                        help="comma-separated h offsets that must fail")
    p_scan.add_argument("--format", choices=("json", "text", "latex"),
                        default="text")
    p_scan.add_argument("--symbolic", action="append", default=[])

    return parser


def _job_from_args(args: argparse.Namespace) -> Job:
    parameters: dict = {}
    symbolic = list(args.symbolic)
    for key, value in sorted(vars(args).items()):
        if key in ("command", "format", "symbolic"):
            continue
        if value is None or value is False:
            continue
        if key.endswith("_sym"):
            symbolic.append(key[:-4])
            continue
        parameters[key] = value if isinstance(value, (int, str)) else str(value)
    if symbolic:
        parameters["symbolic"] = symbolic
    return Job(args.command, parameters)


_VALUE_FLAGS = frozenset({f"--{name}" for name in _PARAM_ORDER}
                         | {"--offsets", "--n"})
_LEADING_MINUS_VALUE = re.compile(r"^-[A-Za-z0-9(]")


def _merge_value_flags(argv: list) -> list:
    """Join `--flag -expr` pairs into `--flag=-expr`.

    Exact values like -1/2 or -hW/2 start with a minus sign, which
    argparse would otherwise read as an option name.
    """
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _VALUE_FLAGS and i + 1 < len(argv)
                and _LEADING_MINUS_VALUE.match(argv[i + 1])):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        merged.append(tok)
        i += 1
    return merged


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_value_flags(list(argv)))
    job = _job_from_args(args)
    try:
        report = run(job)
    except verma.OutOfReach as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(emit(report, args.format).decode())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
