"""Command-line front end: job parsing, dispatch, and report emission.

Every invocation builds a Job, runs it to a Report, and emits the report
in one of three formats.  Reports are deterministic for a given job
(timing aside), and the json form parses back into an equal Report.
`main` builds only the parser of the command it runs (all seven for the
top-level help or a missing or unknown command), and no parser or other
cache outlives one call.

Exit codes: 0 on success, 2 on malformed parameters, a parameter the job
does not read, or a failed precondition, 3 when a decision procedure
returns an Unknown verdict or a computation is refused as beyond its
level budget.
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

# Largest |k| of a power x**k.  A power inside the base of another counts
# with the product of the exponents, so (x**8)**8 is at the bound, and an
# expression stays within MAX_EXPONENT times the size of its text:
# 2**100000 or (hW+1)**k with a large k could exhaust memory or time.
MAX_EXPONENT = 64


def parse_expression(text: str, ctx: PolyContext) -> Scalar:
    """Evaluate an exact rational expression over the job's parameters.

    Accepts integer literals, the declared symbolic names, +, -, *, /,
    and ** with integer exponents up to MAX_EXPONENT in absolute value, a
    negative one written -k; floats are rejected to keep every value
    exact, and True and False are not integers here.
    """
    try:
        node = ast.parse(str(text).strip(), mode="eval").body
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from exc
    return _eval_node(node, ctx)


def _eval_node(node: ast.AST, ctx: PolyContext, budget: int = MAX_EXPONENT) -> Scalar:
    """The value of node; ``budget`` bounds |k| in every power below it."""
    if isinstance(node, ast.Constant):
        if type(node.value) is int:
            return ctx.scalar(node.value)
        raise ValueError(f"only integer literals are exact: {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id in ctx.names:
            return ctx.var(node.id)
        raise ValueError(f"unknown symbol {node.id!r}; declare it with "
                         "--symbolic")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _eval_node(node.operand, ctx, budget)
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BIN_OPS):
        if isinstance(node.op, ast.Pow):
            exp, sign = node.right, 1
            if isinstance(exp, ast.UnaryOp) and isinstance(exp.op, ast.USub):
                exp, sign = exp.operand, -1
            if not (isinstance(exp, ast.Constant) and type(exp.value) is int):
                raise ValueError("exponents must be integer literals")
            if exp.value > budget:
                raise ValueError(f"exponent {sign * exp.value} is out of range: |k| is at "
                                 f"most {MAX_EXPONENT}, multiplied through nested powers")
            return _eval_node(node.left, ctx, budget // max(exp.value, 1)) ** (sign * exp.value)
        left = _eval_node(node.left, ctx, budget)
        right = _eval_node(node.right, ctx, budget)
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
    """Every parameter of one job, and the names the job has read."""

    def __init__(self, parameters: dict, notes: list):
        self.given = {k: v for k, v in parameters.items() if k != "symbolic"}
        self.notes = notes
        self.read: set = set()
        seen = []
        for name in parameters.get("symbolic") or []:
            if name not in _PARAM_ORDER:
                raise ValueError(f"unknown parameter {name!r}")
            if name in seen:
                continue
            seen.append(name)
        if len(seen) > _MAX_SYMBOLIC:
            raise ValueError(f"at most {_MAX_SYMBOLIC} symbolic parameters "
                             f"per job, got {len(seen)}")
        clash = [n for n in seen if self.given.get(n) is not None]
        if clash:
            raise ValueError(f"parameters both symbolic and bound: {clash}")
        self.symbolic = tuple(n for n in _PARAM_ORDER if n in seen)
        self.ctx = PolyContext(self.symbolic)

    def get(self, name: str, default=None):
        """The given value of a parameter, or the default when absent."""
        self.read.add(name)
        value = self.given.get(name)
        return default if value is None else value

    def declared(self, name: str) -> bool:
        """Whether the job binds the parameter or declares it symbolic."""
        return name in self.symbolic or self.given.get(name) is not None

    def levels(self, *names: str) -> list:
        """The named integer parameters; ValueError unless each is at least 1."""
        self.read.update(names)
        values = [int(self.given[name]) for name in names]
        if min(values) < 1:
            what = "a positive integer" if len(names) == 1 else "positive integers"
            raise ValueError(f"{' and '.join(names)} must be {what}")
        return values

    def value(self, name: str) -> Scalar | None:
        """The declared value of a weight or series parameter, or None."""
        if name in self.symbolic:
            self.read.add(name)
            return self.ctx.var(name)
        raw = self.get(name)
        return None if raw is None else parse_expression(raw, self.ctx)

    def unread(self) -> list:
        """The given or symbolic parameters the job never read."""
        return sorted(n for n in {*self.symbolic, *self.given}
                      if n not in self.read and self.declared(n))

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


def _hv_weight(params: _Params, p: int | None = None) -> HighestWeight:
    """Twisted Heisenberg-Virasoro highest weight; without hI, a requested
    p binds hI to the degenerate ratio of the case that --case names."""
    cL = params.default("cL", 0, "cL does not affect this computation")
    cLI = params.require("cLI")
    cI = params.default("cI", 0, "the theory requires cI = 0")
    h = params.default("h", 0, "h defaults to 0")
    hI = params.value("hI")
    if hI is None:
        if p is None:
            raise ValueError("parameter 'hI' is required; pass --hI or "
                             "--symbolic hI")
        case = params.get("case", "I")
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


def _run_singular(job: Job, params: _Params) -> Report:
    algebra = params.get("algebra", "w22")
    [p] = params.levels("p")
    hw = _w22_weight(params, p=p) if algebra == "w22" else _hv_weight(params, p=p)
    M = ModuleContext(hw)
    vectors = verma.singular_space(M, p)
    text = [render.text_vector(v) for v in vectors]
    latex = [render.latex_vector(v) for v in vectors]
    results = {"algebra": algebra, "p": p,
               "vectors": [v.to_json() for v in vectors]}
    rendered = {
        "text": "\n".join(text) if text else "no singular vectors at this level",
        "latex": "\n".join(latex) if latex else "\\emptyset",
    }
    return Report(job, results, rendered=rendered)


def _run_subsingular(job: Job, params: _Params) -> Report:
    p, r = params.levels("p", "r")
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
    algebra = params.get("algebra", "w22")
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


_CHAR_FAMILIES = {"verma": verma.char_verma, "jprime": verma.char_j_prime,
                  "lprime": verma.char_l_prime, "l": verma.char_l, "j": verma.char_j}


def _run_character(job: Job, params: _Params) -> Report:
    family = params.get("family", "verma")
    if family not in _CHAR_FAMILIES:
        raise ValueError(f"family must be one of {tuple(_CHAR_FAMILIES)}")
    n_order = int(params.get("N", 20))
    if n_order < 0:
        raise ValueError("N must be a nonnegative integer")
    if family == "verma":
        # the Verma series reads h alone; c and hW are placeholders
        zero = params.ctx.zero
        h = params.default("h", 0, "h defaults to 0 when omitted")
        hw, levels = HighestWeight.w22(params.ctx, c=zero, h=h, hW=zero), ()
    else:
        names = ("p", "r") if family in ("l", "j") else ("p",)
        for name in names:
            if params.get(name) is None:
                raise ValueError(f"family {family!r} needs --{name}")
        levels = params.levels(*names)
        hw = _w22_weight(params, *levels)
        verma.require_degenerate(hw, *levels)
    series = _CHAR_FAMILIES[family](hw, *levels, n_order)
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
    report = _decision_report(job, results, decision)
    layer = params.get("n")
    if layer is not None:
        wq = tensor.subquotient_weight(hw, s, int(layer))
        results["subquotientWeight"] = wq.to_json()
        weights = sorted(wq.weights.items())
        report.rendered["text"] += f"\nlayer {layer} weight: " + ", ".join(
            f"{k} = {v}" for k, v in weights)
        report.rendered["latex"] += f"\n\\text{{layer {layer} weight}}: " + ",\\ ".join(
            f"{render.latex_param(k)} = {render.latex_scalar(v)}" for k, v in weights)
    return report


def _run_hv_decide(job: Job, params: _Params) -> Report:
    # --p binds hI only when hI is not given, so it is read only then
    p = None
    if not params.declared("hI") and params.get("p") is not None:
        [p] = params.levels("p")
    hw = _hv_weight(params, p=p)
    s = _series(params, with_f=True)
    decision = tensor.decide_tensor_hv(hw, s)
    return _decision_report(job, {"decision": decision.to_json(), "series": s.to_json()},
                            decision)


def _run_scan(job: Job, params: _Params) -> Report:
    p_max, r_max = params.levels("pmax", "rmax")
    text = params.get("offsets")
    pieces = [] if text is None else text.split(",")
    for i, piece in enumerate(pieces, 1):
        if not piece.strip():
            raise ValueError(f"offset {i} of {text!r} is empty")
    offsets = [parse_expression(piece, PolyContext(())).as_fraction() for piece in pieces]
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


def run(job: Job) -> Report:
    """Dispatch a job and attach bindings and timing to the report."""
    if job.command not in _COMMANDS:
        raise ValueError(f"unknown command {job.command!r}")
    runner = _COMMANDS[job.command][2]
    notes: list = []
    params = _Params(job.parameters, notes)
    started = time.perf_counter()
    report = runner(job, params)
    unread = params.unread()
    if unread:
        raise ValueError(f"parameters not read by {job.command}: {', '.join(unread)}")
    report.notes = notes + list(report.notes)
    report.timing = {"seconds": round(time.perf_counter() - started, 6)}
    return report


# ---------------------------------------------------------------------------
# Argument parsing


_FORMATS = ("json", "text", "latex")
_W22, _HV = ("c", "h", "hW"), ("h", "cL", "cLI", "cI", "hI")
_BOTH = _PARAM_ORDER[:7]  # every weight; --algebra picks the ones read


def _add_common(p: argparse.ArgumentParser, names: tuple) -> None:
    p.add_argument("--format", choices=_FORMATS, default="text")
    p.add_argument("--symbolic", action="append", metavar="NAME",
                   help="treat NAME as a formal parameter (up to 3)")
    for name in names:
        p.add_argument(f"--{name}", type=str, help=f"exact value for {name}")


def _add_singular(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algebra", choices=("w22", "hv"))
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--case", choices=("I", "L"),
                   help="degeneracy case that binds hI for the twisted algebra")
    _add_common(p, _BOTH)


def _add_subsingular(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_common(p, _W22)


def _add_classify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algebra", choices=("w22", "hv"))
    _add_common(p, _BOTH)


def _add_character(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=tuple(_CHAR_FAMILIES))
    p.add_argument("--N", type=int, help="truncation order")
    p.add_argument("--p", type=int)
    p.add_argument("--r", type=int)
    _add_common(p, _W22)


def _add_tensor(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, help="also report the layer weight at this index")
    _add_common(p, _W22 + ("alpha", "beta"))


def _add_hv_decide(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, help="bind hI to the degenerate ratio for this p")
    p.add_argument("--case", choices=("I", "L"))
    _add_common(p, _HV + ("alpha", "beta", "F"))


def _add_scan(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--offsets", type=str,
                   help="comma-separated h offsets that must fail")
    p.add_argument("--format", choices=_FORMATS, default="text")


# name: (help text, function that adds its arguments, runner)
_COMMANDS = {
    "singular": ("singular vectors at level p", _add_singular, _run_singular),
    "subsingular": ("the level-rp subsingular vector", _add_subsingular,
                    _run_subsingular),
    "classify": ("submodule structure of a Verma module", _add_classify, _run_classify),
    "character": ("graded dimension series", _add_character, _run_character),
    "tensor": ("irreducibility of a tensor product", _add_tensor, _run_tensor),
    "hv-decide": ("tensor decision for the twisted algebra", _add_hv_decide,
                  _run_hv_decide),
    "scan": ("subsingular existence evidence grid", _add_scan, _run_scan),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command, or of all seven when command is None.

    A one-command parser names every command in its usage line, so its
    errors print the same usage as the full parser's; the full parser
    serves the top-level help and a missing or unknown command.
    """
    parser = argparse.ArgumentParser(
        prog="vermatools", allow_abbrev=False,
        description="Exact singular vectors, characters, and tensor-product "
                    "decisions for two extended Virasoro algebras.")
    names = tuple(_COMMANDS) if command is None else (command,)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments, _ = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text, allow_abbrev=False))
    return parser


def _job_from_args(args: argparse.Namespace) -> Job:
    parameters = {key: value for key, value in sorted(vars(args).items())
                  if key not in ("command", "format") and value is not None}
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
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(_merge_value_flags(argv))
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
